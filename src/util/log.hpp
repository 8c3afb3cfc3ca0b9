// Lightweight leveled logging used across the safe-adaptation libraries.
//
// The logger is intentionally minimal: a global level, a pluggable sink, and
// printf-free formatting via operator<< streaming.  Benchmarks set the level
// to Off so that logging cost never pollutes measurements; protocol tests
// install a capturing sink to assert on emitted traces.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace sa::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Returns the printable name of a level ("TRACE", "DEBUG", ...).
std::string_view to_string(LogLevel level);

/// Global minimum level; messages below it are discarded before formatting.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Sink invoked for every emitted record. Defaults to stderr.
using LogSink = std::function<void(LogLevel, std::string_view component, std::string_view message)>;
void set_log_sink(LogSink sink);
void reset_log_sink();

namespace detail {
void emit(LogLevel level, std::string_view component, std::string_view message);
}

/// True when a record at `level` would be emitted.
inline bool log_enabled(LogLevel level) { return level >= log_level(); }

/// Streaming log record: `LogRecord(LogLevel::Info, "manager") << "x=" << x;`
/// The message is emitted when the record goes out of scope. Construct
/// records through the SA_* macros below, which build one only when its
/// level is enabled.
class LogRecord {
 public:
  LogRecord(LogLevel level, std::string_view component) : level_(level), component_(component) {}
  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;
  ~LogRecord() { detail::emit(level_, component_, stream_.str()); }

  template <typename T>
  LogRecord& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;  ///< borrowed: callers pass literals
  std::ostringstream stream_;
};

/// Turns a streamed record into void so that both arms of the SA_LOG
/// conditional have one type. `&` binds looser than `<<` and tighter than
/// `?:`, so the whole `<<` chain lands in the enabled arm.
struct LogVoidify {
  void operator&(const LogRecord&) const {}
};

}  // namespace sa::util

/// A disabled record does no work at all: the level test short-circuits the
/// whole statement, so streamed operands are not even evaluated and
/// `SA_DEBUG(...) << describe()` costs one load and a branch when debug
/// logging is off. bench_protocol guards this with BM_DisabledLogging.
#define SA_LOG(level, component)                           \
  !::sa::util::log_enabled(level) ? static_cast<void>(0) \
                                  : ::sa::util::LogVoidify() & ::sa::util::LogRecord(level, component)
#define SA_TRACE(component) SA_LOG(::sa::util::LogLevel::Trace, component)
#define SA_DEBUG(component) SA_LOG(::sa::util::LogLevel::Debug, component)
#define SA_INFO(component) SA_LOG(::sa::util::LogLevel::Info, component)
#define SA_WARN(component) SA_LOG(::sa::util::LogLevel::Warn, component)
#define SA_ERROR(component) SA_LOG(::sa::util::LogLevel::Error, component)
