// Measurement harness shared by the perfbench workloads: wall-clock helpers,
// order statistics, the result record each workload fills in, and the span
// tracer behind the traced (--trace 1) run.
//
// Spans are recorded by the benchmark's own decorators and call sites, never
// inside the library: each span is (layer, begin, end) on a track — a real
// thread, or a synthetic track for intervals that belong to no thread, such
// as a message in flight between send() returning and the handler starting.
// Spans stay in per-track memory buffers while the workload runs and are
// merged once at the end, where split() partitions each root span's wall
// time over the layers active inside it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls `fn` repeatedly for about `seconds` (at least `min_reps` times) and
/// returns the mean wall time per call in nanoseconds.
template <typename Fn>
double time_per_call_ns(double seconds, std::size_t min_reps, Fn&& fn) {
  const std::int64_t begin = now_ns();
  const std::int64_t deadline = begin + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t reps = 0;
  while (reps < min_reps || now_ns() < deadline) {
    fn();
    ++reps;
  }
  return static_cast<double>(now_ns() - begin) / static_cast<double>(reps);
}

// --- host speed -----------------------------------------------------------------
//
// The shared host runs the same code at speeds up to 1.5x apart, in states
// that last from seconds to minutes, and allocation-heavy code slows most.
// No loop inside one run can average out a state that outlasts the run, so
// the timed loops of fleet and check-pair run a fixed piece of reference
// work of the benchmark's own (not the program's) beside their operations
// and scale their times to a host on which one unit of that work takes
// kReferenceUnitNs. The reference work allocates as the library does
// (std::map nodes with heap-allocated string keys, malloc/free of mixed
// sizes), the kind of code whose speed follows the host's state (see
// README.md, Steadiness). A change to the program leaves the reference work
// as it is, so it shows in full in the scaled figures.

/// Nominal wall time of one unit of reference work; about its median on the
/// 4-vCPU development VM, so scaled figures read close to raw ones there.
constexpr double kReferenceUnitNs = 20'000;

/// Runs `units` units of reference work and returns its wall time in ns.
double reference_ns(std::size_t units);

/// Units of reference work to run beside `busy_ns` of measured work: about
/// a tenth of it, at least one unit.
std::size_t reference_units(double busy_ns);

/// Set-up time, scaled to reference host speed: calls `fn` back to back for
/// `blocks` blocks of about `block_seconds` each, runs reference work after
/// each block, and returns the median over blocks of the mean of what `fn`
/// returns (its own measured time) times the block's host-speed factor. The
/// host's speed also swings by up to half within tens of milliseconds; a
/// block mean spans many swings, as a long timed operation does, and the
/// median drops a block hit by a stall.
template <typename Fn>
double median_block_mean(int blocks, double block_seconds, Fn&& fn);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

template <typename Fn>
double median_block_mean(int blocks, double block_seconds, Fn&& fn) {
  std::vector<double> means;
  for (int b = 0; b < blocks; ++b) {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(block_seconds * 1e9);
    double sum = 0;
    std::size_t calls = 0;
    do {
      sum += fn();
      ++calls;
    } while (now_ns() < deadline);
    const std::size_t units = reference_units(block_seconds * 1e9);
    const double factor = kReferenceUnitNs * static_cast<double>(units) / reference_ns(units);
    means.push_back(sum / static_cast<double>(calls) * factor);
  }
  return median(std::move(means));
}

/// One completed operation of a timed loop.
struct OpSample {
  std::int64_t end_ns = 0;  ///< completion time
  double busy_ns = 0;       ///< wall time charged to the operation
  double units = 1;         ///< work done (adaptations, clusters, edges, ...)
  double latency_us = 0;
  double ref_units = 0;     ///< reference work run beside the operation
  double ref_ns = 0;        ///< its wall time

  /// Runs reference work beside this sample's busy time.
  void add_reference() {
    const std::size_t n = reference_units(busy_ns);
    ref_ns += reference_ns(n);
    ref_units += static_cast<double>(n);
  }
};

/// A timed loop summarized over `windows` equal slices of its run, each
/// operation assigned by its completion time. Medians over slices keep a
/// burst of host noise inside one slice from moving the result. A slice
/// whose samples ran reference work has its rate scaled by the slice's
/// host-speed factor, the reference work's wall time over its nominal time.
struct Windowed {
  double rate = 0;      ///< median over slices of units per busy second, scaled
  double raw_rate = 0;  ///< the same, unscaled
  double speed = 1;     ///< median over slices of the host-speed factor
  double p50 = 0;       ///< latency median over all operations
  double p99 = 0;       ///< median over slices of the slice's latency p99
};
Windowed summarize(const std::vector<OpSample>& ops, std::int64_t begin, std::int64_t end,
                   int windows);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `failed` counts operations whose output
/// failed the workload's correctness gate; `correct` also turns false when a
/// run-level check fails (for example a split that does not add up).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  ///< human-readable reasons for failures

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string why);
};

/// Options every workload receives.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fault;  ///< negative self-check: a deliberately broken input
};

// --- tracing ------------------------------------------------------------------

using LayerId = std::uint16_t;

struct Span {
  LayerId layer = 0;
  std::uint32_t track = 0;
  std::uint64_t seq = 0;  ///< begin order within the track (innermost wins)
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Process-wide span recorder. Recording is off until set_enabled(true);
/// while off, Scope costs one relaxed load.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Interns a layer name; call during set-up, not on the hot path.
  LayerId layer(std::string_view name);
  const std::string& layer_name(LayerId id) const;

  /// A synthetic track (not a thread) for spans recorded on behalf of
  /// something else, e.g. one message channel.
  std::uint32_t synthetic_track();

  /// Records a completed span on the calling thread's track. `seq` orders
  /// nested spans that begin in the same nanosecond; take it from
  /// next_seq() when the span begins.
  void record(LayerId layer, std::int64_t begin, std::int64_t end, std::uint64_t seq);
  void record_on(std::uint32_t track, LayerId layer, std::int64_t begin, std::int64_t end);
  std::uint64_t next_seq();

  /// Moves every buffered span out (all tracks) and clears the buffers. The
  /// drained spans are also kept for write_archive().
  std::vector<Span> drain();
  /// Writes every span drained so far as CSV (layer,track,begin_ns,end_ns) —
  /// the single write of the run, after all measurement is done.
  bool write_archive(const std::string& path) const;

 private:
  struct Track {
    std::uint32_t id = 0;
    std::uint64_t seq = 0;
    std::vector<Span> spans;
    std::mutex mutex;  ///< only contended by synthetic tracks and drain()
  };
  Track& thread_track();
  Track& new_track();

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<std::string> layers_;
  std::vector<std::unique_ptr<Track>> tracks_;
  std::vector<Span> archive_;
};

/// RAII span on the calling thread's track; a no-op while tracing is off.
class Scope {
 public:
  explicit Scope(LayerId layer) : layer_(layer) {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) {
      seq_ = tracer.next_seq();
      begin_ = now_ns();
    }
  }
  ~Scope() {
    if (begin_ != 0) Tracer::instance().record(layer_, begin_, now_ns(), seq_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  LayerId layer_;
  std::uint64_t seq_ = 0;
  std::int64_t begin_ = 0;
};

/// Partition of root-span wall time over layers. Inside each root span,
/// every instant is charged to the innermost active span of each track that
/// has one (split evenly when several tracks are busy at once) and to
/// `unattributed` when only the root is open. A layer's share is therefore
/// its self time — its duration minus what its child spans cover.
struct Split {
  std::map<std::string, double> layer_ns;
  std::map<std::string, std::uint64_t> layer_spans;  ///< spans per layer
  std::map<std::string, double> layer_raw_ns;       ///< summed raw durations
  double unattributed_ns = 0;
  double total_ns = 0;  ///< summed root durations
  std::uint64_t roots = 0;
};

Split split(const std::vector<Span>& spans, LayerId root);

/// Prints the split as `split <workload>: ...` lines and checks that the
/// layers plus `unattributed` add up to `measured_ns`, the loop's own wall
/// time for the same root operations, taken outside the root spans; a split
/// that does not add up marks the result incorrect. Reports
/// `unattributed_us.<workload>`, the unattributed time per `units` (the
/// workload's operations).
void report_split(const std::string& workload, const Split& s, double measured_ns, double units,
                  Result& result);

}  // namespace perfbench
