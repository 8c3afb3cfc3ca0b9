// MetricsRegistry: counters, gauges, and fixed-bucket histograms behind
// system.metrics().
//
// A metric family (name + type + help) owns one series per label set;
// counter(), gauge(), and histogram() are get-or-create and return a
// reference that stays valid for the registry's lifetime, so hot paths look
// the series up once and then touch an atomic. Looking up a series that
// exists allocates nothing: labels render into a buffer the registry reuses
// and both maps take string_view keys; the single-label overloads also skip
// building a Labels vector, and histogram bounds are copied only when a
// series is created. Counters and gauges are
// lock-free; histograms take a per-series mutex (protocol-rate observations,
// never on a data fast path). snapshot() copies everything in name order, so
// the Prometheus exposition is deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sa::obs {

/// Label pairs, rendered in the order given ({{"type","reset"}} ->
/// {type="reset"}). Callers keep the order stable per series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

struct HistogramSnapshot {
  std::vector<double> bounds;          ///< ascending upper bounds; +Inf implicit
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 buckets
  double sum = 0;
  std::uint64_t count = 0;
};

class Histogram {
 public:
  /// `bounds` are ascending inclusive upper bounds; an implicit +Inf bucket
  /// catches everything above the last bound.
  explicit Histogram(std::vector<double> bounds);

  /// Lock-free: a relaxed add on the bucket and count, a CAS loop on the
  /// sum. Concurrent observers never serialize on a mutex.
  void observe(double v);
  HistogramSnapshot snapshot() const;
  double sum() const;
  std::uint64_t count() const;

 private:
  std::vector<double> bounds_;                          ///< immutable after construction
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds_.size() + 1
  std::atomic<double> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Bucket bounds (µs) covering the protocol's time scales: sub-millisecond
/// agent actions up through multi-second stalled adaptations.
const std::vector<double>& default_time_buckets_us();

struct SeriesSnapshot {
  std::string labels;  ///< rendered "{k=\"v\",...}" or "" when unlabeled
  double value = 0;    ///< counter / gauge value
  std::optional<HistogramSnapshot> histogram;
};

struct FamilySnapshot {
  std::string name;
  std::string type;  ///< "counter" | "gauge" | "histogram"
  std::string help;
  std::vector<SeriesSnapshot> series;  ///< sorted by rendered labels
};

class MetricsRegistry {
 public:
  /// Get-or-create. Throws std::logic_error if `name` already exists with a
  /// different metric type (one family, one type — Prometheus rules).
  Counter& counter(std::string_view name, const Labels& labels = {},
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, const Labels& labels = {}, std::string_view help = "");
  Histogram& histogram(std::string_view name, const std::vector<double>& bounds,
                       const Labels& labels = {}, std::string_view help = "");

  /// Single-label forms: the series {key="value"}, the same one the Labels
  /// forms name with {{key, value}}.
  Counter& counter(std::string_view name, std::string_view key, std::string_view value,
                   std::string_view help);
  Histogram& histogram(std::string_view name, const std::vector<double>& bounds,
                       std::string_view key, std::string_view value, std::string_view help);

  /// Deterministic copy of every family and series, in name / label order.
  std::vector<FamilySnapshot> snapshot() const;

  /// Sum of `sum` across all series of histogram family `name` (0 when the
  /// family does not exist) — e.g. total blocked time across processes.
  double histogram_family_sum(std::string_view name) const;

 private:
  /// One series; only the member matching its family's type is engaged.
  /// Map nodes never move, so the metrics live in the node itself.
  struct Series {
    std::optional<Counter> counter;
    std::optional<Gauge> gauge;
    std::optional<Histogram> histogram;
  };
  struct Family {
    std::string type;
    std::string help;
    std::map<std::string, Series, std::less<>> series;  ///< key: rendered labels
  };

  Family& family_of(std::string_view name, std::string_view type, std::string_view help);
  /// Render the labels of the lookup in progress into label_buffer_.
  void set_labels(const Labels& labels);
  void set_label(std::string_view key, std::string_view value);
  /// The series of `family` whose rendered labels are in label_buffer_.
  Series& series_of(Family& family);

  mutable std::mutex mutex_;
  std::map<std::string, Family, std::less<>> families_;
  std::string label_buffer_;  ///< rendered labels of the lookup in progress
};

/// Renders labels as {k="v",k2="v2"}; empty labels render as "".
std::string render_labels(const Labels& labels);

}  // namespace sa::obs
