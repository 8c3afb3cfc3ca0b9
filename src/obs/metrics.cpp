#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace sa::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be ascending");
  }
  counts_.reset(new std::atomic<std::uint64_t>[bounds_.size() + 1]);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v, std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out.counts.push_back(counts_[i].load(std::memory_order_relaxed));
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  out.count = count_.load(std::memory_order_relaxed);
  return out;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::uint64_t Histogram::count() const { return count_.load(std::memory_order_relaxed); }

const std::vector<double>& default_time_buckets_us() {
  static const std::vector<double> buckets{100,     250,     500,       1'000,    2'500,
                                           5'000,   10'000,  25'000,    50'000,   100'000,
                                           250'000, 1'000'000, 5'000'000};
  return buckets;
}

namespace {

/// Appends one k="v" pair (with the Prometheus escapes) to `out`.
void append_label(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += "=\"";
  for (const char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
}

void append_labels(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    append_label(out, labels[i].first, labels[i].second);
  }
  out += '}';
}

}  // namespace

std::string render_labels(const Labels& labels) {
  std::string out;
  append_labels(out, labels);
  return out;
}

MetricsRegistry::Family& MetricsRegistry::family_of(std::string_view name, std::string_view type,
                                                    std::string_view help) {
  const auto it = families_.find(name);
  if (it != families_.end()) {
    if (it->second.type != type) {
      throw std::logic_error("metric family " + std::string(name) + " registered as " +
                             it->second.type + ", requested as " + std::string(type));
    }
    return it->second;
  }
  Family& family = families_[std::string(name)];
  family.type = std::string(type);
  family.help = std::string(help);
  return family;
}

void MetricsRegistry::set_labels(const Labels& labels) {
  label_buffer_.clear();
  append_labels(label_buffer_, labels);
}

void MetricsRegistry::set_label(std::string_view key, std::string_view value) {
  label_buffer_.assign(1, '{');
  append_label(label_buffer_, key, value);
  label_buffer_ += '}';
}

MetricsRegistry::Series& MetricsRegistry::series_of(Family& family) {
  const auto it = family.series.find(std::string_view(label_buffer_));
  if (it != family.series.end()) return it->second;
  return family.series.try_emplace(label_buffer_).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels,
                                  std::string_view help) {
  std::lock_guard lock(mutex_);
  set_labels(labels);
  Series& series = series_of(family_of(name, "counter", help));
  if (!series.counter) series.counter.emplace();
  return *series.counter;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view key,
                                  std::string_view value, std::string_view help) {
  std::lock_guard lock(mutex_);
  set_label(key, value);
  Series& series = series_of(family_of(name, "counter", help));
  if (!series.counter) series.counter.emplace();
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels,
                              std::string_view help) {
  std::lock_guard lock(mutex_);
  set_labels(labels);
  Series& series = series_of(family_of(name, "gauge", help));
  if (!series.gauge) series.gauge.emplace();
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const std::vector<double>& bounds,
                                      const Labels& labels, std::string_view help) {
  std::lock_guard lock(mutex_);
  set_labels(labels);
  Series& series = series_of(family_of(name, "histogram", help));
  if (!series.histogram) series.histogram.emplace(bounds);
  return *series.histogram;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const std::vector<double>& bounds,
                                      std::string_view key, std::string_view value,
                                      std::string_view help) {
  std::lock_guard lock(mutex_);
  set_label(key, value);
  Series& series = series_of(family_of(name, "histogram", help));
  if (!series.histogram) series.histogram.emplace(bounds);
  return *series.histogram;
}

std::vector<FamilySnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<FamilySnapshot> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fs;
    fs.name = name;
    fs.type = family.type;
    fs.help = family.help;
    for (const auto& [labels, series] : family.series) {
      SeriesSnapshot ss;
      ss.labels = labels;
      if (series.counter) ss.value = static_cast<double>(series.counter->value());
      if (series.gauge) ss.value = series.gauge->value();
      if (series.histogram) ss.histogram = series.histogram->snapshot();
      fs.series.push_back(std::move(ss));
    }
    out.push_back(std::move(fs));
  }
  return out;
}

double MetricsRegistry::histogram_family_sum(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end()) return 0;
  double total = 0;
  for (const auto& [labels, series] : it->second.series) {
    if (series.histogram) total += series.histogram->sum();
  }
  return total;
}

}  // namespace sa::obs
