#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

Windowed summarize(const std::vector<OpSample>& ops, std::int64_t begin, std::int64_t end,
                   int windows) {
  struct Slice {
    double units = 0;
    double busy_ns = 0;
    double ref_units = 0;
    double ref_ns = 0;
    std::vector<double> latency_us;
  };
  std::vector<Slice> slices(static_cast<std::size_t>(windows));
  std::vector<double> all;
  const double span = static_cast<double>(std::max<std::int64_t>(1, end - begin));
  for (const OpSample& op : ops) {
    const double at = static_cast<double>(op.end_ns - begin) / span * windows;
    Slice& slice = slices[static_cast<std::size_t>(std::clamp(at, 0.0, windows - 1.0))];
    slice.units += op.units;
    slice.busy_ns += op.busy_ns;
    slice.ref_units += op.ref_units;
    slice.ref_ns += op.ref_ns;
    slice.latency_us.push_back(op.latency_us);
    all.push_back(op.latency_us);
  }
  std::vector<double> rates, raw_rates, speeds, p99s;
  for (const Slice& slice : slices) {
    if (slice.latency_us.empty() || slice.busy_ns <= 0) continue;
    const double speed =
        slice.ref_units > 0 ? slice.ref_ns / (slice.ref_units * kReferenceUnitNs) : 1.0;
    const double raw = slice.units / (slice.busy_ns / 1e9);
    raw_rates.push_back(raw);
    rates.push_back(raw * speed);
    speeds.push_back(speed);
    p99s.push_back(percentile(slice.latency_us, 0.99));
  }
  return Windowed{median(rates), median(raw_rates), median(speeds), median(all), median(p99s)};
}

namespace {
// Stores that keep the compiler from eliding the reference work.
void* volatile reference_escape = nullptr;
volatile std::size_t reference_sink = 0;
}  // namespace

double reference_ns(std::size_t units) {
  const std::int64_t begin = now_ns();
  for (std::size_t u = 0; u < units; ++u) {
    std::map<std::string, std::size_t> map;
    for (std::size_t k = 0; k < 64; ++k) {
      map.emplace("reference-key-" + std::to_string(k * 7919 + u), k);
    }
    std::size_t sum = 0;
    for (const auto& [key, value] : map) sum += key.size() + value;
    reference_sink = sum;
    for (int round = 0; round < 32; ++round) {
      void* blocks[16];
      for (int j = 0; j < 16; ++j) {
        blocks[j] = std::malloc(32 + 24 * static_cast<std::size_t>(j));
        reference_escape = blocks[j];
      }
      for (void* block : blocks) std::free(block);
    }
  }
  return static_cast<double>(now_ns() - begin);
}

std::size_t reference_units(double busy_ns) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(busy_ns / 10 / kReferenceUnitNs));
}

double peak_rss_mb() {
  // VmHWM belongs to this address space; getrusage's ru_maxrss would also
  // carry over the launching process's peak across execve.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

void Result::fail(std::string why) {
  correct = false;
  problems.push_back(std::move(why));
}

// --- tracer -------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

LayerId Tracer::layer(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i] == name) return static_cast<LayerId>(i);
  }
  layers_.emplace_back(name);
  return static_cast<LayerId>(layers_.size() - 1);
}

const std::string& Tracer::layer_name(LayerId id) const { return layers_.at(id); }

Tracer::Track& Tracer::new_track() {
  std::lock_guard lock(mutex_);
  tracks_.push_back(std::make_unique<Track>());
  tracks_.back()->id = static_cast<std::uint32_t>(tracks_.size() - 1);
  return *tracks_.back();
}

Tracer::Track& Tracer::thread_track() {
  // Tracks are never freed, so the cached pointer outlives every thread.
  thread_local Track* track = nullptr;
  if (track == nullptr) track = &new_track();
  return *track;
}

std::uint32_t Tracer::synthetic_track() { return new_track().id; }

std::uint64_t Tracer::next_seq() { return ++thread_track().seq; }

void Tracer::record(LayerId layer, std::int64_t begin, std::int64_t end, std::uint64_t seq) {
  Track& track = thread_track();
  std::lock_guard lock(track.mutex);
  track.spans.push_back(Span{layer, track.id, seq, begin, end});
}

void Tracer::record_on(std::uint32_t track_id, LayerId layer, std::int64_t begin,
                       std::int64_t end) {
  Track* track = nullptr;
  {
    std::lock_guard lock(mutex_);
    track = tracks_.at(track_id).get();
  }
  std::lock_guard lock(track->mutex);
  track->spans.push_back(Span{layer, track->id, ++track->seq, begin, end});
}

std::vector<Span> Tracer::drain() {
  std::vector<Span> out;
  std::lock_guard lock(mutex_);
  for (auto& track : tracks_) {
    std::lock_guard track_lock(track->mutex);
    out.insert(out.end(), track->spans.begin(), track->spans.end());
    track->spans.clear();
  }
  archive_.insert(archive_.end(), out.begin(), out.end());
  return out;
}

bool Tracer::write_archive(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "layer,track,begin_ns,end_ns\n";
  for (const Span& span : archive_) {
    file << layers_.at(span.layer) << ',' << span.track << ',' << span.begin << ','
         << span.end << '\n';
  }
  return static_cast<bool>(file);
}

// --- split --------------------------------------------------------------------

Split split(const std::vector<Span>& spans, LayerId root) {
  Split out;
  const Tracer& tracer = Tracer::instance();

  struct Event {
    std::int64_t time;
    bool begin;
    const Span* span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  std::vector<double> charged;  // by LayerId
  for (const Span& span : spans) {
    if (span.end < span.begin) continue;
    events.push_back({span.begin, true, &span});
    events.push_back({span.end, false, &span});
    if (span.layer == root) {
      out.total_ns += static_cast<double>(span.end - span.begin);
      ++out.roots;
    } else {
      const std::string& name = tracer.layer_name(span.layer);
      ++out.layer_spans[name];
      out.layer_raw_ns[name] += static_cast<double>(span.end - span.begin);
    }
    if (span.layer >= charged.size()) charged.resize(span.layer + 1, 0.0);
  }
  // Begins sort before ends at equal times, so a zero-length span opens
  // before it closes.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time < b.time : a.begin && !b.begin;
  });

  // Active non-root spans per track; the innermost is the highest seq.
  std::unordered_map<std::uint32_t, std::vector<const Span*>> active;
  int roots_open = 0;
  std::vector<LayerId> innermost;
  for (std::size_t i = 0; i < events.size();) {
    const std::int64_t t = events[i].time;
    for (; i < events.size() && events[i].time == t; ++i) {
      const Event& e = events[i];
      if (e.span->layer == root) {
        roots_open += e.begin ? 1 : -1;
        continue;
      }
      auto& list = active[e.span->track];
      if (e.begin) {
        list.push_back(e.span);
      } else {
        list.erase(std::find(list.begin(), list.end(), e.span));
      }
    }
    if (i == events.size() || roots_open <= 0) continue;
    const double dt = static_cast<double>(events[i].time - t);
    innermost.clear();
    for (const auto& [track, list] : active) {
      if (list.empty()) continue;
      const Span* inner = *std::max_element(
          list.begin(), list.end(), [](const Span* a, const Span* b) { return a->seq < b->seq; });
      innermost.push_back(inner->layer);
    }
    if (innermost.empty()) {
      out.unattributed_ns += dt;
    } else {
      const double share = dt / static_cast<double>(innermost.size());
      for (LayerId layer : innermost) charged[layer] += share;
    }
  }

  for (std::size_t id = 0; id < charged.size(); ++id) {
    if (id == root || charged[id] == 0) continue;
    out.layer_ns[tracer.layer_name(static_cast<LayerId>(id))] = charged[id];
  }
  return out;
}

void report_split(const std::string& workload, const Split& s, double measured_ns, double units,
                  Result& result) {
  std::printf("split %s: %llu root spans, traced end-to-end %.3f ms\n", workload.c_str(),
              static_cast<unsigned long long>(s.roots), measured_ns / 1e6);
  double sum = s.unattributed_ns;
  bool non_negative = s.unattributed_ns >= 0;
  for (const auto& [layer, ns] : s.layer_ns) {
    sum += ns;
    non_negative = non_negative && ns >= 0;
    std::printf("split %s:   %-34s %12.3f ms  %6.2f%%\n", workload.c_str(), layer.c_str(),
                ns / 1e6, measured_ns > 0 ? 100.0 * ns / measured_ns : 0.0);
  }
  std::printf("split %s:   %-34s %12.3f ms  %6.2f%%\n", workload.c_str(), "unattributed",
              s.unattributed_ns / 1e6,
              measured_ns > 0 ? 100.0 * s.unattributed_ns / measured_ns : 0.0);
  // The root spans sit just inside the loop's own timestamps, so the two
  // totals differ only by the root span's bookkeeping — well under 1%. Roots
  // that miss part of an operation, overlap, or a sweep that charges an
  // instant twice or not at all break this.
  const bool adds_up = s.roots > 0 && non_negative && std::abs(sum - measured_ns) <= 0.01 * measured_ns;
  std::printf("split %s:   layers + unattributed = %.3f ms of %.3f ms measured -> %s\n",
              workload.c_str(), sum / 1e6, measured_ns / 1e6, adds_up ? "adds up" : "MISMATCH");
  if (s.roots == 0) result.fail(workload + ": traced run recorded no root spans");
  if (!adds_up) result.fail(workload + ": layer split does not add up to the measured time");
  result.set("unattributed_us." + workload, s.unattributed_ns / 1e3 / units, "us");
}

}  // namespace perfbench
