// dataplane-swap: video::DataPlanePump with 2 lanes (a producer and a pump
// thread each) pushing 256-byte packets in 64-packet batches through an
// encode chain and a decode chain, in two phases:
//
//   * unpaced — producers run flat out;
//   * paced (open loop) — each producer offers 20k packets/s, well below
//     capacity, while lane 0 is swapped through the §5.2 quiescence
//     handshake: E1/D1 -> E2/D2, then E2 <-> E1 with D2 kept, one E2 batch
//     interval in every 25 ms cycle.
//
// This workload runs only traced (--trace 1): its filter, crypto, ring and
// swap layers are measured in every traced run. Every window gates its
// packets: none corrupted, none left undecodable, every generated packet
// delivered.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "crypto/codec_filters.hpp"
#include "crypto/des.hpp"
#include "video/pump.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sa::components::FilterChain;
using sa::components::FilterPtr;

constexpr std::size_t kLanes = 2;
constexpr double kPacedPps = 20'000;  // offered per lane
constexpr auto kSwapInterval = std::chrono::milliseconds(25);  // E1 dwell per cycle
constexpr auto kE2Dwell = std::chrono::microseconds(3200);      // one paced batch interval

sa::video::PumpConfig pump_config(std::uint64_t seed, double pps) {
  sa::video::PumpConfig config;
  config.streams = kLanes;
  config.packets_per_stream = UINT64_MAX;  // windows end by stop_and_join
  config.producer_pps = pps;
  config.seed = seed;
  return config;
}

/// Filter decorator: times each process_span call and counts the payload
/// copies the wrapped filter makes into the batch's arena. One instance is
/// driven by one pump thread; read its totals after the pump has joined.
class TimedFilter final : public sa::components::Filter {
 public:
  TimedFilter(FilterPtr inner, std::size_t lane)
      : Filter(inner->name(), inner->processing_time()),
        inner_(std::move(inner)),
        lane_(lane),
        layer_(Tracer::instance().layer("components.filter." + name())) {}

  std::optional<sa::components::Packet> process(sa::components::Packet packet) override {
    return inner_->process(std::move(packet));
  }
  std::vector<sa::components::Packet> process_all(sa::components::Packet packet) override {
    return inner_->process_all(std::move(packet));
  }
  void process_span(std::span<sa::components::PacketRef> batch,
                    sa::components::PacketSink& sink) override {
    const std::uint64_t copies = sink.arena().stats().payload_copies;
    const std::int64_t begin = now_ns();
    {
      Scope scope(layer_);
      inner_->process_span(batch, sink);
    }
    batches_at_.emplace_back(begin, now_ns());
    packets_ += batch.size();
    copies_ += sink.arena().stats().payload_copies - copies;
  }

  std::int64_t ns() const {
    std::int64_t total = 0;
    for (const auto& [begin, end] : batches_at_) total += end - begin;
    return total;
  }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t batches() const { return batches_at_.size(); }
  std::uint64_t copies() const { return copies_; }
  std::size_t lane() const { return lane_; }
  /// (begin, end) of every batch this filter processed.
  const std::vector<std::pair<std::int64_t, std::int64_t>>& batches_at() const {
    return batches_at_;
  }

 private:
  FilterPtr inner_;
  std::size_t lane_;
  LayerId layer_;
  std::vector<std::pair<std::int64_t, std::int64_t>> batches_at_;
  std::uint64_t packets_ = 0;
  std::uint64_t copies_ = 0;
};

/// Makes the case-study filters, wrapped in TimedFilter when `timed` (every
/// instance is kept so its totals can be read after the window). Called only
/// from the controlling thread: by start() and by the swap loop.
class FilterFactory {
 public:
  explicit FilterFactory(bool timed) : timed_(timed) {}

  FilterPtr make(const std::string& name, std::size_t lane) {
    FilterPtr filter;
    if (name == "E1") filter = sa::crypto::make_encoder_e1();
    if (name == "E2") filter = sa::crypto::make_encoder_e2();
    if (name == "D1") filter = sa::crypto::make_decoder("D1", true, false);
    if (name == "D2") filter = sa::crypto::make_decoder("D2", true, true);
    if (!timed_) return filter;
    made_.push_back(std::make_shared<TimedFilter>(std::move(filter), lane));
    return made_.back();
  }

  const std::vector<std::shared_ptr<TimedFilter>>& made() const { return made_; }

 private:
  bool timed_;
  std::vector<std::shared_ptr<TimedFilter>> made_;
};

struct Window {
  sa::video::LaneReport total;
  sa::video::LaneReport lane0;
  double wall_ns = 0;  ///< start() return to stop request, bracketing the root span
  std::vector<double> park_us, apply_us, blocked_us;
};

/// One pump lifetime: start, run for `seconds` — swapping lane 0 every
/// kSwapInterval when `swaps` — then stop, drain and report.
Window run_window(std::uint64_t seed, double pps, double seconds, bool swaps,
                  FilterFactory& factory, LayerId root) {
  Window w;
  auto pump = std::make_unique<sa::video::DataPlanePump>(pump_config(seed, pps));
  pump->start([&](std::size_t lane, sa::runtime::Clock&, FilterChain& encode,
                  FilterChain& decode) {
    encode.append_filter(factory.make("E1", lane));
    decode.append_filter(factory.make("D1", lane));
  });
  const std::int64_t started = now_ns();
  {
    Scope scope(root);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
    std::string encoder = "E1";
    bool first = true;
    const auto swap_to = [&](const std::string& next) {
      const FilterPtr new_encoder = factory.make(next, 0);
      const FilterPtr new_decoder = first ? factory.make("D2", 0) : nullptr;
      const std::uint64_t windows = pump->lane_report(0).blocked_windows;
      const double blocked_before = pump->lane_report(0).blocked_us;
      const std::int64_t requested = now_ns();
      std::int64_t entered = 0, applied = 0;
      pump->adapt_lane(0, [&](FilterChain& encode, FilterChain& decode) {
        entered = now_ns();
        encode.replace_filter(encoder, new_encoder);
        if (new_decoder) decode.replace_filter("D1", new_decoder);
        applied = now_ns();
      });
      // The pump adds the window to its totals after it resumes.
      while (pump->lane_report(0).blocked_windows == windows) std::this_thread::yield();
      w.park_us.push_back(static_cast<double>(entered - requested) / 1e3);
      w.apply_us.push_back(static_cast<double>(applied - entered) / 1e3);
      w.blocked_us.push_back(pump->lane_report(0).blocked_us - blocked_before);
      encoder = next;
      first = false;
    };
    // Each cycle: E1 for kSwapInterval, then E2 for about one batch. Lane 0
    // spends most batches in one codec, so its delay percentiles do not sit
    // on the boundary between the E1 and E2 cost modes.
    while (swaps && std::chrono::steady_clock::now() + kSwapInterval + kE2Dwell < deadline) {
      std::this_thread::sleep_for(kSwapInterval);
      swap_to("E2");
      std::this_thread::sleep_for(kE2Dwell);
      swap_to("E1");
    }
    std::this_thread::sleep_until(deadline);
  }
  w.wall_ns = static_cast<double>(now_ns() - started);
  pump->stop_and_join();
  w.total = pump->total_report();
  w.lane0 = pump->lane_report(0);
  return w;
}

/// Window gate: every generated packet delivered, intact and fully decoded.
void gate(const Window& w, Result& result) {
  const auto& t = w.total;
  result.attempted += t.generated;
  const std::uint64_t lost = t.generated > t.delivered ? t.generated - t.delivered : 0;
  result.failed += t.corrupted + t.undecodable + lost;
  if (t.corrupted + t.undecodable + lost > 0) {
    result.problems.push_back("dataplane-swap: " + std::to_string(t.corrupted) + " corrupted, " +
                              std::to_string(t.undecodable) + " undecodable, " +
                              std::to_string(lost) + " undelivered packets");
  }
}

void print_rate(const Window& w) {
  const double per_lane = w.total.pps / static_cast<double>(kLanes);
  std::printf("dataplane-swap: paced %.0f packets/s per lane achieved of %.0f offered (%.1f%%), "
              "%zu swaps\n",
              per_lane, kPacedPps, 100.0 * per_lane / kPacedPps, w.blocked_us.size());
}

void measure_des(double seconds, Result& result) {
  const sa::crypto::DesKeys keys;
  const sa::crypto::Des64Cipher des64(keys.key64);
  const sa::crypto::Des128Cipher des128(keys.key128a, keys.key128b);
  std::vector<std::uint8_t> plain(64 * 1024 - 8), cipher(64 * 1024);
  for (std::size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<std::uint8_t>(i * 131);
  const double blocks = static_cast<double>(cipher.size() / 8);
  const double des64_ns = time_per_call_ns(seconds / 2, 3, [&] {
    des64.encrypt_into(plain, cipher.data());
  });
  const double des128_ns = time_per_call_ns(seconds / 2, 3, [&] {
    des128.encrypt_into(plain, cipher.data());
  });
  result.set("crypto.des64_ns_per_block", des64_ns / blocks, "ns");
  result.set("crypto.des128_ns_per_block", des128_ns / blocks, "ns");
}

}  // namespace

void dataplane_layers(const RunOptions& opts, bool primary, Result& result) {
  const double budget = primary ? opts.seconds : 1.5;
  Tracer& tracer = Tracer::instance();
  const LayerId root = tracer.layer("dataplane.window");
  measure_des(budget * 0.03, result);

  // Unpaced windows, untraced and traced in alternation.
  const int pairs = primary ? 4 : 1;
  const double window_s = budget * (primary ? 0.25 : 0.3) / pairs;
  FilterFactory plain(false);
  FilterFactory factory(true);
  std::vector<double> plain_pps, traced_pps;
  double traced_wall_ns = 0;
  std::uint64_t traced_batches = 0;
  tracer.drain();
  for (int i = 0; i < pairs; ++i) {
    {
      const Window w = run_window(opts.seed + i, 0, window_s, false, plain, root);
      gate(w, result);
      plain_pps.push_back(w.total.pps);
    }
    tracer.set_enabled(true);
    const Window w = run_window(opts.seed + i, 0, window_s, false, factory, root);
    tracer.set_enabled(false);
    gate(w, result);
    traced_pps.push_back(w.total.pps);
    traced_wall_ns += w.wall_ns;
    traced_batches += w.total.batches;
  }
  std::int64_t filter_ns = 0;
  std::uint64_t batches = 0;
  for (const auto& f : factory.made()) {
    filter_ns += f->ns();
    batches += f->batches();
  }
  // Each batch passes one encoder and one decoder.
  const double chain_us = static_cast<double>(filter_ns) / 1e3 / (static_cast<double>(batches) / 2);
  const Split s = split(tracer.drain(), root);
  report_split("dataplane-swap", s, traced_wall_ns, static_cast<double>(traced_batches), result);
  result.set("components.chain.batch_us", chain_us, "us");
  result.set("video.pump_busy_frac",
             static_cast<double>(filter_ns) / (static_cast<double>(kLanes) * traced_wall_ns),
             "fraction");
  // Per-packet time is 1/pps, so the overhead is plain/traced - 1.
  result.set("bench.trace_overhead_pct.dataplane-swap",
             overhead_pct(median(plain_pps), median(traced_pps)), "%");

  const std::size_t unpaced_filters = factory.made().size();
  const Window paced = run_window(opts.seed, kPacedPps, budget * (primary ? 0.4 : 0.6), true,
                                  factory, root);
  gate(paced, result);
  print_rate(paced);
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> per_filter;  // ns, packets
  std::uint64_t copies = 0, packets_in = 0;
  for (const auto& f : factory.made()) {
    per_filter[f->name()].first += f->ns();
    per_filter[f->name()].second += f->packets();
    copies += f->copies();
    if (f->name()[0] == 'E') packets_in += f->packets();
  }
  for (const char* name : {"E1", "E2", "D1", "D2"}) {
    const auto& [ns, packets] = per_filter[name];
    result.set(std::string("components.filter.") + name + ".ns_per_packet",
               packets == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(packets), "ns");
  }
  result.set("components.arena.copies_per_packet",
             static_cast<double>(copies) / static_cast<double>(packets_in), "count");
  // Lane 0's chain time per batch: its encoder and decoder spans pair up in
  // order (each batch passes one of each).
  std::vector<std::pair<std::int64_t, std::int64_t>> encodes, decodes;
  for (std::size_t i = unpaced_filters; i < factory.made().size(); ++i) {
    const TimedFilter& f = *factory.made()[i];
    if (f.lane() != 0) continue;
    auto& into = f.name()[0] == 'E' ? encodes : decodes;
    into.insert(into.end(), f.batches_at().begin(), f.batches_at().end());
  }
  std::sort(encodes.begin(), encodes.end());
  std::sort(decodes.begin(), decodes.end());
  std::vector<double> lane0_chain_us;
  for (std::size_t i = 0; i < std::min(encodes.size(), decodes.size()); ++i) {
    lane0_chain_us.push_back(static_cast<double>(decodes[i].second - encodes[i].first) / 1e3);
  }
  result.set("video.ring_wait_us", paced.lane0.p50_delay_us - median(lane0_chain_us), "us");
  result.set("video.swap_park_us", median(paced.park_us), "us");
  result.set("video.swap_apply_us", median(paced.apply_us), "us");
}

}  // namespace perfbench
