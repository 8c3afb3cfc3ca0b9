// fleet: mass X -> Y adaptation through core::run_fleet on one worker
// thread. Each operation is one run_fleet call over one 32-cluster region
// (the Configuration word's limit): the coordinator tree, a manager and its
// eager SAG per cluster, and the simulator underneath, all rebuilt per call.
// Construction is part of every operation, so work moved out of
// adaptation into construction still shows in ops_per_s.
//
// Probe regions rebuild the same region through the public
// CompositeAdaptationSystem API so that build (construct + finalize) and
// adapt (adapt_and_wait) can be timed apart. The untraced run has no set-up
// of its own, so its setup_s is the build time of probe regions run before
// the timed loop; the traced run splits probe regions by layer.
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "actions/sag.hpp"
#include "config/enumerate.hpp"
#include "core/composite.hpp"
#include "core/fleet.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kClustersPerOp = 32;
constexpr int kSetupBlocks = 20;       // blocks of probe regions timed as set-up
constexpr double kSetupBlockS = 0.1;   // seconds per set-up block
constexpr int kCallsPerSample = 16;    // run_fleet calls per OpSample
constexpr int kWindows = 10;           // slices of the timed loop (see summarize)
constexpr std::uint64_t kDigest42 = 0x4bdeeff1ef9220c6ULL;  // seed 42, 10k clusters

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

sa::core::FleetSpec op_spec(std::uint64_t seed, std::size_t clusters) {
  sa::core::FleetSpec spec;
  spec.clusters = clusters;
  spec.clusters_per_region = kClustersPerOp;
  spec.threads = 1;
  spec.seed = seed;
  return spec;
}

/// The fleet's correctness gate: every region succeeded, no shard was
/// orphaned, and blocked time stayed at exactly 2200 µs per process.
bool fleet_ok(const sa::core::FleetReport& report) {
  char blocked[32];
  std::snprintf(blocked, sizeof(blocked), "%.3f", report.blocked_us_per_process);
  return report.success && report.orphaned == 0 && std::string(blocked) == "2200.000";
}

struct Layers {
  LayerId root = Tracer::instance().layer("fleet.region");
  LayerId build = Tracer::instance().layer("core.region_build");
  LayerId adapt = Tracer::instance().layer("core.region_adapt");
};

const Layers& layers() {
  static const Layers l;
  return l;
}

struct FleetProcess final : sa::proto::AdaptableProcess {
  bool prepare(const sa::proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const sa::proto::LocalCommand&) override { return true; }
  bool undo(const sa::proto::LocalCommand&) override { return true; }
  void resume() override {}
};

struct Probe {
  double build_us = 0;
  double adapt_us = 0;
  bool ok = false;
  std::uint64_t events = 0;    ///< simulator events (counted probes only)
  std::uint64_t messages = 0;  ///< control messages sent (counted probes only)
  std::uint64_t epochs = 0;    ///< root epochs
};

/// Builds and adapts one X/Y region the way run_fleet does, timing build and
/// adapt separately. `count` drives the simulator by hand to count events.
Probe probe_region(std::uint64_t seed, bool count) {
  Probe probe;
  const std::int64_t begin = now_ns();
  sa::runtime::SimRuntime rt(seed);
  sa::core::CompositeConfig config;
  config.control_channel = sa::runtime::ChannelConfig{sa::runtime::ms(2), 0, 0.0, true};
  config.topology.lanes_per_leaf = 4;
  config.topology.fanout = 4;
  config.topology.epoch_window = sa::runtime::us(500);
  config.seed = seed;
  std::vector<std::unique_ptr<FleetProcess>> processes;
  sa::config::Configuration source, target;
  std::unique_ptr<sa::core::CompositeAdaptationSystem> system;
  {
    Scope scope(layers().build);
    system = std::make_unique<sa::core::CompositeAdaptationSystem>(rt, config);
    for (std::size_t c = 0; c < kClustersPerOp; ++c) {
      const std::string s = std::to_string(c);
      system->registry().add("X" + s, static_cast<sa::config::ProcessId>(c));
      system->registry().add("Y" + s, static_cast<sa::config::ProcessId>(c));
    }
    for (std::size_t c = 0; c < kClustersPerOp; ++c) {
      const std::string s = std::to_string(c);
      system->add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
      system->add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
    }
    for (std::size_t c = 0; c < kClustersPerOp; ++c) {
      processes.push_back(std::make_unique<FleetProcess>());
      system->attach_process(static_cast<sa::config::ProcessId>(c), *processes.back(), 0);
    }
    system->finalize();
    for (std::size_t c = 0; c < kClustersPerOp; ++c) {
      const std::string s = std::to_string(c);
      source = source.with(system->registry().require("X" + s));
      target = target.with(system->registry().require("Y" + s));
    }
  }
  const std::int64_t built = now_ns();
  bool success = false;
  {
    Scope scope(layers().adapt);
    system->set_current_configuration(source);
    if (count) {
      bool done = false;
      system->request_adaptation(target, [&](const sa::core::CompositeResult& r) {
        done = true;
        success = r.success && r.orphaned == 0;
      });
      while (!done && rt.simulator().step()) ++probe.events;
      sa::runtime::Transport& transport = rt.transport();
      for (sa::runtime::NodeId a = 0; a < transport.node_count(); ++a) {
        for (sa::runtime::NodeId b = 0; b < transport.node_count(); ++b) {
          if (transport.has_channel(a, b)) probe.messages += transport.channel_stats(a, b).sent;
        }
      }
    } else {
      const sa::core::CompositeResult r = system->adapt_and_wait(target);
      success = r.success && r.orphaned == 0;
    }
  }
  const std::int64_t adapted = now_ns();
  probe.epochs = system->root_coordinator().epochs_completed();
  probe.ok = success && system->current_configuration() == target;
  probe.build_us = static_cast<double>(built - begin) / 1e3;
  probe.adapt_us = static_cast<double>(adapted - built) / 1e3;
  return probe;
}

struct LoopStats {
  std::vector<OpSample> ops;  ///< run_fleet calls, kCallsPerSample per sample
  std::vector<double> build_us;
  std::vector<double> adapt_us;
  std::vector<double> probe_us;  ///< whole probe, including teardown
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t k = 0;
};

/// One probe region, recorded into `stats`; `probe_us` brackets the root
/// span.
void run_probe(std::uint64_t seed, LoopStats& stats) {
  const std::uint64_t k = stats.k++;
  ++stats.attempted;
  Probe probe;
  const std::int64_t begin = now_ns();
  {
    Scope scope(layers().root);
    probe = probe_region(mix(seed, k), false);
  }
  stats.probe_us.push_back(static_cast<double>(now_ns() - begin) / 1e3);
  if (!probe.ok) ++stats.failed;
  stats.build_us.push_back(probe.build_us);
  stats.adapt_us.push_back(probe.adapt_us);
}

/// run_fleet operations until `seconds` pass, recorded kCallsPerSample
/// calls to an OpSample: one sample per call would grow the benchmark's own
/// memory with the host's speed and show in peak_rss_mb.
void run_loop(std::uint64_t seed, double seconds, LoopStats& stats) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    OpSample sample{0, 0, 0, 0};
    for (int i = 0; i < kCallsPerSample; ++i) {
      const std::uint64_t k = stats.k++;
      ++stats.attempted;
      const std::int64_t begin = now_ns();
      const sa::core::FleetReport report =
          sa::core::run_fleet(op_spec(mix(seed, k), kClustersPerOp));
      sample.end_ns = now_ns();
      sample.busy_ns += static_cast<double>(sample.end_ns - begin);
      sample.units += static_cast<double>(kClustersPerOp);
      if (!fleet_ok(report)) ++stats.failed;
    }
    sample.add_reference();
    stats.ops.push_back(sample);
  }
}

/// Safe-set enumeration and SAG build for one X/Y cluster — what each
/// cluster's manager does during a region build.
void measure_cluster_planning(double seconds, Result& result) {
  sa::config::ComponentRegistry registry;
  registry.add("X0", 0);
  registry.add("Y0", 0);
  sa::config::InvariantSet invariants(registry);
  invariants.add("one0", "one(X0, Y0)");
  sa::actions::ActionTable table(registry);
  table.add("swap0", {"X0"}, {"Y0"}, 10);
  std::vector<sa::config::Configuration> safe;
  const double enumerate_ns = time_per_call_ns(seconds / 2, 3, [&] {
    safe = sa::config::enumerate_safe_pruned(invariants);
  });
  const double sag_ns = time_per_call_ns(seconds / 2, 3, [&] {
    const sa::actions::SafeAdaptationGraph sag(table, safe);
  });
  result.set("config.enumerate_us.xy_cluster", enumerate_ns / 1e3, "us");
  result.set("actions.sag_build_us.xy_cluster", sag_ns / 1e3, "us");
}

/// Recording cost of the library's own flight recorder: run_fleet with
/// FleetSpec::trace on (export off) against off, in interleaved pairs.
double recorder_overhead_pct(std::uint64_t seed, double seconds) {
  std::vector<double> on_us, off_us;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t k = 0; k < 2 || now_ns() < deadline; ++k) {
    for (bool trace : {k % 2 == 0, k % 2 != 0}) {
      sa::core::FleetSpec spec = op_spec(mix(seed, k), 4 * kClustersPerOp);
      spec.trace = trace;
      spec.trace_export = false;
      const std::int64_t begin = now_ns();
      sa::core::run_fleet(spec);
      (trace ? on_us : off_us).push_back(static_cast<double>(now_ns() - begin) / 1e3);
    }
  }
  return overhead_pct(median(on_us), median(off_us));
}

}  // namespace

void fleet_e2e(const RunOptions& opts, Result& result) {
  if (!opts.fault.empty()) throw std::invalid_argument("fleet: --fault is not supported");
  LoopStats setup;
  const double setup_us = median_block_mean(kSetupBlocks, kSetupBlockS, [&] {
    run_probe(opts.seed ^ 0x5e7, setup);
    return setup.build_us.back();
  });
  LoopStats warm;
  run_loop(opts.seed ^ 0x5eed, 0.2, warm);

  LoopStats stats;
  const std::int64_t begin = now_ns();
  run_loop(opts.seed, opts.seconds, stats);
  result.attempted += setup.attempted + stats.attempted;
  result.failed += setup.failed + stats.failed;
  const Windowed w = summarize(stats.ops, begin, now_ns(), kWindows);
  result.set("ops_per_s", w.rate, "1/s");
  result.set("setup_s", setup_us / 1e6, "s");
  std::printf("fleet: %llu run_fleet operations (%llu clusters), %zu set-up regions, "
              "%.0f clusters/s unscaled, host-speed factor %.3f\n",
              static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(stats.attempted * kClustersPerOp),
              setup.build_us.size(), w.raw_rate, w.speed);

  if (opts.seed == 42) {
    const sa::core::FleetReport report = sa::core::run_fleet(op_spec(42, 10'000));
    ++result.attempted;
    if (!fleet_ok(report) || report.digest != kDigest42) {
      ++result.failed;
      result.problems.push_back("fleet: seed 42 / 10k clusters digest differs from 4bdeeff1ef9220c6");
    }
  }
}

void fleet_layers(const RunOptions& opts, bool primary, Result& result) {
  const double budget = primary ? opts.seconds : 1.5;
  Tracer& tracer = Tracer::instance();
  measure_cluster_planning(budget * 0.04, result);

  const Probe counted = probe_region(mix(opts.seed, 0), true);
  ++result.attempted;
  if (!counted.ok) ++result.failed;
  const auto clusters = static_cast<double>(kClustersPerOp);
  result.set("sim.events_per_cluster", static_cast<double>(counted.events) / clusters, "count");
  result.set("sim.messages_per_cluster", static_cast<double>(counted.messages) / clusters, "count");
  result.set("proto.coordinator.epochs_per_region", static_cast<double>(counted.epochs), "count");
  result.set("obs.recorder_overhead_pct", recorder_overhead_pct(opts.seed, budget * 0.2), "%");

  // Probe regions, alternately untraced and traced.
  LoopStats plain, traced;
  tracer.drain();
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget * 0.7 * 1e9);
  while (now_ns() < deadline) {
    run_probe(opts.seed, plain);
    tracer.set_enabled(true);
    run_probe(opts.seed, traced);
    tracer.set_enabled(false);
  }
  result.attempted += traced.attempted + plain.attempted;
  result.failed += traced.failed + plain.failed;

  const Split s = split(tracer.drain(), layers().root);
  const std::vector<double>& probe_us = traced.probe_us;
  report_split("fleet", s, std::accumulate(probe_us.begin(), probe_us.end(), 0.0) * 1e3,
               static_cast<double>(probe_us.size()), result);
  result.set("core.region_build_us", mean(traced.build_us), "us");
  result.set("core.region_adapt_us", mean(traced.adapt_us), "us");
  result.set("bench.trace_overhead_pct.fleet",
             overhead_pct(mean(traced.probe_us), mean(plain.probe_us)), "%");
}

}  // namespace perfbench
