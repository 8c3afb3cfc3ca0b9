// check-pair: check::frontier_search on the `pair` scenario with sleep-set
// DPOR and symmetry reduction, one worker, depth bound kDepth. Each
// operation is one complete bounded search; it drives the sans-I/O cores,
// the model's fork/fingerprint machinery and the visited set ~10^5 times
// with no I/O. One worker keeps the bounded search's counts exact: with
// several workers a depth-capped search's totals depend on which worker
// reaches a state first.
//
// Gate per search: no violation, and explored / deduped / runs / outcome
// counts equal to the values recorded below for this depth.
#include <cstdio>
#include <map>
#include <string>

#include "check/engine.hpp"
#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "util/fingerprint_set.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kDepth = 20;
constexpr std::size_t kExplored = 116'647;
constexpr std::size_t kDeduped = 52'044;
constexpr std::size_t kRuns = 5;
const std::map<std::string, std::size_t> kOutcomes{{"success", 2},
                                                   {"user-intervention-required", 3}};
constexpr int kWindows = 10;           // slices of the timed loop (see summarize)
constexpr int kSetupBlocks = 20;       // set-up blocks timed before the searches
constexpr double kSetupBlockS = 0.1;   // seconds per set-up block

sa::check::ExploreOptions search_options(const RunOptions& opts) {
  sa::check::ExploreOptions options;
  options.max_depth = kDepth;
  options.max_states = 1 << 18;  // 4x the distinct states at this depth
  options.threads = 1;
  options.dpor = true;
  options.symmetry = true;
  if (!opts.fault.empty()) options.fault = sa::check::fault_from_string(opts.fault);
  return options;
}

bool search_ok(const sa::check::ExploreResult& r) {
  return !r.counterexample && r.stats.states_explored == kExplored &&
         r.stats.states_deduped == kDeduped && r.stats.runs_completed == kRuns &&
         r.stats.outcomes == kOutcomes;
}

struct Layers {
  LayerId root = Tracer::instance().layer("check.search_op");
  LayerId engine = Tracer::instance().layer("check.engine.frontier_search");
};

const Layers& layers() {
  static const Layers l;
  return l;
}

struct SearchStats {
  std::vector<OpSample> ops;
  double measured_ns = 0;  ///< whole operations, bracketing the root span
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  sa::check::ExploreStats last;
};

/// One set-up, in seconds: scenario (registry, invariants, safe set, SAG,
/// planner) plus the started model.
double time_setup(const sa::check::ExploreOptions& options) {
  const std::int64_t begin = now_ns();
  const sa::check::Scenario scenario = sa::check::make_scenario("pair");
  const sa::check::Model model = sa::check::make_model(scenario, options);
  return static_cast<double>(now_ns() - begin) / 1e9;
}

/// Searches until `seconds` pass (at least one).
void run_searches(const sa::check::Scenario& scenario, const sa::check::ExploreOptions& options,
                  double seconds, SearchStats& stats) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const std::int64_t op_begin = now_ns();
    sa::check::ExploreResult r;
    std::int64_t begin = 0, end = 0;
    {
      Scope root(layers().root);
      begin = now_ns();
      {
        Scope scope(layers().engine);
        r = sa::check::frontier_search(scenario, options);
      }
      end = now_ns();
    }
    stats.measured_ns += static_cast<double>(now_ns() - op_begin);
    const auto ns = static_cast<double>(end - begin);
    OpSample sample{end, ns, static_cast<double>(r.stats.states_explored), ns / 1e3};
    sample.add_reference();
    stats.ops.push_back(sample);
    ++stats.attempted;
    if (!search_ok(r)) ++stats.failed;
    stats.last = r.stats;
  } while (now_ns() < deadline);
}

/// Per-call cost of the Model operations the search engine repeats, sampled
/// along simulator-policy walks.
void measure_model(const sa::check::Model& initial, double seconds, Result& result) {
  double choices_ns = 0, apply_ns = 0, copy_ns = 0, fp_ns = 0, canon_ns = 0, footprint_ns = 0;
  std::uint64_t states = 0, footprints = 0, sink = 0;
  std::vector<sa::check::Choice> scratch;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    sa::check::Model model = initial;
    while (true) {
      std::int64_t t0 = now_ns();
      model.choices(scratch);
      std::int64_t t1 = now_ns();
      choices_ns += static_cast<double>(t1 - t0);
      if (scratch.empty()) break;
      for (const sa::check::Choice& c : scratch) sink += model.choice_footprint(c).content;
      std::int64_t t2 = now_ns();
      footprint_ns += static_cast<double>(t2 - t1);
      footprints += scratch.size();
      sa::check::Model fork = model;
      std::int64_t t3 = now_ns();
      copy_ns += static_cast<double>(t3 - t2);
      sink += fork.fingerprint();
      std::int64_t t4 = now_ns();
      fp_ns += static_cast<double>(t4 - t3);
      sink += fork.canonical_fingerprint();
      std::int64_t t5 = now_ns();
      canon_ns += static_cast<double>(t5 - t4);
      const auto next = model.sim_choice();
      if (!next) break;
      model.apply(*next);
      apply_ns += static_cast<double>(now_ns() - t5);
      ++states;
    }
  } while (now_ns() < deadline);
  (void)sink;
  const auto n = static_cast<double>(states);
  result.set("check.model.choices_ns", choices_ns / n, "ns");
  result.set("check.model.apply_ns", apply_ns / n, "ns");
  result.set("check.model.copy_ns", copy_ns / n, "ns");
  result.set("check.model.fingerprint_ns", fp_ns / n, "ns");
  result.set("check.model.canonical_fingerprint_ns", canon_ns / n, "ns");
  result.set("check.model.footprint_ns", footprint_ns / static_cast<double>(footprints), "ns");
}

void measure_fingerprint_set(std::uint64_t seed, Result& result) {
  constexpr std::size_t kInserts = 1 << 20;
  sa::util::FingerprintSet set(kInserts);
  std::uint64_t x = seed;
  const std::int64_t begin = now_ns();
  for (std::size_t i = 0; i < kInserts; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    set.insert(z ^ (z >> 27));
  }
  const auto ns = static_cast<double>(now_ns() - begin);
  result.set("util.fingerprint_set.insert_ns", ns / kInserts, "ns");
}

}  // namespace

void check_pair_e2e(const RunOptions& opts, Result& result) {
  const sa::check::ExploreOptions options = search_options(opts);
  const double setup_s =
      median_block_mean(kSetupBlocks, kSetupBlockS, [&] { return time_setup(options); });
  const sa::check::Scenario scenario = sa::check::make_scenario("pair");
  SearchStats warm;
  run_searches(scenario, options, 0.2, warm);

  SearchStats stats;
  const std::int64_t begin = now_ns();
  run_searches(scenario, options, opts.seconds, stats);
  const Windowed w = summarize(stats.ops, begin, now_ns(), kWindows);
  result.attempted += stats.attempted;
  result.failed += stats.failed;
  result.set("ops_per_s", w.rate, "1/s");
  result.set("setup_s", setup_s, "s");
  std::printf("check-pair: %llu searches at depth %d, %zu edges each, %.0f edges/s unscaled, "
              "host-speed factor %.3f\n",
              static_cast<unsigned long long>(stats.attempted), kDepth, kExplored, w.raw_rate,
              w.speed);
}

void check_pair_layers(const RunOptions& opts, bool primary, Result& result) {
  const double budget = primary ? opts.seconds : 1.5;
  Tracer& tracer = Tracer::instance();
  const sa::check::ExploreOptions options = search_options(opts);
  const sa::check::Scenario scenario = sa::check::make_scenario("pair");
  const sa::check::Model initial = sa::check::make_model(scenario, options);
  measure_model(initial, budget * 0.1, result);
  measure_fingerprint_set(opts.seed, result);

  // Searches, alternately untraced and traced; a zero budget runs exactly
  // one search.
  SearchStats plain, traced;
  tracer.drain();
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget * 0.8 * 1e9);
  while (now_ns() < deadline) {
    run_searches(scenario, options, 0, plain);
    tracer.set_enabled(true);
    run_searches(scenario, options, 0, traced);
    tracer.set_enabled(false);
  }
  result.attempted += plain.attempted + traced.attempted;
  result.failed += plain.failed + traced.failed;

  const Split s = split(tracer.drain(), layers().root);
  report_split("check-pair", s, traced.measured_ns, static_cast<double>(traced.attempted), result);
  result.set("check.states_explored", static_cast<double>(traced.last.states_explored), "count");
  result.set("check.deduped", static_cast<double>(traced.last.states_deduped), "count");
  result.set("check.sleep_pruned", static_cast<double>(traced.last.sleep_pruned), "count");
  result.set("check.runs", static_cast<double>(traced.last.runs_completed), "count");
  result.set("bench.trace_overhead_pct.check-pair",
             overhead_pct(traced.measured_ns / static_cast<double>(traced.attempted),
                          plain.measured_ns / static_cast<double>(plain.attempted)),
             "%");
}

}  // namespace perfbench
