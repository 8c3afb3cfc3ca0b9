// Exact-value pins on the orderings that region construction and the
// simulator's event loop must preserve. The values were recorded with the
// earlier quadratic CompositeAdaptationSystem::finalize() and the
// priority_queue simulator, so they hold only if the current ones create
// nodes, fill shards and order same-timestamp events exactly as those did.
//
//   * run_fleet digests (region digests mix epochs, final bits, virtual
//     time and per-shard outcomes);
//   * the mixed composite region of mixed_region.hpp: its node names, its
//     full-detail trace and its delivered/dropped message trace;
//   * the full-detail JSONL trace of the paper scenario on SimRuntime, with
//     and without control-channel loss (loss exercises timer cancels).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "core/fleet.hpp"
#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "mixed_region.hpp"
#include "obs/export.hpp"
#include "sim/network.hpp"

namespace sa::core {
namespace {

/// FNV-1a, 64-bit.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

// --- run_fleet ---------------------------------------------------------------

TEST(OrderingPins, FleetDigestSeed42With256Clusters) {
  FleetSpec spec;
  spec.clusters = 256;
  spec.seed = 42;
  const FleetReport report = run_fleet(spec);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.blocked_us_per_process, 2200.0);
  EXPECT_EQ(hex(report.digest), "6d2f2fab6e21cc35");
}

TEST(OrderingPins, FleetDigestWithPartialRegionAndDeepTree) {
  // 70 clusters -> regions of 32, 32 and 6; one lane per leaf under a
  // ternary tree, so every region builds interior levels. The full-detail
  // trace pins event order too, which the report digest does not cover.
  FleetSpec spec;
  spec.clusters = 70;
  spec.lanes_per_leaf = 1;
  spec.fanout = 3;
  spec.seed = 7;
  spec.trace = true;
  spec.trace_full = true;
  spec.trace_capacity = 1 << 16;
  const FleetReport report = run_fleet(spec);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.depth, 5U);
  EXPECT_EQ(report.trace_dropped, 0U);
  EXPECT_EQ(hex(report.digest), "a65bde4d7b20ef1a");
  std::uint64_t trace_hash = fnv1a("");
  for (const RegionReport& region : report.regions) {
    trace_hash = fnv1a(region.trace_jsonl, trace_hash);
  }
  EXPECT_EQ(hex(trace_hash), "c56fc50e1bd217a9");
}

// --- a mixed composite region -------------------------------------------------

std::uint64_t region_digest(testing::MixedRegion& region) {
  CompositeAdaptationSystem& system = region.system;
  std::uint64_t hash = fnv1a("mixed-region");
  runtime::Transport& transport = system.runtime().transport();
  for (runtime::NodeId node = 0; node < transport.node_count(); ++node) {
    hash = fnv1a(transport.node_name(node) + "\n", hash);
  }
  std::ostringstream trace;
  obs::write_jsonl(system.tracer(), trace);
  hash = fnv1a(trace.str(), hash);
  for (const runtime::TraceEntry& entry : system.network().trace()) {
    hash = fnv1a(std::to_string(entry.time) + " " + std::to_string(entry.from) + ">" +
                     std::to_string(entry.to) + " " + entry.type +
                     (entry.delivered ? " +\n" : " -\n"),
                 hash);
  }
  return hash;
}

TEST(OrderingPins, MixedCompositeRegionDigest) {
  testing::MixedRegion region;
  CompositeAdaptationSystem& system = region.system;
  system.tracer().set_detail(obs::TraceDetail::Full);
  system.tracer().set_enabled(true);
  system.network().set_tracing(true);
  system.set_current_configuration(region.source());

  const CompositeResult first = system.adapt_and_wait(region.target());
  EXPECT_TRUE(first.success);
  EXPECT_EQ(first.final_config, region.target());
  const CompositeResult second = system.adapt_and_wait(region.second_target());
  EXPECT_TRUE(second.success);
  EXPECT_EQ(second.final_config, region.second_target());

  std::uint64_t hash = region_digest(region);
  for (const CompositeResult* result : {&first, &second}) {
    hash = fnv1a(std::to_string(result->epoch) + "@" + std::to_string(result->started) + "-" +
                     std::to_string(result->finished) + "\n",
                 hash);
    for (const proto::ShardOutcome& outcome : result->outcomes) {
      hash = fnv1a(std::to_string(outcome.shard) + ":" +
                       std::to_string(outcome.result->steps_committed) + "\n",
                   hash);
    }
  }
  EXPECT_EQ(hex(hash), "120d394ecf8c03b2");
}

// --- the paper scenario on SimRuntime ------------------------------------------

struct PaperProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

std::uint64_t paper_trace_hash(SystemConfig config, proto::AdaptationOutcome& outcome) {
  SafeAdaptationSystem system(config);
  PaperProcess server, handheld, laptop;
  configure_paper_system(system);
  system.attach_process(kServerProcess, server, 0);
  system.attach_process(kHandheldProcess, handheld, 1);
  system.attach_process(kLaptopProcess, laptop, 1);
  system.tracer().set_detail(obs::TraceDetail::Full);
  system.tracer().set_enabled(true);
  system.finalize();
  system.set_current_configuration(paper_source(system.registry()));
  outcome = system.adapt_and_wait(paper_target(system.registry())).outcome;
  std::ostringstream trace;
  obs::write_jsonl(system.tracer(), trace);
  return fnv1a(trace.str());
}

TEST(OrderingPins, PaperScenarioTraceHash) {
  proto::AdaptationOutcome outcome{};
  const std::uint64_t hash = paper_trace_hash(SystemConfig{}, outcome);
  EXPECT_EQ(outcome, proto::AdaptationOutcome::Success);
  EXPECT_EQ(hex(hash), "9c44c63239460efc");
}

TEST(OrderingPins, LossyPaperScenarioTraceHash) {
  // Lost control messages drive retransmission timers that are armed and
  // cancelled throughout the run.
  SystemConfig config;
  config.seed = 5;
  config.control_channel.loss_probability = 0.2;
  proto::AdaptationOutcome outcome{};
  const std::uint64_t hash = paper_trace_hash(config, outcome);
  EXPECT_EQ(hex(hash), "993fbbf73f37b239");
}

}  // namespace
}  // namespace sa::core
