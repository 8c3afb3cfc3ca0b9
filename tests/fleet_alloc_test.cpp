// Heap allocations per fleet cluster, and the fleet's fixed figures.
//
// Replaces the global operator new/delete with counting versions (malloc /
// aligned_alloc underneath), then pins:
//
//   * a 32-cluster run_fleet — the perfbench fleet operation — to at most 120
//     allocations per cluster. Every region is built, adapted once and torn
//     down, so each allocation is also freed in the same burst; what remains
//     is the per-cluster manager with its eager safe set and SAG, the
//     protocol messages, and the per-process metric series.
//   * the simulated region's exact event, message and epoch counts, so that
//     allocation work can never change what the simulator executes;
//   * the seed-42 10k-cluster fleet digest.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "core/composite.hpp"
#include "core/fleet.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    p = std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sa::core {
namespace {

constexpr std::size_t kClusters = 32;  // one region: the Configuration word's limit

FleetSpec region_spec(std::uint64_t seed, std::size_t clusters) {
  FleetSpec spec;
  spec.clusters = clusters;
  spec.clusters_per_region = kClusters;
  spec.threads = 1;
  spec.seed = seed;
  return spec;
}

TEST(FleetAlloc, RegionAllocatesAtMost120PerCluster) {
  // The first region on a thread also sizes thread-local output buffers and
  // function-local statics; steady state is what the fleet pays per region.
  ASSERT_TRUE(run_fleet(region_spec(1, kClusters)).success);

  constexpr std::size_t kRegions = 8;
  const std::size_t before = allocations();
  for (std::size_t r = 0; r < kRegions; ++r) {
    ASSERT_TRUE(run_fleet(region_spec(100 + r, kClusters)).success);
  }
  const std::size_t made = allocations() - before;
  const double per_cluster = static_cast<double>(made) / (kRegions * kClusters);
  RecordProperty("allocations_per_cluster", std::to_string(per_cluster));
  EXPECT_LE(per_cluster, 120.0) << made << " allocations over " << kRegions * kClusters
                                << " clusters";
}

struct FleetProcess final : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

TEST(FleetAlloc, RegionEventAndMessageCountsAreUnchanged) {
  // The same region run_fleet builds, driven by hand: every simulator event
  // and every control message of one X -> Y mass adaptation.
  for (const std::uint64_t seed : {7ULL, 42ULL}) {
    runtime::SimRuntime rt(seed);
    CompositeConfig config;
    config.control_channel = runtime::ChannelConfig{runtime::ms(2), 0, 0.0, true};
    config.topology.lanes_per_leaf = 4;
    config.topology.fanout = 4;
    config.topology.epoch_window = runtime::us(500);
    config.seed = seed;
    CompositeAdaptationSystem system(rt, config);
    std::vector<FleetProcess> processes(kClusters);
    config::Configuration source, target;
    for (std::size_t c = 0; c < kClusters; ++c) {
      const std::string s = std::to_string(c);
      system.registry().add("X" + s, static_cast<config::ProcessId>(c));
      system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
    }
    for (std::size_t c = 0; c < kClusters; ++c) {
      const std::string s = std::to_string(c);
      system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
      system.add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
      system.attach_process(static_cast<config::ProcessId>(c), processes[c], 0);
    }
    system.finalize();
    for (std::size_t c = 0; c < kClusters; ++c) {
      const std::string s = std::to_string(c);
      source = source.with(system.registry().require("X" + s));
      target = target.with(system.registry().require("Y" + s));
    }
    system.set_current_configuration(source);

    bool done = false;
    bool ok = false;
    system.request_adaptation(target, [&](const CompositeResult& result) {
      done = true;
      ok = result.success && result.orphaned == 0 && result.outcomes.size() == kClusters;
    });
    std::uint64_t events = 0;
    while (!done && rt.simulator().step()) ++events;
    std::uint64_t messages = 0;
    runtime::Transport& transport = rt.transport();
    for (runtime::NodeId a = 0; a < transport.node_count(); ++a) {
      for (runtime::NodeId b = 0; b < transport.node_count(); ++b) {
        if (transport.has_channel(a, b)) messages += transport.channel_stats(a, b).sent;
      }
    }
    EXPECT_TRUE(ok) << "seed " << seed;
    EXPECT_EQ(events, 383U) << "seed " << seed;    // 11.97 per cluster
    EXPECT_EQ(messages, 212U) << "seed " << seed;  // 6.625 per cluster
    EXPECT_EQ(system.root_coordinator().epochs_completed(), 1U) << "seed " << seed;
    EXPECT_EQ(rt.simulator().now(), runtime::us(15'700)) << "seed " << seed;
    EXPECT_EQ(system.current_configuration(), target) << "seed " << seed;
  }
}

TEST(FleetAlloc, TenThousandClusterDigestIsUnchanged) {
  const FleetReport report = run_fleet(region_spec(42, 10'000));
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.orphaned, 0U);
  EXPECT_EQ(report.digest, 0x4bdeeff1ef9220c6ULL);
}

}  // namespace
}  // namespace sa::core
