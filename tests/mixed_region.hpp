// A small composite region that exercises every path through
// CompositeAdaptationSystem::finalize(): two constant invariants (which go to
// every collaborative set), a three-component set with an add-only and a
// remove-only action, a set spanning two processes, a component that no
// declaration touches, and two sets that share process 0 and so serialize
// into one lane. Declarations interleave the sets and processes attach out
// of id order, so per-set declaration order and agent order are observable.
//
// Sets, in shard order: s0 {X, Y} on processes {0, 1}; s1 {P, Q, R} on 0;
// s2 {U, V} on 2; s3 {W} on 3. Lanes: {s0, s1}, {s2}, {s3}.
#pragma once

#include "core/composite.hpp"

namespace sa::core::testing {

struct MixedRegionProcess : proto::AdaptableProcess {
  int applies = 0;
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override {
    ++applies;
    return true;
  }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

/// One leaf per lane under a binary tree, so leaf assignment and interior
/// levels are both exercised (3 leaves -> 2 -> root).
inline CompositeConfig mixed_region_config() {
  CompositeConfig config;
  config.seed = 11;
  config.topology.lanes_per_leaf = 1;
  config.topology.fanout = 2;
  return config;
}

struct MixedRegion {
  CompositeAdaptationSystem system;
  MixedRegionProcess p0, p1, p2, p3;

  explicit MixedRegion(CompositeConfig config = mixed_region_config()) : system(config) {
    config::ComponentRegistry& registry = system.registry();
    registry.add("P", 0);
    registry.add("X", 1);
    registry.add("Q", 0);
    registry.add("U", 2);
    registry.add("Y", 0);
    registry.add("R", 0);
    registry.add("V", 2);
    registry.add("W", 3);
    system.add_invariant("pq", "one(P, Q)");
    system.add_invariant("always", "true");
    system.add_invariant("uv", "one(U, V)");
    system.add_invariant("xy", "one(X, Y)");
    system.add_invariant("r-needs-pq", "R -> P | Q");
    system.add_invariant("tautology", "true | false");
    system.add_action("swapPQ", {"P"}, {"Q"}, 10);
    system.add_action("swapUV", {"U"}, {"V"}, 10);
    system.add_action("addR", {}, {"R"}, 5);
    system.add_action("swapXY", {"X"}, {"Y"}, 10);
    system.add_action("dropR", {"R"}, {}, 5);
    system.add_action("backPQ", {"Q"}, {"P"}, 10);
    system.attach_process(2, p2, 0);
    system.attach_process(0, p0, 1);
    system.attach_process(3, p3, 0);
    system.attach_process(1, p1, 0);
    system.finalize();
  }

  config::Configuration config_of(std::initializer_list<const char*> names) {
    return config::Configuration::of(system.registry(), names);
  }
  config::Configuration source() { return config_of({"P", "X", "U", "W"}); }
  config::Configuration target() { return config_of({"Q", "R", "Y", "V", "W"}); }
  /// Back through s1's remove-only and reverse actions; the other sets stay.
  config::Configuration second_target() { return config_of({"P", "Y", "V", "W"}); }
};

}  // namespace sa::core::testing
