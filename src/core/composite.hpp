// Collaborative-set sharding (paper §7): "To handle the complexity, we can
// divide the adaptive components of a system into multiple collaborative sets
// where component collaborations occur only within each set. The component
// adaptation of each set can be handled independently, thereby reducing the
// complexity."
//
// CompositeAdaptationSystem computes the collaborative sets (components
// connected through shared invariants OR shared actions), builds one
// AdaptationManager per set over a *projected* sub-scenario — its own
// sub-registry, invariants, action table, SAG — and splits every adaptation
// request into per-set sub-requests. Sets whose process footprints are
// disjoint adapt CONCURRENTLY; sets sharing a process are serialized into a
// lane (their agents drive the same underlying AdaptableProcess, which can
// only quiesce for one step at a time).
//
// At fleet scale the flat fan-out becomes a MANAGER TREE: lanes group into
// leaf coordinators, leaves group under interior coordinators up to a single
// root (region -> shard -> collaborative set). Requests enter at the root and
// batch per epoch — submissions landing in the same epoch window group-commit
// (same-shard targets coalesce, later wins), the sealed batch fans down the
// tree as EpochCommitMsg slices, per-shard §4.4 results aggregate back up as
// EpochDoneMsg lists, and a commit timeout orphans partitioned subtrees so
// one unreachable region cannot wedge the pipeline. Lane serialization
// generalizes: each leaf runs its lanes' shards sequentially per lane,
// concurrently across lanes, and disjoint subtrees commit concurrently.
//
// Planning cost per request drops from O(2^n) to O(Σ 2^|set|), and wall-clock
// realization time for multi-set requests drops to the slowest lane.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "proto/agent.hpp"
#include "proto/coordinator.hpp"
#include "proto/manager.hpp"
#include "runtime/runtime.hpp"

namespace sa::sim {
class Simulator;
class Network;
}  // namespace sa::sim

namespace sa::runtime {
class SimRuntime;
}  // namespace sa::runtime

namespace sa::core {

/// Shape of the coordinator tree built over the concurrency lanes.
struct FleetTopology {
  /// Lanes per leaf coordinator (a leaf executes its lanes concurrently).
  std::size_t lanes_per_leaf = 8;
  /// Children per interior coordinator; clamped to [2, 64].
  std::size_t fanout = 8;
  /// The root's batching window: submissions landing inside it group-commit
  /// into one epoch. Interior nodes use window 0 (their parent batched).
  runtime::Time epoch_window = runtime::us(500);
  /// Base commit timeout at the leaves; each level up multiplies it by one
  /// more, so a parent never orphans a child that is still within budget.
  runtime::Time commit_timeout = runtime::seconds(30);
};

struct CompositeConfig {
  std::uint64_t seed = 42;
  runtime::ChannelConfig control_channel{runtime::ms(2), runtime::us(500), 0.0, true};
  proto::ManagerConfig manager;
  proto::AgentConfig agent;
  FleetTopology topology;
};

struct CompositeResult {
  bool success = false;  ///< every involved shard reached its sub-target
  /// Involved shards, ascending shard id, each with its shared result;
  /// `reported == false` marks a shard synthesized by a commit timeout rather
  /// than reported by its subtree.
  std::vector<proto::ShardOutcome> outcomes;
  config::Configuration final_config;                  ///< stitched, global
  runtime::Time started = 0;
  runtime::Time finished = 0;
  std::uint64_t epoch = 0;     ///< the root epoch that committed the request
  std::size_t orphaned = 0;    ///< shards synthesized by a commit timeout
};

class CompositeAdaptationSystem {
 public:
  /// Default: owns a deterministic SimRuntime seeded from `config.seed`.
  explicit CompositeAdaptationSystem(CompositeConfig config = {});
  /// Runs over a caller-owned runtime backend; it must outlive the system.
  explicit CompositeAdaptationSystem(runtime::Runtime& rt, CompositeConfig config = {});
  ~CompositeAdaptationSystem();

  CompositeAdaptationSystem(const CompositeAdaptationSystem&) = delete;
  CompositeAdaptationSystem& operator=(const CompositeAdaptationSystem&) = delete;

  // --- analysis phase --------------------------------------------------------
  config::ComponentRegistry& registry() { return registry_; }
  void add_invariant(std::string name, std::string_view expression);
  void add_action(std::string name, std::vector<std::string> removes,
                  std::vector<std::string> adds, double cost, std::string description = "");
  void attach_process(config::ProcessId process, proto::AdaptableProcess& target, int stage = 0);

  /// Computes collaborative sets, builds the per-set managers and agents, and
  /// erects the coordinator tree over the concurrency lanes.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Number of collaborative sets (valid after finalize()).
  std::size_t shard_count() const { return shards_.size(); }
  /// Global component ids of shard `index`, ascending.
  const std::vector<config::ComponentId>& shard_members(std::size_t index) const;
  std::size_t lane_count() const { return lane_count_; }
  /// Shard `index`'s projected invariants and actions, in declaration order.
  const config::InvariantSet& shard_invariants(std::size_t index) const {
    return shards_.at(index)->invariants;
  }
  const actions::ActionTable& shard_actions(std::size_t index) const {
    return shards_.at(index)->actions;
  }
  /// Processes with an agent in shard `index`, in attach order.
  const std::vector<config::ProcessId>& shard_processes(std::size_t index) const {
    return shards_.at(index)->processes;
  }
  /// Concurrency lane of shard `index`.
  std::size_t shard_lane(std::size_t index) const { return shards_.at(index)->lane; }

  // --- the manager tree ------------------------------------------------------
  std::size_t coordinator_count() const { return coordinators_.size(); }
  /// Levels in the tree (1 = the root alone executes every lane).
  std::size_t tree_depth() const { return levels_; }
  proto::AdaptationCoordinator& root_coordinator() { return *coordinators_.at(root_); }
  proto::AdaptationCoordinator& coordinator(std::size_t index) {
    return *coordinators_.at(index);
  }
  /// Parent -> child transport links, for fault injection over the tree.
  const std::vector<std::pair<runtime::NodeId, runtime::NodeId>>& coordinator_links() const {
    return coordinator_links_;
  }
  /// Manager endpoints, for trace conformance over the whole tree.
  std::vector<runtime::NodeId> manager_nodes() const;

  // --- runtime -----------------------------------------------------------------
  void set_current_configuration(config::Configuration global);
  config::Configuration current_configuration() const;

  using CompletionHandler = std::function<void(const CompositeResult&)>;
  /// One request at a time (throws if one is in flight); see
  /// submit_adaptation for the group-commit entry point.
  void request_adaptation(config::Configuration global_target, CompletionHandler handler);
  /// Group-commit entry point: submissions may overlap, and those landing in
  /// the same root epoch window merge into one epoch (same-shard targets
  /// coalesce, later wins). Returns the root ticket id.
  std::uint64_t submit_adaptation(config::Configuration global_target,
                                  CompletionHandler handler);
  CompositeResult adapt_and_wait(config::Configuration global_target,
                                 std::size_t max_events = 5'000'000);

  runtime::Runtime& runtime() { return *runtime_; }
  /// Owned observability: disabled-by-default trace recorder and the metrics
  /// registry every manager, agent, and coordinator reports into.
  obs::TraceRecorder& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Deterministic-backend escape hatches; throw std::logic_error when the
  /// system runs over a non-simulated runtime.
  sim::Simulator& simulator();
  sim::Network& network();
  proto::AdaptationManager& shard_manager(std::size_t index);

 private:
  /// Held by unique_ptr, so the tables below never move once the manager
  /// holds references to them.
  struct Shard {
    std::vector<config::ComponentId> members;  // global ids, ascending
    config::ComponentRegistry registry;        // local names = global names
    config::InvariantSet invariants{registry};
    actions::ActionTable actions{registry};
    std::unique_ptr<proto::AdaptationManager> manager;
    runtime::NodeId manager_node = 0;
    std::vector<std::unique_ptr<proto::AdaptationAgent>> agents;
    std::vector<config::ProcessId> processes;            // footprint
    std::size_t lane = 0;
  };

  config::Configuration to_local(const Shard& shard, const config::Configuration& global) const;
  config::Configuration to_global(const Shard& shard, const config::Configuration& local) const;
  void build_tree();
  /// Involved-shard targets for `global_target` (shards already there skip).
  std::vector<proto::ShardTarget> shard_targets(const config::Configuration& global_target) const;

  CompositeConfig config_;
  std::unique_ptr<runtime::SimRuntime> owned_runtime_;  ///< default backend
  runtime::Runtime* runtime_;
  config::ComponentRegistry registry_;
  bool finalized_ = false;

  // Declared before the protocol entities: instrumentation sites hold raw
  // pointers into these, so they must outlive every manager and coordinator.
  obs::TraceRecorder tracer_;
  obs::MetricsRegistry metrics_;

  // pre-finalize staging
  struct PendingInvariant {
    std::string name;
    expr::ExprPtr predicate;
    std::vector<config::ComponentId> components;  ///< its variables, by name
  };
  struct PendingAction {
    std::string name;
    std::vector<std::string> removes;
    std::vector<std::string> adds;
    double cost;
    std::string description;
    std::vector<config::ComponentId> components;  ///< removes, then adds
  };
  struct PendingProcess {
    config::ProcessId process;
    proto::AdaptableProcess* target;
    int stage;
  };
  std::vector<PendingInvariant> pending_invariants_;
  std::vector<PendingAction> pending_actions_;
  std::vector<PendingProcess> pending_processes_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t lane_count_ = 0;

  // The manager tree, leaves first; destroyed before the shards they drive.
  std::vector<std::unique_ptr<proto::AdaptationCoordinator>> coordinators_;
  std::size_t root_ = 0;
  std::size_t levels_ = 0;
  std::vector<std::pair<runtime::NodeId, runtime::NodeId>> coordinator_links_;

  std::atomic<bool> request_in_flight_{false};
};

}  // namespace sa::core
