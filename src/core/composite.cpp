#include "core/composite.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "runtime/sim_runtime.hpp"
#include "util/log.hpp"

namespace sa::core {

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0U);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

CompositeAdaptationSystem::CompositeAdaptationSystem(CompositeConfig config)
    : config_(config),
      owned_runtime_(std::make_unique<runtime::SimRuntime>(config.seed)),
      runtime_(owned_runtime_.get()) {}

CompositeAdaptationSystem::CompositeAdaptationSystem(runtime::Runtime& rt, CompositeConfig config)
    : config_(config), runtime_(&rt) {}

sim::Simulator& CompositeAdaptationSystem::simulator() {
  auto* backend = dynamic_cast<runtime::SimRuntime*>(runtime_);
  if (!backend) throw std::logic_error("simulator() requires the sim runtime backend");
  return backend->simulator();
}

sim::Network& CompositeAdaptationSystem::network() {
  auto* backend = dynamic_cast<runtime::SimRuntime*>(runtime_);
  if (!backend) throw std::logic_error("network() requires the sim runtime backend");
  return backend->network();
}

CompositeAdaptationSystem::~CompositeAdaptationSystem() = default;

void CompositeAdaptationSystem::add_invariant(std::string name, std::string_view expression) {
  if (finalized()) throw std::logic_error("cannot add invariants after finalize()");
  expr::ExprPtr predicate = expr::parse(expression);
  // Validate component names eagerly, like InvariantSet::add does.
  const expr::VariableRefs variables = predicate->variable_refs();
  std::vector<config::ComponentId> components;
  components.reserve(variables.size());
  for (const std::string* variable : variables) components.push_back(registry_.require(*variable));
  pending_invariants_.push_back(
      PendingInvariant{std::move(name), std::move(predicate), std::move(components)});
}

void CompositeAdaptationSystem::add_action(std::string name, std::vector<std::string> removes,
                                           std::vector<std::string> adds, double cost,
                                           std::string description) {
  if (finalized()) throw std::logic_error("cannot add actions after finalize()");
  if (removes.empty() && adds.empty()) {
    throw std::invalid_argument("action must add or remove at least one component");
  }
  std::vector<config::ComponentId> components;
  components.reserve(removes.size() + adds.size());
  for (const std::string& component : removes) components.push_back(registry_.require(component));
  for (const std::string& component : adds) components.push_back(registry_.require(component));
  pending_actions_.push_back(PendingAction{std::move(name), std::move(removes), std::move(adds),
                                           cost, std::move(description),
                                           std::move(components)});
}

void CompositeAdaptationSystem::attach_process(config::ProcessId process,
                                               proto::AdaptableProcess& target, int stage) {
  if (finalized()) throw std::logic_error("cannot attach processes after finalize()");
  pending_processes_.push_back(PendingProcess{process, &target, stage});
}

void CompositeAdaptationSystem::finalize() {
  if (finalized()) throw std::logic_error("finalize() called twice");
  finalized_ = true;
  const std::size_t n = registry_.size();

  // Collaborative sets: components connected through an invariant OR an
  // action collaborate and must be planned together.
  UnionFind sets(n);
  const auto unite_all = [&](const std::vector<config::ComponentId>& components) {
    for (std::size_t i = 1; i < components.size(); ++i) sets.unite(components[0], components[i]);
  };
  for (const PendingInvariant& invariant : pending_invariants_) unite_all(invariant.components);
  for (const PendingAction& action : pending_actions_) unite_all(action.components);

  // Shards in ascending order of their set's root id; node ids, and so every
  // trace and fleet digest, follow this order.
  std::vector<std::size_t> shard_of(n);
  std::vector<std::size_t> set_size(n, 0);
  for (config::ComponentId id = 0; id < n; ++id) ++set_size[sets.find(id)];
  for (config::ComponentId id = 0; id < n; ++id) {
    if (sets.find(id) != id) continue;
    shard_of[id] = shards_.size();
    auto shard = std::make_unique<Shard>();
    shard->members.reserve(set_size[id]);
    shard->registry.reserve(set_size[id]);
    shards_.push_back(std::move(shard));
  }
  for (config::ComponentId id = 0; id < n; ++id) {
    shard_of[id] = shard_of[sets.find(id)];
    Shard& shard = *shards_[shard_of[id]];
    shard.members.push_back(id);  // ascending by construction
    const auto& info = registry_.info(id);
    shard.registry.add(info.name, info.process, info.description);
  }

  // Each declaration goes to its set's shard (its components all share one
  // set), so every shard sees its declarations in declaration order. The
  // staged declarations are not read again, so they move into the shards.
  for (PendingInvariant& invariant : pending_invariants_) {
    if (invariant.components.empty()) {
      // Constant invariants constrain every shard.
      for (const auto& shard : shards_) shard->invariants.add(invariant.name, invariant.predicate);
    } else {
      shards_[shard_of[invariant.components.front()]]->invariants.add(
          std::move(invariant.name), std::move(invariant.predicate));
    }
  }
  for (PendingAction& action : pending_actions_) {
    shards_[shard_of[action.components.front()]]->actions.add(
        std::move(action.name), std::move(action.removes), std::move(action.adds), action.cost,
        std::move(action.description));
  }

  // Agents: one per attached process hosting a member of the shard, in
  // attach order. Lanes: shards sharing a process must serialize (their
  // agents drive the same AdaptableProcess); process-disjoint shards may
  // adapt concurrently.
  std::vector<std::pair<config::ProcessId, std::size_t>> hosts;  // (process, shard)
  hosts.reserve(n);
  for (config::ComponentId id = 0; id < n; ++id) {
    hosts.emplace_back(registry_.process(id), shard_of[id]);
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  // (shard, attach index) pairs, sorted: each shard's agents in attach order.
  std::vector<std::pair<std::size_t, std::size_t>> agents;
  agents.reserve(hosts.size());
  UnionFind lanes(shards_.size());
  for (std::size_t p = 0; p < pending_processes_.size(); ++p) {
    const config::ProcessId process = pending_processes_[p].process;
    auto it = std::lower_bound(hosts.begin(), hosts.end(),
                               std::pair<config::ProcessId, std::size_t>{process, 0});
    for (const auto first = it; it != hosts.end() && it->first == process; ++it) {
      agents.emplace_back(it->second, p);
      lanes.unite(it->second, first->second);
    }
  }
  std::sort(agents.begin(), agents.end());
  auto next_agent = agents.begin();

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const runtime::NodeId manager_node =
        runtime_->transport().add_node("manager-s" + std::to_string(s));
    shard.manager_node = manager_node;
    shard.manager = std::make_unique<proto::AdaptationManager>(
        *runtime_, manager_node, shard.invariants, shard.actions, config_.manager);
    shard.manager->set_observability(&tracer_, &metrics_);
    tracer_.set_node_track(manager_node, obs::kManagerTrack);
    // All shard managers share the manager track; their events stay
    // distinguishable through per-request spans.
    tracer_.set_track_name(obs::kManagerTrack, "managers");

    for (; next_agent != agents.end() && next_agent->first == s; ++next_agent) {
      const PendingProcess* pending = &pending_processes_[next_agent->second];
      const runtime::NodeId agent_node = runtime_->transport().add_node(
          "agent-s" + std::to_string(s) + "-p" + std::to_string(pending->process));
      runtime_->transport().connect_bidirectional(manager_node, agent_node,
                                                  config_.control_channel);
      shard.agents.push_back(std::make_unique<proto::AdaptationAgent>(
          runtime_->clock(), runtime_->transport(), agent_node, manager_node, *pending->target,
          config_.agent));
      shard.agents.back()->set_observability(&tracer_, &metrics_,
                                             static_cast<std::int64_t>(pending->process));
      tracer_.set_track_name(static_cast<std::int64_t>(pending->process),
                             "process-" + std::to_string(pending->process));
      shard.manager->register_agent(pending->process, agent_node, pending->stage);
      shard.processes.push_back(pending->process);
    }
  }

  // Lane indices in order of each lane's lowest shard.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> lane_of_root(shards_.size(), kNone);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::size_t& lane = lane_of_root[lanes.find(s)];
    if (lane == kNone) lane = lane_count_++;
    shards_[s]->lane = lane;
  }

  build_tree();
  SA_INFO("composite") << shards_.size() << " collaborative set(s) in " << lane_count_
                       << " concurrency lane(s) under " << coordinators_.size()
                       << " coordinator(s), " << levels_ << " level(s)";
}

void CompositeAdaptationSystem::build_tree() {
  const std::size_t lanes_per_leaf = std::max<std::size_t>(1, config_.topology.lanes_per_leaf);
  const std::size_t fanout = std::clamp<std::size_t>(config_.topology.fanout, 2, 64);
  const std::size_t leaf_count =
      lane_count_ == 0 ? 1 : (lane_count_ + lanes_per_leaf - 1) / lanes_per_leaf;

  levels_ = 1;
  for (std::size_t m = leaf_count; m > 1; m = (m + fanout - 1) / fanout) ++levels_;

  struct Built {
    std::size_t index = 0;                  ///< into coordinators_
    std::vector<std::uint32_t> covered;     ///< global shard ids, ascending
  };

  const auto make_coordinator = [&](std::size_t depth, std::size_t position) {
    proto::CoordinatorConfig cc;
    cc.epoch_window = depth == 0 ? config_.topology.epoch_window : runtime::Time{0};
    const std::size_t height = (levels_ - 1) - depth;  // 0 at the leaves
    cc.commit_timeout =
        config_.topology.commit_timeout * static_cast<runtime::Time>(height + 1);
    const runtime::NodeId node = runtime_->transport().add_node(
        "coord-d" + std::to_string(depth) + "-" + std::to_string(position));
    coordinators_.push_back(std::make_unique<proto::AdaptationCoordinator>(
        *runtime_, node, cc, static_cast<int>(depth)));
    const std::int64_t track = -static_cast<std::int64_t>(100 + coordinators_.size());
    tracer_.set_track_name(track, runtime_->transport().node_name(node));
    tracer_.set_node_track(node, track);
    coordinators_.back()->set_observability(&tracer_, &metrics_, track);
    return coordinators_.size() - 1;
  };

  // Leaves: group lanes by lane / lanes_per_leaf; a leaf executes its lanes'
  // shards directly (serial per lane, concurrent across lanes).
  std::vector<Built> level(leaf_count);
  for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
    level[leaf].index = make_coordinator(levels_ - 1, leaf);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Built& leaf = level[shards_[s]->lane / lanes_per_leaf];
    coordinators_[leaf.index]->add_local_shard(static_cast<std::uint32_t>(s),
                                               static_cast<std::uint32_t>(shards_[s]->lane),
                                               *shards_[s]->manager);
    leaf.covered.push_back(static_cast<std::uint32_t>(s));
  }

  // Interior levels, bottom-up: every `fanout` nodes share a parent.
  std::size_t depth = levels_ - 1;
  while (level.size() > 1) {
    --depth;
    std::vector<Built> next;
    for (std::size_t begin = 0; begin < level.size(); begin += fanout) {
      Built parent;
      parent.index = make_coordinator(depth, next.size());
      proto::AdaptationCoordinator& coordinator = *coordinators_[parent.index];
      const std::size_t end = std::min(begin + fanout, level.size());
      for (std::size_t c = begin; c < end; ++c) {
        proto::AdaptationCoordinator& child = *coordinators_[level[c].index];
        runtime_->transport().connect_bidirectional(coordinator.node(), child.node(),
                                                    config_.control_channel);
        coordinator.add_child(child.node(), level[c].covered);
        child.set_parent(coordinator.node());
        coordinator_links_.emplace_back(coordinator.node(), child.node());
        parent.covered.insert(parent.covered.end(), level[c].covered.begin(),
                              level[c].covered.end());
      }
      std::sort(parent.covered.begin(), parent.covered.end());
      next.push_back(std::move(parent));
    }
    level = std::move(next);
  }
  root_ = level.front().index;
}

const std::vector<config::ComponentId>& CompositeAdaptationSystem::shard_members(
    std::size_t index) const {
  return shards_.at(index)->members;
}

proto::AdaptationManager& CompositeAdaptationSystem::shard_manager(std::size_t index) {
  return *shards_.at(index)->manager;
}

std::vector<runtime::NodeId> CompositeAdaptationSystem::manager_nodes() const {
  std::vector<runtime::NodeId> nodes;
  nodes.reserve(shards_.size());
  for (const auto& shard : shards_) nodes.push_back(shard->manager_node);
  return nodes;
}

config::Configuration CompositeAdaptationSystem::to_local(
    const Shard& shard, const config::Configuration& global) const {
  config::Configuration local;
  for (std::size_t i = 0; i < shard.members.size(); ++i) {
    if (global.contains(shard.members[i])) local = local.with(static_cast<config::ComponentId>(i));
  }
  return local;
}

config::Configuration CompositeAdaptationSystem::to_global(
    const Shard& shard, const config::Configuration& local) const {
  config::Configuration global;
  for (std::size_t i = 0; i < shard.members.size(); ++i) {
    if (local.contains(static_cast<config::ComponentId>(i))) {
      global = global.with(shard.members[i]);
    }
  }
  return global;
}

void CompositeAdaptationSystem::set_current_configuration(config::Configuration global) {
  if (!finalized()) throw std::logic_error("system not finalized");
  for (const auto& shard : shards_) {
    shard->manager->set_current_configuration(to_local(*shard, global));
  }
}

config::Configuration CompositeAdaptationSystem::current_configuration() const {
  config::Configuration global;
  for (const auto& shard : shards_) {
    global = global.unite(to_global(*shard, shard->manager->current_configuration()));
  }
  return global;
}

std::vector<proto::ShardTarget> CompositeAdaptationSystem::shard_targets(
    const config::Configuration& global_target) const {
  // Sub-requests per shard whose slice of the target differs from its state.
  std::vector<proto::ShardTarget> targets;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto local_target = to_local(*shards_[s], global_target);
    if (local_target == shards_[s]->manager->current_configuration()) continue;
    targets.push_back(proto::ShardTarget{static_cast<std::uint32_t>(s), local_target});
  }
  return targets;
}

void CompositeAdaptationSystem::request_adaptation(config::Configuration global_target,
                                                   CompletionHandler handler) {
  if (!finalized()) throw std::logic_error("system not finalized");
  if (request_in_flight_.exchange(true)) {
    throw std::logic_error("composite adaptation request while another is in flight");
  }
  submit_adaptation(std::move(global_target),
                    [this, handler = std::move(handler)](const CompositeResult& result) {
                      request_in_flight_ = false;
                      if (handler) handler(result);
                    });
}

std::uint64_t CompositeAdaptationSystem::submit_adaptation(config::Configuration global_target,
                                                           CompletionHandler handler) {
  if (!finalized()) throw std::logic_error("system not finalized");
  return root_coordinator().submit(
      shard_targets(global_target),
      [this, handler = std::move(handler)](
          const proto::AdaptationCoordinator::TicketResult& ticket) {
        CompositeResult result;
        result.started = ticket.started;
        result.finished = ticket.finished;
        result.epoch = ticket.epoch;
        result.success = true;
        for (const proto::ShardOutcome& outcome : ticket.outcomes) {
          result.orphaned += outcome.reported ? 0 : 1;
          result.success =
              result.success && outcome.result->outcome == proto::AdaptationOutcome::Success;
        }
        result.outcomes = ticket.outcomes;
        result.final_config = current_configuration();
        if (handler) handler(result);
      });
}

CompositeResult CompositeAdaptationSystem::adapt_and_wait(config::Configuration global_target,
                                                          std::size_t max_events) {
  // The completion handler may fire on a runtime thread, so the result slot
  // is guarded for the threaded backend; on the simulator this is free.
  std::mutex mutex;
  std::optional<CompositeResult> result;
  request_adaptation(global_target, [&](const CompositeResult& r) {
    std::lock_guard lock(mutex);
    result = r;
  });
  runtime_->wait_until(
      [&] {
        std::lock_guard lock(mutex);
        return result.has_value();
      },
      max_events);
  std::lock_guard lock(mutex);
  if (!result) throw std::runtime_error("composite adaptation did not terminate");
  return std::move(*result);
}

}  // namespace sa::core
