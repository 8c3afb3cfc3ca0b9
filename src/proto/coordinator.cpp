#include "proto/coordinator.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace sa::proto {

namespace {

const std::vector<double>& batch_shard_buckets() {
  static const std::vector<double> buckets{1, 2, 4, 8, 16, 32, 64, 128, 256};
  return buckets;
}

}  // namespace

AdaptationCoordinator::AdaptationCoordinator(runtime::Runtime& rt, runtime::NodeId node,
                                             CoordinatorConfig config, int depth)
    : clock_(&rt.clock()),
      executor_(&rt.executor()),
      transport_(&rt.transport()),
      node_(node),
      depth_(depth),
      core_(config) {
  core_.set_span_seed(node_);
  transport_->set_handler(node_, [this](runtime::NodeId from, runtime::MessagePtr message) {
    on_message(from, std::move(message));
  });
}

// Detach before members die; on the threaded backend this waits out any
// in-flight delivery so a late message cannot land in a half-destroyed
// coordinator.
AdaptationCoordinator::~AdaptationCoordinator() { transport_->set_handler(node_, nullptr); }

void AdaptationCoordinator::set_parent(runtime::NodeId parent_node) {
  std::lock_guard lock(mutex_);
  parent_node_ = parent_node;
  has_parent_ = true;
  core_.set_has_parent(true);
}

std::size_t AdaptationCoordinator::add_child(runtime::NodeId child_node,
                                             std::vector<std::uint32_t> shards) {
  std::lock_guard lock(mutex_);
  const std::size_t index = core_.add_child(std::move(shards));
  child_nodes_.push_back(child_node);
  child_of_[child_node] = index;
  return index;
}

void AdaptationCoordinator::add_local_shard(std::uint32_t shard, std::uint32_t lane,
                                            AdaptationManager& manager) {
  std::lock_guard lock(mutex_);
  core_.add_local_shard(shard, lane);
  shard_manager_[shard] = &manager;
}

std::uint64_t AdaptationCoordinator::submit(std::vector<ShardTarget> targets,
                                            TicketHandler handler) {
  std::lock_guard lock(mutex_);
  if (has_parent_) throw std::logic_error("submit() is root-only; interior nodes take commits");
  const std::uint64_t ticket = next_ticket_++;
  pending_tickets_[ticket] = PendingTicket{std::move(handler), clock_->now()};
  // The ticket span roots this submission's causal tree: the epoch it seals
  // into links back to it, and TicketDone closes it.
  const std::uint64_t ticket_span = span_of(node_, SpanKind::Ticket, ticket);
  if (tracing(obs::EventKind::TicketSubmitted)) {
    obs::Event e;
    e.kind = obs::EventKind::TicketSubmitted;
    e.span = ticket_span;
    e.value = static_cast<double>(targets.size());
    e.has_value = true;
    trace_event(std::move(e));
  }
  dispatch(CoordinatorInput{
      clock_->now(), CoordinatorInput::SubmitRequest{ticket, std::move(targets), ticket_span}});
  return ticket;
}

void AdaptationCoordinator::set_observability(obs::TraceRecorder* recorder,
                                              obs::MetricsRegistry* metrics, std::int64_t track) {
  std::lock_guard lock(mutex_);
  recorder_ = recorder;
  metrics_ = metrics;
  track_ = track;
}

bool AdaptationCoordinator::tracing() const {
  return recorder_ != nullptr && recorder_->enabled();
}

bool AdaptationCoordinator::tracing(obs::EventKind kind) const {
  return recorder_ != nullptr && recorder_->wants(kind);
}

void AdaptationCoordinator::trace_event(obs::Event event) {
  event.time = clock_->now();
  if (event.track == obs::kNoTrack) event.track = track_;
  recorder_->record(std::move(event));
}

std::string AdaptationCoordinator::depth_label() const { return std::to_string(depth_); }

void AdaptationCoordinator::on_message(runtime::NodeId from, runtime::MessagePtr message) {
  std::lock_guard lock(mutex_);
  const auto* coord = dynamic_cast<const CoordMessage*>(message.get());
  if (!coord) {
    SA_WARN("coordinator") << "non-coordinator message " << message->type_name();
    return;
  }
  if (has_parent_ && from == parent_node_ && coord->kind() == CoordMsgKind::EpochCommit) {
    const auto& commit = static_cast<const EpochCommitMsg&>(*coord);
    dispatch(CoordinatorInput{
        clock_->now(),
        CoordinatorInput::SubmitRequest{commit.epoch, commit.targets, commit.ctx.parent_span}});
    return;
  }
  const auto child = child_of_.find(from);
  if (child != child_of_.end() && coord->kind() == CoordMsgKind::EpochDone) {
    const auto& done = static_cast<const EpochDoneMsg&>(*coord);
    dispatch(CoordinatorInput{
        clock_->now(), CoordinatorInput::ChildDone{child->second, done.epoch, done.outcomes}});
    return;
  }
  SA_WARN("coordinator") << "unexpected " << message->type_name() << " from node " << from;
}

void AdaptationCoordinator::dispatch(CoordinatorInput input) {
  OutputPool::Lease lease;
  core_.step(input, lease.buffer());
  apply(lease.buffer());
}

void AdaptationCoordinator::apply(std::vector<Output>& outputs) {
  for (Output& out : outputs) {
    switch (out.kind) {
      case OutputKind::Send:
        transport_->send(node_, child_nodes_.at(out.process), out.message);
        break;
      case OutputKind::SendParent:
        transport_->send(node_, parent_node_, out.message);
        break;
      case OutputKind::ArmTimer:
        apply_arm_timer(out);
        break;
      case OutputKind::DisarmTimer:
        apply_disarm_timer(out);
        break;
      case OutputKind::Transition:
        if (tracing(obs::EventKind::CoordinatorPhase)) {
          obs::Event e;
          e.kind = obs::EventKind::CoordinatorPhase;
          e.name = std::string(to_string(out.cphase_to));
          e.detail = std::string(to_string(out.cphase_from));
          trace_event(std::move(e));
        }
        break;
      case OutputKind::ExecuteShard:
        apply_execute_shard(out);
        break;
      case OutputKind::EpochOpened:
        if (tracing(obs::EventKind::EpochOpened)) {
          obs::Event e;
          e.kind = obs::EventKind::EpochOpened;
          e.span = out.span;
          e.epoch = out.epoch;
          e.value = static_cast<double>(out.epoch);
          e.has_value = true;
          trace_event(std::move(e));
        }
        break;
      case OutputKind::FlowLink:
        if (tracing(obs::EventKind::FlowLink)) {
          obs::Event e;
          e.kind = obs::EventKind::FlowLink;
          e.span = out.span;
          e.parent_span = out.parent_span;
          e.epoch = out.epoch;
          trace_event(std::move(e));
        }
        break;
      case OutputKind::EpochSealed:
        epoch_sealed_at_ = clock_->now();
        if (tracing(obs::EventKind::EpochSealed)) {
          obs::Event e;
          e.kind = obs::EventKind::EpochSealed;
          e.span = out.span;
          e.epoch = out.epoch;
          e.value = out.value;   // shard count
          e.has_value = true;
          e.detail = "coalesced " + std::to_string(static_cast<std::size_t>(out.extra));
          trace_event(std::move(e));
        }
        if (metrics_ != nullptr) {
          metrics_
              ->histogram("sa_epoch_batch_shards", batch_shard_buckets(), "depth", depth_label(),
                          "Shards per sealed epoch, by tree depth")
              .observe(out.value);
          if (out.extra > 0) {
            metrics_
                ->counter("sa_epoch_coalesced_total", "depth", depth_label(),
                          "Same-shard requests merged by group commit, by tree depth")
                .inc(static_cast<std::uint64_t>(out.extra));
          }
        }
        break;
      case OutputKind::EpochCompleted:
        if (tracing(obs::EventKind::EpochCompleted)) {
          obs::Event e;
          e.kind = obs::EventKind::EpochCompleted;
          e.span = out.span;
          e.epoch = out.epoch;
          e.value = static_cast<double>(clock_->now() - epoch_sealed_at_);
          e.has_value = true;
          if (out.extra > 0) {
            e.detail = "orphaned " + std::to_string(static_cast<std::size_t>(out.extra));
          }
          trace_event(std::move(e));
        }
        if (metrics_ != nullptr) {
          metrics_
              ->counter("sa_epochs_total", "depth", depth_label(),
                        "Completed epochs, by tree depth")
              .inc();
          metrics_
              ->histogram("sa_epoch_latency_us", obs::default_time_buckets_us(), "depth",
                          depth_label(), "Seal-to-complete commit latency, by tree depth")
              .observe(static_cast<double>(clock_->now() - epoch_sealed_at_));
          if (out.extra > 0) {
            metrics_
                ->counter("sa_epoch_orphaned_shards_total", "depth", depth_label(),
                          "Shards orphaned by the commit timeout, by tree depth")
                .inc(static_cast<std::uint64_t>(out.extra));
          }
        }
        break;
      case OutputKind::TicketDone:
        apply_ticket_done(out);
        break;
      case OutputKind::DuplicateMessage:
        SA_DEBUG("coordinator") << "absorbed " << out.label << ": " << out.detail;
        if (metrics_ != nullptr) {
          metrics_
              ->counter("sa_coordinator_duplicates_total", "depth", depth_label(),
                        "Stale or re-delivered coordinator messages absorbed, by tree depth")
              .inc();
        }
        break;
      default:
        break;  // manager/agent-only kinds never appear in coordinator output
    }
  }
}

void AdaptationCoordinator::apply_arm_timer(const Output& out) {
  if (tracing(obs::EventKind::TimerArmed)) {
    obs::Event e;
    e.kind = obs::EventKind::TimerArmed;
    e.name = out.label;
    e.value = static_cast<double>(out.delay);
    e.has_value = true;
    trace_event(std::move(e));
  }
  // Same generation-guard discipline as the manager: a fire that the threaded
  // backend dequeued before a failed cancel() observes a newer generation and
  // bails instead of sealing or timing out an epoch it no longer owns. The
  // callback captures {this, gen} only, so std::function holds it inline.
  if (out.ctimer == CoordinatorTimer::Epoch) {
    epoch_label_ = out.label;
    const std::uint64_t gen = ++epoch_gen_;
    epoch_timer_ = clock_->schedule_after(
        out.delay, [this, gen] { on_timer(CoordinatorTimer::Epoch, gen); });
  } else {
    commit_label_ = out.label;
    const std::uint64_t gen = ++commit_gen_;
    commit_timer_ = clock_->schedule_after(
        out.delay, [this, gen] { on_timer(CoordinatorTimer::Commit, gen); });
  }
}

void AdaptationCoordinator::on_timer(CoordinatorTimer slot, std::uint64_t gen) {
  std::lock_guard lock(mutex_);
  const bool epoch = slot == CoordinatorTimer::Epoch;
  if (gen != (epoch ? epoch_gen_ : commit_gen_)) return;  // superseded or disarmed
  (epoch ? epoch_timer_ : commit_timer_) = 0;
  if (tracing(obs::EventKind::TimerFired)) {
    obs::Event e;
    e.kind = obs::EventKind::TimerFired;
    e.name = epoch ? epoch_label_ : commit_label_;
    trace_event(std::move(e));
  }
  dispatch(CoordinatorInput{clock_->now(), CoordinatorInput::TimerFired{slot}});
}

void AdaptationCoordinator::apply_disarm_timer(const Output& out) {
  runtime::TimerId& id = out.ctimer == CoordinatorTimer::Epoch ? epoch_timer_ : commit_timer_;
  if (id != 0) {
    clock_->cancel(id);
    id = 0;
    if (tracing(obs::EventKind::TimerCancelled)) {
      obs::Event e;
      e.kind = obs::EventKind::TimerCancelled;
      e.name = out.label;
      trace_event(std::move(e));
    }
  }
  // Invalidate a fire that cancel() was too late to stop.
  if (out.ctimer == CoordinatorTimer::Epoch) {
    ++epoch_gen_;
  } else {
    ++commit_gen_;
  }
}

void AdaptationCoordinator::apply_execute_shard(const Output& out) {
  AdaptationManager* manager = shard_manager_.at(out.shard);
  std::uint32_t slot = 0;
  {
    std::lock_guard guard(executions_mutex_);
    if (executions_.empty()) executions_.reserve(shard_manager_.size());
    while (slot < executions_.size() && executions_[slot].manager != nullptr) ++slot;
    if (slot == executions_.size()) executions_.emplace_back();
    executions_[slot] = Execution{manager, out.shard, out.epoch, out.config, out.parent_span, {}};
  }
  // Both hops go through the executor so the coordinator lock and the
  // manager lock are never held together (no lock-order cycle when a manager
  // completion races a coordinator timer on the threaded backend).
  executor_->post([this, slot] { start_execution(slot); });
}

void AdaptationCoordinator::start_execution(std::uint32_t slot) {
  AdaptationManager* manager = nullptr;
  config::Configuration target;
  std::uint64_t cause = 0;
  {
    std::lock_guard guard(executions_mutex_);
    const Execution& execution = executions_[slot];
    manager = execution.manager;
    target = execution.target;
    cause = execution.cause;
  }
  manager->enqueue_adaptation(
      target,
      [this, slot](const AdaptationResult& result) { finish_execution(slot, result); }, cause);
}

void AdaptationCoordinator::finish_execution(std::uint32_t slot,
                                             const AdaptationResult& result) {
  // The one copy of this result: every level above shares it.
  std::shared_ptr<const AdaptationResult> shared = std::make_shared<AdaptationResult>(result);
  {
    std::lock_guard guard(executions_mutex_);
    executions_[slot].result = std::move(shared);
  }
  executor_->post([this, slot] { report_execution(slot); });
}

void AdaptationCoordinator::report_execution(std::uint32_t slot) {
  std::lock_guard lock(mutex_);
  CoordinatorInput::ShardFinished finished;
  {
    std::lock_guard guard(executions_mutex_);
    Execution& execution = executions_[slot];
    finished = CoordinatorInput::ShardFinished{execution.epoch, execution.shard,
                                               std::move(execution.result)};
    execution = Execution{};
  }
  dispatch(CoordinatorInput{clock_->now(), std::move(finished)});
}

void AdaptationCoordinator::apply_ticket_done(Output& out) {
  const auto it = pending_tickets_.find(out.ticket);
  if (it == pending_tickets_.end()) {
    SA_WARN("coordinator") << "result for unknown ticket " << out.ticket;
    return;
  }
  TicketResult result;
  result.ticket = out.ticket;
  result.epoch = out.epoch;
  result.outcomes = std::move(out.shard_outcomes);
  result.started = it->second.started;
  result.finished = clock_->now();
  TicketHandler handler = std::move(it->second.handler);
  pending_tickets_.erase(it);
  if (tracing(obs::EventKind::TicketDone)) {
    obs::Event e;
    e.kind = obs::EventKind::TicketDone;
    e.span = out.span;
    e.parent_span = out.parent_span;
    e.epoch = out.epoch;
    e.value = static_cast<double>(result.finished - result.started);
    e.has_value = true;
    trace_event(std::move(e));
  }
  SA_INFO("coordinator") << "ticket " << result.ticket << " done in epoch " << result.epoch
                         << " (" << result.outcomes.size() << " shard(s))";
  if (handler) handler(result);
}

}  // namespace sa::proto
