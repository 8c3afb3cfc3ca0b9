// Runtime driver for the per-process adaptation agent (paper §4, Figure 1).
//
// The complete Fig. 1 automaton lives in the sans-I/O AgentCore
// (proto/core/agent_core.hpp):
//
//   running --reset--> resetting --[reset complete]/reset done--> safe(blocked)
//   safe --[in-action complete]/adapt done--> adapted(blocked)
//   adapted --resume--> resuming --[resumption complete]/resume done--> running
//   resetting/safe/adapted --rollback--> running
//
// This class is the thin I/O shell: it feeds transport deliveries and timer
// fires into the core, executes the core's Outputs (sends, timers, trace
// events) and performs the requested AdaptableProcess operations, reporting
// their completions back as local events. The agent remains message-driven
// and idempotent: retransmitted manager messages re-elicit the
// acknowledgement appropriate to the agent's progress, which is how
// loss-of-message failures are survived.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/event.hpp"
#include "proto/adaptable_process.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/messages.hpp"
#include "runtime/runtime.hpp"

namespace sa::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace sa::obs

namespace sa::proto {

class AdaptationAgent {
 public:
  /// Attaches to `node` (whose receive handler it takes over) and drives
  /// `process` on behalf of the manager at `manager_node`. Timers come from
  /// `clock`, messages travel over `transport`; on the threaded backend both
  /// may call back concurrently, so every entry point locks `mutex_`.
  AdaptationAgent(runtime::Clock& clock, runtime::Transport& transport, runtime::NodeId node,
                  runtime::NodeId manager_node, AdaptableProcess& process,
                  AgentConfig config = {});
  /// Detaches the receive handler before members die; on the threaded
  /// backend this blocks until any in-flight delivery to this node returns,
  /// so a late retransmission cannot land in a half-destroyed agent.
  ~AdaptationAgent();

  /// Copies taken under the entity lock: runtime threads mutate this state,
  /// so polling during a threaded run must not read it unlocked.
  AgentState state() const {
    std::lock_guard lock(mutex_);
    return core_.state();
  }
  AgentStats stats() const {
    std::lock_guard lock(mutex_);
    return core_.stats();
  }
  runtime::NodeId node() const { return node_; }

  void set_fail_to_reset(bool fail) {
    std::lock_guard lock(mutex_);
    core_.set_fail_to_reset(fail);
  }

  /// §4.4 crash-recovery journal support (distributed backend): the step the
  /// agent last resumed to completion, and the restore used by a re-exec'd
  /// agent to seed its idempotent re-ack bookkeeping from disk.
  std::optional<StepRef> last_completed() const {
    std::lock_guard lock(mutex_);
    return core_.last_completed();
  }
  void restore_recovery(std::optional<StepRef> last_completed, runtime::Time total_blocked) {
    std::lock_guard lock(mutex_);
    core_.restore_recovery(std::move(last_completed), total_blocked);
  }

  /// Wires the observability layer in: Fig. 1 state transitions and the
  /// agent's pre/in/resume action timers flow into `recorder` (when enabled),
  /// duplicate-message counters into `metrics`. `track` identifies this
  /// agent's span track (normally the process id). Null pointers detach.
  void set_observability(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics,
                         std::int64_t track);

 private:
  void on_message(runtime::NodeId from, runtime::MessagePtr message);
  /// Steps the core into a leased OutputPool buffer and executes the outputs.
  /// Call under mutex_.
  void dispatch(AgentInput::Event event);
  void apply(const std::vector<Output>& outputs);
  void apply_arm_timer(const Output& out);
  void apply_disarm_timer(const Output& out);
  /// A fire of the pending-action timer armed as generation `gen`.
  void on_timer(std::uint64_t gen);

  // --- observability (no-ops until set_observability is called) --------------
  bool tracing() const { return recorder_ != nullptr && tracing_enabled(); }
  bool tracing(obs::EventKind kind) const {
    return recorder_ != nullptr && recorder_wants(kind);
  }
  bool tracing_enabled() const;  ///< recorder_->enabled(), out of line
  bool recorder_wants(obs::EventKind kind) const;  ///< recorder_->wants(), out of line
  /// Stamps this agent's track and the current clock time, then records.
  void trace_event(obs::Event event);

  runtime::Clock* clock_;
  runtime::Transport* transport_;
  runtime::NodeId node_;
  runtime::NodeId manager_;
  AdaptableProcess* process_;

  AgentCore core_;

  // --- real timer backing the core's single pending-action slot ---
  runtime::TimerId pending_event_ = 0;
  /// Bumped on every arm/disarm; timer callbacks capture the value at arm
  /// time and bail on mismatch, so a fire that raced a failed cancel() on
  /// the threaded backend cannot mutate state belonging to a newer step.
  std::uint64_t pending_gen_ = 0;
  const char* pending_label_ = "";  ///< label of the armed generation

  obs::TraceRecorder* recorder_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::int64_t track_ = obs::kNoTrack;

  /// Serializes message handlers, timer callbacks, and process callbacks.
  /// Recursive: a callback may synchronously re-enter (e.g. reach_safe_state
  /// completing inline while the reset handler still holds the lock).
  mutable std::recursive_mutex mutex_;
};

}  // namespace sa::proto
