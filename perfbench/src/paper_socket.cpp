// paper-socket: the paper's §5 request — {D4,D1,E1} -> {D5,D3,E2}, MAP
// A2, A17, A1, A16, A4 — repeated as a closed loop with one request in
// flight. The manager and the three agents are four local endpoints of one
// in-process SocketRuntime over 127.0.0.1 UDP; the agents drive stub
// processes with every modelled AgentConfig duration at 0, so the loop
// measures the control plane itself: driver, core step, wire codec,
// syscalls, and the timer and executor handoffs.
//
// The traced pass wraps the runtime's Clock, Executor and Transport (and
// each receive handler) in decorators that record spans; the untraced run
// uses the bare SocketRuntime.
#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "actions/planner.hpp"
#include "actions/sag.hpp"
#include "config/enumerate.hpp"
#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "proto/adaptable_process.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/core/manager_core.hpp"
#include "proto/wire_codecs.hpp"
#include "runtime/socket_runtime.hpp"
#include "runtime/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sa::runtime::MessagePtr;
using sa::runtime::NodeId;
using sa::runtime::Time;

const std::vector<std::string> kMap{"A2", "A17", "A1", "A16", "A4"};
constexpr std::uint64_t kTargetBits = 82;  // {D5, D3, E2} = 1010010
constexpr int kWindows = 10;  // slices of the timed loop (see summarize)
constexpr std::size_t kSegmentOps = 1000;  // adaptations per freshly built system

struct Layers {
  LayerId root = Tracer::instance().layer("paper.adaptation");
  LayerId client = Tracer::instance().layer("bench.client");
  LayerId handler = Tracer::instance().layer("proto.driver.handler");
  LayerId timer = Tracer::instance().layer("proto.driver.timer");
  LayerId task = Tracer::instance().layer("proto.driver.task");
  LayerId send = Tracer::instance().layer("runtime.transport.send");
  LayerId transit = Tracer::instance().layer("runtime.transport.transit");
  LayerId fire_lag = Tracer::instance().layer("runtime.clock.fire_lag");
  LayerId queue = Tracer::instance().layer("runtime.executor.queue");
  LayerId process = Tracer::instance().layer("proto.process");
};

const Layers& layers() {
  static const Layers l;
  return l;
}

// --- runtime decorators (traced pass only) ------------------------------------

class TimedClock final : public sa::runtime::Clock {
 public:
  explicit TimedClock(sa::runtime::Clock& inner)
      : inner_(inner), lag_track_(Tracer::instance().synthetic_track()) {}

  Time now() const override { return inner_.now(); }
  sa::runtime::TimerId schedule_at(Time t, std::function<void()> fn) override {
    const Time delay = std::max<Time>(0, t - inner_.now());
    return inner_.schedule_at(t, wrap(delay, std::move(fn)));
  }
  sa::runtime::TimerId schedule_after(Time delay, std::function<void()> fn) override {
    return inner_.schedule_after(delay, wrap(delay, std::move(fn)));
  }
  bool cancel(sa::runtime::TimerId id) override { return inner_.cancel(id); }

  std::uint64_t scheduled() const { return scheduled_.load(); }

 private:
  std::function<void()> wrap(Time delay_us, std::function<void()> fn) {
    scheduled_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t due = now_ns() + delay_us * 1000;
    return [this, due, fn = std::move(fn)] {
      Tracer& tracer = Tracer::instance();
      if (tracer.enabled()) {
        tracer.record_on(lag_track_, layers().fire_lag, due, std::max(due, now_ns()));
      }
      Scope scope(layers().timer);
      fn();
    };
  }

  sa::runtime::Clock& inner_;
  std::uint32_t lag_track_;
  std::atomic<std::uint64_t> scheduled_{0};
};

class TimedExecutor final : public sa::runtime::Executor {
 public:
  explicit TimedExecutor(sa::runtime::Executor& inner)
      : inner_(inner), queue_track_(Tracer::instance().synthetic_track()) {}

  void post(std::function<void()> fn) override {
    const std::int64_t posted = now_ns();
    inner_.post([this, posted, fn = std::move(fn)] {
      Tracer& tracer = Tracer::instance();
      if (tracer.enabled()) tracer.record_on(queue_track_, layers().queue, posted, now_ns());
      Scope scope(layers().task);
      fn();
    });
  }

 private:
  sa::runtime::Executor& inner_;
  std::uint32_t queue_track_;
};

/// Times send(), each handler's run, and every message's transit from send()
/// returning to its handler starting (matched FIFO per directed channel —
/// loopback runs at one request in flight lose nothing).
class TimedTransport final : public sa::runtime::Transport {
 public:
  explicit TimedTransport(sa::runtime::Transport& inner) : inner_(inner) {}

  NodeId add_node(std::string name, sa::runtime::ReceiveHandler handler) override {
    // The node id is unknown until the inner add_node returns, so install
    // the wrapped handler afterwards.
    const NodeId node = inner_.add_node(std::move(name));
    if (handler) set_handler(node, std::move(handler));
    return node;
  }
  void set_handler(NodeId node, sa::runtime::ReceiveHandler handler) override {
    if (!handler) {
      inner_.set_handler(node, nullptr);
      return;
    }
    inner_.set_handler(node, [this, node, handler = std::move(handler)](NodeId from,
                                                                        MessagePtr message) {
      if (Tracer::instance().enabled()) note_delivery(from, node);
      Scope scope(layers().handler);
      handler(from, std::move(message));
    });
  }
  const std::string& node_name(NodeId node) const override { return inner_.node_name(node); }
  std::size_t node_count() const override { return inner_.node_count(); }
  void connect(NodeId from, NodeId to, sa::runtime::ChannelConfig config) override {
    inner_.connect(from, to, config);
  }
  void connect_bidirectional(NodeId a, NodeId b, sa::runtime::ChannelConfig config) override {
    inner_.connect_bidirectional(a, b, config);
  }
  bool has_channel(NodeId from, NodeId to) const override { return inner_.has_channel(from, to); }

  bool send(NodeId from, NodeId to, MessagePtr message) override {
    sends_.fetch_add(1, std::memory_order_relaxed);
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return inner_.send(from, to, std::move(message));
    std::uint64_t k = 0;
    {
      std::lock_guard lock(mutex_);
      k = ++channel_of(from, to).sent;
    }
    bool sent = false;
    {
      Scope scope(layers().send);
      sent = inner_.send(from, to, std::move(message));
    }
    const std::int64_t returned = now_ns();
    std::lock_guard lock(mutex_);
    Channel& channel = channel_of(from, to);
    // A fast receiver may run the handler before send() returns; that
    // message had no transit after the return, so it records none.
    if (sent && channel.delivered_early.erase(k) == 0) channel.returned[k] = returned;
    return sent;
  }

  void partition_node(NodeId node, bool partitioned) override {
    inner_.partition_node(node, partitioned);
  }
  void partition_pair(NodeId a, NodeId b, bool partitioned) override {
    inner_.partition_pair(a, b, partitioned);
  }
  void set_loss(NodeId from, NodeId to, double probability) override {
    inner_.set_loss(from, to, probability);
  }
  sa::runtime::ChannelStats channel_stats(NodeId from, NodeId to) const override {
    return inner_.channel_stats(from, to);
  }
  void set_tracing(bool enabled) override { inner_.set_tracing(enabled); }
  const std::vector<sa::runtime::TraceEntry>& trace() const override { return inner_.trace(); }
  void clear_trace() override { inner_.clear_trace(); }
  void set_observer(sa::obs::TraceRecorder* recorder, sa::obs::MetricsRegistry* metrics) override {
    inner_.set_observer(recorder, metrics);
  }

  std::uint64_t sends() const { return sends_.load(); }

 private:
  /// Per directed channel: the k-th delivery is the k-th send (FIFO).
  struct Channel {
    std::uint32_t track = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::map<std::uint64_t, std::int64_t> returned;  ///< send k -> send() return time
    std::set<std::uint64_t> delivered_early;         ///< delivered before send() returned
  };

  Channel& channel_of(NodeId from, NodeId to) {
    auto [it, inserted] = channels_.try_emplace({from, to});
    if (inserted) it->second.track = Tracer::instance().synthetic_track();
    return it->second;
  }

  void note_delivery(NodeId from, NodeId to) {
    const std::int64_t arrived = now_ns();
    std::lock_guard lock(mutex_);
    Channel& channel = channel_of(from, to);
    const std::uint64_t k = ++channel.delivered;
    const auto it = channel.returned.find(k);
    if (it == channel.returned.end()) {
      channel.delivered_early.insert(k);
      return;
    }
    Tracer::instance().record_on(channel.track, layers().transit, it->second,
                                 std::max(it->second, arrived));
    channel.returned.erase(it);
  }

  sa::runtime::Transport& inner_;
  std::atomic<std::uint64_t> sends_{0};
  std::mutex mutex_;
  std::map<std::pair<NodeId, NodeId>, Channel> channels_;
};

class TimedRuntime final : public sa::runtime::Runtime {
 public:
  explicit TimedRuntime(sa::runtime::Runtime& inner)
      : inner_(inner),
        clock_(inner.clock()),
        executor_(inner.executor()),
        transport_(inner.transport()) {}

  sa::runtime::Clock& clock() override { return clock_; }
  sa::runtime::Executor& executor() override { return executor_; }
  sa::runtime::Transport& transport() override { return transport_; }
  std::string_view backend_name() const override { return inner_.backend_name(); }
  void advance(Time duration) override { inner_.advance(duration); }
  bool wait_until(const std::function<bool()>& done, std::size_t max_events) override {
    return inner_.wait_until(done, max_events);
  }

  TimedClock& timed_clock() { return clock_; }
  TimedTransport& timed_transport() { return transport_; }

 private:
  sa::runtime::Runtime& inner_;
  TimedClock clock_;
  TimedExecutor executor_;
  TimedTransport transport_;
};

// --- the benchmark's adaptable process ----------------------------------------

/// Stub process that records what it was asked to apply and how long it sat
/// blocked: from reaching its safe state to resume() (the §5 blocked time).
class BenchProcess final : public sa::proto::AdaptableProcess {
 public:
  bool prepare(const sa::proto::LocalCommand&) override {
    Scope scope(layers().process);
    return true;
  }
  void reach_safe_state(bool, std::function<void()> reached) override {
    {
      Scope scope(layers().process);
      std::lock_guard lock(mutex_);
      reached_at_ = now_ns();
    }
    reached();
  }
  void abort_safe_state() override {
    std::lock_guard lock(mutex_);
    reached_at_ = 0;
  }
  bool apply(const sa::proto::LocalCommand& command) override {
    Scope scope(layers().process);
    std::lock_guard lock(mutex_);
    applied_.push_back(command.describe());
    return true;
  }
  bool undo(const sa::proto::LocalCommand&) override { return true; }
  void resume() override {
    Scope scope(layers().process);
    std::lock_guard lock(mutex_);
    if (reached_at_ != 0) blocked_us_.push_back(static_cast<double>(now_ns() - reached_at_) / 1e3);
    reached_at_ = 0;
  }

  /// Moves out what was applied and blocked since the last call.
  void take(std::vector<std::string>& applied, std::vector<double>& blocked_us) {
    std::lock_guard lock(mutex_);
    applied.insert(applied.end(), applied_.begin(), applied_.end());
    blocked_us.insert(blocked_us.end(), blocked_us_.begin(), blocked_us_.end());
    applied_.clear();
    blocked_us_.clear();
  }

 private:
  std::mutex mutex_;
  std::int64_t reached_at_ = 0;
  std::vector<std::string> applied_;
  std::vector<double> blocked_us_;
};

// --- set-up -------------------------------------------------------------------

/// One paper system on a fresh SocketRuntime: socket bind plus finalize()
/// (safe-set enumeration and SAG build for the manager). Decorated rigs put a
/// TimedRuntime between the system and the sockets.
struct PaperRig {
  PaperRig(std::uint64_t seed, bool decorated) {
    sa::runtime::SocketRuntimeOptions options;
    for (const char* name : {"manager", "agent-p0", "agent-p1", "agent-p2"}) {
      options.transport.topology.push_back({name, 0});
    }
    options.transport.local = {0, 1, 2, 3};
    options.transport.seed = seed;
    options.workers = 1;
    socket = std::make_unique<sa::runtime::SocketRuntime>(options);
    sa::runtime::Runtime* rt = socket.get();
    if (decorated) {
      timed = std::make_unique<TimedRuntime>(*socket);
      rt = timed.get();
    }
    sa::core::SystemConfig config;
    config.seed = seed;
    config.agent.pre_action_duration = 0;
    config.agent.in_action_duration = 0;
    config.agent.resume_duration = 0;
    system = std::make_unique<sa::core::SafeAdaptationSystem>(*rt, config);
    sa::core::configure_paper_system(*system);
    system->attach_process(sa::core::kServerProcess, processes[0], /*stage=*/0);
    system->attach_process(sa::core::kHandheldProcess, processes[1], /*stage=*/1);
    system->attach_process(sa::core::kLaptopProcess, processes[2], /*stage=*/1);
    system->finalize();
    source = sa::core::paper_source(system->registry());
    target = sa::core::paper_target(system->registry());
  }
  ~PaperRig() {
    socket->shutdown();  // no timer or delivery may reach the system below
    system.reset();
    timed.reset();
  }
  PaperRig(const PaperRig&) = delete;
  PaperRig& operator=(const PaperRig&) = delete;

  std::unique_ptr<sa::runtime::SocketRuntime> socket;
  std::unique_ptr<TimedRuntime> timed;
  std::array<BenchProcess, 3> processes;
  std::unique_ptr<sa::core::SafeAdaptationSystem> system;
  sa::config::Configuration source;
  sa::config::Configuration target;
};

/// Builds one rig and appends its build time to `setup_s`.
std::unique_ptr<PaperRig> build_rig(std::uint64_t seed, bool decorated,
                                    std::vector<double>& setup_s) {
  const std::int64_t begin = now_ns();
  auto rig = std::make_unique<PaperRig>(seed, decorated);
  setup_s.push_back(static_cast<double>(now_ns() - begin) / 1e9);
  return rig;
}

// --- the closed loop ------------------------------------------------------------

struct LoopStats {
  std::vector<OpSample> ops;
  std::vector<double> blocked_us;
  double measured_ns = 0;  ///< adaptations alone, bracketing the root spans
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  double wall_s() const { return static_cast<double>(end_ns - begin_ns) / 1e9; }
};

class ClosedLoop {
 public:
  ClosedLoop(PaperRig& rig, Result& result) : rig_(rig), result_(result) {}

  /// First request: checks the committed step log against the paper's MAP
  /// and keeps the per-process in-actions as the signature later requests
  /// must reproduce.
  void calibrate() {
    const std::size_t logged = rig_.system->manager().step_log().size();
    Outcome outcome = once();
    std::vector<std::string> committed;
    const auto log = rig_.system->manager().step_log();
    for (std::size_t i = logged; i < log.size(); ++i) {
      if (log[i].committed && !log[i].rolled_back) committed.push_back(log[i].action_name);
    }
    if (!outcome.ok || committed != kMap) {
      result_.fail("paper-socket: first adaptation did not commit the MAP A2, A17, A1, A16, A4");
    }
    signature_ = outcome.applied;
  }

  /// Runs requests until `seconds` pass or `max_ops` complete.
  LoopStats run(double seconds, std::size_t max_ops, LayerId root_layer) {
    LoopStats stats;
    stats.begin_ns = now_ns();
    const std::int64_t deadline = stats.begin_ns + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t previous = stats.begin_ns;
    while (previous < deadline && stats.attempted < max_ops) {
      Outcome outcome;
      const std::int64_t op_begin = now_ns();
      {
        Scope root(root_layer);
        outcome = once();
      }
      const std::int64_t end = now_ns();
      stats.measured_ns += static_cast<double>(end - op_begin);
      ++stats.attempted;
      const bool ok = outcome.ok && outcome.applied == signature_;
      if (!ok) ++stats.failed;
      // Closed loop: each adaptation is charged the wall time since the
      // previous one finished, so slice rates are adaptations per second.
      stats.ops.push_back(OpSample{end, static_cast<double>(end - previous), 1, outcome.latency_us});
      previous = end;
      stats.blocked_us.insert(stats.blocked_us.end(), outcome.blocked_us.begin(),
                              outcome.blocked_us.end());
    }
    stats.end_ns = previous;
    return stats;
  }

 private:
  struct Outcome {
    bool ok = false;
    double latency_us = 0;
    std::vector<std::string> applied;  ///< "<process>: <command>", sorted
    std::vector<double> blocked_us;
  };

  Outcome once() {
    rig_.system->set_current_configuration(rig_.source);
    {
      std::lock_guard lock(mutex_);
      done_ = false;
    }
    std::int64_t begin = 0;
    {
      Scope scope(layers().client);
      begin = now_ns();
      rig_.system->request_adaptation(rig_.target, [this](const sa::proto::AdaptationResult& r) {
        const std::int64_t end = now_ns();
        Scope scope(layers().client);
        std::lock_guard lock(mutex_);
        result_slot_ = r;
        finished_at_ = end;
        done_ = true;
        cv_.notify_one();
      });
    }
    Outcome outcome;
    std::unique_lock lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30), [this] { return done_; })) {
      throw std::runtime_error("paper-socket: adaptation did not complete within 30 s");
    }
    const sa::proto::AdaptationResult r = result_slot_;
    outcome.latency_us = static_cast<double>(finished_at_ - begin) / 1e3;
    lock.unlock();

    for (std::size_t p = 0; p < rig_.processes.size(); ++p) {
      std::vector<std::string> applied;
      rig_.processes[p].take(applied, outcome.blocked_us);
      for (const std::string& command : applied) {
        std::string entry = std::to_string(p);
        entry += ": ";
        entry += command;
        outcome.applied.push_back(std::move(entry));
      }
    }
    std::sort(outcome.applied.begin(), outcome.applied.end());
    outcome.ok = r.outcome == sa::proto::AdaptationOutcome::Success &&
                 r.final_config.bits() == kTargetBits && r.steps_committed == kMap.size() &&
                 r.step_failures == 0;
    return outcome;
  }

  PaperRig& rig_;
  Result& result_;
  std::vector<std::string> signature_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  sa::proto::AdaptationResult result_slot_;
  std::int64_t finished_at_ = 0;
};

void warm_up(ClosedLoop& loop) {
  loop.calibrate();
  loop.run(0.3, 200, layers().root);
}

void apply_fault(const RunOptions& opts, PaperRig& rig) {
  if (opts.fault.empty()) return;
  if (opts.fault != "fail-to-reset") {
    throw std::invalid_argument("paper-socket: unknown --fault " + opts.fault);
  }
  rig.system->agent(sa::core::kHandheldProcess).set_fail_to_reset(true);
}

// --- layer micro-measurements ---------------------------------------------------

/// One adaptation's core inputs, recorded by driving a ManagerCore and three
/// AgentCores over an in-memory loop, then replayed against fresh cores.
struct CoreTape {
  struct Entry {
    int process = -1;  ///< -1 = manager
    std::optional<sa::proto::ManagerInput> manager;
    std::optional<sa::proto::AgentInput> agent;
  };
  std::vector<Entry> entries;
  std::vector<std::pair<int, MessagePtr>> sent;  ///< (sender, message); -1 = manager
  bool success = false;
};

constexpr std::array<int, 3> kStages{0, 1, 1};

CoreTape record_tape(const sa::core::PaperScenario& sc, const sa::actions::PathPlanner& planner) {
  using namespace sa::proto;
  CoreTape tape;
  ManagerCore manager(*sc.invariants, *sc.actions, planner, ManagerConfig{});
  for (int p = 0; p < 3; ++p) manager.register_agent(static_cast<sa::config::ProcessId>(p), kStages[p]);
  manager.set_current_configuration(sc.source);
  AgentConfig agent_config;
  agent_config.pre_action_duration = 0;
  agent_config.in_action_duration = 0;
  agent_config.resume_duration = 0;
  std::vector<AgentCore> agents(3, AgentCore(agent_config));
  std::array<std::uint64_t, 3> armed_gen{};
  bool stage_timer = false;
  bool done = false;
  Time now = 0;

  struct Pending {
    int process;
    std::optional<ManagerInput> manager;
    std::optional<AgentInput> agent;
    std::uint64_t gen = 0;  ///< agent timer generation (TimerFired only)
  };
  std::deque<Pending> queue;
  std::function<void(int, AgentInput)> step_agent;

  auto on_agent_outputs = [&](int p, const std::vector<Output>& outputs) {
    for (const Output& out : outputs) {
      switch (out.kind) {
        case OutputKind::Send:
          tape.sent.emplace_back(p, out.message);
          queue.push_back({-1, ManagerInput{0, ManagerInput::MessageDelivered{
                                                   static_cast<sa::config::ProcessId>(p), out.message}},
                           std::nullopt, 0});
          break;
        case OutputKind::ArmTimer:
          queue.push_back({p, std::nullopt, AgentInput{0, AgentInput::TimerFired{}}, ++armed_gen[p]});
          break;
        case OutputKind::DisarmTimer:
          ++armed_gen[p];
          break;
        case OutputKind::ProcessPrepare:
          step_agent(p, AgentInput{0, AgentLocalEvent::PrepareSucceeded});
          break;
        case OutputKind::ProcessReachSafe:
          step_agent(p, AgentInput{0, AgentLocalEvent::SafeStateReached});
          break;
        case OutputKind::ProcessApply:
          step_agent(p, AgentInput{0, AgentLocalEvent::ApplySucceeded});
          break;
        default:
          break;
      }
    }
  };
  step_agent = [&](int p, AgentInput input) {
    input.now = ++now;
    tape.entries.push_back({p, std::nullopt, input});
    on_agent_outputs(p, agents[static_cast<std::size_t>(p)].step(input));
  };
  auto step_manager = [&](ManagerInput input) {
    input.now = ++now;
    tape.entries.push_back({-1, input, std::nullopt});
    for (const Output& out : manager.step(input)) {
      switch (out.kind) {
        case OutputKind::Send:
          tape.sent.emplace_back(-1, out.message);
          queue.push_back({static_cast<int>(out.process), std::nullopt,
                           AgentInput{0, AgentInput::MessageDelivered{out.message}}, 0});
          break;
        case OutputKind::ArmTimer:
          if (out.timer == ManagerTimer::StageDelay) stage_timer = true;
          break;
        case OutputKind::DisarmTimer:
          if (out.timer == ManagerTimer::StageDelay) stage_timer = false;
          break;
        case OutputKind::Outcome:
          done = true;
          tape.success = out.result.outcome == AdaptationOutcome::Success &&
                         out.result.final_config == sc.target;
          break;
        default:
          break;
      }
    }
  };

  step_manager(ManagerInput{0, ManagerInput::AdaptCommand{sc.target, 0}});
  while (!done) {
    if (queue.empty()) {
      if (!stage_timer) break;
      stage_timer = false;
      step_manager(ManagerInput{0, ManagerInput::TimerFired{ManagerTimer::StageDelay}});
      continue;
    }
    Pending next = std::move(queue.front());
    queue.pop_front();
    if (next.process < 0) {
      step_manager(*next.manager);
    } else if (std::holds_alternative<AgentInput::TimerFired>(next.agent->event)) {
      if (next.gen == armed_gen[static_cast<std::size_t>(next.process)]) {
        step_agent(next.process, *next.agent);
      }
    } else {
      step_agent(next.process, *next.agent);
    }
  }
  return tape;
}

void measure_cores(const sa::core::PaperScenario& sc, const sa::actions::PathPlanner& planner,
                   double seconds, Result& result) {
  using namespace sa::proto;
  const CoreTape tape = record_tape(sc, planner);
  if (!tape.success) {
    result.fail("paper-socket: core replay tape did not reach the paper target");
    return;
  }
  AgentConfig agent_config;
  agent_config.pre_action_duration = 0;
  agent_config.in_action_duration = 0;
  agent_config.resume_duration = 0;
  double manager_ns = 0, agent_ns = 0;
  std::uint64_t manager_steps = 0, agent_steps = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    ManagerCore manager(*sc.invariants, *sc.actions, planner, ManagerConfig{});
    for (int p = 0; p < 3; ++p) {
      manager.register_agent(static_cast<sa::config::ProcessId>(p), kStages[p]);
    }
    manager.set_current_configuration(sc.source);
    std::vector<AgentCore> agents(3, AgentCore(agent_config));
    for (const CoreTape::Entry& entry : tape.entries) {
      const std::int64_t begin = now_ns();
      std::vector<Output> outputs =
          entry.process < 0 ? manager.step(*entry.manager)
                            : agents[static_cast<std::size_t>(entry.process)].step(*entry.agent);
      const auto elapsed = static_cast<double>(now_ns() - begin);
      if (entry.process < 0) {
        manager_ns += elapsed;
        ++manager_steps;
      } else {
        agent_ns += elapsed;
        ++agent_steps;
      }
    }
  } while (now_ns() < deadline);
  result.set("proto.core.manager_step_ns", manager_ns / static_cast<double>(manager_steps), "ns");
  result.set("proto.core.agent_step_ns", agent_ns / static_cast<double>(agent_steps), "ns");

  // Wire codec over the same adaptation's messages: manager is node 0 and
  // process p's agent is node p + 1.
  std::vector<std::vector<std::uint8_t>> frames;
  double bytes = 0;
  std::uint64_t seq = 0;
  for (const auto& [sender, message] : tape.sent) {
    const NodeId from = sender < 0 ? 0 : static_cast<NodeId>(sender + 1);
    frames.push_back(sa::runtime::encode_frame(from, 0, 1, ++seq, *message));
    bytes += static_cast<double>(frames.back().size());
  }
  const double messages = static_cast<double>(tape.sent.size());
  const double encode_ns = time_per_call_ns(seconds / 2, 3, [&] {
    std::uint64_t s = 0;
    for (const auto& [sender, message] : tape.sent) sa::runtime::encode_frame(0, 1, 1, ++s, *message);
  });
  const double decode_ns = time_per_call_ns(seconds / 2, 3, [&] {
    for (const auto& frame : frames) sa::runtime::decode_frame(frame.data(), frame.size());
  });
  result.set("runtime.wire.encode_ns", encode_ns / messages, "ns");
  result.set("runtime.wire.decode_ns", decode_ns / messages, "ns");
  result.set("runtime.wire.bytes_per_adaptation", bytes, "B");
}

void measure_planning(const sa::core::PaperScenario& sc, double seconds, Result& result) {
  std::vector<sa::config::Configuration> safe;
  const double enumerate_ns = time_per_call_ns(seconds, 3, [&] {
    safe = sa::config::enumerate_safe_pruned(*sc.invariants);
  });
  std::unique_ptr<sa::actions::SafeAdaptationGraph> sag;
  const double sag_ns = time_per_call_ns(seconds, 3, [&] {
    sag = std::make_unique<sa::actions::SafeAdaptationGraph>(*sc.actions, safe);
  });
  const sa::actions::PathPlanner planner(*sag);
  bool planned = true;
  const double plan_ns = time_per_call_ns(seconds, 3, [&] {
    const auto map = planner.minimum_path(sc.source, sc.target);
    const auto ranked = planner.ranked_paths(sc.source, sc.target, 2);
    planned = planned && map.has_value() && ranked.size() == 2;
  });
  if (!planned) result.fail("paper-socket: planner found no MAP and second path");
  result.set("config.enumerate_us", enumerate_ns / 1e3, "us");
  result.set("actions.sag_build_us", sag_ns / 1e3, "us");
  result.set("actions.plan_us", plan_ns / 1e3, "us");
  measure_cores(sc, planner, seconds, result);
}

}  // namespace

void paper_socket_e2e(const RunOptions& opts, Result& result) {
  sa::proto::register_wire_codecs();
  {
    std::vector<double> ignored;
    auto rig = build_rig(opts.seed, /*decorated=*/false, ignored);
    ClosedLoop loop(*rig, result);
    warm_up(loop);
  }

  // Segments of kSegmentOps adaptations, each on a freshly built system: the
  // manager's step log grows with every adaptation, so a bounded segment
  // keeps peak memory independent of how fast the host runs the loop. Each
  // build is one set-up sample; builds are not charged to any adaptation.
  std::vector<double> setup_s;
  LoopStats stats;
  stats.begin_ns = now_ns();
  const std::int64_t deadline = stats.begin_ns + static_cast<std::int64_t>(opts.seconds * 1e9);
  while (now_ns() < deadline) {
    auto rig = build_rig(opts.seed, /*decorated=*/false, setup_s);
    ClosedLoop loop(*rig, result);
    loop.calibrate();
    apply_fault(opts, *rig);
    const double left = static_cast<double>(deadline - now_ns()) / 1e9;
    LoopStats segment = loop.run(left, kSegmentOps, layers().root);
    stats.attempted += segment.attempted;
    stats.failed += segment.failed;
    stats.ops.insert(stats.ops.end(), segment.ops.begin(), segment.ops.end());
    stats.blocked_us.insert(stats.blocked_us.end(), segment.blocked_us.begin(),
                            segment.blocked_us.end());
    stats.end_ns = segment.end_ns;
  }
  result.attempted += stats.attempted;
  result.failed += stats.failed;
  const Windowed w = summarize(stats.ops, stats.begin_ns, stats.end_ns, kWindows);
  result.set("ops_per_s", w.rate, "1/s");
  result.set("latency_p50_us", w.p50, "us");
  result.set("latency_p99_us", w.p99, "us");
  result.set("blocked_p50_us", median(stats.blocked_us), "us");
  result.set("setup_s", median(setup_s), "s");
  std::printf("paper-socket: %llu adaptations on %zu systems in %.2f s, %zu blocked windows\n",
              static_cast<unsigned long long>(stats.attempted), setup_s.size(), stats.wall_s(),
              stats.blocked_us.size());
}

void paper_socket_layers(const RunOptions& opts, bool primary, Result& result) {
  sa::proto::register_wire_codecs();
  const double budget = primary ? opts.seconds : 1.5;
  Tracer& tracer = Tracer::instance();

  const sa::core::PaperScenario sc = sa::core::make_paper_scenario();
  measure_planning(sc, budget * 0.03, result);

  double untraced_us = 0;
  {
    std::vector<double> setup_s;
    auto rig = build_rig(opts.seed, /*decorated=*/false, setup_s);
    ClosedLoop loop(*rig, result);
    warm_up(loop);
    const LoopStats plain = loop.run(budget * 0.4, SIZE_MAX, layers().root);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    untraced_us = plain.wall_s() * 1e6 / static_cast<double>(plain.attempted);
  }

  std::vector<double> setup_s;
  auto rig = build_rig(opts.seed, /*decorated=*/true, setup_s);
  ClosedLoop loop(*rig, result);
  warm_up(loop);
  tracer.drain();
  const std::uint64_t timers_before = rig->timed->timed_clock().scheduled();
  const std::uint64_t sends_before = rig->timed->timed_transport().sends();
  tracer.set_enabled(true);
  const LoopStats traced = loop.run(budget * 0.5, 4000, layers().root);
  tracer.set_enabled(false);
  const std::uint64_t timers = rig->timed->timed_clock().scheduled() - timers_before;
  const std::uint64_t sends = rig->timed->timed_transport().sends() - sends_before;
  rig.reset();
  result.attempted += traced.attempted;
  result.failed += traced.failed;

  const auto ops = static_cast<double>(traced.attempted);
  const Split s = split(tracer.drain(), layers().root);
  report_split("paper-socket", s, traced.measured_ns, ops, result);
  // Per span of `layer`: its self time (split) or its raw duration.
  const auto per_span_us = [&](const std::map<std::string, double>& ns_by_layer,
                               const std::string& layer) {
    const auto n = s.layer_spans.count(layer) ? s.layer_spans.at(layer) : 0;
    const double ns = ns_by_layer.count(layer) ? ns_by_layer.at(layer) : 0.0;
    return n == 0 ? 0.0 : ns / 1e3 / static_cast<double>(n);
  };
  result.set("proto.driver.handler_us", per_span_us(s.layer_ns, "proto.driver.handler"), "us");
  result.set("runtime.transport.send_us", per_span_us(s.layer_ns, "runtime.transport.send"), "us");
  result.set("runtime.transport.transit_us",
             per_span_us(s.layer_raw_ns, "runtime.transport.transit"), "us");
  result.set("runtime.transport.messages_per_adaptation", static_cast<double>(sends) / ops,
             "count");
  result.set("runtime.clock.timers_per_adaptation", static_cast<double>(timers) / ops, "count");
  result.set("runtime.clock.fire_lag_us", per_span_us(s.layer_raw_ns, "runtime.clock.fire_lag"),
             "us");
  result.set("proto.process.blocked_us", median(traced.blocked_us), "us");
  result.set("bench.trace_overhead_pct.paper-socket",
             overhead_pct(traced.wall_s() * 1e6 / ops, untraced_us), "%");
}

}  // namespace perfbench
