// The paper scenario's adaptation as a tape of sans-I/O core inputs.
//
// record_paper_tape() drives a ManagerCore and one AgentCore per process of
// check::make_paper_check_scenario() to the adaptation's outcome over an
// in-memory FIFO loop: sends are delivered in send order, an agent's armed
// timer fires when its turn in the queue comes (unless disarmed or re-armed
// since), the inter-stage delay fires once the queue drains, and Process*
// outputs complete synchronously. Every input each core consumed is recorded
// in order. The cores are deterministic values, so feeding the tape to fresh
// cores reproduces the run output for output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "check/scenario.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/core/io.hpp"
#include "proto/core/manager_core.hpp"

namespace sa::testing {

struct CoreTape {
  struct Entry {
    std::optional<config::ProcessId> agent;  ///< stepped agent; empty = the manager
    std::optional<proto::ManagerInput> manager_input;
    std::optional<proto::AgentInput> agent_input;
  };
  std::vector<Entry> entries;
  std::optional<proto::AdaptationResult> outcome;
};

/// The cores of one paper-scenario run, in their initial state.
struct PaperCores {
  proto::ManagerCore manager;
  std::map<config::ProcessId, proto::AgentCore> agents;

  explicit PaperCores(const check::Scenario& sc)
      : manager(*sc.invariants, *sc.actions, *sc.planner, sc.manager_config) {
    for (const auto& [process, stage] : sc.stages) {
      manager.register_agent(process, stage);
      agents.emplace(process, proto::AgentCore(sc.agent_config));
    }
    manager.set_current_configuration(sc.source);
  }
};

inline CoreTape record_paper_tape(const check::Scenario& sc) {
  using namespace proto;
  CoreTape tape;
  PaperCores cores(sc);
  struct Pending {
    std::optional<config::ProcessId> agent;
    std::optional<ManagerInput> manager_input;
    std::optional<AgentInput> agent_input;
    std::uint64_t timer_gen = 0;  ///< agent TimerFired: generation at arm time
  };
  std::deque<Pending> queue;
  std::map<config::ProcessId, std::uint64_t> timer_gen;
  bool stage_delay_armed = false;
  runtime::Time now = 0;

  auto step_agent = [&](config::ProcessId process, AgentInput input, auto& self) -> void {
    input.now = ++now;
    tape.entries.push_back({process, std::nullopt, input});
    for (const Output& out : cores.agents.at(process).step(input)) {
      switch (out.kind) {
        case OutputKind::Send:
          queue.push_back({std::nullopt,
                           ManagerInput{0, ManagerInput::MessageDelivered{process, out.message}},
                           std::nullopt, 0});
          break;
        case OutputKind::ArmTimer:
          queue.push_back({process, std::nullopt, AgentInput{0, AgentInput::TimerFired{}},
                           ++timer_gen[process]});
          break;
        case OutputKind::DisarmTimer:
          ++timer_gen[process];
          break;
        case OutputKind::ProcessPrepare:
          self(process, AgentInput{0, AgentLocalEvent::PrepareSucceeded}, self);
          break;
        case OutputKind::ProcessReachSafe:
          self(process, AgentInput{0, AgentLocalEvent::SafeStateReached}, self);
          break;
        case OutputKind::ProcessApply:
          self(process, AgentInput{0, AgentLocalEvent::ApplySucceeded}, self);
          break;
        default:
          break;
      }
    }
  };
  auto step_manager = [&](ManagerInput input) {
    input.now = ++now;
    tape.entries.push_back({std::nullopt, input, std::nullopt});
    for (const Output& out : cores.manager.step(input)) {
      switch (out.kind) {
        case OutputKind::Send:
          queue.push_back({out.process, std::nullopt,
                           AgentInput{0, AgentInput::MessageDelivered{out.message}}, 0});
          break;
        case OutputKind::ArmTimer:
          if (out.timer == ManagerTimer::StageDelay) stage_delay_armed = true;
          break;
        case OutputKind::DisarmTimer:
          if (out.timer == ManagerTimer::StageDelay) stage_delay_armed = false;
          break;
        case OutputKind::Outcome:
          tape.outcome = out.result;
          break;
        default:
          break;
      }
    }
  };

  step_manager(ManagerInput{0, ManagerInput::AdaptCommand{sc.target, 0}});
  while (!tape.outcome) {
    if (queue.empty()) {
      if (!stage_delay_armed) throw std::logic_error("paper tape: run stalled");
      stage_delay_armed = false;
      step_manager(ManagerInput{0, ManagerInput::TimerFired{ManagerTimer::StageDelay}});
      continue;
    }
    Pending next = std::move(queue.front());
    queue.pop_front();
    if (!next.agent) {
      step_manager(*next.manager_input);
    } else if (!std::holds_alternative<AgentInput::TimerFired>(next.agent_input->event) ||
               next.timer_gen == timer_gen[*next.agent]) {
      step_agent(*next.agent, *next.agent_input, step_agent);
    }
  }
  return tape;
}

}  // namespace sa::testing
