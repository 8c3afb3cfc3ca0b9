// The cores' two step forms agree: step(input, buffer) fills a caller-owned
// buffer, step(input) returns an owned vector, and for every input of the
// paper scenario's adaptation both give the same outputs. A buffer that
// still holds outputs from earlier use is cleared first.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "paper_tape.hpp"
#include "proto/core/coordinator_core.hpp"
#include "proto/messages.hpp"

namespace sa::proto {
namespace {

/// Everything a receiver acts on: type, step coordinates, and the payload.
std::string message_key(const runtime::MessagePtr& message) {
  if (message == nullptr) return "";
  std::string key = message->type_name();
  if (const auto* proto_msg = dynamic_cast<const ProtoMessage*>(message.get())) {
    key += " " + proto_msg->step.describe();
  }
  if (const auto* reset = dynamic_cast<const ResetMsg*>(message.get())) {
    key += " " + reset->command.describe() + (reset->drain ? " drain" : "") +
           (reset->sole_participant ? " sole" : "");
  }
  if (const auto* done = dynamic_cast<const ResumeDoneMsg*>(message.get())) {
    key += " blocked " + std::to_string(done->blocked_for);
  }
  return key;
}

bool same_result(const AdaptationResult& a, const AdaptationResult& b) {
  return a.outcome == b.outcome && a.final_config == b.final_config &&
         a.steps_committed == b.steps_committed && a.step_failures == b.step_failures &&
         a.plans_tried == b.plans_tried && a.message_retries == b.message_retries &&
         a.started == b.started && a.finished == b.finished && a.detail == b.detail;
}

void expect_same_outputs(const std::vector<Output>& buffered, const std::vector<Output>& owned,
                         std::size_t entry) {
  ASSERT_EQ(buffered.size(), owned.size()) << "tape entry " << entry;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const Output& a = buffered[i];
    const Output& b = owned[i];
    SCOPED_TRACE("tape entry " + std::to_string(entry) + ", output " + std::to_string(i));
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.ref, b.ref);
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.process, b.process);
    EXPECT_EQ(message_key(a.message), message_key(b.message));
    EXPECT_EQ(a.timer, b.timer);
    EXPECT_EQ(a.delay, b.delay);
    EXPECT_STREQ(a.label, b.label);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.has_value, b.has_value);
    EXPECT_EQ(a.extra, b.extra);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.command == nullptr, b.command == nullptr);
    if (a.command != nullptr && b.command != nullptr) {
      EXPECT_EQ(*a.command, *b.command);
    }
    EXPECT_EQ(a.flag, b.flag);
    EXPECT_EQ(a.phase_from, b.phase_from);
    EXPECT_EQ(a.phase_to, b.phase_to);
    EXPECT_EQ(a.state_from, b.state_from);
    EXPECT_EQ(a.state_to, b.state_to);
    EXPECT_EQ(a.blocked, b.blocked);
    EXPECT_TRUE(same_result(a.result, b.result));
    EXPECT_EQ(a.span, b.span);
    EXPECT_EQ(a.parent_span, b.parent_span);
  }
}

/// A buffer as an earlier step might have left it: not empty.
std::vector<Output> stale_buffer() {
  std::vector<Output> buffer(3);
  for (Output& out : buffer) {
    out.kind = OutputKind::Retransmission;
    out.name = "stale output from an earlier step";
  }
  return buffer;
}

TEST(CoreBuffer, BufferAndValueFormsAgreeOverThePaperTape) {
  const check::Scenario scenario = check::make_paper_check_scenario();
  const testing::CoreTape tape = testing::record_paper_tape(scenario);
  ASSERT_TRUE(tape.outcome.has_value());
  ASSERT_EQ(tape.outcome->outcome, AdaptationOutcome::Success);
  ASSERT_EQ(tape.outcome->final_config, scenario.target);

  testing::PaperCores buffered(scenario);
  testing::PaperCores owned(scenario);
  std::size_t outputs = 0;
  for (std::size_t i = 0; i < tape.entries.size(); ++i) {
    const testing::CoreTape::Entry& entry = tape.entries[i];
    std::vector<Output> buffer = stale_buffer();
    std::vector<Output> value;
    if (entry.agent) {
      buffered.agents.at(*entry.agent).step(*entry.agent_input, buffer);
      value = owned.agents.at(*entry.agent).step(*entry.agent_input);
    } else {
      buffered.manager.step(*entry.manager_input, buffer);
      value = owned.manager.step(*entry.manager_input);
    }
    expect_same_outputs(buffer, value, i);
    outputs += value.size();
  }
  EXPECT_GT(outputs, tape.entries.size());
  EXPECT_EQ(buffered.manager.current_configuration(), scenario.target);
}

TEST(CoreBuffer, CoordinatorBufferFormClearsAndMatches) {
  CoordinatorConfig config;
  CoordinatorCore buffered(config);
  CoordinatorCore owned(config);
  for (CoordinatorCore* core : {&buffered, &owned}) core->add_local_shard(0, 0);

  const std::vector<CoordinatorInput> inputs{
      CoordinatorInput{10, CoordinatorInput::SubmitRequest{1, {ShardTarget{0, {}}}, 0}},
      CoordinatorInput{20, CoordinatorInput::TimerFired{CoordinatorTimer::Epoch}},
      CoordinatorInput{30, CoordinatorInput::ShardFinished{1, 0, std::make_shared<AdaptationResult>()}},
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<Output> buffer = stale_buffer();
    buffered.step(inputs[i], buffer);
    const std::vector<Output> value = owned.step(inputs[i]);
    ASSERT_FALSE(value.empty()) << "input " << i;
    ASSERT_EQ(buffer.size(), value.size()) << "input " << i;
    for (std::size_t j = 0; j < value.size(); ++j) {
      EXPECT_EQ(buffer[j].kind, value[j].kind) << "input " << i << ", output " << j;
      EXPECT_EQ(buffer[j].epoch, value[j].epoch) << "input " << i << ", output " << j;
      EXPECT_EQ(buffer[j].shard, value[j].shard) << "input " << i << ", output " << j;
    }
  }
  EXPECT_EQ(buffered.epochs_completed(), 1U);
}

}  // namespace
}  // namespace sa::proto
