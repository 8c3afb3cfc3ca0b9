// Heap allocations per explored edge and per core step.
//
// Replaces the global operator new/delete with counting versions (malloc /
// aligned_alloc underneath), then pins:
//
//   * the depth-20 DPOR + symmetry search of the `pair` scenario — the
//     perfbench check-pair operation — to at most 3 allocations per explored
//     edge. A fork copies no heap state, and the cores step into reused
//     buffers; what remains is the protocol messages an edge sends and the
//     schedule node of each surviving child.
//   * a ManagerCore / AgentCore step with a warmed output buffer to allocate
//     exactly what its sent messages need, nothing else, over the paper
//     scenario's adaptation. The two request-level steps are the exception:
//     the request itself (planning builds the path) and the terminal outcome
//     (the result carries a detail string).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "check/engine.hpp"
#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "paper_tape.hpp"
#include "proto/messages.hpp"

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

namespace sa::check {
namespace {

TEST(CheckAlloc, PairSearchAllocatesAtMostThreePerEdge) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 20;
  options.max_states = 1 << 18;
  options.threads = 1;
  options.dpor = true;
  options.symmetry = true;

  const std::size_t before = allocations();
  const ExploreResult result = frontier_search(scenario, options);
  const std::size_t made = allocations() - before;

  ASSERT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.stats.states_explored, 116'647U);
  EXPECT_EQ(result.stats.states_deduped, 52'044U);
  EXPECT_EQ(result.stats.runs_completed, 5U);
  const double per_edge =
      static_cast<double>(made) / static_cast<double>(result.stats.states_explored);
  RecordProperty("allocations", static_cast<int>(made));
  EXPECT_LE(per_edge, 3.0) << made << " allocations over " << result.stats.states_explored
                           << " edges";
}

TEST(CheckAlloc, ExplorerRootKeepsNoTransitionRecords) {
  // The model records the request's first transitions during start(); once
  // the explorer turns recording off, a fork must not copy them.
  const Scenario scenario = make_pair_scenario();
  Model model = make_model(scenario, ExploreOptions{});
  ASSERT_FALSE(model.transitions().empty());
  model.set_record_transitions(false);
  EXPECT_TRUE(model.transitions().empty());

  const std::size_t before = allocations();
  const Model fork = model;
  EXPECT_EQ(allocations() - before, 0U) << "forking the started model allocated";
  EXPECT_EQ(fork.fingerprint(), model.fingerprint());
}

/// Allocations needed to copy `message`: a core building the same message
/// needs exactly as many (make_shared plus the payload's exact-size buffers).
std::size_t message_allocations(const runtime::MessagePtr& message) {
  const auto* proto_msg = dynamic_cast<const proto::ProtoMessage*>(message.get());
  if (proto_msg == nullptr) {
    ADD_FAILURE() << "core sent a non-protocol message";
    return 0;
  }
  const std::size_t before = allocations();
  runtime::MessagePtr copy;
  switch (proto_msg->kind()) {
    case proto::MsgKind::Reset:
      copy = std::make_shared<proto::ResetMsg>(static_cast<const proto::ResetMsg&>(*proto_msg));
      break;
    case proto::MsgKind::ResetDone:
      copy = std::make_shared<proto::ResetDoneMsg>(
          static_cast<const proto::ResetDoneMsg&>(*proto_msg));
      break;
    case proto::MsgKind::AdaptDone:
      copy = std::make_shared<proto::AdaptDoneMsg>(
          static_cast<const proto::AdaptDoneMsg&>(*proto_msg));
      break;
    case proto::MsgKind::Resume:
      copy =
          std::make_shared<proto::ResumeMsg>(static_cast<const proto::ResumeMsg&>(*proto_msg));
      break;
    case proto::MsgKind::ResumeDone:
      copy = std::make_shared<proto::ResumeDoneMsg>(
          static_cast<const proto::ResumeDoneMsg&>(*proto_msg));
      break;
    case proto::MsgKind::Rollback:
      copy = std::make_shared<proto::RollbackMsg>(
          static_cast<const proto::RollbackMsg&>(*proto_msg));
      break;
    case proto::MsgKind::RollbackDone:
      copy = std::make_shared<proto::RollbackDoneMsg>(
          static_cast<const proto::RollbackDoneMsg&>(*proto_msg));
      break;
  }
  return allocations() - before;
}

bool request_level(const std::vector<proto::Output>& outputs) {
  for (const proto::Output& out : outputs) {
    if (out.kind == proto::OutputKind::AdaptationRequested ||
        out.kind == proto::OutputKind::Outcome) {
      return true;
    }
  }
  return false;
}

TEST(CheckAlloc, WarmedCoreStepsAllocateOnlyTheirMessages) {
  const Scenario scenario = make_paper_check_scenario();
  const testing::CoreTape tape = testing::record_paper_tape(scenario);
  ASSERT_TRUE(tape.outcome.has_value());
  ASSERT_EQ(tape.outcome->outcome, proto::AdaptationOutcome::Success);

  std::vector<proto::Output> buffer;
  auto replay = [&](testing::PaperCores& cores, bool count) {
    std::size_t checked = 0;
    std::size_t exempt = 0;
    for (const testing::CoreTape::Entry& entry : tape.entries) {
      const std::size_t before = allocations();
      if (entry.agent) {
        cores.agents.at(*entry.agent).step(*entry.agent_input, buffer);
      } else {
        cores.manager.step(*entry.manager_input, buffer);
      }
      const std::size_t made = allocations() - before;
      if (!count) continue;
      if (request_level(buffer)) {
        ++exempt;
        continue;
      }
      std::size_t expected = 0;
      for (const proto::Output& out : buffer) {
        if (out.kind == proto::OutputKind::Send) expected += message_allocations(out.message);
      }
      EXPECT_EQ(made, expected) << "tape entry " << checked + exempt << " ("
                                << (entry.agent ? "agent" : "manager") << ", "
                                << buffer.size() << " outputs)";
      ++checked;
    }
    if (count) {
      EXPECT_EQ(exempt, 2U);  // the request and its outcome
      EXPECT_GT(checked, 30U);
    }
  };
  testing::PaperCores warmup(scenario);
  replay(warmup, false);  // grows `buffer` to the run's largest step
  testing::PaperCores cores(scenario);
  replay(cores, true);
}

}  // namespace
}  // namespace sa::check
