#include "proto/wire_codecs.hpp"

#include <memory>

#include "proto/messages.hpp"
#include "runtime/wire.hpp"

namespace sa::proto {

namespace {

using runtime::WireError;
using runtime::WireReader;
using runtime::WireWriter;

// Stable codec ids. Never renumber: old trace artifacts embed these.
enum : std::uint16_t {
  kIdReset = 1,
  kIdResetDone = 2,
  kIdAdaptDone = 3,
  kIdResume = 4,
  kIdResumeDone = 5,
  kIdRollback = 6,
  kIdRollbackDone = 7,
  kIdEpochCommit = 8,
  kIdEpochDone = 9,
};

void put_step(const StepRef& step, WireWriter& w) {
  w.u64(step.request_id);
  w.u32(step.plan);
  w.u32(step.step_index);
  w.u32(step.attempt);
}

StepRef get_step(WireReader& r) {
  StepRef step;
  step.request_id = r.u64();
  step.plan = r.u32();
  step.step_index = r.u32();
  step.attempt = r.u32();
  return step;
}

void put_strings(const std::vector<std::string>& v, WireWriter& w) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> get_strings(WireReader& r, const char* what) {
  const std::size_t count = r.vec_len(/*min_element_bytes=*/4, what);
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(r.str());
  return out;
}

void put_result(const AdaptationResult& res, WireWriter& w) {
  w.u8(static_cast<std::uint8_t>(res.outcome));
  w.u64(res.final_config.bits());
  w.u64(res.steps_committed);
  w.u64(res.step_failures);
  w.u64(res.plans_tried);
  w.u64(res.message_retries);
  w.i64(res.started);
  w.i64(res.finished);
  w.str(res.detail);
}

AdaptationResult get_result(WireReader& r) {
  AdaptationResult res;
  const std::uint8_t outcome = r.u8();
  if (outcome > static_cast<std::uint8_t>(AdaptationOutcome::StalledAfterResume)) {
    throw WireError("wire: invalid adaptation outcome " + std::to_string(outcome));
  }
  res.outcome = static_cast<AdaptationOutcome>(outcome);
  res.final_config = config::Configuration(r.u64());
  res.steps_committed = r.u64();
  res.step_failures = r.u64();
  res.plans_tried = r.u64();
  res.message_retries = r.u64();
  res.started = r.i64();
  res.finished = r.i64();
  res.detail = r.str();
  return res;
}

/// Encode/decode pair for the five ProtoMessages that carry only a StepRef.
template <typename Msg>
void register_step_only(std::uint16_t id, const char* type_name) {
  runtime::register_wire_codec(
      id, type_name,
      [](const runtime::Message& m, WireWriter& w) {
        put_step(static_cast<const ProtoMessage&>(m).step, w);
      },
      [](WireReader& r) -> runtime::MessagePtr {
        auto msg = std::make_shared<Msg>();
        msg->step = get_step(r);
        return msg;
      });
}

void put_ctx(const CausalContext& ctx, WireWriter& w) {
  w.u64(ctx.ticket);
  w.u64(ctx.epoch);
  w.u64(ctx.parent_span);
}

CausalContext get_ctx(WireReader& r) {
  CausalContext ctx;
  ctx.ticket = r.u64();
  ctx.epoch = r.u64();
  ctx.parent_span = r.u64();
  return ctx;
}

}  // namespace

void register_wire_codecs() {
  runtime::register_wire_codec(
      kIdReset, "reset",
      [](const runtime::Message& m, WireWriter& w) {
        const auto& msg = static_cast<const ResetMsg&>(m);
        put_step(msg.step, w);
        put_strings(msg.command.remove, w);
        put_strings(msg.command.add, w);
        w.u8(msg.drain ? 1 : 0);
        w.u8(msg.sole_participant ? 1 : 0);
      },
      [](WireReader& r) -> runtime::MessagePtr {
        auto msg = std::make_shared<ResetMsg>();
        msg->step = get_step(r);
        msg->command.remove = get_strings(r, "reset removes");
        msg->command.add = get_strings(r, "reset adds");
        msg->drain = r.u8() != 0;
        msg->sole_participant = r.u8() != 0;
        return msg;
      });

  register_step_only<ResetDoneMsg>(kIdResetDone, "reset done");
  register_step_only<AdaptDoneMsg>(kIdAdaptDone, "adapt done");
  register_step_only<ResumeMsg>(kIdResume, "resume");

  runtime::register_wire_codec(
      kIdResumeDone, "resume done",
      [](const runtime::Message& m, WireWriter& w) {
        const auto& msg = static_cast<const ResumeDoneMsg&>(m);
        put_step(msg.step, w);
        w.i64(msg.blocked_for);
      },
      [](WireReader& r) -> runtime::MessagePtr {
        auto msg = std::make_shared<ResumeDoneMsg>();
        msg->step = get_step(r);
        msg->blocked_for = r.i64();
        return msg;
      });

  register_step_only<RollbackMsg>(kIdRollback, "rollback");
  register_step_only<RollbackDoneMsg>(kIdRollbackDone, "rollback done");

  runtime::register_wire_codec(
      kIdEpochCommit, "epoch commit",
      [](const runtime::Message& m, WireWriter& w) {
        const auto& msg = static_cast<const EpochCommitMsg&>(m);
        w.u64(msg.epoch);
        put_ctx(msg.ctx, w);
        w.u32(static_cast<std::uint32_t>(msg.targets.size()));
        for (const ShardTarget& t : msg.targets) {
          w.u32(t.shard);
          w.u64(t.target.bits());
        }
      },
      [](WireReader& r) -> runtime::MessagePtr {
        auto msg = std::make_shared<EpochCommitMsg>();
        msg->epoch = r.u64();
        msg->ctx = get_ctx(r);
        const std::size_t count = r.vec_len(/*min_element_bytes=*/12, "epoch targets");
        msg->targets.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          ShardTarget t;
          t.shard = r.u32();
          t.target = config::Configuration(r.u64());
          msg->targets.push_back(t);
        }
        return msg;
      });

  runtime::register_wire_codec(
      kIdEpochDone, "epoch done",
      [](const runtime::Message& m, WireWriter& w) {
        const auto& msg = static_cast<const EpochDoneMsg&>(m);
        w.u64(msg.epoch);
        put_ctx(msg.ctx, w);
        w.u32(static_cast<std::uint32_t>(msg.outcomes.size()));
        for (const ShardOutcome& o : msg.outcomes) {
          w.u32(o.shard);
          w.u8(o.reported ? 1 : 0);
          put_result(o.result ? *o.result : AdaptationResult{}, w);
        }
      },
      [](WireReader& r) -> runtime::MessagePtr {
        auto msg = std::make_shared<EpochDoneMsg>();
        msg->epoch = r.u64();
        msg->ctx = get_ctx(r);
        const std::size_t count = r.vec_len(/*min_element_bytes=*/5, "epoch outcomes");
        msg->outcomes.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          ShardOutcome o;
          o.shard = r.u32();
          o.reported = r.u8() != 0;
          o.result = std::make_shared<AdaptationResult>(get_result(r));
          msg->outcomes.push_back(std::move(o));
        }
        return msg;
      });
}

}  // namespace sa::proto
