#include "proto/core/coordinator_core.hpp"

#include <algorithm>
#include <memory>

namespace sa::proto {

namespace {

/// splitmix64 finalizer — the same mixing the explorer fingerprints use.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

/// First record of a shard-sorted vector (ShardTarget / ShardOutcome) whose
/// shard is not below `shard`.
template <typename Records>
auto lower_bound_shard(Records& records, std::uint32_t shard) {
  return std::lower_bound(records.begin(), records.end(), shard,
                          [](const auto& record, std::uint32_t s) { return record.shard < s; });
}

}  // namespace

std::size_t CoordinatorCore::add_child(std::vector<std::uint32_t> shards) {
  std::sort(shards.begin(), shards.end());
  children_.push_back(std::move(shards));
  return children_.size() - 1;
}

void CoordinatorCore::add_local_shard(std::uint32_t shard, std::uint32_t lane) {
  const auto it = std::lower_bound(local_lane_.begin(), local_lane_.end(),
                                   std::pair<std::uint32_t, std::uint32_t>{shard, 0});
  if (it != local_lane_.end() && it->first == shard) {
    it->second = lane;
  } else {
    local_lane_.insert(it, {shard, lane});
  }
}

const std::uint32_t* CoordinatorCore::local_lane(std::uint32_t shard) const {
  const auto it = std::lower_bound(local_lane_.begin(), local_lane_.end(),
                                   std::pair<std::uint32_t, std::uint32_t>{shard, 0});
  return it != local_lane_.end() && it->first == shard ? &it->second : nullptr;
}

bool CoordinatorCore::child_covers(std::size_t child, std::uint32_t shard) const {
  return std::binary_search(children_[child].begin(), children_[child].end(), shard);
}

void CoordinatorCore::collect(ShardOutcome outcome) {
  const auto it = lower_bound_shard(commit_.collected, outcome.shard);
  if (it != commit_.collected.end() && it->shard == outcome.shard) {
    *it = std::move(outcome);
  } else {
    commit_.collected.insert(it, std::move(outcome));
  }
}

void CoordinatorCore::orphan(std::uint32_t shard, runtime::Time now, std::string detail) {
  const auto it = lower_bound_shard(commit_.collected, shard);
  if (it != commit_.collected.end() && it->shard == shard) return;
  auto result = std::make_shared<AdaptationResult>();
  result->outcome = AdaptationOutcome::UserInterventionRequired;
  result->started = result->finished = now;
  result->detail = std::move(detail);
  commit_.collected.insert(it, ShardOutcome{shard, /*reported=*/false, std::move(result)});
}

std::uint64_t CoordinatorCore::wire_epoch() const {
  // The seeded out-of-epoch bug: from the second epoch on, announce the
  // previous epoch's number. Children deduplicate the "stale" commit, its
  // shards orphan at the commit timeout, and the delivered trace shows epoch
  // N committed twice with different targets — which the conformance checker
  // must flag.
  if (fault_ == CoordinatorFault::CommitOutOfEpoch && epoch_ > 1) return epoch_ - 1;
  return epoch_;
}

std::uint64_t CoordinatorCore::epoch_span(std::uint64_t epoch) const {
  return span_of(span_seed_, SpanKind::Epoch, epoch);
}

void CoordinatorCore::note_duplicate(const char* label, std::string detail,
                                     std::vector<Output>& out) {
  Output note;
  note.kind = OutputKind::DuplicateMessage;
  note.label = label;
  note.detail = std::move(detail);
  out.push_back(std::move(note));
}

void CoordinatorCore::transition(CoordinatorPhase to, std::vector<Output>& out) {
  if (to == phase_) return;
  Output t;
  t.kind = OutputKind::Transition;
  t.cphase_from = phase_;
  t.cphase_to = to;
  t.epoch = epoch_;
  phase_ = to;
  out.push_back(std::move(t));
}

void CoordinatorCore::open_epoch(std::vector<Output>& out) {
  transition(CoordinatorPhase::Batching, out);
  Output opened;
  opened.kind = OutputKind::EpochOpened;
  opened.epoch = epoch_ + 1;
  opened.span = epoch_span(epoch_ + 1);
  out.push_back(std::move(opened));
  Output arm;
  arm.kind = OutputKind::ArmTimer;
  arm.ctimer = CoordinatorTimer::Epoch;
  arm.delay = config_.epoch_window;
  arm.label = "epoch window";
  out.push_back(std::move(arm));
}

std::vector<Output> CoordinatorCore::step(const CoordinatorInput& input) {
  std::vector<Output> out;
  step(input, out);
  return out;
}

void CoordinatorCore::step(const CoordinatorInput& input, std::vector<Output>& out) {
  out.clear();
  if (const auto* submit = std::get_if<CoordinatorInput::SubmitRequest>(&input.event)) {
    on_submit(*submit, input.now, out);
  } else if (const auto* done = std::get_if<CoordinatorInput::ChildDone>(&input.event)) {
    on_child_done(*done, input.now, out);
  } else if (const auto* finished =
                 std::get_if<CoordinatorInput::ShardFinished>(&input.event)) {
    on_shard_finished(*finished, input.now, out);
  } else if (const auto* fired = std::get_if<CoordinatorInput::TimerFired>(&input.event)) {
    if (fired->timer == CoordinatorTimer::Epoch) {
      if (phase_ == CoordinatorPhase::Batching) seal(input.now, out);
    } else {
      on_commit_timeout(input.now, out);
    }
  }
}

void CoordinatorCore::on_submit(const CoordinatorInput::SubmitRequest& submit,
                                runtime::Time now, std::vector<Output>& out) {
  (void)now;
  if (has_parent_) {
    // Parent links are epoch-numbered: a re-delivered (or stale, under the
    // CommitOutOfEpoch fault) commit is absorbed, not re-executed.
    if (submit.ticket <= last_parent_ticket_) {
      note_duplicate("epoch commit",
                     "epoch " + std::to_string(submit.ticket) + " already processed", out);
      return;
    }
    last_parent_ticket_ = submit.ticket;
  }

  Ticket ticket;
  ticket.id = submit.ticket;
  ticket.parent_span = submit.parent_span;
  ticket.shards.reserve(submit.targets.size());
  for (const ShardTarget& target : submit.targets) ticket.shards.push_back(target.shard);
  std::sort(ticket.shards.begin(), ticket.shards.end());
  ticket.shards.erase(std::unique(ticket.shards.begin(), ticket.shards.end()),
                      ticket.shards.end());
  tickets_.push_back(std::move(ticket));

  pending_.reserve(pending_.size() + submit.targets.size());
  for (const ShardTarget& target : submit.targets) {
    const auto it = lower_bound_shard(pending_, target.shard);
    if (it != pending_.end() && it->shard == target.shard) {
      // Group commit: a later request for the same shard within the epoch
      // supersedes the earlier target — one plan per shard per epoch.
      it->target = target.target;
      ++coalesced_;
    } else {
      pending_.insert(it, target);
    }
  }

  if (phase_ == CoordinatorPhase::Idle) open_epoch(out);
  // Batching: already armed. Committing: the batch waits for the in-flight
  // epoch; maybe_complete() opens the next one.
}

void CoordinatorCore::seal(runtime::Time now, std::vector<Output>& out) {
  ++epoch_;
  commit_ = Commit{};
  commit_.wire = wire_epoch();
  commit_.tickets = std::move(tickets_);
  tickets_.clear();
  commit_.targets = std::move(pending_);
  pending_.clear();
  const std::vector<ShardTarget>& targets = commit_.targets;
  commit_.collected.reserve(targets.size());

  Output sealed;
  sealed.kind = OutputKind::EpochSealed;
  sealed.epoch = epoch_;
  sealed.span = epoch_span(epoch_);
  sealed.value = static_cast<double>(targets.size());
  sealed.has_value = true;
  sealed.extra = static_cast<double>(coalesced_);
  out.push_back(std::move(sealed));
  coalesced_ = 0;
  transition(CoordinatorPhase::Committing, out);

  // Causal edges: this epoch's span descends from every ticket batched into
  // it — root ticket spans at the root, the parent's epoch span below it.
  for (const Ticket& ticket : commit_.tickets) {
    if (ticket.parent_span == 0) continue;
    Output link;
    link.kind = OutputKind::FlowLink;
    link.epoch = epoch_;
    link.span = epoch_span(epoch_);
    link.parent_span = ticket.parent_span;
    out.push_back(std::move(link));
  }

  // Partition the batch: each child gets the slice its subtree covers, each
  // local lane gets its queue. Disjoint children and lanes run concurrently.
  if (!children_.empty()) commit_.child_outstanding.assign(children_.size(), 0);
  for (std::size_t child = 0; child < children_.size(); ++child) {
    std::size_t slice = 0;
    for (const ShardTarget& target : targets) slice += child_covers(child, target.shard) ? 1 : 0;
    if (slice == 0) continue;
    auto message = std::make_shared<EpochCommitMsg>();
    message->epoch = commit_.wire;
    message->ctx = CausalContext{commit_.wire, commit_.wire, epoch_span(epoch_)};
    message->targets.reserve(slice);
    for (const ShardTarget& target : targets) {
      if (child_covers(child, target.shard)) message->targets.push_back(target);
    }
    commit_.child_outstanding[child] = 1;
    ++commit_.children_outstanding;
    Output send;
    send.kind = OutputKind::Send;
    send.process = static_cast<config::ProcessId>(child);
    send.epoch = commit_.wire;
    send.message = std::move(message);
    out.push_back(std::move(send));
  }
  for (const ShardTarget& target : targets) {
    if (const std::uint32_t* lane = local_lane(target.shard)) {
      if (commit_.local.empty()) commit_.local.reserve(targets.size());
      commit_.local.push_back(LocalTarget{*lane, target});
    }
  }
  // Group by lane; shards are unique, so (lane, shard) order is total and
  // each lane keeps its shards in ascending order.
  std::sort(commit_.local.begin(), commit_.local.end(),
            [](const LocalTarget& a, const LocalTarget& b) {
              return a.lane != b.lane ? a.lane < b.lane : a.target.shard < b.target.shard;
            });
  commit_.local_outstanding = commit_.local.size();
  for (std::size_t i = 0; i < commit_.local.size(); ++i) {
    if (i == 0 || commit_.local[i].lane != commit_.local[i - 1].lane) {
      commit_.lanes.push_back(LaneRun{commit_.local[i].lane, i, i, i});
    }
    ++commit_.lanes.back().end;
  }
  for (const LaneRun& run : commit_.lanes) {
    Output exec;
    exec.kind = OutputKind::ExecuteShard;
    exec.epoch = epoch_;
    exec.shard = commit_.local[run.begin].target.shard;
    exec.config = commit_.local[run.begin].target.target;
    exec.parent_span = epoch_span(epoch_);
    out.push_back(std::move(exec));
  }
  // Anything routed to neither a child nor a local lane cannot execute:
  // orphan it immediately rather than waiting out the commit timeout.
  for (const ShardTarget& target : targets) {
    bool routed = local_lane(target.shard) != nullptr;
    for (std::size_t child = 0; !routed && child < children_.size(); ++child) {
      routed = child_covers(child, target.shard);
    }
    if (!routed) orphan(target.shard, now, "orphaned: no subtree covers this shard");
  }

  Output arm;
  arm.kind = OutputKind::ArmTimer;
  arm.ctimer = CoordinatorTimer::Commit;
  arm.delay = config_.commit_timeout;
  arm.label = "commit timeout";
  out.push_back(std::move(arm));

  maybe_complete(now, out, /*timed_out=*/false);
}

void CoordinatorCore::on_child_done(const CoordinatorInput::ChildDone& done,
                                    runtime::Time now, std::vector<Output>& out) {
  if (phase_ != CoordinatorPhase::Committing || done.epoch != commit_.wire) {
    note_duplicate("epoch done",
                   "stale report for epoch " + std::to_string(done.epoch), out);
    return;
  }
  if (done.child >= commit_.child_outstanding.size() ||
      commit_.child_outstanding[done.child] == 0) {
    note_duplicate("epoch done",
                   "child " + std::to_string(done.child) + " already reported", out);
    return;
  }
  for (const ShardOutcome& outcome : done.outcomes) {
    collect(outcome);  // keep the child's orphan flags
  }
  commit_.child_outstanding[done.child] = 0;
  --commit_.children_outstanding;
  maybe_complete(now, out, /*timed_out=*/false);
}

void CoordinatorCore::on_shard_finished(const CoordinatorInput::ShardFinished& finished,
                                        runtime::Time now, std::vector<Output>& out) {
  if (phase_ != CoordinatorPhase::Committing || finished.epoch != epoch_) {
    note_duplicate("shard finished",
                   "stale completion for shard " + std::to_string(finished.shard), out);
    return;
  }
  for (LaneRun& run : commit_.lanes) {
    if (run.next >= run.end || commit_.local[run.next].target.shard != finished.shard) continue;
    collect(ShardOutcome{finished.shard, /*reported=*/true, finished.result});
    ++run.next;
    --commit_.local_outstanding;
    if (run.next < run.end) {
      // Lane serialization: the next shard of this lane starts only now —
      // its agents drive the same underlying processes. A failed shard does
      // not block the rest of its lane (§4.4 isolation per shard).
      Output exec;
      exec.kind = OutputKind::ExecuteShard;
      exec.epoch = epoch_;
      exec.shard = commit_.local[run.next].target.shard;
      exec.config = commit_.local[run.next].target.target;
      exec.parent_span = epoch_span(epoch_);
      out.push_back(std::move(exec));
    }
    maybe_complete(now, out, /*timed_out=*/false);
    return;
  }
  note_duplicate("shard finished",
                 "no lane is executing shard " + std::to_string(finished.shard), out);
}

void CoordinatorCore::on_commit_timeout(runtime::Time now, std::vector<Output>& out) {
  if (phase_ != CoordinatorPhase::Committing) return;
  const auto too_late = [](const char* who) {
    return std::string("orphaned: no report from ") + who + " before the commit timeout";
  };
  for (std::size_t child = 0; child < commit_.child_outstanding.size(); ++child) {
    if (commit_.child_outstanding[child] == 0) continue;
    for (const ShardTarget& target : commit_.targets) {
      if (child_covers(child, target.shard)) {
        orphan(target.shard, now, too_late("child subtree"));
      }
    }
    commit_.child_outstanding[child] = 0;
  }
  commit_.children_outstanding = 0;
  for (LaneRun& run : commit_.lanes) {
    for (std::size_t i = run.next; i < run.end; ++i) {
      orphan(commit_.local[i].target.shard, now, too_late("local lane"));
    }
    run.next = run.end;
  }
  commit_.local_outstanding = 0;
  maybe_complete(now, out, /*timed_out=*/true);
}

void CoordinatorCore::maybe_complete(runtime::Time now, std::vector<Output>& out,
                                     bool timed_out) {
  if (commit_.children_outstanding != 0 || commit_.local_outstanding != 0) return;
  if (!timed_out) {
    Output disarm;
    disarm.kind = OutputKind::DisarmTimer;
    disarm.ctimer = CoordinatorTimer::Commit;
    disarm.label = "commit timeout";
    out.push_back(std::move(disarm));
  }

  std::vector<ShardOutcome>& collected = commit_.collected;
  std::size_t orphans = 0;
  for (const ShardOutcome& outcome : collected) orphans += outcome.reported ? 0 : 1;
  Output completed;
  completed.kind = OutputKind::EpochCompleted;
  completed.epoch = epoch_;
  completed.span = epoch_span(epoch_);
  completed.value = static_cast<double>(collected.size());
  completed.has_value = true;
  completed.extra = static_cast<double>(orphans);
  out.push_back(std::move(completed));
  ++epochs_completed_;

  // Per-ticket results, in submission order: each ticket learns the fate of
  // exactly the shards it asked for (coalesced shards share one outcome).
  // Outcomes are shared pointers, so a slice copies no result; the last
  // ticket takes the collected list whole when it asked for all of it.
  for (std::size_t i = 0; i < commit_.tickets.size(); ++i) {
    const Ticket& ticket = commit_.tickets[i];
    std::vector<ShardOutcome> slice;
    const bool whole = i + 1 == commit_.tickets.size() &&
                       std::equal(ticket.shards.begin(), ticket.shards.end(),
                                  collected.begin(), collected.end(),
                                  [](std::uint32_t shard, const ShardOutcome& o) {
                                    return shard == o.shard;
                                  });
    if (whole) {
      slice = std::move(collected);
    } else {
      slice.reserve(ticket.shards.size());
      for (const std::uint32_t shard : ticket.shards) {
        const auto it = lower_bound_shard(collected, shard);
        if (it != collected.end() && it->shard == shard) slice.push_back(*it);
      }
    }
    if (has_parent_) {
      auto message = std::make_shared<EpochDoneMsg>();
      message->epoch = ticket.id;  // the parent's epoch number
      message->ctx = CausalContext{ticket.id, epoch_, epoch_span(epoch_)};
      message->outcomes = std::move(slice);
      Output send;
      send.kind = OutputKind::SendParent;
      send.epoch = ticket.id;
      send.message = std::move(message);
      out.push_back(std::move(send));
    } else {
      Output done;
      done.kind = OutputKind::TicketDone;
      done.ticket = ticket.id;
      done.epoch = epoch_;
      done.span = ticket.parent_span;  // the root ticket's own span
      done.parent_span = epoch_span(epoch_);
      done.shard_outcomes = std::move(slice);
      out.push_back(std::move(done));
    }
  }
  commit_ = Commit{};

  if (!tickets_.empty() || !pending_.empty()) {
    // Submissions that arrived mid-commit become the next epoch.
    open_epoch(out);
  } else {
    transition(CoordinatorPhase::Idle, out);
  }
  (void)now;
}

void CoordinatorCore::fingerprint(std::uint64_t& h) const {
  h = mix(h, static_cast<std::uint64_t>(phase_));
  h = mix(h, epoch_);
  h = mix(h, last_parent_ticket_);
  h = mix(h, pending_.size());
  for (const ShardTarget& target : pending_) {
    h = mix(h, target.shard);
    h = mix(h, target.target.bits());
  }
  h = mix(h, commit_.children_outstanding);
  h = mix(h, commit_.local_outstanding);
  h = mix(h, commit_.collected.size());
}

}  // namespace sa::proto
