// Simulated network: named nodes connected by directed channels with
// configurable latency, jitter, loss, and partitions.
//
// This substitutes for the paper's physical testbed (802.11 multicast between
// a server, an iPAQ hand-held, and a Toughbook laptop).  Channels can be
// FIFO-ordered (a TCP-like manager/agent control connection) or unordered and
// lossy (UDP-like data multicast); partitions model the paper's "long-term
// network failure" that triggers loss-of-message handling.
//
// The Network IS the sim backend's runtime::Transport: protocol and
// application layers talk to that interface and reach this implementation
// through the SimRuntime adapter. Message, channel, and trace types are the
// runtime layer's, re-exported here under sa::sim for source compatibility.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/message_observer.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sa::sim {

using NodeId = runtime::NodeId;
using Message = runtime::Message;
using MessagePtr = runtime::MessagePtr;
using ReceiveHandler = runtime::ReceiveHandler;
using ChannelConfig = runtime::ChannelConfig;
using ChannelStats = runtime::ChannelStats;
using TraceEntry = runtime::TraceEntry;

class Channel {
 public:
  Channel(Simulator& sim, util::Rng& rng, NodeId from, NodeId to, ChannelConfig config)
      : sim_(&sim), rng_(&rng), from_(from), to_(to), config_(config) {}

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  const ChannelConfig& config() const { return config_; }
  const ChannelStats& stats() const { return stats_; }

  /// Failure injection: while partitioned, every message is dropped.
  void set_partitioned(bool partitioned) { partitioned_ = partitioned; }
  bool partitioned() const { return partitioned_; }

  void set_loss_probability(double p) {
    config_.loss_probability = runtime::checked_probability(p, "loss probability");
  }

  /// When the message handed to send() arrives, and when its copy does if
  /// the channel duplicated it.
  struct Arrivals {
    bool accepted = false;  ///< false: dropped by loss or partition
    Time arrival = 0;
    bool duplicated = false;
    Time copy_arrival = 0;
  };

  /// Applies partition, loss, bandwidth, latency, jitter, FIFO and
  /// duplication to `message`, in that order of random draws, and updates
  /// the stats. The caller schedules the deliveries.
  Arrivals send(const Message& message);

 private:
  Simulator* sim_;
  util::Rng* rng_;
  NodeId from_;
  NodeId to_;
  ChannelConfig config_;
  ChannelStats stats_;
  bool partitioned_ = false;
  Time last_delivery_ = 0;   // FIFO clamp
  Time link_free_at_ = 0;    // bandwidth serialization
};

class Network final : public runtime::Transport {
 public:
  Network(Simulator& sim, std::uint64_t seed = 42) : sim_(&sim), rng_(seed) {}

  /// Registers a node; `name` appears in traces. Handler may be bound later
  /// via set_handler (nodes are often constructed before their owners).
  NodeId add_node(std::string name, ReceiveHandler handler = nullptr) override;
  void set_handler(NodeId node, ReceiveHandler handler) override;
  const std::string& node_name(NodeId node) const override { return names_.at(node); }
  std::size_t node_count() const override { return names_.size(); }

  /// Creates (or reconfigures) the directed channel from -> to. Channels
  /// live in one flat array, so a returned reference is valid until the next
  /// link().
  Channel& link(NodeId from, NodeId to, ChannelConfig config = {});

  /// Both directions with the same config.
  void link_bidirectional(NodeId a, NodeId b, ChannelConfig config = {});

  /// Transport interface spellings of link()/link_bidirectional().
  void connect(NodeId from, NodeId to, ChannelConfig config = {}) override;
  void connect_bidirectional(NodeId a, NodeId b, ChannelConfig config = {}) override;

  Channel& channel(NodeId from, NodeId to);
  bool has_channel(NodeId from, NodeId to) const override;

  /// Sends over the from->to channel; throws std::out_of_range when no such
  /// channel exists. Returns false if the channel dropped the message.
  bool send(NodeId from, NodeId to, MessagePtr message) override;

  /// Failure injection helpers for the loss-of-message experiments.
  void partition_node(NodeId node, bool partitioned) override;
  void partition_pair(NodeId a, NodeId b, bool partitioned) override;
  void set_loss(NodeId from, NodeId to, double probability) override;

  ChannelStats channel_stats(NodeId from, NodeId to) const override;

  /// Enables trace recording; entries accumulate in trace().
  void set_tracing(bool enabled) override { tracing_ = enabled; }
  const std::vector<TraceEntry>& trace() const override { return trace_; }
  void clear_trace() override { trace_.clear(); }

  void set_observer(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics) override {
    observer_.attach(recorder, metrics);
  }

  Simulator& simulator() { return *sim_; }
  util::Rng& rng() { return rng_; }

 private:
  /// A message between send and delivery. Its delivery event captures
  /// {this, slot}, which std::function holds inline, instead of the message.
  struct InFlight {
    NodeId from = 0;
    NodeId to = 0;
    MessagePtr message;              ///< null while the slot is free
    std::uint32_t next_free = 0;     ///< free-list link while free
  };
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Index of channel from -> to in channels_, or channels_.size().
  std::size_t channel_index(NodeId from, NodeId to) const;
  /// Parks `message` and schedules its delivery at `at`.
  void deliver_at(Time at, NodeId from, NodeId to, MessagePtr message);
  void deliver(std::uint32_t slot);

  Simulator* sim_;
  util::Rng rng_;
  std::vector<std::string> names_;
  std::vector<ReceiveHandler> handlers_;
  std::vector<Channel> channels_;  ///< ascending (from, to)
  std::vector<InFlight> in_flight_;
  std::uint32_t free_slot_ = kNoSlot;
  bool tracing_ = false;
  std::vector<TraceEntry> trace_;
  obs::MessageObserver observer_;
};

}  // namespace sa::sim
