#include "sim/network.hpp"

#include <algorithm>

#include <stdexcept>

#include "util/log.hpp"

namespace sa::sim {

Channel::Arrivals Channel::send(const Message& message) {
  Arrivals out;
  ++stats_.sent;
  if (partitioned_) {
    ++stats_.dropped_partition;
    return out;
  }
  if (config_.loss_probability > 0.0 && rng_->next_bool(config_.loss_probability)) {
    ++stats_.dropped_loss;
    return out;
  }
  Time send_complete = sim_->now();
  if (config_.bytes_per_second > 0) {
    // Serialize on the link: transmission starts when the link frees up and
    // occupies it for size/bandwidth.
    const Time start = std::max(sim_->now(), link_free_at_);
    const Time transmission = static_cast<Time>(
        (static_cast<__int128>(message.size_bytes()) * 1'000'000) / config_.bytes_per_second);
    send_complete = start + transmission;
    link_free_at_ = send_complete;
  }

  Time delay = config_.latency;
  if (config_.jitter > 0) {
    delay += static_cast<Time>(rng_->next_below(static_cast<std::uint64_t>(config_.jitter) + 1));
  }
  Time arrival = send_complete + delay;
  if (config_.fifo && arrival < last_delivery_) arrival = last_delivery_;
  last_delivery_ = arrival;
  out.accepted = true;
  out.arrival = arrival;
  ++stats_.delivered;

  if (config_.duplicate_probability > 0.0 && rng_->next_bool(config_.duplicate_probability)) {
    // The copy trails the original by up to one extra jitter window.
    Time copy_arrival =
        arrival + 1 +
        (config_.jitter > 0
             ? static_cast<Time>(rng_->next_below(static_cast<std::uint64_t>(config_.jitter) + 1))
             : config_.latency);
    if (config_.fifo && copy_arrival < last_delivery_) copy_arrival = last_delivery_;
    last_delivery_ = std::max(last_delivery_, copy_arrival);
    out.duplicated = true;
    out.copy_arrival = copy_arrival;
    ++stats_.duplicated;
  }
  return out;
}

NodeId Network::add_node(std::string name, ReceiveHandler handler) {
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(std::move(name));
  handlers_.push_back(std::move(handler));
  return id;
}

void Network::set_handler(NodeId node, ReceiveHandler handler) {
  handlers_.at(node) = std::move(handler);
}

namespace {

bool before(const Channel& channel, std::pair<NodeId, NodeId> key) {
  return std::pair(channel.from(), channel.to()) < key;
}

}  // namespace

Channel& Network::link(NodeId from, NodeId to, ChannelConfig config) {
  if (from >= names_.size() || to >= names_.size()) {
    throw std::out_of_range("Network::link: unknown node");
  }
  runtime::checked_channel_config(config);
  const auto it = std::lower_bound(channels_.begin(), channels_.end(), std::pair(from, to), before);
  if (it != channels_.end() && it->from() == from && it->to() == to) {
    *it = Channel(*sim_, rng_, from, to, config);
    return *it;
  }
  return *channels_.insert(it, Channel(*sim_, rng_, from, to, config));
}

std::size_t Network::channel_index(NodeId from, NodeId to) const {
  const auto it = std::lower_bound(channels_.begin(), channels_.end(), std::pair(from, to), before);
  if (it == channels_.end() || it->from() != from || it->to() != to) return channels_.size();
  return static_cast<std::size_t>(it - channels_.begin());
}

void Network::link_bidirectional(NodeId a, NodeId b, ChannelConfig config) {
  link(a, b, config);
  link(b, a, config);
}

void Network::connect(NodeId from, NodeId to, ChannelConfig config) { link(from, to, config); }

void Network::connect_bidirectional(NodeId a, NodeId b, ChannelConfig config) {
  link_bidirectional(a, b, config);
}

void Network::set_loss(NodeId from, NodeId to, double probability) {
  channel(from, to).set_loss_probability(probability);
}

ChannelStats Network::channel_stats(NodeId from, NodeId to) const {
  const std::size_t index = channel_index(from, to);
  if (index == channels_.size()) {
    throw std::out_of_range("no channel " + names_.at(from) + " -> " + names_.at(to));
  }
  return channels_[index].stats();
}

Channel& Network::channel(NodeId from, NodeId to) {
  const std::size_t index = channel_index(from, to);
  if (index == channels_.size()) {
    throw std::out_of_range("no channel " + names_.at(from) + " -> " + names_.at(to));
  }
  return channels_[index];
}

bool Network::has_channel(NodeId from, NodeId to) const {
  return channel_index(from, to) != channels_.size();
}

bool Network::send(NodeId from, NodeId to, MessagePtr message) {
  Channel& ch = channel(from, to);
  const std::string type = message->type_name();
  const Channel::Arrivals arrivals = ch.send(*message);
  if (arrivals.accepted) {
    if (arrivals.duplicated) {
      deliver_at(arrivals.arrival, from, to, message);
      deliver_at(arrivals.copy_arrival, from, to, std::move(message));
    } else {
      deliver_at(arrivals.arrival, from, to, std::move(message));
    }
    observer_.on_sent(sim_->now(), from, to, type);
    if (arrivals.duplicated) observer_.on_duplicated(sim_->now(), from, to, type);
  } else {
    SA_DEBUG("network") << names_[from] << " -> " << names_[to] << " dropped " << type;
    if (tracing_) trace_.push_back(TraceEntry{sim_->now(), from, to, type, false, nullptr});
    observer_.on_dropped(sim_->now(), from, to, type,
                         ch.partitioned() ? "partition" : "loss");
  }
  return arrivals.accepted;
}

void Network::deliver_at(Time at, NodeId from, NodeId to, MessagePtr message) {
  std::uint32_t slot = free_slot_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    free_slot_ = in_flight_[slot].next_free;
  }
  in_flight_[slot] = InFlight{from, to, std::move(message), 0};
  sim_->schedule_at(at, [this, slot] { deliver(slot); });
}

void Network::deliver(std::uint32_t slot) {
  InFlight& parked = in_flight_[slot];
  const NodeId sender = parked.from;
  const NodeId to = parked.to;
  MessagePtr msg = std::move(parked.message);
  // Free the slot before the handler runs: it may send, and so park, more.
  parked.next_free = free_slot_;
  free_slot_ = slot;
  const std::string delivered_type = msg->type_name();
  if (tracing_) {
    trace_.push_back(TraceEntry{sim_->now(), sender, to, delivered_type, true, msg});
  }
  observer_.on_delivered(sim_->now(), sender, to, delivered_type);
  if (handlers_.at(to)) handlers_[to](sender, std::move(msg));
}

void Network::partition_node(NodeId node, bool partitioned) {
  for (Channel& channel : channels_) {
    if (channel.from() == node || channel.to() == node) channel.set_partitioned(partitioned);
  }
}

void Network::partition_pair(NodeId a, NodeId b, bool partitioned) {
  if (has_channel(a, b)) channel(a, b).set_partitioned(partitioned);
  if (has_channel(b, a)) channel(b, a).set_partitioned(partitioned);
}

}  // namespace sa::sim
