#include "mdwf/net/network.hpp"

#include <cmath>

#include "mdwf/common/assert.hpp"
#include "mdwf/sim/primitives.hpp"

namespace mdwf::net {

Network::Network(sim::Simulation& sim, const NetworkParams& params,
                 std::uint32_t node_count)
    : sim_(&sim), params_(params) {
  MDWF_ASSERT(node_count >= 1);
  nodes_.reserve(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    Nic nic;
    nic.tx = std::make_unique<FairShareChannel>(
        sim, params.nic_bandwidth_bps, "nic" + std::to_string(i) + ".tx");
    nic.rx = std::make_unique<FairShareChannel>(
        sim, params.nic_bandwidth_bps, "nic" + std::to_string(i) + ".rx");
    nodes_.push_back(std::move(nic));
  }
  if (params.bisection_bandwidth_bps > 0.0) {
    bisection_ = std::make_unique<FairShareChannel>(
        sim, params.bisection_bandwidth_bps, "bisection");
  }
}

FairShareChannel& Network::tx(NodeId n) {
  MDWF_ASSERT(n.value < nodes_.size());
  return *nodes_[n.value].tx;
}

FairShareChannel& Network::rx(NodeId n) {
  MDWF_ASSERT(n.value < nodes_.size());
  return *nodes_[n.value].rx;
}

void Network::set_link_degradation(NodeId n, double fraction) {
  tx(n).set_background_load(fraction);
  rx(n).set_background_load(fraction);
}

void Network::set_link_down(NodeId n, bool down) {
  MDWF_ASSERT(n.value < nodes_.size());
  nodes_[n.value].down = down;
}

bool Network::link_down(NodeId n) const {
  MDWF_ASSERT(n.value < nodes_.size());
  return nodes_[n.value].down;
}

void Network::set_link_isolated(NodeId n, bool isolated) {
  MDWF_ASSERT(n.value < nodes_.size());
  nodes_[n.value].tx_down = isolated;
}

std::size_t Network::crash_node(NodeId n) {
  set_link_down(n, true);
  return tx(n).abort_active() + rx(n).abort_active();
}

void Network::set_link_loss(NodeId n, double p) {
  MDWF_ASSERT(n.value < nodes_.size());
  MDWF_ASSERT(p >= 0.0 && p < 1.0);
  nodes_[n.value].loss = p;
}

void Network::check_reachable(NodeId src, NodeId dst) const {
  for (const NodeId n : {src, dst}) {
    if (nodes_[n.value].down) {
      throw NetError("network: node " + std::to_string(n.value) +
                     " unreachable (partition)");
    }
  }
  if (nodes_[src.value].tx_down) {
    throw NetError("network: node " + std::to_string(src.value) +
                   " isolated (one-way partition, outbound dead)");
  }
}

sim::Task<void> Network::transfer(NodeId src, NodeId dst, Bytes payload) {
  if (src == dst) co_return;  // loopback is free at this layer
  check_reachable(src, dst);
  co_await sim_->delay(params_.latency);
  if (payload.is_zero()) co_return;
  // Lossy links retransmit: a packet survives the path only if neither
  // endpoint's link drops it, so the goodput fraction is (1-p_src)(1-p_dst)
  // and the wire carries 1/(that) times the payload.  A tail-drop (the last
  // packet of the flow lost) additionally stalls one RTO.
  Bytes wire = payload;
  const double survive = (1.0 - nodes_[src.value].loss) *
                         (1.0 - nodes_[dst.value].loss);
  if (survive < 1.0) {
    wire = Bytes(static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(payload.count()) / survive)));
    retransmitted_ += wire - payload;
    if (loss_rng_.bernoulli(1.0 - survive)) {
      ++retransmit_timeouts_;
      co_await sim_->delay(params_.retransmit_timeout);
    }
  }
  // The payload occupies every traversed segment simultaneously; completion
  // is gated by the slowest.
  std::vector<sim::Task<void>> segments;
  segments.push_back(tx(src).transfer(wire));
  segments.push_back(rx(dst).transfer(wire));
  if (bisection_) segments.push_back(bisection_->transfer(wire));
  co_await sim::all(*sim_, std::move(segments));
}

sim::Task<void> Network::send_control(NodeId src, NodeId dst) {
  co_await transfer(src, dst, params_.control_message_size);
}

sim::Task<void> Network::rdma_put(NodeId src, NodeId dst, Bytes payload) {
  co_await transfer(src, dst, payload);
  co_await send_control(dst, src);
}

}  // namespace mdwf::net
