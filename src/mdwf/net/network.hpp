// Cluster interconnect model (InfiniBand-style fabric).
//
// Every node owns a full-duplex NIC (independent tx/rx fair-share channels).
// A transfer from A to B pays the base one-way latency once and then streams
// its payload through A's tx channel and B's rx channel concurrently; the
// slower (more contended) side gates completion, which is how a fat-tree
// fabric with adequate bisection behaves.  An optional shared bisection
// channel models a constrained core.
//
// RDMA primitives mirror one-sided verbs: a small request message to the
// owner followed by a payload stream back, with no remote CPU involvement
// modelled beyond the responder's NIC.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "mdwf/common/bytes.hpp"
#include "mdwf/common/rng.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/net/fair_share.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::net {

// Raised fail-fast by transfers touching a partitioned endpoint (the
// behaviour of a timed-out RDMA queue pair / RPC).  Healthy runs never see
// it; fault-aware callers (DYAD retry) catch it and recover.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

struct NodeId {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

struct NetworkParams {
  // InfiniBand QDR: 32 Gbit/s ~= 3.2 GB/s effective per direction.
  double nic_bandwidth_bps = 3.2e9;
  // One-way small-message latency.
  Duration latency = Duration::nanoseconds(1500);
  // Shared core capacity; 0 disables the bisection constraint.
  double bisection_bandwidth_bps = 0.0;
  // Size charged for control messages (headers, acks).
  Bytes control_message_size = Bytes(256);
  // Stall charged when a lossy link drops the tail of a flow and the
  // transport has to wait out a retransmission timeout.
  Duration retransmit_timeout = Duration::microseconds(500);
};

class Network {
 public:
  Network(sim::Simulation& sim, const NetworkParams& params,
          std::uint32_t node_count);

  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  const NetworkParams& params() const { return params_; }

  // Bulk data transfer src -> dst.  Intra-node transfers pay no network cost
  // (the caller models local memory/storage costs).
  sim::Task<void> transfer(NodeId src, NodeId dst, Bytes payload);

  // Control-plane message (fixed small size + latency).
  sim::Task<void> send_control(NodeId src, NodeId dst);

  // One-sided write: payload streams src -> dst, then a completion control
  // message returns.
  sim::Task<void> rdma_put(NodeId src, NodeId dst, Bytes payload);

  // Channel access for tests and interference injection.
  FairShareChannel& tx(NodeId n);
  FairShareChannel& rx(NodeId n);
  FairShareChannel* bisection() { return bisection_.get(); }

  // --- Fault hooks (mdwf::fault) ------------------------------------------
  // Congestion on one node's links: fraction of NIC capacity lost in both
  // directions.
  void set_link_degradation(NodeId n, double fraction);
  // Partition: while down, any transfer/control/RDMA touching the node
  // throws NetError at issue time (fail fast, like a broken QP).
  void set_link_down(NodeId n, bool down);
  bool link_down(NodeId n) const;
  // Asymmetric (one-way) partition: while isolated, nothing *leaves* the
  // node — outbound transfers throw NetError — but inbound traffic still
  // arrives.  This is the zombie shape: the node keeps working locally and
  // hears nothing back, while the controller stops hearing its heartbeats.
  void set_link_isolated(NodeId n, bool isolated);
  // Node power loss: the link goes down AND every in-flight flow on the
  // node's NIC is torn mid-transfer (each waiting peer gets a NetError).
  // Returns the number of flows torn.  `set_link_down(n, false)` restores.
  std::size_t crash_node(NodeId n);

  // Lossy link (gray failure): fraction of packets lost on the node's
  // links.  Lost packets are retransmitted, not dropped: every transfer
  // touching the node streams 1/(1-p) times its payload, and with
  // probability p the flow additionally stalls one retransmit timeout.
  // Draws happen only while a lossy window is active, preserving the
  // determinism of loss-free runs.
  void set_link_loss(NodeId n, double p);
  // Reseeds the retransmit RNG (mdwf::fault wires the plan seed here).
  void seed_loss(Rng rng) { loss_rng_ = rng; }
  Bytes retransmitted() const { return retransmitted_; }
  std::uint64_t retransmit_timeouts() const { return retransmit_timeouts_; }

 private:
  struct Nic {
    std::unique_ptr<FairShareChannel> tx;
    std::unique_ptr<FairShareChannel> rx;
    bool down = false;
    bool tx_down = false;
    double loss = 0.0;
  };

  // Throws NetError if either endpoint is partitioned.
  void check_reachable(NodeId src, NodeId dst) const;

  sim::Simulation* sim_;
  NetworkParams params_;
  std::vector<Nic> nodes_;
  std::unique_ptr<FairShareChannel> bisection_;
  Rng loss_rng_{0x10557};
  Bytes retransmitted_;
  std::uint64_t retransmit_timeouts_ = 0;
};

}  // namespace mdwf::net
