// Membership / controller plane (mdwf::membership).
//
// Every recovery path in mdwf::fault assumes a failed node eventually
// returns: `CrashMonitor::wait_up` parks ranks until the node is back, so a
// *permanent* node loss ends in the deadlock reporter.  This module adds the
// piece a production service needs to survive losing a node outright:
//
//   1. Heartbeats.  Each compute node sends a periodic control message to
//      the controller (the service node).  The controller feeds each node's
//      inter-arrival gaps to a `health::DeclarePolicy` (phi-accrual
//      suspicion sustained past a confirm window, or silence past an
//      absolute ceiling).
//   2. Declare.  When the policy fires, the controller declares the node
//      lost: terminal for that incarnation.  The declare bumps the node's
//      incarnation in the shared `FenceRegistry` (fencing every daemon born
//      under the old one) and notifies listeners (stream route invalidation,
//      tenant quota rebalance).
//   3. Migration.  Ranks homed on a declared node re-home to the surviving
//      node with the fewest resident ranks (spare capacity; never onto
//      another declared node — the failure-domain rule), restart from their
//      checkpoint, and re-execute only the lost tail.
//   4. Fencing the past.  A declared node cut off by an *asymmetric*
//      partition keeps running — a zombie.  Its outbound publishes fail
//      during the partition; after the heal, the first server round trip
//      observes the bumped incarnation and rejects with StaleEpochError
//      (counted in `FenceRegistry::stale_rejects`).  A zombie heartbeat
//      re-joining is rejected the same way and the node's processes are
//      killed (the STONITH analogue), which bumps the crash epoch the rank
//      loops already watch.
//
// Everything runs inside the DES kernel: heartbeat arrivals, declares and
// migrations are ordinary simulation events, so a given (seed, scenario)
// pair yields bit-identical runs at any host thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mdwf/common/fence.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/health/health.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::fault {
class CrashMonitor;
}

namespace mdwf::membership {

struct MembershipParams {
  bool enabled = false;
  // Per-node heartbeat period (control message to the controller).
  Duration heartbeat_interval = Duration::milliseconds(10);
  // Controller scan period for the declare policies and the poll period of
  // ranks parked waiting for recovery-or-migration.
  Duration check_interval = Duration::milliseconds(10);
  health::DeclareParams declare{};
};

class MembershipPlane {
 public:
  // `monitor` may be null (no fault plan): heartbeats still flow but no
  // node can go down, so nothing ever declares.  `fences` outlives the
  // plane (the testbed owns both).
  MembershipPlane(sim::Simulation& sim, const MembershipParams& params,
                  net::Network& network, net::NodeId controller,
                  std::uint32_t compute_nodes, fault::CrashMonitor* monitor,
                  FenceRegistry& fences);

  // --- Rank lifecycle -------------------------------------------------------
  // Registers a rank homed on `node`; the first registration spawns the
  // heartbeat and scan loops (a plane with no ranks stays silent, so runs
  // without workflow ranks cannot hang on an undying heartbeat).
  std::uint32_t register_rank(std::uint32_t node);
  std::uint32_t home(std::uint32_t rank) const { return home_[rank]; }
  // Pins two ranks to migrate together (an XFS pair shares one node-local
  // filesystem, so splitting it across nodes would orphan the data):
  // whichever rank migrates first picks the target, the other follows.
  void bind_colocated(std::uint32_t a, std::uint32_t b);
  // Marks one registered rank finished; when all are, the plane's loops
  // drain so the simulation can reach quiescence.
  void rank_done();

  // Parks until the rank's home node is either powered on again (plain
  // crash recovery: returns the unchanged home) or declared lost (returns
  // the new home chosen by the placement rule and counts a migration).
  sim::Task<std::uint32_t> wait_recover_or_migrate(std::uint32_t rank);

  // --- Controller state -----------------------------------------------------
  bool lost(std::uint32_t node) const {
    return node < lost_.size() && lost_[node];
  }
  // Called on every declare with the lost node id, in registration order.
  void add_declare_listener(std::function<void(std::uint32_t)> listener);

  const MembershipParams& params() const { return params_; }
  std::uint64_t declares() const { return declares_; }
  std::uint64_t migrations() const { return migrations_; }
  // Sum over declares of (declare instant - last heartbeat heard): the
  // detection latency the `figures membership_sweep` frontier plots.
  Duration declare_latency() const { return declare_latency_; }

 private:
  sim::Task<void> heartbeat_loop(std::uint32_t node);
  sim::Task<void> scan_loop();
  void declare_lost(std::uint32_t node);
  std::uint32_t pick_target(std::uint32_t lost_node) const;
  void start();
  bool stopped() const { return registered_ > 0 && done_ >= registered_; }

  sim::Simulation* sim_;
  MembershipParams params_;
  net::Network* network_;
  net::NodeId controller_;
  fault::CrashMonitor* monitor_;
  FenceRegistry* fences_;

  std::vector<health::DeclarePolicy> policies_;  // one per compute node
  std::vector<bool> lost_;
  std::vector<bool> killed_;  // zombie processes killed after re-join
  std::vector<std::uint32_t> home_;
  std::vector<std::uint32_t> buddy_;  // kNoBuddy = migrates alone
  std::vector<std::function<void(std::uint32_t)>> listeners_;
  static constexpr std::uint32_t kNoBuddy = ~std::uint32_t{0};
  std::uint32_t registered_ = 0;
  std::uint32_t done_ = 0;
  bool started_ = false;
  std::uint64_t declares_ = 0;
  std::uint64_t migrations_ = 0;
  Duration declare_latency_ = Duration::zero();
};

}  // namespace mdwf::membership
