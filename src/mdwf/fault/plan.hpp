// Deterministic fault plans.
//
// A `FaultPlan` is a declarative list of fault windows — which resource
// degrades/fails, when, for how long, how badly — resolved to concrete
// virtual-time instants *before* the simulation runs.  All randomness (window
// arrival times, durations, severities, victim choice) is drawn from the
// seeded `mdwf::Rng` at plan-construction time by `FaultClock`, so a given
// (seed, scenario) pair always yields the identical plan and therefore a
// bit-identical run: the determinism contract of `mdwf::sim` is preserved
// under fault injection.
//
// Named scenarios (`make_scenario`) package the what-if studies the paper
// never ran: degraded brokers, slow NVMe, fabric congestion, OST storms.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/rng.hpp"
#include "mdwf/common/time.hpp"

namespace mdwf::fault {

// Which resource class a window strikes.
enum class FaultTarget : std::uint8_t {
  kNodeSsd,    // a compute node's NVMe (index = node)
  kNodeLink,   // a compute node's NIC (index = node)
  kKvsBroker,  // the Flux-style KVS broker (index ignored)
  kLustreOst,  // one Lustre OST device (index = OST)
  kNodeCrash,  // a whole compute node (index = node): crash/kill semantics
  kNodeLoss,   // a whole compute node, permanently (index = node): power
               // loss with no reboot — the node never rejoins; only the
               // membership plane (declare + migrate) lets the run finish
  // Gray failures (fail-slow, not fail-stop): every RPC still succeeds,
  // just slowly or lossily — the failures mdwf::health mitigates.
  kSlowDevice,        // fail-slow NVMe: latency + bandwidth stretch
                      // (index = node, mode kFailSlow)
  kLossyLink,         // lossy NIC link: seeded packet loss + retransmits
                      // (index = node, mode kLossy)
  kSlowNode,          // CPU dilation of the ranks on a node (index = node,
                      // mode kFailSlow)
  kOverloadedServer,  // service-time inflation (index 0 = KVS broker,
                      // index 1 = Lustre MDS + OSTs; mode kFailSlow)
};

// What happens to the target during the window.
enum class FaultMode : std::uint8_t {
  kDegrade,  // severity = fraction of capacity lost (bandwidth/service)
  kOffline,  // resource unreachable: SSD ops queue, link ops fail fast
  kStall,    // broker only: requests queue, none serviced
  kOutage,   // broker only: stall + loss of not-yet-visible commits
  kIoError,  // SSD only: severity = per-op I/O error probability
  kCrash,    // node only: power loss — dirty page cache dropped, un-synced
             // writes torn back to the last fsync/commit barrier, NIC down
             // and in-flight flows torn for the window, then reboot
  kKill,     // node only: process kill — ranks restart from their
             // checkpoint, but storage and page cache survive intact
  kBitFlip,  // SSD/link/OST: severity = per-op silent-corruption probability
  kFailSlow, // gray targets: severity s in [0,1) slows the resource by
             // 1/(1-s) — s=0.9 is a 10x-slow device/server/CPU
  kLossy,    // kLossyLink only: severity = per-packet loss probability;
             // lost packets retransmit (byte inflation + seeded RTO stalls)
  kIsolate,  // kNodeLink only: asymmetric one-way partition — nothing
             // leaves the node (outbound ops fail fast) but inbound
             // traffic still arrives; the zombie/split-brain shape
};

std::string_view to_string(FaultTarget t);
std::string_view to_string(FaultMode m);

// True when `t`'s window index addresses a compute node (as opposed to a
// shared service such as the broker, an OST, or an overloaded server).
bool targets_node(FaultTarget t);

struct FaultWindow {
  FaultTarget target = FaultTarget::kNodeSsd;
  std::uint32_t index = 0;
  FaultMode mode = FaultMode::kDegrade;
  TimePoint start = TimePoint::origin();
  Duration duration = Duration::zero();
  double severity = 0.0;

  TimePoint end() const { return start + duration; }
};

struct FaultPlan {
  std::vector<FaultWindow> windows;
  // Stream for probabilistic per-op faults (I/O error draws), forked per
  // device so adding one device's draws never perturbs another's.
  std::uint64_t seed = 42;

  bool empty() const { return windows.empty(); }
  // Latest window end (origin when empty): the instant after which every
  // resource is healthy again.
  TimePoint horizon() const;
};

// Rebases every node-indexed window of `plan` by `node_base`: a tenant's
// fault plan is authored against its own nodes [0, tenant_nodes) and shifted
// onto the tenant's slice of the shared testbed.  Shared-service windows
// (broker, OSTs, overload) keep their indices — they hit everyone.
void shift_node_targets(FaultPlan& plan, std::uint32_t node_base);

// True when the plan crashes, kills, loses or isolates a node in
// [first, first + count): the ranks on those nodes must then run crash-aware
// (retry loops, crash restart, automatic checkpoints).  Isolation windows
// count too: an isolated node's ranks need the retry loops to ride out the
// outbound blackout, and under a membership plane the node can be declared
// lost and its processes killed while the plan itself holds no crash window.
// The default range is every node (classic and DAG runs); a co-tenant run
// asks per tenant slice, so a healthy neighbor's ranks stay crash-unaware.
bool has_crash_in_nodes(
    const FaultPlan& plan, std::uint32_t first = 0,
    std::uint32_t count = std::numeric_limits<std::uint32_t>::max());

// A recurring stochastic fault source: windows arrive at exponential
// intervals, last a lognormal duration, claim a uniform severity, and strike
// a uniformly chosen victim among `target_pool` instances.
struct FaultProcess {
  FaultTarget target = FaultTarget::kNodeSsd;
  FaultMode mode = FaultMode::kDegrade;
  std::uint32_t target_pool = 1;
  Duration mean_interarrival = Duration::milliseconds(500);
  // Window length: lognormal(mu, sigma) seconds.
  double duration_mu = -2.5;
  double duration_sigma = 0.6;
  // Severity uniform in [min, max).
  double min_severity = 0.2;
  double max_severity = 0.8;
};

// Materializes stochastic fault processes into concrete windows, consuming
// the seeded stream deterministically.  This is the only place randomness
// enters the fault subsystem: by run time a plan is pure data.
class FaultClock {
 public:
  explicit FaultClock(Rng rng) : rng_(rng) {}

  // Appends windows for `process` arriving in [from, horizon) to `plan`.
  void materialize(const FaultProcess& process, TimePoint from,
                   TimePoint horizon, FaultPlan& plan);

 private:
  Rng rng_;
};

// Cluster shape a scenario is instantiated against.
struct ScenarioShape {
  std::uint32_t compute_nodes = 2;
  std::uint32_t ost_count = 8;
  // Window in which faults may strike (should cover the workload).
  TimePoint start = TimePoint::origin() + Duration::milliseconds(200);
  Duration span = Duration::seconds_i(30);
  std::uint64_t seed = 42;
};

// Named what-if scenarios; throws std::invalid_argument on unknown names.
//   none           healthy cluster (empty plan)
//   broker-blip    one short KVS broker stall
//   broker-outage  KVS broker outage (stall + loss of pending commits)
//   slow-nvme      every node SSD at a fraction of its bandwidth
//   flaky-fabric   recurring NIC degradation episodes on random nodes
//   partition      one consumer-side node link down for a window
//   ost-storm      recurring heavy load episodes on random OSTs
//   node-crash     node 0 loses power mid-run (dirty pages dropped, torn
//                  writes, NIC down) and reboots after the window
//   rank-kill      the ranks on node 0 are killed and restarted (storage
//                  survives); also accepted as "kill"
//   bit-flip       nonzero silent-corruption rates on every SSD, NIC link,
//                  and OST for the span
//   crash-flip     node-crash + bit-flip combined (the PR-3 acceptance run)
//   crash:<n>      node <n> loses power mid-run (parameterized node-crash)
//   slow-disk      every node SSD fail-slow at 10x latency / 0.1x bandwidth
//                  for the span (a dying NVMe, not a dead one)
//   lossy-link     recurring seeded packet-loss episodes on random node
//                  links (retransmit inflation + RTO stalls)
//   overload       KVS broker service times stretch 100x and Lustre
//                  MDS/OST service times 2.5x for the span (metadata-storm
//                  co-tenant); the headline mdwf::health scenario
//   node-loss      node 0 loses power mid-run and never reboots; only a
//                  membership plane (declare-dead + rank migration) lets
//                  the run complete, otherwise the deadlock reporter fires
//   loss-after-publish  like node-loss but struck later, after frames have
//                  been published — the migrated ranks re-execute only the
//                  lost tail past the checkpoint
//   heal-after-declare  asymmetric one-way partition on node 0 that heals
//                  after the declare ceiling: the isolated node keeps
//                  working (a zombie), is declared lost, and its stale
//                  incarnation is fenced when the partition heals
FaultPlan make_scenario(std::string_view name, const ScenarioShape& shape);

// Every name `make_scenario` accepts, in a stable order.
const std::vector<std::string>& scenario_names();

}  // namespace mdwf::fault
