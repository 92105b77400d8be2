#include "mdwf/fault/plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "mdwf/common/suggest.hpp"

namespace mdwf::fault {

std::string_view to_string(FaultTarget t) {
  switch (t) {
    case FaultTarget::kNodeSsd:
      return "node-ssd";
    case FaultTarget::kNodeLink:
      return "node-link";
    case FaultTarget::kKvsBroker:
      return "kvs-broker";
    case FaultTarget::kLustreOst:
      return "lustre-ost";
    case FaultTarget::kNodeCrash:
      return "node-crash";
    case FaultTarget::kNodeLoss:
      return "node-loss";
    case FaultTarget::kSlowDevice:
      return "slow-device";
    case FaultTarget::kLossyLink:
      return "lossy-link";
    case FaultTarget::kSlowNode:
      return "slow-node";
    case FaultTarget::kOverloadedServer:
      return "overloaded-server";
  }
  return "?";
}

std::string_view to_string(FaultMode m) {
  switch (m) {
    case FaultMode::kDegrade:
      return "degrade";
    case FaultMode::kOffline:
      return "offline";
    case FaultMode::kStall:
      return "stall";
    case FaultMode::kOutage:
      return "outage";
    case FaultMode::kIoError:
      return "io-error";
    case FaultMode::kCrash:
      return "crash";
    case FaultMode::kKill:
      return "kill";
    case FaultMode::kBitFlip:
      return "bit-flip";
    case FaultMode::kFailSlow:
      return "fail-slow";
    case FaultMode::kLossy:
      return "lossy";
    case FaultMode::kIsolate:
      return "isolate";
  }
  return "?";
}

bool targets_node(FaultTarget t) {
  switch (t) {
    case FaultTarget::kNodeSsd:
    case FaultTarget::kNodeLink:
    case FaultTarget::kNodeCrash:
    case FaultTarget::kNodeLoss:
    case FaultTarget::kSlowDevice:
    case FaultTarget::kLossyLink:
    case FaultTarget::kSlowNode:
      return true;
    case FaultTarget::kKvsBroker:
    case FaultTarget::kLustreOst:
    case FaultTarget::kOverloadedServer:
      return false;
  }
  return false;
}

TimePoint FaultPlan::horizon() const {
  TimePoint h = TimePoint::origin();
  for (const auto& w : windows) h = std::max(h, w.end());
  return h;
}

void shift_node_targets(FaultPlan& plan, std::uint32_t node_base) {
  for (auto& w : plan.windows) {
    if (targets_node(w.target)) w.index += node_base;
  }
}

bool has_crash_in_nodes(const FaultPlan& plan, std::uint32_t first,
                        std::uint32_t count) {
  for (const auto& w : plan.windows) {
    if ((w.target == FaultTarget::kNodeCrash ||
         w.target == FaultTarget::kNodeLoss ||
         w.mode == FaultMode::kIsolate) &&
        w.index >= first && w.index - first < count) {
      return true;
    }
  }
  return false;
}

void FaultClock::materialize(const FaultProcess& process, TimePoint from,
                             TimePoint horizon, FaultPlan& plan) {
  const double rate = 1.0 / process.mean_interarrival.to_seconds();
  TimePoint t = from;
  for (;;) {
    t = t + Duration::seconds(rng_.exponential(rate));
    if (t >= horizon) break;
    FaultWindow w;
    w.target = process.target;
    w.index = static_cast<std::uint32_t>(rng_.next_below(process.target_pool));
    w.mode = process.mode;
    w.start = t;
    w.duration = Duration::seconds(
        rng_.lognormal(process.duration_mu, process.duration_sigma));
    w.severity = rng_.uniform(process.min_severity, process.max_severity);
    plan.windows.push_back(w);
  }
}

namespace {

FaultWindow window(FaultTarget target, std::uint32_t index, FaultMode mode,
                   TimePoint start, Duration duration, double severity) {
  return FaultWindow{target, index, mode, start, duration, severity};
}

// One power-loss window on `victim` shortly into the span: long enough for
// torn writes and in-flight flows to exist, short enough that the rebooted
// node rejoins and finishes the run.
void add_node_crash(FaultPlan& plan, std::uint32_t victim, TimePoint start,
                    Duration span) {
  const Duration offset =
      std::min(Duration(span.ns() / 3), Duration::seconds_i(2));
  plan.windows.push_back(window(FaultTarget::kNodeCrash, victim,
                                FaultMode::kCrash, start + offset,
                                Duration::milliseconds(400), 1.0));
}

// Per-op silent-corruption rates on every SSD, every NIC link, and every
// OST for the whole span.  The rates are high by hardware standards so a
// short test run still exercises detect -> re-fetch.
void add_bit_flips(FaultPlan& plan, const ScenarioShape& shape,
                   TimePoint start, Duration span) {
  for (std::uint32_t n = 0; n < shape.compute_nodes; ++n) {
    plan.windows.push_back(window(FaultTarget::kNodeSsd, n, FaultMode::kBitFlip,
                                  start, span, 0.02));
    plan.windows.push_back(window(FaultTarget::kNodeLink, n,
                                  FaultMode::kBitFlip, start, span, 0.01));
  }
  for (std::uint32_t o = 0; o < shape.ost_count; ++o) {
    plan.windows.push_back(window(FaultTarget::kLustreOst, o,
                                  FaultMode::kBitFlip, start, span, 0.01));
  }
}

// Permanent power loss on `victim`: same begin semantics as a crash (dirty
// pages dropped, torn writes, NIC down, flows torn) but no reboot is ever
// scheduled.  `late` strikes at half the span so published frames exist.
void add_node_loss(FaultPlan& plan, std::uint32_t victim, TimePoint start,
                   Duration span, bool late) {
  const Duration offset =
      late ? std::min(Duration(span.ns() / 2), Duration::seconds_i(3))
           : std::min(Duration(span.ns() / 3), Duration::seconds_i(2));
  plan.windows.push_back(window(FaultTarget::kNodeLoss, victim,
                                FaultMode::kCrash, start + offset, span, 1.0));
}

}  // namespace

FaultPlan make_scenario(std::string_view name, const ScenarioShape& shape) {
  FaultPlan plan;
  plan.seed = shape.seed;
  const TimePoint start = shape.start;
  const TimePoint horizon = shape.start + shape.span;
  FaultClock clock(Rng(shape.seed).fork(name));

  if (name == "none") {
    return plan;
  }
  if (name == "broker-blip") {
    plan.windows.push_back(window(FaultTarget::kKvsBroker, 0, FaultMode::kStall,
                                  start, Duration::milliseconds(80), 1.0));
    return plan;
  }
  if (name == "broker-outage") {
    plan.windows.push_back(window(FaultTarget::kKvsBroker, 0,
                                  FaultMode::kOutage, start,
                                  Duration::milliseconds(250), 1.0));
    return plan;
  }
  if (name == "slow-nvme") {
    // Every node's NVMe runs at 30% of nominal bandwidth for the span —
    // a worn/thermally-throttled burst buffer.
    for (std::uint32_t n = 0; n < shape.compute_nodes; ++n) {
      plan.windows.push_back(window(FaultTarget::kNodeSsd, n,
                                    FaultMode::kDegrade, start, shape.span,
                                    0.7));
    }
    return plan;
  }
  if (name == "flaky-fabric") {
    FaultProcess p;
    p.target = FaultTarget::kNodeLink;
    p.mode = FaultMode::kDegrade;
    p.target_pool = shape.compute_nodes;
    p.mean_interarrival = Duration::milliseconds(600);
    p.duration_mu = -2.0;  // median ~135 ms
    p.duration_sigma = 0.6;
    p.min_severity = 0.3;
    p.max_severity = 0.85;
    clock.materialize(p, start, horizon, plan);
    return plan;
  }
  if (name == "partition") {
    // The last compute node (a consumer node under split placement) drops
    // off the fabric; in-flight and new operations fail fast.
    const std::uint32_t victim =
        shape.compute_nodes > 0 ? shape.compute_nodes - 1 : 0;
    plan.windows.push_back(window(FaultTarget::kNodeLink, victim,
                                  FaultMode::kOffline, start,
                                  Duration::milliseconds(150), 1.0));
    return plan;
  }
  if (name == "ost-storm") {
    FaultProcess p;
    p.target = FaultTarget::kLustreOst;
    p.mode = FaultMode::kDegrade;
    p.target_pool = shape.ost_count;
    p.mean_interarrival = Duration::milliseconds(300);
    p.duration_mu = -1.6;  // median ~200 ms
    p.duration_sigma = 0.7;
    p.min_severity = 0.5;
    p.max_severity = 0.9;
    clock.materialize(p, start, horizon, plan);
    return plan;
  }
  if (name == "node-crash" || name == "crash") {
    add_node_crash(plan, 0, start, shape.span);
    return plan;
  }
  if (name == "rank-kill" || name == "kill") {
    // An instantaneous SIGKILL of the ranks on node 0: storage survives, the
    // restarted ranks re-execute everything past their last checkpoint.
    const Duration offset =
        std::min(Duration(shape.span.ns() / 3), Duration::seconds_i(2));
    plan.windows.push_back(window(FaultTarget::kNodeCrash, 0, FaultMode::kKill,
                                  start + offset, Duration::milliseconds(1),
                                  1.0));
    return plan;
  }
  if (name == "bit-flip") {
    add_bit_flips(plan, shape, start, shape.span);
    return plan;
  }
  if (name == "crash-flip") {
    add_node_crash(plan, 0, start, shape.span);
    add_bit_flips(plan, shape, start, shape.span);
    return plan;
  }
  if (name == "slow-disk") {
    // Fail-slow NVMe on every node: 10x op latency, 1/10th bandwidth —
    // the dying-but-not-dead device gray failure.
    for (std::uint32_t n = 0; n < shape.compute_nodes; ++n) {
      plan.windows.push_back(window(FaultTarget::kSlowDevice, n,
                                    FaultMode::kFailSlow, start, shape.span,
                                    0.9));
    }
    return plan;
  }
  if (name == "lossy-link") {
    // Recurring packet-loss episodes on random node links; retransmits
    // inflate every flow touching the victim and stall on seeded RTOs.
    FaultProcess p;
    p.target = FaultTarget::kLossyLink;
    p.mode = FaultMode::kLossy;
    p.target_pool = shape.compute_nodes;
    p.mean_interarrival = Duration::milliseconds(400);
    p.duration_mu = -1.4;  // median ~250 ms
    p.duration_sigma = 0.6;
    p.min_severity = 0.1;
    p.max_severity = 0.4;
    clock.materialize(p, start, horizon, plan);
    return plan;
  }
  if (name == "overload") {
    // A metadata-storm co-tenant: the KVS broker serves 100x slow for the
    // span and the Lustre MDS/OSTs 2.5x slow.  DYAD lookups queue behind
    // the sick broker unless mdwf::health routes around it.
    plan.windows.push_back(window(FaultTarget::kOverloadedServer, 0,
                                  FaultMode::kFailSlow, start, shape.span,
                                  0.99));
    plan.windows.push_back(window(FaultTarget::kOverloadedServer, 1,
                                  FaultMode::kFailSlow, start, shape.span,
                                  0.6));
    return plan;
  }
  if (name == "node-loss") {
    add_node_loss(plan, 0, start, shape.span, /*late=*/false);
    return plan;
  }
  if (name == "loss-after-publish") {
    add_node_loss(plan, 0, start, shape.span, /*late=*/true);
    return plan;
  }
  if (name == "heal-after-declare") {
    // One-way partition on node 0, long enough for the membership plane to
    // declare it lost (confirm window + silence ceiling are an order of
    // magnitude shorter), then healed: the zombie's stale incarnation must
    // be fenced, not re-admitted.
    const Duration offset =
        std::min(Duration(shape.span.ns() / 3), Duration::seconds_i(2));
    plan.windows.push_back(window(FaultTarget::kNodeLink, 0,
                                  FaultMode::kIsolate, start + offset,
                                  Duration::milliseconds(1200), 1.0));
    return plan;
  }
  if (name.starts_with("crash:")) {
    const std::string arg(name.substr(6));
    char* end = nullptr;
    const unsigned long victim = std::strtoul(arg.c_str(), &end, 10);
    if (end == arg.c_str() || *end != '\0' ||
        victim >= shape.compute_nodes) {
      throw std::invalid_argument("bad crash victim in scenario '" +
                                  std::string(name) + "'");
    }
    add_node_crash(plan, static_cast<std::uint32_t>(victim), start,
                   shape.span);
    return plan;
  }
  throw std::invalid_argument("unknown fault scenario '" + std::string(name) +
                              "'" + did_you_mean(name, scenario_names()));
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {
      "none",      "broker-blip", "broker-outage", "slow-nvme",
      "flaky-fabric", "partition", "ost-storm",    "node-crash",
      "rank-kill", "bit-flip",    "crash-flip",    "slow-disk",
      "lossy-link", "overload",   "node-loss",     "loss-after-publish",
      "heal-after-declare"};
  return names;
}

}  // namespace mdwf::fault
