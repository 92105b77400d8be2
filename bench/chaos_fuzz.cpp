// Chaos fuzzing: randomized gray-failure schedules vs workflow invariants.
//
// Property-based companion to resilience_sweep: instead of a fixed scenario
// grid, each schedule draws a random solution, fault plan (a named scenario,
// a membership scenario — permanent node loss / healed partition, run with
// the membership plane armed — or a composite of random fail-slow / lossy /
// overload / bit-flip windows), workload size, seed, and health/hedge
// toggles — then runs the ensemble and checks the invariants every recovery
// path promises:
//
//   * completeness    every expected frame is consumed exactly once
//   * integrity       zero unrecovered corrupt reads (checksum runs)
//   * liveness        the run reaches quiescence with a positive makespan
//   * determinism     re-running the identical schedule is bit-identical
//                     (checked on a rotating subset to bound runtime)
//
// On a violation the harness shrinks the schedule — dropping fault windows
// and halving the frame count while the failure persists — and prints a
// minimal reproducer (master seed + schedule index re-derive everything),
// also written to chaos_repro_<index>.txt for CI artifact upload.
//
//   chaos_fuzz [schedules=60] [seed=20260806] [only=<index>] [verbose=1]
//             [threads=1] [cotenant=0] [dag=0]
//
// only=<index> checks (and replays) just that schedule, whatever
// schedules= says.
//
// threads=N fans the independent schedule checks across the sweep engine's
// workers (sweep::run_tasks); the canonically-first (lowest-index) violation is
// reported and shrunk regardless of which worker found it first, so output
// and exit code match the serial run.
//
// cotenant=1 fuzzes multi-tenant co-schedules instead: each schedule places
// a healthy victim ensemble next to 1-2 chaotic neighbors (workflow tenants
// with crash/bit-flip/overload scenarios, or KVS noise storms) on one
// shared testbed and checks the cross-tenant invariants — every workflow
// tenant still consumes all its frames, nothing loses data, chaos in a
// neighbor never triggers the healthy tenants' recovery machinery, and the
// merged CSV is byte-identical across worker thread counts.
//
// dag=1 fuzzes DAG workload execution instead: each schedule draws a random
// synthetic topology (chain / fork-join / montage), task budget, edge
// payload size, solution, and a recoverable fault plan (the node-loss
// family is excluded — DAG runs have no membership plane), then checks the
// same invariants with the DAG's edge-frame total as the completeness
// denominator.  Shrinking drops fault windows first, then halves the task
// budget; reproducers land in chaos_repro_dag_<index>.txt.
//
// fuzz_core.hpp holds the one driver and shrinker; this file holds only the
// per-mode tables: schedule draw, invariants, and what shrinking drops.
//
// Exit code 0 when every schedule holds, 1 with a reproducer otherwise, 2 on
// an unknown key, an out-of-range count (schedules must be in [1,
// 4294967295], only and threads in [0, 4294967295]) or contradictory mode
// selection.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_core.hpp"
#include "mdwf/common/format.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/common/rng.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace {

using namespace mdwf;
using fuzz::Verdict;
using workflow::EnsembleConfig;
using workflow::EnsembleResult;
using workflow::Placement;
using workflow::Solution;

constexpr Solution kSolutions[] = {Solution::kDyad, Solution::kXfs,
                                   Solution::kLustre, Solution::kStream};

// Named scenarios safe for every solution (fail-slow or recoverable faults;
// DYAD always runs with its full recovery protocol here).
const std::vector<std::string> kNamedPool = {
    "none",      "slow-nvme",  "slow-disk", "lossy-link",
    "overload",  "ost-storm",  "flaky-fabric", "broker-outage",
    "node-crash", "bit-flip",  "crash-flip"};

// Scenarios that need the membership plane armed: permanent loss (with and
// without a straddling publish), a healed partition (the zombie-fencing
// path), and plain crash-recovery run under the plane's heartbeats.  Without
// the plane a permanent loss ends in the deadlock reporter by design — that
// termination path has its own directed test, so the fuzzer always enables
// membership for these.
const std::vector<std::string> kMembershipPool = {
    "node-loss", "loss-after-publish", "heal-after-declare", "node-crash"};

constexpr std::uint32_t kNodes = 2;

// --- Classic and DAG modes: one schedule family ----------------------------

// The fault/toggle surface both modes draw, configure and print alike.
struct Faulted {
  std::uint32_t index = 0;
  Solution solution = Solution::kDyad;
  std::string scenario;  // named scenario, or "composite"
  std::vector<fault::FaultWindow> windows;  // resolved plan
  std::uint64_t seed = 1;
  bool health = false;
  bool hedge = false;
  bool integrity = false;
};

struct Schedule : Faulted {
  std::uint64_t frames = 8;
  std::uint32_t pairs = 1;
  bool membership = false;
};

// One randomized DAG schedule: a synthetic graph spec plus the same fault/
// toggle surface as the classic mode.  The graph is regenerated from the
// spec on every check, so shrinking the task budget stays deterministic.
struct DagSchedule : Faulted {
  wload::SynthSpec spec;
};

bool has_corruption_or_crash(const std::vector<fault::FaultWindow>& ws) {
  for (const auto& w : ws) {
    if (w.mode == fault::FaultMode::kBitFlip ||
        w.mode == fault::FaultMode::kCrash ||
        w.mode == fault::FaultMode::kKill) {
      return true;
    }
  }
  return false;
}

// A random degraded-mode window against a random gray target (plus the
// occasional silent-corruption window so integrity re-fetch is exercised).
fault::FaultWindow random_window(Rng& rng, std::uint32_t nodes) {
  using fault::FaultMode;
  using fault::FaultTarget;
  struct Kind {
    FaultTarget target;
    FaultMode mode;
    double severity_lo, severity_hi;
  };
  static constexpr Kind kKinds[] = {
      {FaultTarget::kSlowDevice, FaultMode::kFailSlow, 0.3, 0.95},
      {FaultTarget::kLossyLink, FaultMode::kLossy, 0.05, 0.4},
      {FaultTarget::kSlowNode, FaultMode::kFailSlow, 0.2, 0.8},
      {FaultTarget::kOverloadedServer, FaultMode::kFailSlow, 0.5, 0.99},
      {FaultTarget::kNodeSsd, FaultMode::kBitFlip, 0.005, 0.02}};
  fault::FaultWindow w;
  w.start = TimePoint::origin() +
            Duration::seconds(rng.uniform(0.2, 2.0));
  w.duration = Duration::seconds(rng.uniform(0.5, 10.0));
  const Kind& kind = kKinds[rng.next_below(5)];
  // Bit flips hit a node's SSD or its link with equal odds; the overloaded
  // server is one of the two shared services.
  w.target = kind.mode == FaultMode::kBitFlip && !rng.bernoulli(0.5)
                 ? FaultTarget::kNodeLink
                 : kind.target;
  w.index = static_cast<std::uint32_t>(rng.next_below(
      kind.target == FaultTarget::kOverloadedServer ? 2 : nodes));
  w.mode = kind.mode;
  w.severity = rng.uniform(kind.severity_lo, kind.severity_hi);
  return w;
}

// Draws the shared surface in its fixed order: seed, health/hedge, then the
// fault plan — a scenario from the pool `pick` returns, or a composite of
// 1-4 random windows when it returns null — and last the integrity toggle.
template <class Pick>
void draw_faults(Rng& rng, Faulted& s, Pick pick) {
  s.seed = 1 + rng.next_below(1u << 20);
  s.health = rng.bernoulli(0.5);
  s.hedge = s.health && rng.bernoulli(0.7);
  if (const std::vector<std::string>* pool = pick()) {
    s.scenario = (*pool)[rng.next_below(pool->size())];
    fault::ScenarioShape shape;
    shape.compute_nodes = kNodes;
    shape.seed = s.seed;
    s.windows = fault::make_scenario(s.scenario, shape).windows;
  } else {
    s.scenario = "composite";
    const std::uint64_t count = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < count; ++i) {
      s.windows.push_back(random_window(rng, kNodes));
    }
  }
  s.integrity = has_corruption_or_crash(s.windows) || rng.bernoulli(0.25);
}

// Derives schedule `index` from the master seed alone: the (seed, index)
// pair IS the reproducer.
Schedule draw_schedule(std::uint64_t master_seed, std::uint32_t index) {
  Rng rng = Rng(master_seed).fork("chaos:" + std::to_string(index));
  Schedule s;
  s.index = index;
  s.solution = kSolutions[index % 4];
  s.frames = 8 + rng.next_below(8);
  s.pairs = 1 + static_cast<std::uint32_t>(rng.next_below(2));
  draw_faults(rng, s, [&]() -> const std::vector<std::string>* {
    s.membership = rng.bernoulli(0.25);
    if (s.membership) return &kMembershipPool;
    return rng.bernoulli(0.5) ? &kNamedPool : nullptr;
  });
  return s;
}

// Derives DAG schedule `index` from the master seed alone.  The scenario
// pool is the recoverable subset only: the node-loss family needs the
// membership plane, which DAG runs reject.
DagSchedule draw_dag_schedule(std::uint64_t master_seed, std::uint32_t index) {
  Rng rng = Rng(master_seed).fork("dagchaos:" + std::to_string(index));
  DagSchedule s;
  s.index = index;
  s.solution = kSolutions[index % 4];
  switch (rng.next_below(3)) {
    case 0: s.spec.topology = wload::Topology::kChain; break;
    case 1: s.spec.topology = wload::Topology::kForkJoin; break;
    default: s.spec.topology = wload::Topology::kMontage; break;
  }
  s.spec.tasks = 4 + static_cast<std::uint32_t>(rng.next_below(7));
  s.spec.width = 2 + static_cast<std::uint32_t>(rng.next_below(3));
  s.spec.seed = 1 + rng.next_below(1u << 16);
  s.spec.runtime_median_s = 0.3;
  // 0.5-4 MiB payloads over a 1 MiB chunk: a mix of single- and
  // multi-frame edges.
  s.spec.output_median_bytes = (512.0 + rng.uniform(0.0, 3584.0)) * 1024.0;
  draw_faults(rng, s, [&]() -> const std::vector<std::string>* {
    return rng.bernoulli(0.6) ? &kNamedPool : nullptr;
  });
  return s;
}

EnsembleConfig faulted_config(const Faulted& s) {
  EnsembleConfig cfg;
  cfg.solution = s.solution;
  cfg.repetitions = 1;
  cfg.base_seed = s.seed;
  cfg.testbed.faults.windows = s.windows;
  cfg.testbed.faults.seed = s.seed;
  cfg.testbed.integrity.enabled = s.integrity;
  if (s.solution == Solution::kDyad) {
    cfg.testbed.dyad.retry.enabled = true;
    cfg.testbed.dyad.health.enabled = s.health;
    cfg.testbed.dyad.health.hedge.enabled = s.hedge;
  }
  if (s.solution == Solution::kStream) {
    cfg.testbed.stream.health.enabled = s.health;
    cfg.testbed.stream.health.hedge.enabled = s.hedge;
  }
  return cfg;
}

EnsembleConfig make_config(const Schedule& s) {
  EnsembleConfig cfg = faulted_config(s);
  cfg.pairs = s.pairs;
  cfg.nodes = kNodes;
  cfg.placement =
      s.solution == Solution::kXfs ? Placement::kColocated : Placement::kSplit;
  cfg.workload.frames = s.frames;
  cfg.testbed.membership.enabled = s.membership;
  return cfg;
}

EnsembleConfig make_config(const DagSchedule& s) {
  EnsembleConfig cfg = faulted_config(s);
  cfg.nodes = s.solution == Solution::kXfs ? 1 : kNodes;
  cfg.dag = std::make_shared<const wload::Dag>(
      wload::generate_synthetic(s.spec));
  cfg.dag_chunk = Bytes::mib(1);
  return cfg;
}

// Checks every invariant; returns the first violation's description.  The
// completeness denominator is pairs x frames, or a DAG's edge-frame total
// (distinct progress only, so crash re-execution never inflates it).
Verdict check_run(const EnsembleConfig& cfg) {
  const EnsembleResult r = workflow::run_ensemble(cfg);
  const std::uint64_t expected =
      cfg.dag ? workflow::plan_dag(*cfg.dag, cfg.dag_chunk, cfg.nodes)
                    .total_edge_frames
              : cfg.pairs * cfg.workload.frames;
  const std::string unit = cfg.dag ? " edge-frames" : " frames";
  if (r.counters.get("frames_consumed") != expected) {
    return "completeness: consumed " +
           std::to_string(r.counters.get("frames_consumed")) + " of " +
           std::to_string(expected) + unit;
  }
  if (r.counters.get("integrity_unrecovered") != 0) {
    return "integrity: " +
           std::to_string(r.counters.get("integrity_unrecovered")) +
           " unrecovered corrupt reads";
  }
  if (r.counters.get("frames_lost") != 0) {
    return "zero-loss: " + std::to_string(r.counters.get("frames_lost")) +
           unit + " lost";
  }
  if (!(r.makespan_s.mean() > 0.0)) {
    return "liveness: non-positive makespan " +
           format_double(r.makespan_s.mean(), 6);
  }
  return std::nullopt;
}

// Determinism invariant: the identical schedule replayed must be
// bit-identical in timing and in each mode's `counters`.
Verdict check_replay(const EnsembleConfig& cfg,
                     const std::vector<const char*>& counters) {
  const EnsembleResult a = workflow::run_ensemble(cfg);
  const EnsembleResult b = workflow::run_ensemble(cfg);
  if (a.makespan_s.mean() != b.makespan_s.mean()) {
    return "determinism: makespan " + format_double(a.makespan_s.mean(), 9) +
           " != " + format_double(b.makespan_s.mean(), 9);
  }
  for (const char* key : counters) {
    if (a.counters.get(key) != b.counters.get(key)) {
      return std::string("determinism: counter ") + key + " " +
             std::to_string(a.counters.get(key)) + " != " +
             std::to_string(b.counters.get(key));
    }
  }
  return std::nullopt;
}

// The shared tail of a description: toggles, then one line per window.
std::string describe_faults(const Faulted& s, bool membership) {
  std::string out = std::string(s.health ? " health" : "") +
                    (s.hedge ? " hedge" : "") +
                    (s.integrity ? " integrity" : "") +
                    (membership ? " membership" : "") + ", " +
                    std::to_string(s.windows.size()) + " windows";
  for (const auto& w : s.windows) {
    out += "\n    " + std::string(fault::to_string(w.target)) + "[" +
           std::to_string(w.index) + "] " +
           std::string(fault::to_string(w.mode)) + " sev=" +
           format_double(w.severity, 3) + " at " +
           format_double((w.start - TimePoint::origin()).to_seconds(), 3) +
           "s for " + format_double(w.duration.to_seconds(), 3) + "s";
  }
  return out;
}

std::string describe(const Schedule& s) {
  return "schedule " + std::to_string(s.index) + ": " +
         std::string(workflow::to_string(s.solution)) + " " + s.scenario +
         " seed=" + std::to_string(s.seed) +
         " frames=" + std::to_string(s.frames) +
         " pairs=" + std::to_string(s.pairs) +
         describe_faults(s, s.membership);
}

std::string describe(const DagSchedule& s) {
  return "dag-schedule " + std::to_string(s.index) + ": " +
         std::string(workflow::to_string(s.solution)) + " synth:" +
         std::string(wload::topology_name(s.spec.topology)) +
         " tasks=" + std::to_string(s.spec.tasks) +
         " width=" + std::to_string(s.spec.width) +
         " dag_seed=" + std::to_string(s.spec.seed) + " bytes~" +
         std::to_string(
             static_cast<std::uint64_t>(s.spec.output_median_bytes)) +
         " " + s.scenario + " seed=" + std::to_string(s.seed) +
         describe_faults(s, false);
}

// The size each mode halves once no single fault window can go: the frame
// count, or the DAG's task budget (the graph regenerates from the smaller
// spec, so the minimal reproducer is still derived from (seed, index) +
// the printout).
bool halve(Schedule& s) {
  if (s.frames <= 1) return false;
  s.frames /= 2;
  return true;
}

bool halve(DagSchedule& s) {
  if (s.spec.tasks <= 2) return false;
  s.spec.tasks /= 2;
  return true;
}

// One family, two modes: only the draw, the replayed counters and the
// halved size differ.  Shrinking drops fault windows one at a time, then
// halves, keeping every step that still reproduces the violation.
template <class S>
fuzz::Mode<S> ensemble_mode(const char* command, const char* file_prefix,
                            const char* summary,
                            S (*draw)(std::uint64_t, std::uint32_t),
                            std::vector<const char*> replayed) {
  const auto check = [](const S& s) { return check_run(make_config(s)); };
  return {command, file_prefix, summary, draw, check,
          [replayed](const S& s) {
            return check_replay(make_config(s), replayed);
          },
          [](const S& s) { return describe(s); },
          [check](S s) {
            fuzz::drop_one(s, [](S& c) -> auto& { return c.windows; }, check);
            fuzz::halve_while_failing(s, [](S& c) { return halve(c); },
                                      check);
            return s;
          }};
}

// --- Co-tenant mode --------------------------------------------------------

// Scenarios a chaotic neighbor may run: node-scoped chaos (shifted onto its
// own slice) and shared-service overload.  "none" keeps some neighbors
// healthy so quota/SLO idle paths are fuzzed too.
const std::vector<std::string> kTenantScenarioPool = {
    "none", "node-crash", "bit-flip", "crash-flip", "overload", "rank-kill"};

struct CoSchedule {
  std::uint32_t index = 0;
  tenant::MultiTenantConfig config;
};

bool scenario_corrupts(const std::string& name) {
  return name == "bit-flip" || name == "crash-flip" || name == "node-crash" ||
         name == "rank-kill";
}

tenant::TenantSpec draw_workflow_tenant(Rng& rng, const std::string& name,
                                        bool healthy) {
  tenant::TenantSpec t;
  t.name = name;
  t.solution = kSolutions[rng.next_below(4)];
  t.nodes = t.solution == Solution::kXfs ? 1 : 2;
  if (t.solution == Solution::kXfs) t.placement = Placement::kColocated;
  t.pairs = 1 + static_cast<std::uint32_t>(rng.next_below(2));
  t.workload.frames = 4 + rng.next_below(5);
  t.faults = healthy
                 ? "none"
                 : kTenantScenarioPool[rng.next_below(
                       kTenantScenarioPool.size())];
  t.slo = rng.bernoulli(0.5);
  t.weight = rng.bernoulli(0.25) ? 2.0 : 1.0;
  return t;
}

// Derives co-schedule `index` from the master seed alone, like
// draw_schedule: tenant 0 is always a healthy victim, followed by 1-2
// chaotic neighbors (workflow chaos or a KVS noise storm).
CoSchedule draw_cotenant_schedule(std::uint64_t master_seed,
                                  std::uint32_t index) {
  Rng rng = Rng(master_seed).fork("cochaos:" + std::to_string(index));
  CoSchedule s;
  s.index = index;
  tenant::MultiTenantConfig& mc = s.config;
  mc.repetitions = 1;
  mc.threads = 1;
  mc.base_seed = 1 + rng.next_below(1u << 20);
  mc.quota = rng.bernoulli(0.7);

  mc.tenants.push_back(draw_workflow_tenant(rng, "victim", /*healthy=*/true));
  const std::uint64_t neighbors = 1 + rng.next_below(2);
  for (std::uint64_t i = 0; i < neighbors; ++i) {
    const std::string name = "n" + std::to_string(i);
    if (rng.bernoulli(0.4)) {
      tenant::TenantSpec t;
      t.name = name;
      t.kind = tenant::TenantKind::kNoise;
      t.nodes = 1;
      t.noise.intensity = 8 + static_cast<std::uint32_t>(rng.next_below(17));
      mc.tenants.push_back(t);
    } else {
      mc.tenants.push_back(
          draw_workflow_tenant(rng, name, /*healthy=*/false));
    }
  }
  // End-to-end integrity whenever any neighbor's plan can corrupt or tear
  // frames, as the key=value binding defaults it.
  bool corrupts = false;
  for (const auto& t : mc.tenants) corrupts |= scenario_corrupts(t.faults);
  mc.testbed.integrity.enabled = corrupts || rng.bernoulli(0.25);
  return s;
}

std::string describe(const CoSchedule& s) {
  // The tenants= value uses the driver's grammar, so mdwf_run replays the
  // tenant layout; per-tenant frame counts and SLO toggles are not part of
  // that grammar — (seed, index) re-derives them.
  std::string tenants;
  for (const auto& t : s.config.tenants) {
    if (!tenants.empty()) tenants += ",";
    if (t.kind == tenant::TenantKind::kNoise) {
      tenants += t.name + "@noise/" + std::to_string(t.noise.intensity);
    } else {
      tenants += t.name + "@" +
                 std::string(workflow::solution_key(t.solution)) + "/" +
                 std::to_string(t.pairs) + "/" + std::to_string(t.nodes) +
                 "/" + t.faults + "/" + format_double(t.weight, 1);
    }
  }
  return "co-schedule " + std::to_string(s.index) + ": tenants=" + tenants +
         " seed=" + std::to_string(s.config.base_seed) +
         (s.config.quota ? " quota" : "") +
         (s.config.testbed.integrity.enabled ? " integrity" : "");
}

// Cross-tenant invariants: completeness and liveness for every workflow
// tenant (chaotic ones must recover), zero unrecovered corruption anywhere,
// and — the isolation core — zero recovery activity in healthy tenants.
Verdict check_cotenant(const CoSchedule& s) {
  const tenant::MultiTenantResult r = tenant::run_multi_tenant(s.config);
  for (const auto& tr : r.tenants) {
    if (tr.spec.kind != tenant::TenantKind::kWorkflow) continue;
    const auto& c = tr.result.counters;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(tr.spec.pairs) * tr.spec.workload.frames;
    if (c.get("frames_consumed") != expected) {
      return "completeness[" + tr.spec.name + "]: consumed " +
             std::to_string(c.get("frames_consumed")) + " of " +
             std::to_string(expected) + " frames";
    }
    if (!(tr.result.makespan_s.mean() > 0.0)) {
      return "liveness[" + tr.spec.name + "]: non-positive makespan";
    }
    const bool healthy = tr.spec.faults.empty() || tr.spec.faults == "none";
    if (healthy) {
      for (const char* key :
           {"crash_recoveries", "frames_reexecuted", "checkpoint_restores"}) {
        if (c.get(key) != 0) {
          return "isolation[" + tr.spec.name + "]: healthy tenant has " +
                 std::to_string(c.get(key)) + " " + key;
        }
      }
    }
  }
  if (r.shared.get("integrity_unrecovered") != 0) {
    return "integrity: " +
           std::to_string(r.shared.get("integrity_unrecovered")) +
           " unrecovered corrupt reads";
  }
  return std::nullopt;
}

// Thread-count determinism: the merged CSV (the canonical serialization of
// every sample and counter) must be byte-identical when the repetitions fan
// across a pool.  Checked with reps=2 so there is something to fold.
Verdict check_cotenant_determinism(const CoSchedule& s) {
  CoSchedule rep = s;
  rep.config.repetitions = 2;
  rep.config.threads = 1;
  const std::string serial = tenant::run_multi_tenant(rep.config).to_csv();
  rep.config.threads = 2;
  const std::string pooled = tenant::run_multi_tenant(rep.config).to_csv();
  if (serial != pooled) {
    return "determinism: merged CSV differs between threads=1 and threads=2";
  }
  return std::nullopt;
}

// Shrink: drop neighbor tenants (never the victim) while the violation
// persists, then halve every workflow tenant's frame count.
CoSchedule shrink_cotenant(CoSchedule s) {
  fuzz::drop_one(
      s, [](CoSchedule& c) -> auto& { return c.config.tenants; },
      check_cotenant, /*first=*/1);
  fuzz::halve_while_failing(
      s,
      [](CoSchedule& c) {
        bool halved = false;
        for (auto& t : c.config.tenants) {
          if (t.kind == tenant::TenantKind::kWorkflow &&
              t.workload.frames > 1) {
            t.workload.frames /= 2;
            halved = true;
          }
        }
        return halved;
      },
      check_cotenant);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr std::string_view kKeys[] = {
      "schedules", "seed", "only", "verbose", "threads", "cotenant", "dag"};
  KeyValueConfig cfg;
  fuzz::Options opt;
  bool cotenant = false;
  bool dag = false;
  try {
    cfg.parse_args(argc, argv);
    opt.schedules = cfg.get_u32("schedules", opt.schedules);
    if (opt.schedules == 0) {
      throw ConfigError("schedules must be >= 1, got 0");
    }
    opt.seed = cfg.get_uint("seed", opt.seed);
    if (cfg.has("only")) opt.only = cfg.get_u32("only", 0);
    opt.verbose = cfg.get_bool("verbose", opt.verbose);
    opt.threads = cfg.get_u32("threads", opt.threads);
    cotenant = cfg.get_bool("cotenant", false);
    dag = cfg.get_bool("dag", false);
    cfg.reject_unknown_keys(kKeys);
    if (cotenant && dag) {
      throw ConfigError("cotenant=1 and dag=1 select different modes");
    }
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "chaos_fuzz: %s\n", e.what());
    return 2;
  }

  if (cotenant) {
    return fuzz::run(
        fuzz::Mode<CoSchedule>{
            "chaos_fuzz cotenant=1", "chaos_repro_cotenant_",
            "co-tenant schedules held every invariant (completeness, "
            "integrity, liveness, isolation, determinism)",
            draw_cotenant_schedule, check_cotenant,
            check_cotenant_determinism,
            [](const CoSchedule& s) { return describe(s); }, shrink_cotenant},
        opt);
  }
  if (dag) {
    return fuzz::run(
        ensemble_mode("chaos_fuzz dag=1", "chaos_repro_dag_",
                      "DAG schedules held every invariant (completeness, "
                      "zero-loss, integrity, liveness, determinism)",
                      draw_dag_schedule,
                      {"kvs_lookups", "frames_consumed", "frames_reexecuted",
                       "crash_recoveries", "stream_spills",
                       "integrity_refetches"}),
        opt);
  }
  return fuzz::run(
      ensemble_mode("chaos_fuzz", "chaos_repro_",
                    "schedules held every invariant (completeness, "
                    "integrity, liveness, determinism)",
                    draw_schedule,
                    {"kvs_lookups", "frames_consumed", "dyad_hedges",
                     "dyad_breaker_trips", "integrity_refetches",
                     "membership_declares", "rank_migrations",
                     "stale_epoch_rejects"}),
      opt);
}
