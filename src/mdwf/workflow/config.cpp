#include "mdwf/workflow/config.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "mdwf/common/suggest.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/wload/wload.hpp"

namespace mdwf::workflow {

// Indexed by Solution's enumerator value.
constexpr std::string_view kSolutionNames[] = {"dyad", "xfs", "lustre",
                                               "stream"};

std::string_view solution_key(Solution s) {
  return kSolutionNames[static_cast<std::size_t>(s)];
}

Solution parse_solution(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kSolutionNames); ++i) {
    if (name == kSolutionNames[i]) return static_cast<Solution>(i);
  }
  // Fail fast: a typo must not silently fall back to a default solution.
  throw ConfigError("unknown solution '" + std::string(name) + "'" +
                    did_you_mean(name, kSolutionNames));
}

namespace {

// Every key this binding understands, the candidate set for typo
// suggestions (keys the caller reads before parsing are already marked
// known and never reach the diagnostic).
constexpr std::string_view kKnownKeys[] = {
    "solution", "model",    "stride",       "pairs",    "nodes",
    "frames",   "jitter",   "analytics",    "reps",     "seed",
    "threads",  "interference",             "push",     "compress",
    "colocate", "faults",   "retry",        "health",   "hedge",
    "integrity",            "checkpoint",   "trace",    "membership",
    // Co-tenant driver keys (read by mdwf::tenant::parse_multi_tenant
    // before this binding runs; listed here for typo suggestions).
    "tenants",  "slo",      "slo_target_us", "quota",
    // DAG workload import (mdwf::wload; PR 10).
    "workload", "dag_tasks", "dag_width",    "dag_seed", "dag_runtime",
    "dag_bytes", "dag_chunk", "dag_scale"};

// Keys that only make sense alongside workload= (fail fast on strays).
constexpr std::string_view kDagOnlyKeys[] = {
    "dag_tasks", "dag_width", "dag_seed",  "dag_runtime",
    "dag_bytes", "dag_chunk", "dag_scale"};

// Pipeline keys a DAG run would silently ignore: its ranks are tasks placed
// round-robin, not colocated pairs; its frames are chunks of task outputs,
// not a model's frames at a stride; and its wiring neither compresses
// frames nor starts OST interference.
constexpr std::string_view kPipelineOnlyKeys[] = {
    "pairs", "model", "stride", "colocate", "compress", "interference"};

void require_positive(std::string_view key, std::uint64_t v) {
  if (v == 0) throw ConfigError(std::string(key) + " must be >= 1, got 0");
}

// The longest simulated time one frame's MD or analytics step, or one DAG
// task, may take.  The paper's frame periods are all under 1 s; the cap
// keeps every derived delay far inside the int64-nanosecond clock.
constexpr double kMaxStepSeconds = 1e6;

std::string shortest(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// The error for `setting` ("key=value") making `what` take `seconds` of
// simulated time, over the cap.
ConfigError too_long(const std::string& setting, const std::string& what,
                     double seconds) {
  return ConfigError(setting + ": " + what + " would take " +
                     shortest(seconds) +
                     " simulated seconds; the limit is 1e+06");
}

}  // namespace

FaultDefaults fault_defaults(bool scenario_set,
                             std::span<const fault::FaultWindow> windows) {
  FaultDefaults d{.retry = scenario_set};
  for (const auto& w : windows) {
    d.integrity = d.integrity || w.mode == fault::FaultMode::kBitFlip ||
                  w.target == fault::FaultTarget::kNodeCrash;
  }
  return d;
}

EnsembleConfig parse_ensemble_config(const KeyValueConfig& cfg,
                                     const EnsembleConfig& defaults) {
  EnsembleConfig config = defaults;

  config.solution = parse_solution(
      cfg.get_string("solution", solution_key(defaults.solution)));

  const std::string model_name =
      cfg.get_string("model", std::string(defaults.workload.model.name));
  const auto model = md::find_model(model_name);
  if (!model.has_value()) {
    throw ConfigError("unknown model '" + model_name + "'");
  }
  config.workload.model = *model;
  // A different model resets the stride to its Table II default; an explicit
  // stride key always wins.
  const std::uint64_t default_stride =
      model->name == defaults.workload.model.name ? defaults.workload.stride
                                                  : model->stride;
  config.workload.stride = cfg.get_uint("stride", default_stride);
  require_positive("stride", config.workload.stride);

  config.pairs = cfg.get_u32("pairs", defaults.pairs);
  require_positive("pairs", config.pairs);
  // XFS cannot move data between nodes, so it defaults to a single one.
  const std::uint32_t default_nodes =
      config.solution == Solution::kXfs ? 1 : defaults.nodes;
  config.nodes = cfg.get_u32("nodes", default_nodes);
  require_positive("nodes", config.nodes);
  config.workload.frames = cfg.get_uint("frames", defaults.workload.frames);
  require_positive("frames", config.workload.frames);
  config.workload.step_jitter_sigma =
      cfg.get_double("jitter", defaults.workload.step_jitter_sigma);
  if (config.workload.step_jitter_sigma < 0.0 ||
      config.workload.step_jitter_sigma > 1.0) {
    throw ConfigError("jitter must be in [0, 1], got " +
                      shortest(config.workload.step_jitter_sigma));
  }
  // Consumer analytics time as a multiple of the frame period; >1 models
  // in-situ analysis that falls behind production.
  config.workload.analytics_scale =
      cfg.get_double("analytics", defaults.workload.analytics_scale);
  if (config.workload.analytics_scale <= 0.0) {
    throw ConfigError("analytics must be > 0, got " +
                      std::to_string(config.workload.analytics_scale));
  }
  const double frame_md_s = static_cast<double>(config.workload.stride) /
                            config.workload.model.steps_per_second;
  if (frame_md_s > kMaxStepSeconds) {
    throw too_long("stride=" + std::to_string(config.workload.stride),
                   "one frame's MD", frame_md_s);
  }
  if (frame_md_s * config.workload.analytics_scale > kMaxStepSeconds) {
    throw too_long("analytics=" + shortest(config.workload.analytics_scale),
                   "one frame's analytics",
                   frame_md_s * config.workload.analytics_scale);
  }
  config.repetitions = cfg.get_u32("reps", defaults.repetitions);
  require_positive("reps", config.repetitions);
  config.base_seed = cfg.get_uint("seed", defaults.base_seed);
  // Worker threads for the parallel replica runner (mdwf::sweep); 0 = all
  // hardware threads.  Never affects results, only wall-clock time.
  config.threads = cfg.get_u32("threads", defaults.threads);
  config.lustre_interference =
      cfg.get_bool("interference", defaults.lustre_interference);
  config.testbed.dyad.push_mode =
      cfg.get_bool("push", defaults.testbed.dyad.push_mode);
  config.workload.compress =
      cfg.get_bool("compress", defaults.workload.compress);
  if (cfg.get_bool("colocate",
                   defaults.placement == Placement::kColocated)) {
    config.placement = Placement::kColocated;
  }
  // Placement rules (DAG runs place tasks round-robin and ignore colocate).
  const std::string workload_ref = cfg.get_string("workload", "");
  const bool dag = !workload_ref.empty();
  const bool colocated =
      config.nodes == 1 ||
      (config.placement == Placement::kColocated && !dag);
  if (config.solution == Solution::kXfs && !colocated) {
    throw ConfigError("nodes=" + std::to_string(config.nodes) +
                      ": XFS cannot move data between nodes; use nodes=1" +
                      (dag ? "" : " or colocate=1"));
  }
  if (!colocated && !dag && config.nodes % 2 != 0) {
    throw ConfigError("nodes=" + std::to_string(config.nodes) +
                      ": a split placement needs an even node count; use "
                      "colocate=1 to place each pair on one node");
  }

  const std::string faults = cfg.get_string("faults", "none");
  if (faults != "none") {
    fault::ScenarioShape shape;
    shape.compute_nodes = config.nodes;
    shape.ost_count = config.testbed.lustre.ost_count;
    shape.seed = config.base_seed;
    try {
      config.testbed.faults = fault::make_scenario(faults, shape);
    } catch (const std::invalid_argument& e) {
      throw ConfigError(e.what());
    }
  }
  // retry=0 reproduces the retry-less deadlock under injected faults.
  const FaultDefaults implied =
      fault_defaults(faults != "none", config.testbed.faults.windows);
  config.testbed.dyad.retry.enabled = cfg.get_bool(
      "retry", implied.retry || defaults.testbed.dyad.retry.enabled);

  // Gray-failure mitigation (mdwf::health): health=on arms the phi-accrual
  // detector, circuit breaker, and bounded admission queues; hedge=on
  // additionally races a delayed Lustre-replica read against slow cold
  // fetches (and implies health=on).  Breaker trips and hedges act only
  // when the Lustre failover path exists, i.e. retry is on — which it is
  // by default whenever faults != none.
  const bool hedge =
      cfg.get_bool("hedge", defaults.testbed.dyad.health.hedge.enabled);
  config.testbed.dyad.health.hedge.enabled = hedge;
  config.testbed.dyad.health.enabled =
      cfg.get_bool("health",
                   hedge || defaults.testbed.dyad.health.enabled) ||
      hedge;
  // The stream plane shares the health/hedge switches: hedge=on races a
  // stalled subscription against the spill-replica read.
  config.testbed.stream.health.hedge.enabled = hedge;
  config.testbed.stream.health.enabled = config.testbed.dyad.health.enabled;

  // Membership plane (mdwf::membership): heartbeats, declare-dead policy,
  // rank migration, incarnation fencing.  membership=0 reproduces the
  // park-forever behaviour — a permanent node loss then ends in the
  // deadlock reporter instead of completing via migration.
  config.testbed.membership.enabled =
      cfg.get_bool("membership", defaults.testbed.membership.enabled);

  // integrity=off reproduces the unchecked baseline under a corrupting
  // plan; integrity=on forces checksums under a healthy one.
  config.testbed.integrity.enabled = cfg.get_bool(
      "integrity", implied.integrity || defaults.testbed.integrity.enabled);

  // checkpoint=N persists a rank's progress record every N completed
  // frames; checkpoint=0 disables records even under crash windows (a
  // restart then re-executes from frame 0).  Absent = auto: on with
  // interval 1 iff the plan has crash windows.
  if (cfg.has("checkpoint")) {
    const std::uint64_t every = cfg.get_uint("checkpoint", 1);
    if (every == 0) {
      config.checkpoint.mode = CheckpointParams::Mode::kOff;
    } else {
      config.checkpoint.mode = CheckpointParams::Mode::kOn;
      config.checkpoint.interval = every;
    }
  } else {
    cfg.note_known("checkpoint");
  }

  config.trace_path = cfg.get_string("trace", defaults.trace_path);

  // DAG workload import (mdwf::wload): workload=wfcommons:<file> runs an
  // imported WfCommons/WorkflowHub instance, workload=synth:<topology> a
  // seeded synthetic graph shaped by the dag_* keys.  All-or-nothing: any
  // loader/validation problem throws before the config binds.
  if (dag) {
    if (cfg.has("frames")) {
      throw ConfigError(
          "frames is derived from the DAG workload (edge payloads / "
          "dag_chunk); drop frames= when workload= is set");
    }
    if (cfg.has("checkpoint")) {
      throw ConfigError(
          "checkpoint records are not supported with DAG workloads (a "
          "restarted task re-executes from its first frame)");
    }
    for (const std::string_view k : kPipelineOnlyKeys) {
      if (cfg.has(k)) {
        throw ConfigError(std::string(k) +
                          " does not apply to DAG workloads; drop " +
                          std::string(k) + "= when workload= is set");
      }
    }
    if (config.testbed.membership.enabled) {
      throw ConfigError(
          "the membership plane (rank migration) does not support DAG "
          "workloads yet; drop membership=1 or workload=");
    }
    // The node-loss family exercises declare-dead and rank migration,
    // which DAG runs lack: a permanent loss would end in the deadlock
    // reporter.
    if (faults == "node-loss" || faults == "loss-after-publish" ||
        faults == "heal-after-declare") {
      throw ConfigError(
          "scenario '" + faults +
          "' needs the membership plane, which DAG workloads do not "
          "support; pick a recoverable scenario (e.g. node-crash, "
          "broker-outage, bit-flip)");
    }
    if (cfg.has("tenants")) {
      throw ConfigError(
          "co-tenant runs do not support DAG workloads; drop tenants= or "
          "workload=");
    }
    wload::WorkloadDefaults wd;
    wd.synth_tasks = cfg.get_u32("dag_tasks", wd.synth_tasks);
    wd.synth_width = cfg.get_u32("dag_width", wd.synth_width);
    wd.synth_seed = cfg.get_uint("dag_seed", wd.synth_seed);
    wd.synth_runtime_s = cfg.get_double("dag_runtime", wd.synth_runtime_s);
    if (wd.synth_runtime_s > kMaxStepSeconds) {
      throw too_long("dag_runtime=" + shortest(wd.synth_runtime_s),
                     "the median synthetic task", wd.synth_runtime_s);
    }
    wd.synth_output_bytes =
        cfg.get_double("dag_bytes", wd.synth_output_bytes);
    config.dag = std::make_shared<const wload::Dag>(
        wload::load_workload(workload_ref, wd));
    const std::uint64_t chunk =
        cfg.get_uint("dag_chunk", config.dag_chunk.count());
    if (chunk == 0) {
      throw ConfigError("dag_chunk must be a positive byte count");
    }
    config.dag_chunk = Bytes(chunk);
    config.dag_runtime_scale =
        cfg.get_double("dag_scale", defaults.dag_runtime_scale);
    if (config.dag_runtime_scale <= 0.0) {
      throw ConfigError("dag_scale must be > 0, got " +
                        std::to_string(config.dag_runtime_scale));
    }
    for (const auto& task : config.dag->tasks) {
      const double task_s =
          task.runtime.to_seconds() * config.dag_runtime_scale;
      if (task_s > kMaxStepSeconds) {
        throw too_long("dag_scale=" + shortest(config.dag_runtime_scale),
                       "task '" + task.id + "'", task_s);
      }
      if (task_s * config.workload.analytics_scale > kMaxStepSeconds) {
        throw too_long(
            "analytics=" + shortest(config.workload.analytics_scale),
            "task '" + task.id + "' analytics",
            task_s * config.workload.analytics_scale);
      }
    }
  } else {
    for (const std::string_view k : kDagOnlyKeys) {
      if (cfg.has(k)) {
        throw ConfigError(std::string(k) +
                          " requires a DAG workload; set "
                          "workload=wfcommons:<file> or synth:<topology>");
      }
    }
  }

  // Fail fast on leftovers: every key the caller did not already consume
  // and this binding does not understand is a typo, diagnosed on one line.
  cfg.reject_unknown_keys(kKnownKeys);

  return config;
}

}  // namespace mdwf::workflow
