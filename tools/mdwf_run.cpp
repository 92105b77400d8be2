// mdwf_run: command-line driver for arbitrary workflow experiments.
//
//   mdwf_run [config-file] [key=value ...]
//
// Keys (all optional):
//   solution   = dyad | xfs | lustre | stream   (default dyad)
//   pairs      = <n>                        (default 4)
//   nodes      = <n>                        (default 2; 1 for xfs)
//   model      = JAC | ApoA1 | "F1 ATPase" | STMV   (default JAC)
//   stride     = <steps>                    (default: the model's Table II stride)
//   frames     = <n>                        (default 64)
//   reps       = <n>                        (default 5)
//   seed       = <n>                        (default 1)
//   threads    = <n>                        (worker threads fanning the seeded
//                                            repetitions; 0 = all hardware
//                                            threads; results are byte-identical
//                                            for every value; default 1)
//   interference = 0|1                      (Lustre OST background load)
//   push       = 0|1                        (DYAD push-mode routing)
//   jitter     = <sigma>                    (MD rate variability, default 0.01)
//   faults     = <scenario>                 (fault injection: none, broker-blip,
//                                            broker-outage, slow-nvme,
//                                            flaky-fabric, partition, ost-storm,
//                                            node-crash, rank-kill, bit-flip,
//                                            crash-flip, crash:<n>, slow-disk,
//                                            lossy-link, overload, node-loss,
//                                            loss-after-publish,
//                                            heal-after-declare)
//   retry      = 0|1                        (DYAD recovery protocol: RPC
//                                            timeout+retry and Lustre failover;
//                                            default 1 when faults are injected)
//   health     = 0|1                        (gray-failure mitigation: phi-accrual
//                                            failure detector, circuit breaker
//                                            over the KVS, bounded server
//                                            admission queues; default 0)
//   hedge      = 0|1                        (race a delayed Lustre-replica read
//                                            against slow cold fetches; implies
//                                            health=1; default 0)
//   integrity  = 0|1                        (end-to-end CRC32C frame checksums;
//                                            default 1 under bit-flip or crash
//                                            scenarios, else 0)
//   membership = 0|1                        (membership plane: heartbeats,
//                                            declare-dead policy, checkpoint-
//                                            driven rank migration off a
//                                            permanently lost node, incarnation
//                                            fencing of zombies; required for
//                                            node-loss/loss-after-publish to
//                                            complete; default 0)
//   checkpoint = <n>                        (persist per-rank progress every n
//                                            frames; 0 disables; default: every
//                                            frame when crash windows are
//                                            planned)
//   trace      = <path>                     (export a Chrome trace-event JSON of
//                                            the first repetition, plus a
//                                            <path>.metrics.csv of the resource
//                                            samples; open in ui.perfetto.dev)
//   output     = table | csv                (default table)
//   tree       = 0|1                        (print the consumer call tree;
//                                            the task call tree in DAG mode;
//                                            rejected with tenants=)
//
// DAG workload mode (mdwf::wload, DESIGN.md Sec. 13) — when workload= is
// present the fixed producer/consumer pipeline is replaced by a
// dependency-driven task graph whose frame total is the DAG's edge-frame
// count.  The pipeline keys pairs, frames, model, stride, colocate,
// compress, interference and checkpoint are rejected; so are membership=1
// and the node-loss, loss-after-publish and heal-after-declare scenarios,
// because DAG runs have no membership plane:
//   workload   = wfcommons:<file> | synth:chain|fork-join|montage
//   dag_tasks  = <n>      synthetic task count            (default 8)
//   dag_width  = <n>      synthetic fan-out width         (default 4)
//   dag_seed   = <n>      synthetic shape seed            (default 1)
//   dag_runtime= <s>      synthetic median task runtime   (default 2.0)
//   dag_bytes  = <n>      synthetic median output bytes   (default 64 MiB)
//   dag_chunk  = <n>      edge frame size in bytes        (default 32 MiB)
//   dag_scale  = <x>      task runtime multiplier         (default 1.0)
//
// Co-tenant mode (multi-tenant co-scheduling, DESIGN.md Sec. 11) — when
// tenants= is present the driver places every tenant on its own node slice
// of ONE shared testbed instead of running a single ensemble:
//   tenants    = comma-separated descriptors, each
//                [<name>@]<solution>/<pairs>/<nodes>[/<faults>[/<weight>]]
//                or [<name>@]noise[/<intensity>[/<weight>]]
//   slo        = 0|1                        (per-tenant SLO guard: stagger ->
//                                            shrink credits -> Lustre fallback)
//   slo_target_us = <us>                    (fetch-P99 target, default 6000)
//   quota      = 0|1                        (weighted fair-share quotas on the
//                                            shared KVS/MDS/OSTs; default 1)
//
// Example:
//   mdwf_run solution=lustre pairs=16 model=STMV frames=32 output=csv
//   mdwf_run solution=dyad faults=broker-outage trace=run.json
//   mdwf_run solution=dyad faults=crash-flip checkpoint=1 trace=crash.json
//   mdwf_run tenants=victim@dyad/4/2,noise/64 slo=1 output=csv
//
// Exit status: 0 on success; 1 on configuration/runtime errors; 2 when the
// run lost data (unrecovered checksum failures, or fewer frames consumed
// than pairs*frames*reps).
#include <cstdio>
#include <fstream>
#include <string>

#include "mdwf/common/format.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/common/table.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace {

using namespace mdwf;

int fail(const std::string& msg) {
  std::fprintf(stderr, "mdwf_run: %s\n", msg.c_str());
  return 1;
}

// Driver defaults layered under the key=value overrides: a small standard
// experiment rather than the library's single-pair defaults.
workflow::EnsembleConfig driver_defaults() {
  workflow::EnsembleConfig d;
  d.pairs = 4;
  d.nodes = 2;
  d.workload.frames = 64;
  d.repetitions = 5;
  return d;
}

// Co-tenant mode: N tenants on one shared testbed (tenants= present).
int run_cotenant(const KeyValueConfig& cfg, const std::string& output) {
  const tenant::MultiTenantConfig mc =
      tenant::parse_multi_tenant(cfg, driver_defaults());
  const tenant::MultiTenantResult r = tenant::run_multi_tenant(mc);

  if (output == "csv") {
    std::fputs(r.to_csv().c_str(), stdout);
  } else {
    TextTable t({"tenant", "solution", "pairs", "nodes", "makespan_s",
                 "fetch_p99_us", "frames_consumed", "quota_sheds",
                 "slo_transitions"});
    for (const auto& tr : r.tenants) {
      const bool noise = tr.spec.kind == tenant::TenantKind::kNoise;
      const auto& c = tr.result.counters;
      const std::uint64_t quota_sheds = c.get("quota_kvs_sheds") +
                                        c.get("quota_mds_sheds") +
                                        c.get("quota_ost_sheds");
      t.add_row({tr.spec.name,
                 noise ? "noise"
                       : std::string(workflow::to_string(tr.spec.solution)),
                 std::to_string(noise ? 0 : tr.spec.pairs),
                 std::to_string(tr.spec.nodes),
                 noise ? "-" : format_double(tr.result.makespan_s.mean(), 3),
                 noise ? "-"
                       : format_double(tr.result.cons_fetch_us.quantile(0.99),
                                       1),
                 std::to_string(c.get("frames_consumed")),
                 std::to_string(quota_sheds),
                 std::to_string(c.get("slo_escalations") +
                                c.get("slo_deescalations"))});
    }
    std::printf("%zu tenant(s), %u node(s) shared testbed, %u "
                "repetition(s)\n\n%s\nshared counters:\n",
                mc.tenants.size(), tenant::total_nodes(mc), mc.repetitions,
                t.render().c_str());
    for (const auto& [name, value] : r.shared) {
      if (value == 0) continue;
      std::printf("  %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    if (!mc.trace_path.empty()) {
      std::printf("\ntrace written to %s (+ %s)\n", mc.trace_path.c_str(),
                  obs::TraceSink::metrics_csv_path(mc.trace_path).c_str());
    }
  }

  // Per-tenant data-loss audit: the diagnostic names the tenant so a failed
  // co-tenant chaos run is attributable from its stderr line alone.
  int exit_code = 0;
  for (const auto& tr : r.tenants) {
    if (tr.spec.kind != tenant::TenantKind::kWorkflow) continue;
    const std::uint64_t expected = static_cast<std::uint64_t>(tr.spec.pairs) *
                                   tr.spec.workload.frames * mc.repetitions;
    const std::uint64_t consumed = tr.result.counters.get("frames_consumed");
    if (consumed < expected) {
      std::fprintf(stderr,
                   "mdwf_run: FAILED: tenant '%s' incomplete: %llu of %llu "
                   "frames consumed (tenant=%s faults=%s seed=%llu)\n",
                   tr.spec.name.c_str(),
                   static_cast<unsigned long long>(consumed),
                   static_cast<unsigned long long>(expected),
                   tr.spec.name.c_str(), tr.spec.faults.c_str(),
                   static_cast<unsigned long long>(mc.base_seed));
      exit_code = 2;
    }
  }
  if (r.shared.get("integrity_unrecovered") > 0) {
    // The ledger is shared, so name the tenants whose plans can corrupt.
    std::string suspects;
    for (const auto& tr : r.tenants) {
      if (tr.spec.faults == "none" || tr.spec.faults.empty()) continue;
      if (!suspects.empty()) suspects += ",";
      suspects += tr.spec.name + "(" + tr.spec.faults + ")";
    }
    if (suspects.empty()) suspects = "none-declared";
    std::fprintf(stderr,
                 "mdwf_run: FAILED: %llu frame read(s) failed checksum "
                 "verification beyond recovery (suspect tenants=%s "
                 "seed=%llu)\n",
                 static_cast<unsigned long long>(
                     r.shared.get("integrity_unrecovered")),
                 suspects.c_str(),
                 static_cast<unsigned long long>(mc.base_seed));
    exit_code = 2;
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  KeyValueConfig cfg;
  std::vector<std::string> positional;
  try {
    positional = cfg.parse_args(argc, argv);
    for (const auto& file : positional) {
      std::ifstream in(file);
      if (!in) return fail("cannot open config file '" + file + "'");
      cfg.parse_stream(in);
    }

    // Driver-only keys, read before parsing: parse_ensemble_config fails
    // fast on any key nobody consumed.
    const std::string output = cfg.get_string("output", "table");
    if (output != "table" && output != "csv") {
      return fail("unknown output '" + output + "'");
    }
    const bool print_tree = cfg.get_bool("tree", false);

    if (cfg.has("tenants")) {
      if (print_tree) {
        throw ConfigError("tree=1 does not apply to co-tenant runs (tenants=)");
      }
      return run_cotenant(cfg, output);
    }

    const workflow::EnsembleConfig config =
        workflow::parse_ensemble_config(cfg, driver_defaults());
    const std::string solution = cfg.get_string("solution", "dyad");
    const std::string model_name(config.workload.model.name);

    // DAG runs report the graph's own shape: the classic pairs/frames keys
    // do not apply, and completeness is counted in edge-frames (the model
    // column carries the workflow name, pairs the task count, stride 0).
    const bool dag_mode = config.dag != nullptr;
    const std::uint64_t frames_per_rep =
        dag_mode ? workflow::plan_dag(*config.dag, config.dag_chunk,
                                      config.nodes)
                       .total_edge_frames
                 : static_cast<std::uint64_t>(config.pairs) *
                       config.workload.frames;
    const std::string workload_name = dag_mode ? config.dag->name
                                               : model_name;
    const std::uint32_t width =
        dag_mode ? static_cast<std::uint32_t>(config.dag->tasks.size())
                 : config.pairs;
    const std::uint64_t shown_stride = dag_mode ? 0 : config.workload.stride;

    // Parallel replica runner: honors threads= with byte-identical results.
    const auto r = sweep::run_ensemble(config);

    if (output == "csv") {
      std::printf(
          "solution,model,pairs,nodes,stride,frames,reps,"
          "prod_move_us,prod_idle_us,cons_move_us,cons_idle_us,makespan_s,"
          "fetch_p99_us");
      for (const auto& [name, value] : r.counters) std::printf(",%s",
                                                               name.c_str());
      std::printf("\n");
      std::printf("%s,%s,%u,%u,%llu,%llu,%u,%.3f,%.3f,%.3f,%.3f,%.4f,%.3f",
                  solution.c_str(), workload_name.c_str(), width,
                  config.nodes,
                  static_cast<unsigned long long>(shown_stride),
                  static_cast<unsigned long long>(
                      dag_mode ? frames_per_rep : config.workload.frames),
                  config.repetitions, r.prod_movement_us.mean(),
                  r.prod_idle_us.mean(), r.cons_movement_us.mean(),
                  r.cons_idle_us.mean(), r.makespan_s.mean(),
                  r.cons_fetch_us.quantile(0.99));
      for (const auto& [name, value] : r.counters) {
        std::printf(",%llu", static_cast<unsigned long long>(value));
      }
      std::printf("\n");
    } else {
      TextTable t({"metric", "movement", "idle", "total"});
      auto row = [&](const char* name, const Samples& move,
                     const Samples& idle) {
        t.add_row({name,
                   format_double(move.mean(), 1) + " +/- " +
                       format_double(move.stddev(), 1) + " us",
                   format_double(idle.mean(), 1) + " +/- " +
                       format_double(idle.stddev(), 1) + " us",
                   format_double(move.mean() + idle.mean(), 1) + " us"});
      };
      row("production/frame", r.prod_movement_us, r.prod_idle_us);
      row("consumption/frame", r.cons_movement_us, r.cons_idle_us);
      if (dag_mode) {
        std::printf("%s, workflow '%s', %u task(s), %u node(s), %llu "
                    "edge-frame(s), %u repetition(s)\n\n%s\nmakespan %.3f "
                    "+/- %.3f s\n",
                    solution.c_str(), workload_name.c_str(), width,
                    config.nodes,
                    static_cast<unsigned long long>(frames_per_rep),
                    config.repetitions, t.render().c_str(),
                    r.makespan_s.mean(), r.makespan_s.stddev());
      } else {
        std::printf("%s, %s, %u pair(s), %u node(s), stride %llu, %llu "
                    "frames, %u repetition(s)\n\n%s\nmakespan %.3f +/- %.3f "
                    "s\n",
                    solution.c_str(), model_name.c_str(), config.pairs,
                    config.nodes,
                    static_cast<unsigned long long>(config.workload.stride),
                    static_cast<unsigned long long>(config.workload.frames),
                    config.repetitions, t.render().c_str(),
                    r.makespan_s.mean(), r.makespan_s.stddev());
      }
      std::printf("frame-fetch P99 %.1f us (P50 %.1f us, %zu samples)\n",
                  r.cons_fetch_us.quantile(0.99),
                  r.cons_fetch_us.quantile(0.50), r.cons_fetch_us.count());
      std::printf("\ncounters:\n");
      for (const auto& [name, value] : r.counters) {
        std::printf("  %-24s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
      if (!config.trace_path.empty()) {
        std::printf("\ntrace written to %s (+ %s)\n",
                    config.trace_path.c_str(),
                    obs::TraceSink::metrics_csv_path(config.trace_path)
                        .c_str());
      }
    }

    if (print_tree) {
      // DAG ranks are tagged role=task; the classic pipeline's consumers
      // role=consumer.
      const char* role = dag_mode ? "task" : "consumer";
      const auto agg = r.thicket.filter("role", role).aggregate();
      std::printf("\n%s call tree:\n%s", role, agg.render().c_str());
    }

    // A run that lost data is a failed run, whatever the tables say: every
    // frame must reach its consumer checksum-clean.  One line on stderr,
    // exit 2, so scripted sweeps and CI notice.  (frames_per_rep is the
    // DAG's edge-frame total in workload mode, pairs*frames otherwise.)
    const std::uint64_t expected = frames_per_rep * config.repetitions;
    // Diagnostics carry the active fault scenario and base seed so a failed
    // chaos/CI run is reproducible from its stderr line alone.
    const std::string scenario = cfg.get_string("faults", "none");
    if (r.counters.get("integrity_unrecovered") > 0) {
      std::fprintf(stderr,
                   "mdwf_run: FAILED: %llu frame read(s) failed checksum "
                   "verification beyond recovery (faults=%s seed=%llu)\n",
                   static_cast<unsigned long long>(r.counters.get("integrity_unrecovered")),
                   scenario.c_str(),
                   static_cast<unsigned long long>(config.base_seed));
      return 2;
    }
    if (r.counters.get("frames_consumed") < expected) {
      std::fprintf(stderr,
                   "mdwf_run: FAILED: ensemble incomplete: %llu of %llu "
                   "frames consumed (unrecovered fault?) (faults=%s "
                   "seed=%llu)\n",
                   static_cast<unsigned long long>(r.counters.get("frames_consumed")),
                   static_cast<unsigned long long>(expected), scenario.c_str(),
                   static_cast<unsigned long long>(config.base_seed));
      return 2;
    }
  } catch (const ConfigError& e) {
    return fail(e.what());
  } catch (const std::exception& e) {
    return fail(std::string("error: ") + e.what());
  }
  return 0;
}
