// mdwf_advise: batch solution advisor for DAG workloads.
//
// Sweeps workloads x solutions x fault scenarios through mdwf::sweep and
// emits one recommendation row per (workload, scenario): the solution with
// the lowest frame-fetch P99, the runner-up, the margin between them, and
// a confidence grade derived from how that margin compares to the winner's
// repetition spread.  The promoted successor of examples/solution_advisor
// (fixed MD pipelines) for imported/synthetic graphs.
//
//   mdwf_advise [config-file] [key=value ...]
//
// Keys:
//   workloads  = comma-separated workload references, each
//                wfcommons:<file> or synth:chain|fork-join|montage
//                (required; same syntax as mdwf_run's workload=)
//   solutions  = comma-separated candidates    (default dyad,lustre,stream;
//                                               xfs allowed, runs on 1 node)
//   scenarios  = comma-separated fault scenarios (default none; node-loss
//                                               family rejected: DAG runs
//                                               have no membership plane)
//   nodes      = <n>                            (default 2; xfs always 1)
//   reps       = <n>                            (default 3)
//   seed       = <n>                            (default 1)
//   threads    = <n>                            (sweep workers; results are
//                                               byte-identical for every
//                                               value; default 1)
//   dag_tasks / dag_width / dag_seed / dag_runtime / dag_bytes
//              = synthetic workload shape       (as in mdwf_run)
//   dag_chunk  = <bytes>                        (edge frame size, 32 MiB)
//   dag_scale  = <x>                            (task runtime multiplier)
//   out        = <path>                         (write the CSV there and a
//                                               human table to stdout;
//                                               default: CSV to stdout;
//                                               checked for writing before
//                                               any run)
//
// Each (workload, scenario, solution) cell is bound by
// parse_ensemble_config from the keys mdwf_run would get for that run:
// solution=, workload=, faults= (unless the scenario is none) and the keys
// from nodes to dag_scale above, nodes left out for xfs.  A value mdwf_run
// rejects is rejected here with the same message.  An empty or repeated
// entry in workloads=, solutions= or scenarios= is rejected before any run.
//
// CSV schema (one row per workload x scenario, input order):
//   workflow,scenario,tasks,edge_frames,recommendation,fetch_p99_us,
//   makespan_s,runner_up,runner_up_p99_us,margin_pct,confidence
//
// Confidence: the P99 margin to the runner-up, measured against the
// winner's own repetition spread (makespan stddev/mean).  A margin that
// dwarfs the spread is a stable regime ("high"); a margin inside the
// spread could flip on another seed ("low").
//
// Exit status: 0 on success; 1 on configuration errors, any failed sweep
// point (the point's error is reported on stderr) or a failed CSV write.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mdwf/common/format.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/common/table.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace {

using namespace mdwf;

int fail(const std::string& msg) {
  std::fprintf(stderr, "mdwf_advise: %s\n", msg.c_str());
  return 1;
}

// Splits the comma-separated value of `key`, trimming spaces around each
// entry.  An empty list, an empty entry or an entry given twice is a
// ConfigError naming the key.
std::vector<std::string> split_list(std::string_view key,
                                    const std::string& text) {
  if (text.empty()) throw ConfigError(std::string(key) + " is empty");
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    std::string item = text.substr(start, end - start);
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (item.empty()) {
      throw ConfigError(std::string(key) + " has an empty entry in '" +
                        text + "'");
    }
    if (std::find(out.begin(), out.end(), item) != out.end()) {
      throw ConfigError(std::string(key) + " lists '" + item + "' twice");
    }
    out.push_back(std::move(item));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

struct Recommendation {
  std::string workflow;
  std::string scenario;
  std::uint64_t tasks = 0;
  std::uint64_t edge_frames = 0;
  std::string best;
  double best_p99 = 0.0;
  double best_makespan = 0.0;
  std::string runner_up;
  double runner_p99 = 0.0;
  double margin_pct = 0.0;
  std::string confidence;
};

}  // namespace

int main(int argc, char** argv) {
  KeyValueConfig cfg;
  try {
    const auto positional = cfg.parse_args(argc, argv);
    for (const auto& file : positional) {
      std::ifstream in(file);
      if (!in) return fail("cannot open config file '" + file + "'");
      cfg.parse_stream(in);
    }

    const std::string workloads_key = cfg.get_string("workloads", "");
    if (workloads_key.empty()) {
      throw ConfigError(
          "workloads is required: comma-separated wfcommons:<file> or "
          "synth:<topology> references");
    }
    const std::vector<std::string> workload_refs =
        split_list("workloads", workloads_key);
    const std::vector<std::string> solution_names = split_list(
        "solutions", cfg.get_string("solutions", "dyad,lustre,stream"));
    const std::vector<std::string> scenarios =
        split_list("scenarios", cfg.get_string("scenarios", "none"));
    if (solution_names.size() < 2) {
      throw ConfigError(
          "solutions needs at least two candidates to rank, got '" +
          solution_names[0] + "'");
    }

    const std::string out_path = cfg.get_string("out", "");

    // The run keys every cell hands to parse_ensemble_config, spelled as
    // mdwf_run would get them; XFS cells keep their one-node default.
    constexpr std::string_view kRunKeys[] = {
        "nodes",     "reps",     "seed",        "threads",   "dag_tasks",
        "dag_width", "dag_seed", "dag_runtime", "dag_bytes", "dag_chunk",
        "dag_scale"};
    std::vector<std::pair<std::string_view, std::string>> run_keys;
    for (const std::string_view k : kRunKeys) {
      if (cfg.has(k)) run_keys.emplace_back(k, cfg.get_string(k, ""));
    }

    constexpr std::string_view kKeys[] = {
        "workloads", "solutions", "scenarios", "nodes",     "reps",
        "seed",      "threads",   "dag_tasks", "dag_width", "dag_seed",
        "dag_runtime",            "dag_bytes", "dag_chunk", "dag_scale",
        "out"};
    cfg.reject_unknown_keys(kKeys);

    workflow::EnsembleConfig defaults;
    defaults.nodes = 2;
    defaults.repetitions = 3;
    defaults.threads = 1;

    // Grid in canonical (workload, scenario, solution) order: run_sweep
    // merges in this order whatever threads= is, so the CSV is
    // byte-identical for every thread count.
    std::vector<sweep::SweepPoint> grid;
    for (const auto& ref : workload_refs) {
      for (const auto& scenario : scenarios) {
        for (const auto& solution : solution_names) {
          KeyValueConfig run;
          run.set("solution", solution);
          run.set("workload", ref);
          if (scenario != "none") run.set("faults", scenario);
          for (const auto& [key, value] : run_keys) {
            if (key == "nodes" && solution == "xfs") continue;
            run.set(std::string(key), value);
          }
          workflow::EnsembleConfig config =
              workflow::parse_ensemble_config(run, defaults);
          std::string label =
              config.dag->name + "/" + scenario + "/" + solution;
          grid.push_back({std::move(label), std::move(config)});
        }
      }
    }
    const std::uint32_t threads = grid.front().config.threads;
    const std::uint32_t reps = grid.front().config.repetitions;

    if (!out_path.empty()) {
      // An unwritable out= fails before the sweep, not after it.  Append
      // mode leaves an existing file as it is; a file the probe created is
      // removed again.
      std::error_code ec;
      const bool existed = std::filesystem::exists(out_path, ec);
      if (!std::ofstream(out_path, std::ios::app)) {
        return fail("cannot write '" + out_path + "'");
      }
      if (!existed) std::filesystem::remove(out_path, ec);
    }

    const sweep::SweepResult swept = sweep::run_sweep(std::move(grid),
                                                      threads);
    int exit_code = 0;
    for (const auto& p : swept.points) {
      if (p.failed()) {
        std::fprintf(stderr, "mdwf_advise: point '%s' failed: %s\n",
                     p.label.c_str(), p.error_text.c_str());
        exit_code = 1;
      }
    }
    if (exit_code != 0) return exit_code;

    // Rank each (workload, scenario) group by fetch P99, ascending; ties
    // break toward the earlier solutions= entry (stable order).
    std::vector<Recommendation> recs;
    const std::size_t per_group = solution_names.size();
    for (std::size_t w = 0; w < workload_refs.size(); ++w) {
      for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
        const std::size_t base = (w * scenarios.size() + sc) * per_group;
        std::vector<std::size_t> order(per_group);
        for (std::size_t i = 0; i < per_group; ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           const auto& ra = swept.points[base + a].result;
                           const auto& rb = swept.points[base + b].result;
                           return ra.cons_fetch_us.quantile(0.99) <
                                  rb.cons_fetch_us.quantile(0.99);
                         });
        const auto& best = swept.points[base + order[0]].result;
        const auto& runner = swept.points[base + order[1]].result;
        const workflow::EnsembleConfig& config = swept.points[base].config;

        Recommendation rec;
        rec.workflow = config.dag->name;
        rec.scenario = scenarios[sc];
        rec.tasks = config.dag->tasks.size();
        rec.edge_frames =
            workflow::plan_dag(*config.dag, config.dag_chunk, config.nodes)
                .total_edge_frames;
        rec.best = solution_names[order[0]];
        rec.best_p99 = best.cons_fetch_us.quantile(0.99);
        rec.best_makespan = best.makespan_s.mean();
        rec.runner_up = solution_names[order[1]];
        rec.runner_p99 = runner.cons_fetch_us.quantile(0.99);
        rec.margin_pct =
            rec.best_p99 > 0.0
                ? 100.0 * (rec.runner_p99 - rec.best_p99) / rec.best_p99
                : 0.0;
        // Repetition spread of the winner, as a percentage of its mean
        // makespan: the noise floor the margin must clear.
        const double spread_pct =
            best.makespan_s.mean() > 0.0
                ? 100.0 * best.makespan_s.stddev() / best.makespan_s.mean()
                : 0.0;
        rec.confidence = rec.margin_pct >= 2.0 * spread_pct + 10.0 ? "high"
                         : rec.margin_pct >= spread_pct            ? "medium"
                                                                   : "low";
        recs.push_back(std::move(rec));
      }
    }

    std::string csv =
        "workflow,scenario,tasks,edge_frames,recommendation,fetch_p99_us,"
        "makespan_s,runner_up,runner_up_p99_us,margin_pct,confidence\n";
    for (const auto& rec : recs) {
      char row[512];
      std::snprintf(row, sizeof row,
                    "%s,%s,%llu,%llu,%s,%.3f,%.4f,%s,%.3f,%.1f,%s\n",
                    rec.workflow.c_str(), rec.scenario.c_str(),
                    static_cast<unsigned long long>(rec.tasks),
                    static_cast<unsigned long long>(rec.edge_frames),
                    rec.best.c_str(), rec.best_p99, rec.best_makespan,
                    rec.runner_up.c_str(), rec.runner_p99, rec.margin_pct,
                    rec.confidence.c_str());
      csv += row;
    }

    if (out_path.empty()) {
      std::fputs(csv.c_str(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      out << csv;
      out.close();
      if (!out) return fail("cannot write '" + out_path + "'");

      TextTable t({"workflow", "scenario", "recommendation", "fetch P99",
                   "runner-up", "margin", "confidence"});
      for (const auto& rec : recs) {
        t.add_row({rec.workflow, rec.scenario, rec.best,
                   format_double(rec.best_p99, 1) + " us",
                   rec.runner_up, format_double(rec.margin_pct, 1) + "%",
                   rec.confidence});
      }
      std::printf("%zu workload(s) x %zu scenario(s) x %zu solution(s), "
                  "%u repetition(s) each\n\n%s\nCSV written to %s\n",
                  workload_refs.size(), scenarios.size(),
                  solution_names.size(), reps,
                  t.render().c_str(), out_path.c_str());
    }
  } catch (const ConfigError& e) {
    return fail(e.what());
  } catch (const std::exception& e) {
    return fail(std::string("error: ") + e.what());
  }
  return 0;
}
