// The paper's evidence and the what-if studies from one table-driven
// binary: Tables I-II, Figs. 5-12, the design ablations, and the
// resilience, scale, solution-frontier, co-tenant, membership and
// gray-failure mitigation sweeps.
//
//   figures <name>... [key=value ...]
//
// Each name is an entry of kFigures: a list of named ensemble cases (one
// bar group or grid point each, a solution x scale point) plus a report.
// key=value tokens (the keys mdwf_run accepts: frames, reps, seed, threads,
// trace, faults, ...) override every case's config; every named figure's
// cases bind before any runs, so a bad key fails fast with a did-you-mean
// diagnostic.
//
// Each figure's cases run as one sweep on the parallel replica runner
// (every (case, repetition) fans across the threads= workers;
// deterministic, the spread comes from the seeded repetitions) and print
// their movement/idle means, one line per case; then the figure prints its
// report: a paper-style table with the headline ratios next to the paper's
// published values, or a sweep's CSV and summary lines.  stdout is
// byte-identical for every threads= value; the host-dependent numbers
// (Table I's codec throughput, the scale sweep's wall time) go to stderr.
//
// The solution-frontier, co-tenant and membership reports gate their
// findings: each failed check prints one "figures: <name>: FAILED <what>"
// line on stderr.
//
// Exit code 0 on success; 1 when a case fails (at once) or a gate fails
// (after every named report has printed); 2 on an unknown or repeated
// name, no name, or a bad key (one stderr line each).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/common/format.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/common/suggest.hpp"
#include "mdwf/common/table.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/md/frame.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/workflow/config.hpp"

namespace {

using namespace mdwf;
using workflow::EnsembleConfig;
using workflow::EnsembleResult;
using workflow::Placement;
using workflow::Solution;

// Named ensemble configuration (one bar group or grid point of a figure).
using Case = sweep::SweepPoint;

// One figure's bound cases and, once they ran, the sweep over them (one
// point per case, in case order).
struct Run {
  std::string_view name;
  std::vector<Case> cases;
  sweep::SweepResult sweep;

  const sweep::PointResult& point(const std::string& label) const {
    const auto it =
        std::ranges::find(sweep.points, label, &sweep::PointResult::label);
    MDWF_ASSERT_MSG(it != sweep.points.end(), "figure case did not run");
    return *it;
  }
  const EnsembleResult& at(const std::string& label) const {
    return point(label).result;
  }
};

// One check of a report's finding; a failed one prints
// "figures: <name>: FAILED <what>" on stderr.
bool gate(const Run& run, bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "figures: %s: FAILED %s\n",
                 std::string(run.name).c_str(), what.c_str());
  }
  return ok;
}

// Per-frame means (us) that headlines compare between cases.
using Metric = double (*)(const EnsembleResult&);
double prod_total(const EnsembleResult& r) { return r.mean_production_us(); }
double cons_total(const EnsembleResult& r) { return r.mean_consumption_us(); }
double prod_move(const EnsembleResult& r) { return r.prod_movement_us.mean(); }
double cons_move(const EnsembleResult& r) { return r.cons_movement_us.mean(); }

// Builds a standard ensemble config (10 repetitions, base seed 1).
EnsembleConfig make_config(Solution solution, std::uint32_t pairs,
                           std::uint32_t nodes, md::MolecularModel model,
                           std::uint64_t stride, std::uint64_t frames = 128) {
  EnsembleConfig c;
  c.solution = solution;
  c.pairs = pairs;
  c.nodes = nodes;
  c.workload.model = model;
  c.workload.stride = stride;
  c.workload.frames = frames;
  c.repetitions = 10;
  c.base_seed = 1;
  return c;
}

// A config bound from key=value pairs exactly as mdwf_run binds them, over
// its two-node default: every cross-key rule applies (XFS single-node,
// retry-on-faults, integrity auto-enable).
EnsembleConfig bind(
    std::initializer_list<std::pair<const char*, std::string>> keys) {
  KeyValueConfig cfg;
  for (const auto& [key, value] : keys) cfg.set(key, value);
  EnsembleConfig defaults;
  defaults.nodes = 2;
  return workflow::parse_ensemble_config(cfg, defaults);
}

// Every solution x every axis point, solution-major, labelled
// "<Solution>/<name(point)>"; `make(solution, point)` builds the config.
template <typename Axis, typename Name, typename Make>
std::vector<Case> grid(std::initializer_list<Solution> solutions,
                       const Axis& axis, Name name, Make make) {
  std::vector<Case> cases;
  for (const Solution s : solutions) {
    for (const auto& point : axis) {
      cases.push_back({std::string(workflow::to_string(s)) + "/" + name(point),
                       make(s, point)});
    }
  }
  return cases;
}

// Axis names: "<key>=<value>" for a numeric sweep, the model name for a
// model sweep.
auto keyed(const char* key) {
  return [key](std::uint64_t v) {
    return std::string(key) + "=" + std::to_string(v);
  };
}
std::string model_name(const md::MolecularModel& m) {
  return std::string(m.name);
}

double safe_ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// How much larger `num` is than `den`, in percent, as text.
std::string pct_over(double num, double den, int decimals) {
  return format_double((safe_ratio(num, den) - 1.0) * 100.0, decimals);
}

std::string pm(double mean, double std, double scale, int decimals) {
  return format_double(mean / scale, decimals) + " +/- " +
         format_double(std / scale, decimals);
}

// Production (a) or consumption (b) table in the paper's decomposition:
// data movement vs idle, mean +/- std over repetitions.  `in_ms` selects
// milliseconds (consumption) vs microseconds (production).
void print_panel(const std::string& title, const Run& run, bool production,
                 bool in_ms) {
  const double scale = in_ms ? 1000.0 : 1.0;
  const char* unit = in_ms ? "ms" : "us";
  TextTable t({"case", std::string("movement (") + unit + ")",
               std::string("idle (") + unit + ")",
               std::string("total (") + unit + ")"});
  for (const auto& c : run.cases) {
    const auto& r = run.at(c.label);
    const auto& move = production ? r.prod_movement_us : r.cons_movement_us;
    const auto& idle = production ? r.prod_idle_us : r.cons_idle_us;
    t.add_row({c.label, pm(move.mean(), move.stddev(), scale, 2),
               pm(idle.mean(), idle.stddev(), scale, 2),
               format_double((move.mean() + idle.mean()) / scale, 2)});
  }
  std::printf("\n%s\n%s", title.c_str(), t.render().c_str());
}

// One headline comparison line: "<name>: measured Rx (paper: Px)".
void print_headline(const std::string& name, double measured_ratio,
                    const std::string& paper_value) {
  std::printf("  %-58s measured %6.1fx   (paper: %s)\n", name.c_str(),
              measured_ratio, paper_value.c_str());
}

// A headline ratio between two cases: metric(num) / metric(den).
void print_ratio(const Run& run, const std::string& name, Metric metric,
                 const std::string& num, const std::string& den,
                 const std::string& paper_value) {
  print_headline(name, safe_ratio(metric(run.at(num)), metric(run.at(den))),
                 paper_value);
}

// Table I: targeted molecular models — atoms, frame size, steps/second —
// plus measured serialization throughput of the real frame codec.
//
// The table rows are reproduced from the model registry; the measured part
// is the actual (wall-clock) serialize/deserialize rate for each model's
// frame, which the simulated serialize_bps parameter is calibrated against.
// It depends on the host, so it goes to stderr.

// MiB/s of `op` over `bytes`, timed with a steady-clock loop of at least
// 100 ms (a single pass for the STMV frames).
template <typename Op>
double mib_per_s(std::size_t bytes, Op op) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::size_t passes = 0;
  std::chrono::duration<double> elapsed{};
  for (; elapsed < std::chrono::milliseconds(100); ++passes) {
    op();
    elapsed = Clock::now() - start;
  }
  return static_cast<double>(bytes * passes) / (1 << 20) / elapsed.count();
}

void table1_report(const Run&) {
  TextTable t({"Name", "Num Atoms", "Frame size", "Steps/second",
               "serialized size (measured)"});
  for (const auto& m : md::kAllModels) {
    const md::Frame f =
        md::synthesize_frame(std::string(m.name), m.atoms, 0, 1);
    const auto buf = f.serialize();
    std::fprintf(stderr,
                 "table1_models: %-9s serialize %7.1f MiB/s, deserialize "
                 "%7.1f MiB/s\n",
                 std::string(m.name).c_str(),
                 mib_per_s(buf.size(), [&] { (void)f.serialize(); }),
                 mib_per_s(buf.size(),
                           [&] { (void)md::Frame::deserialize(buf); }));
    t.add_row({std::string(m.name), std::to_string(m.atoms),
               format_bytes(m.frame_bytes()), format_double(m.steps_per_second),
               format_bytes(f.serialized_size())});
  }
  std::printf("\nTable I: targeted molecular models\n%s", t.render().c_str());
  std::printf(
      "(paper: JAC 644.21 KiB, ApoA1 2.46 MiB, F1 ATPase 8.75 MiB, STMV "
      "28.48 MiB at 28 B/atom)\n");
}

// Table II: stride for each molecular model — steps/second, ms/step,
// stride, and resulting frame frequency — plus a simulated validation that
// producers emit frames at the same wall frequency for every model.

// The achieved frame period of a 1-pair DYAD run per model; the paper's
// premise is that the Table II strides equalize data-generation frequency
// across models.
std::vector<Case> table2_cases() {
  return grid({Solution::kDyad}, md::kAllModels, model_name,
              [](Solution s, const md::MolecularModel& m) {
                auto c = make_config(s, /*pairs=*/1, /*nodes=*/2, m, m.stride,
                                     /*frames=*/16);
                c.repetitions = 2;
                return c;
              });
}

void table2_report(const Run& run) {
  TextTable t({"Name", "Steps/second", "ms/step", "Stride", "Frequency (s)"});
  for (const auto& m : md::kAllModels) {
    t.add_row({std::string(m.name), format_double(m.steps_per_second),
               format_double(m.ms_per_step()), std::to_string(m.stride),
               format_double(m.frame_period_seconds())});
  }
  std::printf("\nTable II: stride for each molecular model\n%s",
              t.render().c_str());
  std::printf("(paper: all frequencies equal at 0.82 s)\n");
  // Producer-side makespan per frame approximates the emission period.
  std::printf("achieved frame period (1 pair, 2 nodes, makespan / frames):\n");
  for (const auto& c : run.cases) {
    std::printf("  %-14s %.3f s\n", c.label.c_str(),
                run.at(c.label).makespan_s.mean() /
                    static_cast<double>(c.config.workload.frames));
  }
}

// Figure 5: single-node ensemble-size scaling, DYAD vs XFS, JAC model.
//
// Paper setup (Sec. IV-D): one node, 1/2/4 producer-consumer pairs, JAC with
// stride 880, 128 frames per pair, 10 runs.  Lustre is excluded on a single
// node (as in the paper).  Findings reproduced:
//   (a) production: DYAD ~1.4x slower than XFS (global namespace
//       management), linear growth with ensemble size, no significant idle;
//   (b) consumption: DYAD ~192.9x faster overall than XFS thanks to
//       multi-protocol synchronization (KVS first touch, flock afterwards).

std::vector<Case> fig5_cases() {
  return grid({Solution::kDyad, Solution::kXfs}, std::array{1u, 2u, 4u},
              keyed("pairs"), [](Solution s, std::uint32_t pairs) {
                return make_config(s, pairs, /*nodes=*/1, md::kJac,
                                   md::kJac.stride);
              });
}

void fig5_report(const Run& run) {
  print_panel("Fig 5(a): data production time per frame (single node, JAC)",
              run, /*production=*/true, /*in_ms=*/false);
  // The paper's bars aggregate over the ensemble; per-pair cost is flat, so
  // the aggregate grows linearly with ensemble size ("adding more
  // concurrent ensembles linearly increases the time").
  std::printf("\nFig 5(a) aggregate production time across the ensemble:\n");
  for (const auto& c : run.cases) {
    std::printf("  %-14s %10.1f us (pairs x per-frame)\n", c.label.c_str(),
                prod_total(run.at(c.label)) *
                    static_cast<double>(c.config.pairs));
  }
  print_panel("Fig 5(b): data consumption time per frame (single node, JAC)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines (4-pair point):\n");
  print_ratio(run, "DYAD production slowdown vs XFS", prod_total,
              "DYAD/pairs=4", "XFS/pairs=4", "1.4x slower");
  print_ratio(run, "DYAD consumption speedup vs XFS (overall)", cons_total,
              "XFS/pairs=4", "DYAD/pairs=4", "192.9x faster");
  print_ratio(run, "DYAD consumption movement vs XFS movement", cons_move,
              "DYAD/pairs=4", "XFS/pairs=4", "1.4x slower");
}

// Figure 6: two-node small-scale distributed ensemble, DYAD vs Lustre, JAC.
//
// Paper setup (Sec. IV-D): producers on node 1, consumers on node 2;
// 1/2/4/8 pairs; JAC, stride 880, 128 frames, 10 runs.  XFS cannot span
// nodes, so Lustre is the traditional-I/O baseline.  Findings reproduced:
//   (a) DYAD producer data movement ~7.5x faster than Lustre (node-local
//       storage vs off-node parallel filesystem);
//   (b) DYAD consumer data movement ~6.9x faster; overall consumption
//       ~197.4x faster; and DYAD's two-node times mirror its single-node
//       times (network communication between two nodes is cheap).

std::vector<Case> fig6_cases() {
  auto cases = grid({Solution::kDyad, Solution::kLustre},
                    std::array{1u, 2u, 4u, 8u}, keyed("pairs"),
                    [](Solution s, std::uint32_t pairs) {
                      return make_config(s, pairs, /*nodes=*/2, md::kJac,
                                         md::kJac.stride);
                    });
  // DYAD single-node reference (Finding 2: distribution has little effect).
  cases.push_back({"DYAD-1node/pairs=4", make_config(Solution::kDyad, 4, 1,
                                                     md::kJac,
                                                     md::kJac.stride)});
  return cases;
}

void fig6_report(const Run& run) {
  print_panel("Fig 6(a): data production time per frame (two nodes, JAC)",
              run, /*production=*/true, /*in_ms=*/false);
  print_panel("Fig 6(b): data consumption time per frame (two nodes, JAC)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines (8-pair point unless noted):\n");
  print_ratio(run, "DYAD producer movement speedup vs Lustre", prod_move,
              "Lustre/pairs=8", "DYAD/pairs=8", "7.5x faster");
  print_ratio(run, "DYAD consumer movement speedup vs Lustre", cons_move,
              "Lustre/pairs=8", "DYAD/pairs=8", "6.9x faster");
  print_ratio(run, "DYAD overall consumption speedup vs Lustre", cons_total,
              "Lustre/pairs=8", "DYAD/pairs=8", "197.4x faster");
  print_ratio(run, "DYAD two-node vs single-node production (4 pairs)",
              prod_total, "DYAD/pairs=4", "DYAD-1node/pairs=4",
              "~1x (little effect)");
}

// Figure 7: multi-node ensemble-size scaling, DYAD vs Lustre, JAC.
//
// Paper setup (Sec. IV-D): 2..64 nodes split evenly between producers and
// consumers, 8 ranks per node (8/16/32/64/128/256 pairs), JAC, stride 880.
// Lustre additionally sees background interference from other cluster
// tenants at scale (the paper attributes its 128/256-pair variability to
// this).  Findings reproduced:
//   (a) production flat with ensemble size; DYAD ~5.3x faster movement;
//       Lustre more variable at 128/256 pairs;
//   (b) DYAD consumer movement ~5.8x faster; overall ~192.0x faster.
//
// Runs on the parallel replica runner (mdwf::sweep): threads=N fans each
// case's 10 seeded repetitions across N workers with byte-identical tables.

std::vector<Case> fig7_cases() {
  return grid({Solution::kDyad, Solution::kLustre},
              std::array{8u, 16u, 32u, 64u, 128u, 256u}, keyed("pairs"),
              [](Solution s, std::uint32_t pairs) {
                // 128 frames, matching the paper, even at 256 pairs.
                auto c = make_config(s, pairs, /*nodes=*/pairs / 4, md::kJac,
                                     md::kJac.stride);  // 8 ranks per node
                c.lustre_interference = s == Solution::kLustre;
                return c;
              });
}

void fig7_report(const Run& run) {
  print_panel("Fig 7(a): data production time per frame (multi-node, JAC)",
              run, /*production=*/true, /*in_ms=*/false);
  print_panel("Fig 7(b): data consumption time per frame (multi-node, JAC)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines (256-pair point):\n");
  print_ratio(run, "DYAD producer movement speedup vs Lustre", prod_move,
              "Lustre/pairs=256", "DYAD/pairs=256", "5.3x faster");
  print_ratio(run, "DYAD consumer movement speedup vs Lustre", cons_move,
              "Lustre/pairs=256", "DYAD/pairs=256", "5.8x faster");
  print_ratio(run, "DYAD overall consumption speedup vs Lustre", cons_total,
              "Lustre/pairs=256", "DYAD/pairs=256", "192.0x faster");

  std::printf(
      "  Run-to-run production variability at 256 pairs: DYAD %.2f us, "
      "Lustre %.2f us (paper: Lustre more variable)\n",
      run.at("DYAD/pairs=256").prod_movement_us.stddev(),
      run.at("Lustre/pairs=256").prod_movement_us.stddev());
}

// Figure 8: molecular-model size scaling, DYAD vs Lustre.
//
// Paper setup (Sec. IV-E): 2 nodes, 16 producer-consumer pairs, four
// molecular models (JAC, ApoA1, F1 ATPase, STMV) with the Table II strides
// so every model produces a frame every ~0.82 s.  Findings reproduced:
//   (a) production time grows with model size for both; the absolute gap
//       widens (paper: DYAD 2.1x..6.3x faster, larger ratio for smaller
//       models whose fixed RPC overheads dominate);
//   (b) DYAD's consumption movement advantage with larger frames
//       (node-local staging + RDMA vs shared OSTs), overall 121x..333.8x.
//
// Runs on the parallel replica runner (mdwf::sweep): threads=N fans each
// case's 10 seeded repetitions across N workers with byte-identical tables.

// The Fig. 8 configuration per model, which Figs. 9-10 analyze as well.
std::vector<Case> model_cases(std::initializer_list<Solution> solutions,
                              std::span<const md::MolecularModel> models) {
  return grid(solutions, models, model_name,
              [](Solution s, const md::MolecularModel& m) {
                return make_config(s, /*pairs=*/16, /*nodes=*/2, m, m.stride);
              });
}

std::vector<Case> fig8_cases() {
  return model_cases({Solution::kDyad, Solution::kLustre}, md::kAllModels);
}

void fig8_report(const Run& run) {
  print_panel("Fig 8(a): data production time per frame (2 nodes, 16 pairs)",
              run, /*production=*/true, /*in_ms=*/true);
  print_panel("Fig 8(b): data consumption time per frame (2 nodes, 16 pairs)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines:\n");
  for (const auto& model : md::kAllModels) {
    const std::string name(model.name);
    print_ratio(run, "production speedup DYAD vs Lustre, " + name, prod_total,
                "Lustre/" + name, "DYAD/" + name, "2.1x..6.3x across models");
    print_ratio(run, "consumption movement speedup DYAD vs Lustre, " + name,
                cons_move, "Lustre/" + name, "DYAD/" + name,
                "1.6x..6.0x across models");
    print_ratio(run, "overall consumption speedup DYAD vs Lustre, " + name,
                cons_total, "Lustre/" + name, "DYAD/" + name,
                "121.0x..333.8x across models");
  }
}

constexpr md::MolecularModel kJacStmv[] = {md::kJac, md::kStmv};

// Mean inclusive time of the node at each of `paths`, summed.
double node_us(const perf::StatTree& t,
               std::initializer_list<std::string> paths) {
  double sum = 0.0;
  for (const auto& path : paths) {
    const auto* n = t.find(path);
    sum += n == nullptr ? 0.0 : n->inclusive_us.mean();
  }
  return sum;
}

// Figs. 9-10 share one call-tree report: the aggregated consumer call tree
// of each case -- JAC as panel (a), STMV as (b) -- then the data-volume
// headline and the STMV/JAC movement cost summed over `move_paths`.
// Returns the trees, in that order, for the figure's own headlines.
std::vector<perf::StatTree> print_call_trees(
    const Run& run, int figure, Solution solution, const std::string& move,
    std::initializer_list<std::string> move_paths, const std::string& paper) {
  std::vector<perf::StatTree> trees;
  for (const auto& c : run.cases) {
    auto agg = run.at(c.label).thicket.filter("role", "consumer").aggregate();
    std::printf("\nFig %d(%c): %s consumer call tree, %s\n", figure,
                static_cast<char>('a' + trees.size()),
                std::string(workflow::to_string(solution)).c_str(),
                c.label.c_str());
    std::printf("%s", agg.render().c_str());
    trees.push_back(std::move(agg));
  }
  std::printf("\nHeadlines:\n");
  print_headline("STMV/JAC data volume", 45.3, "45.3x");
  print_headline(move,
                 safe_ratio(node_us(trees.at(1), move_paths),
                            node_us(trees.at(0), move_paths)),
                 paper);
  return trees;
}

// Figure 9: Thicket call-tree analysis of DYAD, JAC vs STMV.
//
// Paper setup (Sec. IV-E, Fig. 9): the Fig. 8 configuration (2 nodes,
// 16 pairs) analyzed with Thicket.  The consumer call tree is
//   consume / dyad_consume / {dyad_fetch, dyad_get_data, dyad_cons_store,
//                             read_single_buf}
// Findings reproduced:
//   - STMV moves 45.3x more data than JAC but dyad_get_data+dyad_cons_store
//     grows far less than 45.3x (DYAD data movement scales well);
//   - dyad_fetch (KVS synchronization) is ~2.1x *cheaper* for STMV: the
//     consumer arrives later relative to the producer's commit, so the
//     metadata is already visible and fewer lookup/watch rounds hit the KVS.

std::vector<Case> fig9_cases() {
  return model_cases({Solution::kDyad}, kJacStmv);
}

// Steady-state per-call cost: excludes the single cold-start call (the
// first-frame KVS wait), as the paper's warm-pipeline trees reflect.
double steady_us(const perf::StatTree& t, const std::string& path) {
  const auto* n = t.find(path);
  return n == nullptr ? 0.0 : n->steady_per_call_us();
}

void fig9_report(const Run& run) {
  const std::string base = "consume/dyad_consume/";
  const auto trees = print_call_trees(
      run, 9, Solution::kDyad, "STMV/JAC DYAD movement cost (get+store+read)",
      {base + "dyad_get_data", base + "dyad_cons_store",
       base + "read_single_buf"},
      "33.6x (less than the 45.3x data growth)");
  print_headline(
      "steady-state dyad_fetch JAC/STMV (KVS stress reduction)",
      safe_ratio(steady_us(trees.at(0), base + "dyad_fetch"),
                 steady_us(trees.at(1), base + "dyad_fetch")),
      "2.1x cheaper for STMV (consumer arrives after visibility)");
}

// Figure 10: Thicket call-tree analysis of Lustre, JAC vs STMV.
//
// Paper setup (Sec. IV-E, Fig. 10): the Fig. 8 configuration analyzed with
// Thicket.  The Lustre consumer call tree is
//   consume / {explicit_sync, FilesystemReader::read_single_buf}
// Findings reproduced:
//   - data movement (read_single_buf) grows ~12.3x for 45.3x more data
//     (Lustre's striping/parallelism absorbs much of the growth);
//   - explicit_sync stays roughly constant (~one frame period) and
//     dominates, capping Lustre's scalability for MD workflows.

std::vector<Case> fig10_cases() {
  return model_cases({Solution::kLustre}, kJacStmv);
}

void fig10_report(const Run& run) {
  const std::string read = "consume/FilesystemReader::read_single_buf";
  const auto trees =
      print_call_trees(run, 10, Solution::kLustre,
                       "STMV/JAC Lustre read_single_buf cost", {read}, "12.3x");
  const double jac_sync = node_us(trees.at(0), {"consume/explicit_sync"});
  const double stmv_sync = node_us(trees.at(1), {"consume/explicit_sync"});
  const double stmv_read = node_us(trees.at(1), {read});
  print_headline("STMV/JAC explicit_sync cost", safe_ratio(stmv_sync, jac_sync),
                 "~1x (constant; limits scalability)");
  print_headline("explicit_sync share of STMV consumption",
                 safe_ratio(stmv_sync, stmv_sync + stmv_read), "dominant");
}

// DYAD vs Lustre on 2 nodes, 16 pairs, over output strides 1/5/10/50.
std::vector<Case> stride_cases(const md::MolecularModel& model,
                               std::uint64_t frames) {
  return grid({Solution::kDyad, Solution::kLustre},
              std::array<std::uint64_t, 4>{1, 5, 10, 50}, keyed("stride"),
              [&](Solution s, std::uint64_t stride) {
                return make_config(s, 16, 2, model, stride, frames);
              });
}

void print_stride_gaps(const Run& run, const std::string& paper1,
                       const std::string& paper50) {
  print_ratio(run, "overall consumption gap, stride 1", cons_total,
              "Lustre/stride=1", "DYAD/stride=1", paper1);
  print_ratio(run, "overall consumption gap, stride 50", cons_total,
              "Lustre/stride=50", "DYAD/stride=50", paper50);
}

// Figure 11: frame-generation frequency scaling with JAC, DYAD vs Lustre.
//
// Paper setup (Sec. IV-F): 2 nodes, 16 pairs, JAC, strides 1/5/10/50 (an
// output frame every 0.93 ms .. 46.6 ms).  Findings reproduced:
//   (a) data movement flat across strides; DYAD ~4.8x faster production;
//   (b) idle grows with stride for both solutions, DYAD's stays far
//       smaller (adaptive synchronization), so the overall gap widens with
//       stride.

std::vector<Case> fig11_cases() { return stride_cases(md::kJac, 128); }

void fig11_report(const Run& run) {
  print_panel("Fig 11(a): data production time per frame (JAC, 16 pairs)",
              run, /*production=*/true, /*in_ms=*/false);
  print_panel("Fig 11(b): data consumption time per frame (JAC, 16 pairs)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines:\n");
  print_ratio(run, "DYAD production speedup vs Lustre (stride 10)", prod_total,
              "Lustre/stride=10", "DYAD/stride=10", "4.8x faster");
  print_ratio(run, "DYAD consumption movement speedup (stride 10)", cons_move,
              "Lustre/stride=10", "DYAD/stride=10", "4.8x faster");
  print_stride_gaps(run, "gap widens with stride", "gap widens with stride");
}

// Figure 12: frame-generation frequency scaling with STMV, DYAD vs Lustre.
//
// Paper setup (Sec. IV-F): 2 nodes, 16 pairs, STMV, strides 1/5/10/50 (a
// 28.5 MiB frame every 29 ms .. 1.46 s).  Findings reproduced:
//   (a) DYAD production ~2.0x faster than Lustre (bulk bandwidth matters
//       more than fixed overheads for the large frames);
//   (b) DYAD's data movement improves at higher strides (less network
//       contention between back-to-back transfers); DYAD overall 13x..192x
//       faster, the gap widening with stride.

// 28.5 MiB frames every few ms make stride-1 runs event-heavy; 64 frames
// keep the sweep tractable without changing per-frame behaviour.
std::vector<Case> fig12_cases() { return stride_cases(md::kStmv, 64); }

void fig12_report(const Run& run) {
  print_panel("Fig 12(a): data production time per frame (STMV, 16 pairs)",
              run, /*production=*/true, /*in_ms=*/true);
  print_panel("Fig 12(b): data consumption time per frame (STMV, 16 pairs)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines:\n");
  print_ratio(run, "DYAD production speedup vs Lustre (stride 10)", prod_total,
              "Lustre/stride=10", "DYAD/stride=10", "2.0x faster");
  print_ratio(run, "DYAD movement, stride 1 vs stride 50 (network contention)",
              cons_move, "DYAD/stride=1", "DYAD/stride=50",
              "up to 1.4x better at high stride");
  print_stride_gaps(run, "13.0x", "192.2x");
}

// Ablation: synchronization protocol (DESIGN.md Sec. 3).
//
// Quantifies the two synchronization mechanisms the paper credits for
// DYAD's consumption advantage, on the single-node JAC configuration:
//
//   DYAD (multi-protocol) - KVS first touch, flock afterwards (default);
//   DYAD (KVS-only)       - warm flock path disabled; every consume pays a
//                           KVS lookup round (and the staging copy);
//   XFS  (coarse-grained) - manual barrier sync, serialized iterations.
//
// Expected ordering: multi-protocol < KVS-only << coarse-grained.

std::vector<Case> ablation_sync_cases() {
  const auto jac = [](Solution s) {
    return make_config(s, 4, 1, md::kJac, md::kJac.stride);
  };
  Case kvs_only{"DYAD-kvs-only", jac(Solution::kDyad)};
  kvs_only.config.testbed.dyad.force_kvs_sync = true;
  return {{"DYAD-multiprotocol", jac(Solution::kDyad)},
          kvs_only,
          {"XFS-coarse", jac(Solution::kXfs)}};
}

void ablation_sync_report(const Run& run) {
  print_panel("Ablation: synchronization protocol, consumption per frame "
              "(single node, JAC, 4 pairs)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines:\n");
  print_ratio(run, "KVS-only consume *movement* vs multi-protocol", cons_move,
              "DYAD-kvs-only", "DYAD-multiprotocol",
              "warm flock path saves per-frame KVS rounds");
  print_ratio(run, "coarse-grained cost vs multi-protocol", cons_total,
              "XFS-coarse", "DYAD-multiprotocol",
              "serialization dominates everything else");
  print_ratio(run, "coarse-grained cost vs KVS-only", cons_total, "XFS-coarse",
              "DYAD-kvs-only", "even unoptimized auto-sync beats manual sync");
}

// Ablation: storage path (DESIGN.md Sec. 3).
//
// Quantifies DYAD's storage design choices on the two-node STMV
// configuration (large frames stress the data path):
//
//   DYAD (default)     - buffered node-local staging (burst-buffer style);
//   DYAD (direct I/O)  - node-local staging with the page cache bypassed
//                        (every byte hits the NVMe twice on the consumer);
//   DYAD (no staging)  - consume the RDMA stream in place, no local copy;
//   Lustre             - all bytes through the shared parallel filesystem.
//
// Expected: no-staging < default < direct-IO << Lustre for movement; the
// default's extra copy buys re-read locality at modest cost.

std::vector<Case> ablation_storage_cases() {
  const auto stmv = [](Solution s) {
    return make_config(s, 8, 2, md::kStmv, md::kStmv.stride, /*frames=*/64);
  };
  Case direct{"DYAD-direct-io", stmv(Solution::kDyad)};
  direct.config.testbed.local_fs.direct_io = true;
  Case no_staging{"DYAD-no-staging", stmv(Solution::kDyad)};
  no_staging.config.testbed.dyad.skip_consumer_staging = true;
  Case push{"DYAD-push-mode", stmv(Solution::kDyad)};
  push.config.testbed.dyad.push_mode = true;
  return {{"DYAD-buffered", stmv(Solution::kDyad)},
          direct,
          no_staging,
          push,
          {"Lustre", stmv(Solution::kLustre)}};
}

void ablation_storage_report(const Run& run) {
  print_panel("Ablation: storage path, production per frame (2 nodes, STMV, "
              "8 pairs)",
              run, /*production=*/true, /*in_ms=*/true);
  print_panel("Ablation: storage path, consumption per frame (2 nodes, STMV, "
              "8 pairs)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines (consumption movement):\n");
  print_ratio(run, "direct-IO staging cost vs buffered", cons_move,
              "DYAD-direct-io", "DYAD-buffered",
              "page cache absorbs the staging copy");
  print_ratio(run, "buffered staging cost vs no staging", cons_move,
              "DYAD-buffered", "DYAD-no-staging",
              "the local copy is cheap insurance");
  print_ratio(run, "Lustre movement vs DYAD buffered", cons_move, "Lustre",
              "DYAD-buffered", "node-local staging wins");
  print_ratio(run, "pull movement vs push-mode movement", cons_move,
              "DYAD-buffered", "DYAD-push-mode",
              "pushing overlaps the transfer with MD compute");
}

// Ablation: in-situ vs in-transit analytics placement (DESIGN.md Sec. 3).
//
// The paper's reference workload places analytics on dedicated nodes
// ("in transit" over the fabric); its motivating prior work [Taufer et al.
// 2019] also studies in-situ placement where each consumer shares its
// producer's node.  This ablation quantifies that trade on the simulated
// testbed for JAC and STMV:
//
//   DYAD in-situ     - colocated pairs, flock warm path, zero fabric bytes;
//   DYAD in-transit  - split nodes, KVS + RDMA pull (the paper's config);
//   XFS  in-situ     - colocated with coarse manual sync (baseline).
//
// In-situ saves the transfer but steals cores/memory bandwidth from the
// simulation in real systems; the simulator prices only the data path, so
// the output quantifies the movement side of the trade.

std::vector<Case> ablation_placement_cases() {
  std::vector<Case> cases;
  for (const auto& model : kJacStmv) {
    const std::string m(model.name);
    const auto config = [&](Solution s, Placement p) {
      auto c = make_config(s, 8, 2, model, model.stride, /*frames=*/64);
      c.placement = p;
      return c;
    };
    cases.push_back({"DYAD-insitu/" + m,
                     config(Solution::kDyad, Placement::kColocated)});
    cases.push_back({"DYAD-intransit/" + m,
                     config(Solution::kDyad, Placement::kSplit)});
    cases.push_back({"XFS-insitu/" + m,
                     config(Solution::kXfs, Placement::kColocated)});
  }
  return cases;
}

void ablation_placement_report(const Run& run) {
  print_panel("Ablation: placement, consumption per frame (8 pairs)", run,
              /*production=*/false, /*in_ms=*/true);
  std::printf("\nHeadlines (consumption movement):\n");
  for (const std::string m : {"JAC", "STMV"}) {
    print_ratio(run, "in-transit cost vs in-situ, " + m, cons_move,
                "DYAD-intransit/" + m, "DYAD-insitu/" + m,
                "fabric pull vs local flock");
  }
  print_ratio(run, "DYAD in-situ vs XFS in-situ (overall, JAC)", cons_total,
              "XFS-insitu/JAC", "DYAD-insitu/JAC",
              "automatic sync still wins colocated");
}

// Ablation: in-situ data reduction (DESIGN.md Sec. 3; paper Sec. II-B).
//
// Producers compress frames before moving them; consumers decompress.  The
// ~1.9x ratio is assumed for real MD frames, not measured (the codec gives
// 3.28-3.29x on synthesized Table I frames; see
// WorkloadConfig::compression_ratio).  Whether that pays depends on which
// side is the bottleneck:
//
//   Lustre + STMV  - movement-bound (network + OST): compression should
//                    shrink the dominant cost;
//   DYAD + JAC     - already CPU/RPC-bound: codec time is pure overhead.
//
// Measured with 2 nodes, 8 pairs, Table II strides.

struct Reduction {
  md::MolecularModel model;
  bool compress;
};

std::vector<Case> ablation_reduction_cases() {
  constexpr Reduction kPoints[] = {{md::kJac, false},
                                   {md::kJac, true},
                                   {md::kStmv, false},
                                   {md::kStmv, true}};
  return grid(
      {Solution::kDyad, Solution::kLustre}, kPoints,
      [](const Reduction& p) {
        return std::string(p.model.name) +
               (p.compress ? "/compressed" : "/raw");
      },
      [](Solution s, const Reduction& p) {
        auto c = make_config(s, 8, 2, p.model, p.model.stride, /*frames=*/64);
        c.workload.compress = p.compress;
        return c;
      });
}

void ablation_reduction_report(const Run& run) {
  print_panel("Ablation: data reduction, production per frame (8 pairs)",
              run, /*production=*/true, /*in_ms=*/true);
  print_panel("Ablation: data reduction, consumption per frame (8 pairs)",
              run, /*production=*/false, /*in_ms=*/true);

  std::printf("\nHeadlines (movement time, raw vs compressed):\n");
  for (const std::string combo :
       {"DYAD/JAC", "DYAD/STMV", "Lustre/JAC", "Lustre/STMV"}) {
    const auto& raw = run.at(combo + "/raw");
    const auto& comp = run.at(combo + "/compressed");
    print_headline("movement saved by compression, " + combo,
                   safe_ratio(cons_move(raw) + prod_move(raw),
                              cons_move(comp) + prod_move(comp)),
                   "wins where movement-bound, loses elsewhere (codec CPU "
                   "not shown here)");
  }
}

// Resilience sweep: producer-consumer makespan under injected faults.
//
// Runs on the parallel replica runner (mdwf::sweep): threads=N fans each
// scenario's seeded repetitions across N workers with byte-identical tables.
//
// A what-if study the paper never ran: how do DYAD (with its recovery
// protocol enabled), colocated XFS, Lustre, and the streaming data plane
// respond when the cluster misbehaves?  Each named fault scenario
// (mdwf/fault/plan.hpp) is applied to the same small JAC ensemble on every
// solution:
//
//   none           healthy baseline
//   broker-outage  the Flux KVS broker dies briefly and loses pending
//                  commits — only DYAD depends on the broker, and only its
//                  retry/re-publish protocol carries it through
//   slow-nvme      every node SSD at 30% bandwidth — hits the node-local
//                  solutions (DYAD, XFS) where they live
//   ost-storm      recurring heavy load on random OSTs — hits Lustre's
//                  data path and DYAD's background write-through only
//   flaky-fabric   recurring NIC degradation episodes — hits anything that
//                  moves bytes between nodes
//   node-crash     node 0 loses power mid-run: torn writes, dropped page
//                  cache, ranks restart from their checkpoint
//   bit-flip       nonzero silent-corruption rates everywhere; consumers
//                  verify CRC32C tags and re-fetch corrupt frames
//   crash-flip     both at once (the crash-recovery acceptance scenario);
//                  the delta vs "none" is the recovered-run overhead

const std::vector<std::string> kScenarios = {
    "none",         "broker-outage", "slow-nvme", "ost-storm",
    "flaky-fabric", "node-crash",    "bit-flip",  "crash-flip"};

constexpr Solution kAllSolutions[] = {Solution::kDyad, Solution::kXfs,
                                      Solution::kLustre, Solution::kStream};

bool crash_or_flip(const std::string& scenario) {
  return scenario == "node-crash" || scenario == "bit-flip" ||
         scenario == "crash-flip";
}

std::string label_for(Solution solution, const std::string& scenario) {
  return std::string(workflow::to_string(solution)) + "/" + scenario;
}

std::vector<Case> resilience_cases() {
  std::vector<Case> cases;
  for (const auto solution : kAllSolutions) {
    for (const auto& scenario : kScenarios) {
      Case c{label_for(solution, scenario),
             make_config(solution, /*pairs=*/2, /*nodes=*/2, md::kJac,
                         md::kJac.stride, /*frames=*/16)};
      c.config.repetitions = 2;
      if (solution == Solution::kXfs) {
        c.config.placement = Placement::kColocated;
      }
      fault::ScenarioShape shape;
      shape.compute_nodes = c.config.nodes;
      shape.ost_count = c.config.testbed.lustre.ost_count;
      shape.seed = c.config.base_seed;
      c.config.testbed.faults = fault::make_scenario(scenario, shape);
      // DYAD runs with the full recovery protocol; XFS and Lustre have no
      // broker dependence and need no retry to survive these scenarios.
      if (solution == Solution::kDyad) {
        c.config.testbed.dyad.retry.enabled = true;
      }
      // Crash/corruption scenarios run with end-to-end checksums on (every
      // solution must deliver the complete verified frame set); checkpoints
      // auto-enable off the crash windows.
      if (crash_or_flip(scenario)) {
        c.config.testbed.integrity.enabled = true;
      }
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

void resilience_report(const Run& run) {
  std::printf(
      "\nResilience sweep: makespan under fault injection "
      "(JAC, 2 pairs, 2 nodes, 16 frames)\n\n");
  TextTable t({"scenario", "DYAD", "XFS", "Lustre", "Stream",
               "DYAD recovery"});
  for (const auto& scenario : kScenarios) {
    auto cell = [&](Solution s) {
      const auto& r = run.at(label_for(s, scenario));
      return format_double(r.makespan_s.mean(), 3) + " s";
    };
    const auto& dyad = run.at(label_for(Solution::kDyad, scenario));
    const auto n = [&](const char* counter) {
      return std::to_string(dyad.counters.get(counter));
    };
    const std::string recovery =
        crash_or_flip(scenario)
            ? n("crash_recoveries") + " restarts, " + n("frames_reexecuted") +
                  " re-executed, " + n("integrity_refetches") + " re-fetches"
            : n("dyad_recovery_retries") + " retries, " +
                  n("dyad_republishes") + " republishes, " +
                  n("dyad_failovers") + " failovers";
    t.add_row({scenario, cell(Solution::kDyad), cell(Solution::kXfs),
               cell(Solution::kLustre), cell(Solution::kStream), recovery});
  }
  std::printf("%s\n", t.render().c_str());

  // Recovered-run overhead: crash-flip vs the fault-free baseline.
  std::printf("recovered-run overhead vs fault-free (makespan):\n");
  for (const auto s : kAllSolutions) {
    const auto& base = run.at(label_for(s, "none"));
    const auto& worst = run.at(label_for(s, "crash-flip"));
    std::printf("  %-6s %s%%  (unrecovered reads: %llu)\n",
                std::string(workflow::to_string(s)).c_str(),
                pct_over(worst.makespan_s.mean(), base.makespan_s.mean(), 1)
                    .c_str(),
                static_cast<unsigned long long>(
                    worst.counters.get("integrity_unrecovered")));
  }
  // Co-tenant resilience: the same DYAD victim, but the crash-flip chaos
  // now runs in a NEIGHBOR tenant on a shared testbed (quotas armed).  The
  // victim's makespan delta vs running solo is the cross-tenant blast
  // radius — the isolation machinery's job is to keep it at noise level
  // while the neighbor itself recovers completely.
  tenant::MultiTenantConfig mc;
  mc.repetitions = 2;
  mc.base_seed = 1;
  tenant::TenantSpec victim;
  victim.name = "victim";
  victim.solution = Solution::kDyad;
  victim.pairs = 2;
  victim.nodes = 2;
  victim.workload.frames = 16;
  mc.tenants.push_back(victim);
  tenant::TenantSpec chaotic = victim;
  chaotic.name = "neighbor";
  chaotic.faults = "crash-flip";
  mc.tenants.push_back(chaotic);
  mc.testbed.integrity.enabled = true;
  const auto co = tenant::run_multi_tenant(mc);

  tenant::MultiTenantConfig solo = mc;
  solo.tenants.resize(1);
  const auto alone = tenant::run_multi_tenant(solo);

  const auto& v = co.tenants[0].result;
  const auto& n = co.tenants[1].result;
  const double solo_s = alone.tenants[0].result.makespan_s.mean();
  std::printf(
      "co-tenant crash-flip (neighbor tenant on a shared testbed, "
      "quotas armed):\n"
      "  victim makespan %s s solo -> %s s co-tenant (%s%% blast "
      "radius)\n"
      "  victim recovery activity: %llu restarts, %llu re-executed "
      "(must be 0)\n"
      "  neighbor recovered: %llu restarts, %llu re-executed, %llu "
      "re-fetches, %llu unrecovered\n",
      format_double(solo_s, 3).c_str(),
      format_double(v.makespan_s.mean(), 3).c_str(),
      pct_over(v.makespan_s.mean(), solo_s, 2).c_str(),
      static_cast<unsigned long long>(v.counters.get("crash_recoveries")),
      static_cast<unsigned long long>(v.counters.get("frames_reexecuted")),
      static_cast<unsigned long long>(n.counters.get("crash_recoveries")),
      static_cast<unsigned long long>(n.counters.get("frames_reexecuted")),
      static_cast<unsigned long long>(n.counters.get("integrity_refetches")),
      static_cast<unsigned long long>(co.shared.get("integrity_unrecovered")));

  std::printf(
      "\nReading guide: broker-outage perturbs only DYAD (its recovery\n"
      "re-publish closes the gap); slow-nvme hits node-local staging;\n"
      "ost-storm hits Lustre; flaky-fabric hits every cross-node byte;\n"
      "node-crash/bit-flip/crash-flip measure checkpoint-restart and\n"
      "checksum re-fetch recovery — every run must still deliver the\n"
      "complete verified frame set.\n");
}

// Paper-scale sweep: the DYAD-vs-Lustre grid at production scale.
//
// The grid doubles pairs from 1 up to 64 with nodes sized for 8 ranks per
// node (split placement: producers on one half, consumers on the other),
// at STMV — the paper's largest model — for both DYAD and Lustre, plus the
// headline points at the paper's full Corona allotment: 120 compute nodes,
// 64 pairs.  The report is the sweep's canonical CSV, which has no
// wall-clock column and so is byte-identical for every thread count, and a
// summary line; the sweep's wall time and events/s go to stderr.  So
//
//   figures scale_sweep threads=1 > a.txt
//   figures scale_sweep threads=4 > b.txt && cmp a.txt b.txt
//
// is the determinism check and the wall-clock ratio is the speedup.

std::vector<Case> scale_cases() {
  std::vector<Case> cases;
  const auto add = [&](Solution s, const std::string& name,
                       std::uint32_t pairs, std::uint32_t nodes) {
    auto c = make_config(s, pairs, nodes, md::kStmv, md::kStmv.stride,
                         /*frames=*/16);
    c.repetitions = 3;
    cases.push_back({name + "/pairs" + std::to_string(pairs) + "/nodes" +
                         std::to_string(nodes),
                     c});
  };
  for (std::uint32_t pairs = 1; pairs <= 64; pairs *= 2) {
    // 8 ranks per node: 4 producer ranks per producer node, consumers
    // mirrored on the other half (split placement needs an even count).
    const std::uint32_t nodes = 2 * std::max(1u, (pairs + 7) / 8);
    add(Solution::kDyad, "dyad", pairs, nodes);
    add(Solution::kLustre, "lustre", pairs, nodes);
  }
  // Paper scale: the full Corona allotment, ranks spread thin.
  add(Solution::kDyad, "dyad-corona", 64, 120);
  add(Solution::kLustre, "lustre-corona", 64, 120);
  return cases;
}

void scale_report(const Run& run) {
  const sweep::SweepResult& r = run.sweep;
  std::printf("\n%sscale_sweep: points=%zu errors=%zu sim_events=%llu\n",
              r.to_csv().c_str(), r.points.size(), r.errors,
              static_cast<unsigned long long>(r.total_sim_events));
  // On a single-core host a "parallel" run measures thread overhead, not
  // speedup; flag it instead of letting a misleading <1x stand.
  const unsigned threads =
      sweep::resolve_threads(run.cases.front().config.threads);
  const unsigned host_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (host_threads == 1 && threads > 1) {
    std::fprintf(stderr,
                 "scale_sweep: warning: single hardware thread; the "
                 "thread-count speedup is not meaningful on this host\n");
  }
  std::fprintf(stderr,
               "scale_sweep: wall_s=%.3f events_per_s=%.0f threads=%u "
               "host_threads=%u\n",
               r.wall_seconds, r.events_per_second(), threads, host_threads);
}

// Four-solution frontier sweep: where does the streaming data plane beat
// DYAD's first-touch sync, and where does it lose?
//
// The grid crosses frame size (model), consumer count (pairs), consumer
// lag (the `analytics=` multiplier: lag > 1 is in-situ analysis slower
// than production), and fault scenario for all four solutions (DYAD, XFS,
// Lustre, stream).  The headline metric is the consumer frame-fetch
// latency distribution: stream wins where frames fit the staging buffer
// (the consumer dodges DYAD's per-frame KVS visibility wait), and loses
// where lagging consumers let the aggregate staging demand
//
//   pairs x credits x frame_bytes  >  buffer_capacity
//
// push puts onto the spill path (a Lustre round trip plus up to one
// arrival-timeout of subscriber blindness per frame).  That inequality is
// the crossover parameter the report names.
//
// The report prints one CSV row per point, then one "frontier:" line per
// (model, pairs, lag, faults) regime comparing stream vs DYAD P99, then a
// summary line.  The CSV excludes wall-clock, so it is byte-identical at
// any thread count.  Gate: both frontier sides are non-empty; an all-win
// or all-lose grid no longer brackets the crossover.

// One frontier regime; each runs all four solutions.
struct Regime {
  std::string model;
  std::string pairs;
  std::string lag;
  std::string faults;
  auto operator<=>(const Regime&) const = default;
};

std::vector<Regime> frontier_regimes() {
  std::vector<Regime> regimes;
  for (const char* model : {"JAC", "STMV"}) {
    for (const char* pairs : {"1", "4", "8"}) {
      for (const char* lag : {"1", "8"}) {
        for (const char* faults : {"none", "lossy-link", "overload"}) {
          regimes.push_back({model, pairs, lag, faults});
        }
      }
    }
  }
  return regimes;
}

std::string frontier_label(Solution s, const Regime& r) {
  return std::string(workflow::solution_key(s)) + "/" + r.model + "/pairs" +
         r.pairs + "/lag" + r.lag + "/" + r.faults;
}

std::vector<Case> frontier_cases() {
  std::vector<Case> cases;
  for (const Regime& r : frontier_regimes()) {
    for (const Solution s : kAllSolutions) {
      cases.push_back(
          {frontier_label(s, r),
           bind({{"solution", std::string(workflow::solution_key(s))},
                 {"model", r.model}, {"pairs", r.pairs},
                 {"analytics", r.lag}, {"frames", "8"}, {"reps", "2"},
                 {"faults", r.faults}})});
    }
  }
  return cases;
}

bool frontier_report(const Run& run) {
  std::printf(
      "\nsolution,model,pairs,nodes,lag,faults,frame_mib,fetch_p50_us,"
      "fetch_p99_us,cons_move_us,cons_idle_us,makespan_s,stream_staged_hits,"
      "stream_spills,stream_spill_reads,stream_credit_waits,"
      "stream_backpressure_stalls,integrity_unrecovered,frames_consumed\n");
  // Regime -> {stream, DYAD} consumer fetch P99 (us), for the frontier.
  std::map<Regime, std::pair<double, double>> p99;
  for (const Regime& regime : frontier_regimes()) {
    for (const Solution s : kAllSolutions) {
      const sweep::PointResult& pt = run.point(frontier_label(s, regime));
      const EnsembleResult& r = pt.result;
      const double fetch_p99 = r.cons_fetch_us.quantile(0.99);
      if (s == Solution::kStream) p99[regime].first = fetch_p99;
      if (s == Solution::kDyad) p99[regime].second = fetch_p99;
      const auto n = [&](const char* counter) {
        return static_cast<unsigned long long>(r.counters.get(counter));
      };
      std::printf(
          "%s,%s,%s,%u,%s,%s,%.3f,%.1f,%.1f,%.1f,%.1f,%.4f,%llu,%llu,%llu,"
          "%llu,%llu,%llu,%llu\n",
          std::string(workflow::solution_key(s)).c_str(),
          regime.model.c_str(), regime.pairs.c_str(), pt.config.nodes,
          regime.lag.c_str(), regime.faults.c_str(),
          pt.config.workload.model.frame_bytes().to_mib(),
          r.cons_fetch_us.quantile(0.50), fetch_p99,
          r.cons_movement_us.mean(), r.cons_idle_us.mean(),
          r.makespan_s.mean(), n("stream_staged_hits"), n("stream_spills"),
          n("stream_spill_reads"), n("stream_credit_waits"),
          n("stream_backpressure_stalls"), n("integrity_unrecovered"),
          n("frames_consumed"));
    }
  }

  // The frontier: stream vs DYAD consumer fetch P99 per regime, annotated
  // with the staging-demand side of the crossover inequality.
  const stream::StreamParams stream_defaults{};
  const double buffer_mib = stream_defaults.buffer_capacity.to_mib();
  std::size_t wins = 0;
  std::size_t losses = 0;
  for (const auto& [regime, stream_dyad] : p99) {
    const auto [stream_p99, dyad_p99] = stream_dyad;
    const double demand_mib =
        std::stod(regime.pairs) * stream_defaults.credits *
        md::find_model(regime.model)->frame_bytes().to_mib();
    const bool win = stream_p99 < dyad_p99;
    (win ? wins : losses) += 1;
    std::printf(
        "frontier: model=%s pairs=%s lag=%s faults=%s stream_p99_us=%.1f "
        "dyad_p99_us=%.1f staging_demand_mib=%.1f buffer_mib=%.1f "
        "winner=%s\n",
        regime.model.c_str(), regime.pairs.c_str(), regime.lag.c_str(),
        regime.faults.c_str(), stream_p99, dyad_p99, demand_mib, buffer_mib,
        win ? "stream" : "dyad");
  }
  std::printf(
      "solution_frontier: points=%zu errors=%zu stream_wins=%zu "
      "stream_losses=%zu sim_events=%llu\n",
      run.sweep.points.size(), run.sweep.errors, wins, losses,
      static_cast<unsigned long long>(run.sweep.total_sim_events));
  return gate(run, wins >= 1 && losses >= 1,
              "the grid no longer brackets the stream/DYAD crossover "
              "(stream_wins=" +
                  std::to_string(wins) +
                  " stream_losses=" + std::to_string(losses) + ")");
}

// Co-tenant frontier: victim tail latency vs neighbor intensity, with and
// without the isolation machinery.
//
// A DYAD victim ensemble shares one testbed with a KVS noise storm of
// growing intensity (0 = solo).  Each intensity runs twice: isolation off
// (no quotas, no SLO guard — the storm queues freely underneath the victim
// at the shared broker) and isolation on (weighted fair-share quotas bound
// the storm's in-flight share; the victim's SLO guard staggers production
// and falls back to Lustre when its fetch-P99 target is breached anyway).
// The frontier is the victim's fetch P99 across that grid: the gap between
// the two curves is what the isolation machinery buys, and the intensity-0
// pair pins the solo overhead (the co-tenant runner must match the classic
// runner exactly when nobody shares — the solo contract).
//
// The figure's one case is that classic run.  The report builds the victim
// from the case's bound config, so frames=, reps=, pairs=, ... size both,
// runs the eight cells, and prints their CSV (no wall-clock, byte-identical
// at any thread count), one "cotenant:" line per cell and a summary line.
// Gates: the victim completes in every cell, isolation improves its P99
// under the heaviest storm at least 2x, and the solo tenant's overhead
// over the classic run stays within 2%.

std::vector<Case> cotenant_cases() {
  auto c = make_config(Solution::kDyad, /*pairs=*/2, /*nodes=*/2, md::kJac,
                       md::kJac.stride, /*frames=*/4);
  c.repetitions = 2;
  c.base_seed = 7;
  return {{"DYAD/classic", c}};
}

// The victim's numbers in one (intensity, isolation) cell of the grid.
struct Cell {
  std::uint32_t intensity = 0;
  bool isolation = false;
  double p99_us = 0.0;
  double makespan_s = 0.0;
  unsigned long long noise_sheds = 0;
  unsigned long long quota_sheds = 0;
  unsigned long long slo_escalations = 0;
  unsigned long long slo_staggered = 0;
  unsigned long long slo_fallback = 0;
};

bool cotenant_report(const Run& run) {
  const Case& classic = run.cases.front();
  const EnsembleConfig& solo = classic.config;
  tenant::TenantSpec victim;
  victim.name = "victim";
  victim.solution = solo.solution;
  victim.pairs = solo.pairs;
  victim.nodes = solo.nodes;
  victim.workload = solo.workload;
  victim.slo_params.fetch_p99_target_us = 4000.0;
  // Short bench runs produce few fetch samples per repetition; trust the
  // window early so the guard can act inside the measured run.
  victim.slo_params.min_samples = 4;
  victim.slo_params.holdoff = Duration::milliseconds(100);
  const std::uint64_t expected = static_cast<std::uint64_t>(solo.pairs) *
                                 solo.workload.frames * solo.repetitions;

  bool ok = true;
  std::vector<Cell> cells;
  for (const std::uint32_t intensity : {0u, 16u, 64u, 128u}) {
    for (const bool isolation : {false, true}) {
      tenant::MultiTenantConfig mc;
      mc.repetitions = solo.repetitions;
      mc.base_seed = solo.base_seed;
      mc.threads = solo.threads;
      mc.quota = isolation;
      victim.slo = isolation;
      mc.tenants.push_back(victim);
      if (intensity > 0) {
        tenant::TenantSpec storm;
        storm.name = "storm";
        storm.kind = tenant::TenantKind::kNoise;
        storm.nodes = 1;
        storm.noise.intensity = intensity;
        mc.tenants.push_back(storm);
      }

      const tenant::MultiTenantResult r = tenant::run_multi_tenant(mc);
      const EnsembleResult& v = r.tenants[0].result;
      const auto n = [&](const char* counter) {
        return static_cast<unsigned long long>(v.counters.get(counter));
      };
      cells.push_back(
          {intensity, isolation, v.cons_fetch_us.quantile(0.99),
           v.makespan_s.mean(),
           r.tenants.size() > 1
               ? r.tenants[1].result.counters.get("noise_sheds")
               : 0,
           n("quota_kvs_sheds") + n("quota_mds_sheds") + n("quota_ost_sheds"),
           n("slo_escalations"), n("slo_staggered_frames"),
           n("slo_fallback_frames")});
      ok &= gate(run, n("frames_consumed") == expected,
                 "victim incomplete at intensity=" + std::to_string(intensity) +
                     " isolation=" + (isolation ? "1" : "0"));
    }
  }

  std::printf(
      "\nintensity,isolation,victim_p99_us,victim_makespan_s,noise_sheds,"
      "quota_sheds,slo_escalations,slo_staggered,slo_fallback\n");
  for (const Cell& c : cells) {
    std::printf("%u,%s,%.6f,%.9f,%llu,%llu,%llu,%llu,%llu\n", c.intensity,
                c.isolation ? "on" : "off", c.p99_us, c.makespan_s,
                c.noise_sheds, c.quota_sheds, c.slo_escalations,
                c.slo_staggered, c.slo_fallback);
  }
  for (const Cell& c : cells) {
    std::printf("cotenant: intensity=%u isolation=%s victim_p99_us=%.3f "
                "victim_makespan_s=%.6f noise_sheds=%llu quota_sheds=%llu "
                "slo_escalations=%llu slo_staggered=%llu "
                "slo_fallback=%llu\n",
                c.intensity, c.isolation ? "on" : "off", c.p99_us,
                c.makespan_s, c.noise_sheds, c.quota_sheds,
                c.slo_escalations, c.slo_staggered, c.slo_fallback);
  }

  // Solo contract: the intensity-0, isolation-off cell must reproduce the
  // classic run exactly (same makespan to the bit) — that IS the solo
  // overhead figure, measured in simulated time rather than noisy wall ms.
  const double classic_makespan = run.at(classic.label).makespan_s.mean();
  const double solo_makespan = cells.front().makespan_s;
  const double solo_overhead_pct =
      classic_makespan > 0.0
          ? (solo_makespan / classic_makespan - 1.0) * 100.0
          : 0.0;
  // Headline: the improvement factor under the heaviest storm, whose
  // off/on cells close the grid.
  const Cell& worst_off = cells[cells.size() - 2];
  const Cell& worst_on = cells.back();
  const double improvement =
      worst_on.p99_us > 0.0 ? worst_off.p99_us / worst_on.p99_us : 1.0;
  std::printf("cotenant_sweep: cells=%zu solo_makespan_classic=%.9f "
              "solo_makespan_cotenant=%.9f solo_overhead_pct=%.4f "
              "worst_intensity=%u p99_off=%.3f p99_on=%.3f "
              "improvement=%.3f\n",
              cells.size(), classic_makespan, solo_makespan,
              solo_overhead_pct, worst_on.intensity, worst_off.p99_us,
              worst_on.p99_us, improvement);

  // Gates: the isolation machinery must at least halve the victim's fetch
  // P99 under the heaviest storm, and a solo tenant must pay <= 2% (it
  // actually pays exactly 0: the solo path IS the classic runner).
  ok &= gate(run, improvement >= 2.0,
             "improvement " + format_double(improvement, 3) + "x < 2x");
  ok &= gate(run, std::fabs(solo_overhead_pct) <= 2.0,
             "solo overhead " + format_double(solo_overhead_pct, 4) +
                 "% > 2%");
  return ok;
}

// Membership frontier sweep: MTTR vs detection latency for the declare-dead
// policy under permanent node loss.
//
// The grid sweeps the declare policy's silence ceiling (the phi-confirm
// window scales as a quarter of it) for a DYAD ensemble, against two fault
// scenarios.  Under `node-loss` (a node really dies) an eager policy wins:
// detection latency IS dead time, so MTTR falls with the ceiling.  Under
// `heal-after-declare` (a 1.2 s one-way partition, the node is fine) an
// eager policy fires a spurious declare — terminal by design, so the
// healthy node is fenced and its ranks migrate for nothing — while a
// conservative one (confirm window past the partition length) rides it
// out and pays nothing.  That tension is the frontier; every point still
// finishes with zero data loss, the policies just pay different MTTR.
//
// The report prints the CSV (no wall-clock, byte-identical at any thread
// count), one "frontier:" line per (ceiling, scenario) point and a summary
// line.  Gates: every faulted point delivers the full frame set, leaving
// the plane enabled costs at most 2% without faults, every spurious
// declare fences a zombie publish (stale_rejects > 0), and the sweep
// brackets the spurious-declare crossover (some heal-after-declare point
// declares, some rides the partition out).

constexpr int kCeilingsMs[] = {60, 120, 250, 500, 1000, 8000};
constexpr const char* kLossScenarios[] = {"node-loss", "heal-after-declare"};

// A 2-pair DYAD ensemble on 2 nodes under `faults`.
EnsembleConfig membership_config(const std::string& faults) {
  return bind({{"solution", "dyad"}, {"pairs", "2"}, {"frames", "8"},
               {"reps", "2"}, {"faults", faults}});
}

std::string ceiling_label(int ceiling_ms, const char* scenario) {
  return "ceiling" + std::to_string(ceiling_ms) + "/" + scenario;
}

std::vector<Case> membership_cases() {
  std::vector<Case> cases;
  // Two no-fault baselines lead the grid: plane off (the reference
  // makespan) and plane on (its price: heartbeats + declare scans).
  for (const bool on : {false, true}) {
    Case c{std::string("baseline/") + (on ? "on" : "off"),
           membership_config("none")};
    c.config.testbed.membership.enabled = on;
    cases.push_back(std::move(c));
  }
  for (const int ceiling_ms : kCeilingsMs) {
    for (const char* scenario : kLossScenarios) {
      Case c{ceiling_label(ceiling_ms, scenario), membership_config(scenario)};
      auto& membership = c.config.testbed.membership;
      membership.enabled = true;
      membership.declare.silence_ceiling = Duration::milliseconds(ceiling_ms);
      // The phi-confirm path stays proportionally eager: a quarter of the
      // ceiling, floored at one heartbeat period.  Past ~5 s the confirm
      // window exceeds the heal-after-declare partition (1.2 s) and the
      // policy rides the transient out instead of declaring.
      membership.declare.confirm_window =
          Duration::milliseconds(std::max(ceiling_ms / 4, 10));
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

bool membership_report(const Run& run) {
  const EnsembleResult& off = run.at("baseline/off");
  const EnsembleResult& on = run.at("baseline/on");
  const double makespan_off = off.makespan_s.mean();
  const double makespan_on = on.makespan_s.mean();
  const double overhead_pct =
      makespan_off > 0.0
          ? 100.0 * (makespan_on - makespan_off) / makespan_off
          : 0.0;
  std::printf(
      "\nceiling_ms,scenario,declares,detect_ms,migrations,stale_rejects,"
      "frames_lost,frames_consumed,crash_recoveries,makespan_s,mttr_s\n"
      "0,none-off,0,0.0,0,0,0,%llu,0,%.4f,0.0\n"
      "0,none-on,0,0.0,0,0,0,%llu,0,%.4f,0.0\n",
      static_cast<unsigned long long>(off.counters.get("frames_consumed")),
      makespan_off,
      static_cast<unsigned long long>(on.counters.get("frames_consumed")),
      makespan_on);

  bool all_delivered = true;
  bool spurious_declare = false;  // some heal-after-declare point declared
  bool rode_out = false;          // ... and some did not
  bool unfenced = false;  // a spurious declare without a stale reject
  std::string frontier;
  for (const int ceiling_ms : kCeilingsMs) {
    for (const char* scenario : kLossScenarios) {
      const EnsembleResult& r = run.at(ceiling_label(ceiling_ms, scenario));
      const auto n = [&](const char* counter) {
        return static_cast<unsigned long long>(r.counters.get(counter));
      };
      const auto declares = n("membership_declares");
      const double detect_ms =
          declares > 0 ? static_cast<double>(n("declare_latency_us")) /
                             (1000.0 * static_cast<double>(declares))
                       : 0.0;
      const auto lost = n("frames_lost");
      const double makespan = r.makespan_s.mean();
      // MTTR proxy: the makespan the loss-plus-recovery added on top of
      // the plane-on fault-free run.
      const double mttr = makespan - makespan_on;
      all_delivered = all_delivered && lost == 0;
      if (std::string_view(scenario) == "heal-after-declare") {
        (declares > 0 ? spurious_declare : rode_out) = true;
        unfenced = unfenced || (declares > 0 && n("stale_epoch_rejects") == 0);
      }
      std::printf("%d,%s,%llu,%.1f,%llu,%llu,%llu,%llu,%llu,%.4f,%.4f\n",
                  ceiling_ms, scenario, declares, detect_ms,
                  n("rank_migrations"), n("stale_epoch_rejects"), lost,
                  n("frames_consumed"), n("crash_recoveries"), makespan, mttr);
      char line[320];
      std::snprintf(line, sizeof(line),
                    "frontier: ceiling_ms=%d scenario=%s detect_ms=%.1f "
                    "mttr_s=%.4f declares=%llu migrations=%llu "
                    "stale_rejects=%llu frames_lost=%llu\n",
                    ceiling_ms, scenario, detect_ms, mttr, declares,
                    n("rank_migrations"), n("stale_epoch_rejects"), lost);
      frontier += line;
    }
  }
  std::printf(
      "%smembership_sweep: points=%zu errors=%zu overhead_pct=%.3f "
      "all_delivered=%d sim_events=%llu\n",
      frontier.c_str(), run.sweep.points.size(), run.sweep.errors,
      overhead_pct, all_delivered ? 1 : 0,
      static_cast<unsigned long long>(run.sweep.total_sim_events));

  // Gates: zero data loss everywhere, the idle plane must cost <= 2%, a
  // spurious declare must fence the zombie's publishes, and the ceiling
  // sweep must bracket the spurious-declare crossover.
  bool ok = gate(run, all_delivered, "a faulted point lost frames");
  ok &= gate(run, std::fabs(overhead_pct) <= 2.0,
             "idle membership plane costs more than 2%");
  ok &= gate(run, !unfenced, "a spurious declare fenced no zombie publish");
  ok &= gate(run, spurious_declare && rode_out,
             "ceiling sweep no longer brackets the spurious-declare "
             "crossover");
  return ok;
}

// Gray-failure mitigation: DYAD consumer fetch P99 under fail-slow faults
// with the health plane and hedged reads off vs on.
//
// `overload` (a 100x-overloaded KVS broker) and `slow-disk` (fail-slow
// NVMe) never raise an error — every operation succeeds, just slowly — so
// the recovery protocol never notices.  health=1 arms phi-accrual failure
// detection, a circuit breaker that routes lookups around the sick broker
// to the Lustre replica, and bounded admission queues; hedge=1 races slow
// cold fetches against a delayed replica read.  The no-fault pair prices
// leaving both enabled (detection only: without faults there is nothing
// to fail over from).  The report records numbers only; it has no gate.

constexpr const char* kGrayScenarios[] = {"none", "overload", "slow-disk"};

std::string health_label(const std::string& faults, bool mitigated) {
  return faults + (mitigated ? "/on" : "/off");
}

std::vector<Case> health_cases() {
  std::vector<Case> cases;
  for (const char* faults : kGrayScenarios) {
    for (const bool mitigated : {false, true}) {
      const std::string on = mitigated ? "1" : "0";
      cases.push_back({health_label(faults, mitigated),
                       bind({{"solution", "dyad"}, {"pairs", "4"},
                             {"nodes", "2"}, {"frames", "32"}, {"reps", "2"},
                             {"seed", "7"}, {"faults", faults},
                             {"health", on}, {"hedge", on}})});
    }
  }
  return cases;
}

void health_report(const Run& run) {
  const EnsembleConfig& c = run.cases.front().config;
  std::printf(
      "\nGray-failure mitigation: DYAD, health+hedge off vs on (%u pairs, "
      "%u nodes, %llu frames, %u reps, seed %llu)\n",
      c.pairs, c.nodes, static_cast<unsigned long long>(c.workload.frames),
      c.repetitions, static_cast<unsigned long long>(c.base_seed));
  TextTable t({"scenario", "fetch P99 off (us)", "fetch P99 on (us)",
               "speedup", "makespan off (s)", "makespan on (s)", "hedges",
               "hedge wins", "hedge cancels", "breaker trips",
               "frames consumed off/on"});
  for (const std::string faults : {"overload", "slow-disk"}) {
    const EnsembleResult& off = run.at(health_label(faults, false));
    const EnsembleResult& on = run.at(health_label(faults, true));
    const double p99_off = off.cons_fetch_us.quantile(0.99);
    const double p99_on = on.cons_fetch_us.quantile(0.99);
    const auto n = [&](const char* counter) {
      return std::to_string(on.counters.get(counter));
    };
    t.add_row({faults, format_double(p99_off, 3), format_double(p99_on, 3),
               format_ratio(safe_ratio(p99_off, p99_on), 2),
               format_double(off.makespan_s.mean(), 4),
               format_double(on.makespan_s.mean(), 4), n("dyad_hedges"),
               n("dyad_hedge_wins"), n("dyad_hedge_cancels"),
               n("dyad_breaker_trips"),
               std::to_string(off.counters.get("frames_consumed")) + "/" +
                   n("frames_consumed")});
  }
  const double base = run.at(health_label("none", false)).makespan_s.mean();
  const double armed = run.at(health_label("none", true)).makespan_s.mean();
  std::printf("%sno-fault makespan: health off %s s, on %s s (%s%% "
              "overhead)\n",
              t.render().c_str(), format_double(base, 4).c_str(),
              format_double(armed, 4).c_str(),
              pct_over(armed, base, 3).c_str());
}

struct Figure {
  std::string_view name;
  std::vector<Case> (*cases)();
  // Prints the report; false when one of its gates failed.
  bool (*report)(const Run&);
};

// A report that records numbers only and has no gate.
template <void (*Print)(const Run&)>
bool ungated(const Run& run) {
  Print(run);
  return true;
}

const Figure kFigures[] = {
    {"table1_models", [] { return std::vector<Case>{}; },
     ungated<table1_report>},
    {"table2_strides", table2_cases, ungated<table2_report>},
    {"fig5_single_node", fig5_cases, ungated<fig5_report>},
    {"fig6_two_node", fig6_cases, ungated<fig6_report>},
    {"fig7_multi_node", fig7_cases, ungated<fig7_report>},
    {"fig8_model_scaling", fig8_cases, ungated<fig8_report>},
    {"fig9_dyad_calltree", fig9_cases, ungated<fig9_report>},
    {"fig10_lustre_calltree", fig10_cases, ungated<fig10_report>},
    {"fig11_freq_jac", fig11_cases, ungated<fig11_report>},
    {"fig12_freq_stmv", fig12_cases, ungated<fig12_report>},
    {"ablation_sync", ablation_sync_cases, ungated<ablation_sync_report>},
    {"ablation_storage", ablation_storage_cases,
     ungated<ablation_storage_report>},
    {"ablation_placement", ablation_placement_cases,
     ungated<ablation_placement_report>},
    {"ablation_reduction", ablation_reduction_cases,
     ungated<ablation_reduction_report>},
    {"resilience_sweep", resilience_cases, ungated<resilience_report>},
    {"scale_sweep", scale_cases, ungated<scale_report>},
    {"solution_frontier", frontier_cases, frontier_report},
    {"cotenant_sweep", cotenant_cases, cotenant_report},
    {"membership_sweep", membership_cases, membership_report},
    {"health_mitigation", health_cases, ungated<health_report>},
};

// `key=value` tokens override every case's ensemble config.  A figure
// without cases still checks them against the defaults, so a typo fails
// there too.
void bind_keys(const KeyValueConfig& cfg, std::vector<Case>& cases) {
  if (cfg.keys().empty()) return;
  if (cases.empty()) workflow::parse_ensemble_config(cfg);
  for (auto& c : cases) {
    c.config = workflow::parse_ensemble_config(cfg, c.config);
  }
}

// Runs the figure's cases as one sweep on the parallel replica runner (each
// (case, repetition) on one of the `threads=` workers, byte-identical
// results for every thread count) and prints each case's means.  False,
// after naming the case on stderr, when one failed.
bool run_cases(Run& run) {
  if (run.cases.empty()) return true;
  // Every case carries the same figure-wide threads= binding.
  run.sweep = sweep::run_sweep(run.cases, run.cases.front().config.threads);
  for (const auto& p : run.sweep.points) {
    if (p.failed()) {
      std::fprintf(stderr, "figures: %s: case '%s' failed: %s\n",
                   std::string(run.name).c_str(), p.label.c_str(),
                   p.error_text.c_str());
      return false;
    }
    const EnsembleResult& r = p.result;
    std::printf(
        "%-24s prod_move_us=%.3f prod_idle_us=%.3f cons_move_us=%.3f "
        "cons_idle_us=%.3f makespan_s=%.3f\n",
        p.label.c_str(), r.prod_movement_us.mean(), r.prod_idle_us.mean(),
        r.cons_movement_us.mean(), r.cons_idle_us.mean(),
        r.makespan_s.mean());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string_view> names;
  for (const auto& f : kFigures) names.push_back(f.name);

  KeyValueConfig cfg;
  std::vector<std::pair<const Figure*, Run>> runs;
  try {
    const std::vector<std::string> wanted = cfg.parse_args(argc, argv);
    if (wanted.empty()) {
      std::string msg = "name at least one figure:";
      for (const auto name : names) msg += " " + std::string(name);
      throw ConfigError(msg);
    }
    for (const auto& name : wanted) {
      const auto it = std::ranges::find(kFigures, name, &Figure::name);
      if (it == std::end(kFigures)) {
        throw ConfigError("unknown figure '" + name + "'" +
                          did_you_mean(name, names));
      }
      if (std::ranges::count(wanted, name) > 1) {
        throw ConfigError("figure '" + name + "' named twice");
      }
      runs.push_back({it, Run{it->name, it->cases(), {}}});
    }
    // Every case binds before any runs: a bad key fails fast.
    for (auto& [figure, run] : runs) bind_keys(cfg, run.cases);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "figures: %s\n", e.what());
    return 2;
  }

  // A failed case stops the run; a failed gate only sets the exit code.
  int status = 0;
  for (auto& [figure, run] : runs) {
    try {
      if (!run_cases(run)) return 1;
      if (!figure->report(run)) status = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "figures: %s: %s\n",
                   std::string(figure->name).c_str(), e.what());
      return 1;
    }
  }
  return status;
}
