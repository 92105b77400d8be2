// Property tests for DAG workload execution (workflow/dag_run.cpp).
//
// Two load-bearing contracts:
//  1. Causality — on every solution, no frame is fetched before it is
//     published: the DagProbe records publish/fetch times straight from
//     the rank coroutines, and every edge drains exactly its planned frame
//     count.  The montage diamond doubles as the regression test for the
//     end-of-edge producer barrier (the per-frame barrier deadlocks there).
//  2. Determinism — DAG ensembles inherit the sweep contract: results are
//     byte-identical for threads=1/2/8, including under node-crash and
//     bit-flip fault plans where tasks restart from frame zero.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mdwf/fault/plan.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::workflow {
namespace {

// Records every publish/fetch the rank coroutines report; re-published
// frames (crash re-execution) keep the earliest stamp — that is when the
// frame first became available.
class RecordingProbe : public DagProbe {
 public:
  using Key = std::pair<std::uint32_t, std::uint64_t>;  // (edge, frame)

  void on_fetch(std::uint32_t task, std::uint32_t edge, std::uint64_t f,
                TimePoint when) override {
    (void)task;
    fetches.emplace_back(Key{edge, f}, when);
  }
  void on_publish(std::uint32_t task, std::uint32_t edge, std::uint64_t f,
                  TimePoint when) override {
    (void)task;
    const auto [it, fresh] = first_publish.emplace(Key{edge, f}, when);
    if (!fresh && when < it->second) it->second = when;
  }
  void on_complete(std::uint32_t task, TimePoint when) override {
    completions.emplace_back(task, when);
  }

  std::map<Key, TimePoint> first_publish;
  std::vector<std::pair<Key, TimePoint>> fetches;
  std::vector<std::pair<std::uint32_t, TimePoint>> completions;
};

std::shared_ptr<const wload::Dag> synth_dag(std::string_view ref,
                                            std::uint32_t tasks,
                                            double output_bytes) {
  wload::WorkloadDefaults wd;
  wd.synth_tasks = tasks;
  wd.synth_width = 3;
  wd.synth_runtime_s = 0.2;
  wd.synth_output_bytes = output_bytes;
  return std::make_shared<const wload::Dag>(wload::load_workload(ref, wd));
}

EnsembleConfig dag_config(Solution s, std::shared_ptr<const wload::Dag> dag,
                          Bytes chunk = Bytes::mib(1)) {
  EnsembleConfig c;
  c.solution = s;
  c.nodes = s == Solution::kXfs ? 1 : 2;
  c.repetitions = 2;
  c.base_seed = 11;
  c.dag = std::move(dag);
  c.dag_chunk = chunk;
  return c;
}

void expect_causal_and_complete(const RecordingProbe& probe,
                                const wload::Dag& dag,
                                const EnsembleConfig& c) {
  const DagPlan plan = plan_dag(dag, c.dag_chunk, c.nodes);
  // Every fetch strictly follows the frame's first publish.
  for (const auto& [key, when] : probe.fetches) {
    const auto pub = probe.first_publish.find(key);
    ASSERT_NE(pub, probe.first_publish.end())
        << "edge " << key.first << " frame " << key.second
        << " fetched but never published";
    EXPECT_LE(pub->second, when)
        << "edge " << key.first << " frame " << key.second
        << " fetched before publish";
  }
  // Every edge drains exactly its planned frames (fault-free runs).
  std::map<RecordingProbe::Key, std::uint64_t> fetched;
  for (const auto& [key, when] : probe.fetches) ++fetched[key];
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < plan.edges.size(); ++e) {
    for (std::uint64_t f = 0; f < plan.edges[e].frames; ++f) {
      const RecordingProbe::Key key{static_cast<std::uint32_t>(e), f};
      EXPECT_EQ(fetched[key], 1u) << "edge " << e << " frame " << f;
      ++total;
    }
  }
  EXPECT_EQ(probe.fetches.size(), total);
  EXPECT_EQ(probe.completions.size(), dag.tasks.size());
}

TEST(DagProperty, FetchNeverPrecedesPublishOnAnySolution) {
  // Multi-frame edges (3 MiB payloads over a 1 MiB chunk) on the diamond-
  // heavy montage shape; XFS runs the same graph single-node.
  const auto dag = synth_dag("synth:montage", 9, 3.0 * 1024 * 1024);
  for (const Solution s : {Solution::kDyad, Solution::kXfs,
                           Solution::kLustre, Solution::kStream}) {
    RecordingProbe probe;
    const EnsembleConfig c = dag_config(s, dag);
    const RepOutcome out = run_dag_repetition(c, 0, nullptr, &probe);
    EXPECT_EQ(out.counters.get("frames_lost"), 0u) << to_string(s);
    expect_causal_and_complete(probe, *dag, c);
  }
}

TEST(DagProperty, DiamondCompletesOnManualSyncSolutions) {
  // The montage diamond is exactly the shape where a per-frame producer
  // barrier deadlocks (producer waits on one child's acks while that child
  // waits on a sibling); completion within quiescence is the regression
  // oracle for the end-of-edge barrier.
  const auto dag = synth_dag("synth:montage", 8, 512.0 * 1024);
  for (const Solution s : {Solution::kXfs, Solution::kLustre}) {
    const EnsembleConfig c = dag_config(s, dag);
    const RepOutcome out = run_dag_repetition(c, 0);
    EXPECT_EQ(out.counters.get("frames_lost"), 0u) << to_string(s);
  }
}

TEST(DagProperty, ForkJoinRespectsJoinBarriers) {
  const auto dag = synth_dag("synth:fork-join", 10, 1.0 * 1024 * 1024);
  RecordingProbe probe;
  const EnsembleConfig c = dag_config(Solution::kDyad, dag);
  run_dag_repetition(c, 0, nullptr, &probe);
  // A join task publishes only after it fetched every in-edge frame: the
  // plan's in-edges of each task must all appear before its first publish.
  const DagPlan plan = plan_dag(*dag, c.dag_chunk, c.nodes);
  std::map<std::uint32_t, TimePoint> last_fetch_of_edge;
  for (const auto& [key, when] : probe.fetches) {
    auto [it, fresh] = last_fetch_of_edge.emplace(key.first, when);
    if (!fresh && when > it->second) it->second = when;
  }
  for (std::size_t t = 0; t < dag->tasks.size(); ++t) {
    if (plan.in_edges[t].empty() || plan.out_edges[t].empty()) continue;
    TimePoint first_pub = TimePoint::origin();
    bool have = false;
    for (const auto& [key, when] : probe.first_publish) {
      for (const std::uint32_t e : plan.out_edges[t]) {
        if (key.first == e && (!have || when < first_pub)) {
          first_pub = when;
          have = true;
        }
      }
    }
    ASSERT_TRUE(have);
    for (const std::uint32_t e : plan.in_edges[t]) {
      EXPECT_LE(last_fetch_of_edge[e], first_pub)
          << "task " << t << " published before draining in-edge " << e;
    }
  }
}

// --- Thread-count byte-identity --------------------------------------------

void expect_identical(const EnsembleResult& a, const EnsembleResult& b) {
  EXPECT_EQ(a.prod_movement_us.values(), b.prod_movement_us.values());
  EXPECT_EQ(a.prod_idle_us.values(), b.prod_idle_us.values());
  EXPECT_EQ(a.cons_movement_us.values(), b.cons_movement_us.values());
  EXPECT_EQ(a.cons_idle_us.values(), b.cons_idle_us.values());
  EXPECT_EQ(a.makespan_s.values(), b.makespan_s.values());
  EXPECT_EQ(a.cons_fetch_us.values(), b.cons_fetch_us.values());
  EXPECT_EQ(a.counters.items(), b.counters.items());
  ASSERT_EQ(a.thicket.size(), b.thicket.size());
  for (std::size_t i = 0; i < a.thicket.size(); ++i) {
    EXPECT_EQ(a.thicket.records()[i].meta, b.thicket.records()[i].meta);
    EXPECT_EQ(a.thicket.records()[i].tree.render(),
              b.thicket.records()[i].tree.render());
  }
}

void apply_scenario(EnsembleConfig& c, const std::string& name) {
  fault::ScenarioShape shape;
  shape.compute_nodes = c.nodes;
  shape.seed = c.base_seed;
  c.testbed.faults = fault::make_scenario(name, shape);
  c.testbed.dyad.retry.enabled = true;
  c.testbed.integrity.enabled = true;
}

TEST(DagProperty, ByteIdenticalAcrossThreadCounts) {
  const auto dag = synth_dag("synth:fork-join", 8, 1.0 * 1024 * 1024);
  for (const Solution s : {Solution::kDyad, Solution::kStream}) {
    EnsembleConfig cfg = dag_config(s, dag);
    cfg.repetitions = 3;
    const EnsembleResult serial = workflow::run_ensemble(cfg);
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      cfg.threads = threads;
      expect_identical(serial, sweep::run_ensemble(cfg));
    }
  }
}

TEST(DagProperty, ByteIdenticalUnderNodeCrashAndBitFlip) {
  const auto dag = synth_dag("synth:chain", 6, 1.0 * 1024 * 1024);
  for (const std::string scenario : {"node-crash", "bit-flip"}) {
    for (const Solution s : {Solution::kDyad, Solution::kStream}) {
      EnsembleConfig cfg = dag_config(s, dag);
      cfg.repetitions = 2;
      apply_scenario(cfg, scenario);
      const EnsembleResult serial = workflow::run_ensemble(cfg);
      for (const std::uint32_t threads : {2u, 8u}) {
        cfg.threads = threads;
        expect_identical(serial, sweep::run_ensemble(cfg));
      }
      // The crash/corruption plans must be recoverable: no frame lost.
      EXPECT_EQ(serial.counters.get("frames_lost"), 0u)
          << scenario << "/" << to_string(s);
      EXPECT_EQ(serial.counters.get("integrity_unrecovered"), 0u)
          << scenario << "/" << to_string(s);
    }
  }
}

}  // namespace
}  // namespace mdwf::workflow
