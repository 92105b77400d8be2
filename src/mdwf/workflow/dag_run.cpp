#include "mdwf/workflow/dag_run.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/rank_loop.hpp"

namespace mdwf::workflow {

DagPlan plan_dag(const wload::Dag& dag, Bytes chunk, std::uint32_t nodes) {
  MDWF_ASSERT_MSG(chunk.count() > 0, "dag chunk size must be positive");
  MDWF_ASSERT_MSG(nodes >= 1, "dag plan needs at least one node");
  const std::size_t n = dag.tasks.size();
  DagPlan plan;
  plan.in_edges.resize(n);
  plan.out_edges.resize(n);
  plan.node_of.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    // Round-robin placement in topological order: siblings spread across
    // nodes, so wide layers actually exercise the network paths.
    plan.node_of[t] = static_cast<std::uint32_t>(t % nodes);
  }
  // Canonical edge order: child-major, parents ascending (validate() sorts
  // both), so edge ids are reproducible from the Dag alone.
  for (std::size_t c = 0; c < n; ++c) {
    for (const std::uint32_t p : dag.tasks[c].parents) {
      const Bytes payload = dag.tasks[p].output_bytes;
      DagEdgePlan e;
      e.parent = p;
      e.child = static_cast<std::uint32_t>(c);
      e.frames = std::max<std::uint64_t>(
          1, (payload.count() + chunk.count() - 1) / chunk.count());
      e.frame_bytes = Bytes(std::max<std::uint64_t>(
          1, (payload.count() + e.frames - 1) / e.frames));
      const auto id = static_cast<std::uint32_t>(plan.edges.size());
      plan.in_edges[c].push_back(id);
      plan.out_edges[p].push_back(id);
      plan.total_edge_frames += e.frames;
      plan.edges.push_back(e);
    }
  }
  return plan;
}

namespace {

// Everything the DAG rank coroutines reference; declared before the
// repetition's testbed (run_rank_repetition).
struct DagAssets {
  std::vector<std::unique_ptr<perf::Recorder>> recs;  // per task
  std::vector<std::unique_ptr<ExplicitSync>> syncs;
  std::vector<Edge> edges;  // per plan edge
  // The consumer end of edge e at index e (edges are child-major, so each
  // task's in-ends are contiguous), then the producer ends task by task.
  std::vector<EdgeEnd> ends;
  std::vector<RankStats> stats;  // 2 per task: publish units, fetch units
  std::vector<sim::Task<void>> tasks;
};

}  // namespace

RepOutcome run_dag_repetition(const EnsembleConfig& config, std::uint32_t rep,
                              obs::TraceSink* trace, DagProbe* probe) {
  MDWF_ASSERT_MSG(config.dag != nullptr,
                  "run_dag_repetition needs a DAG workload");
  const wload::Dag& dag = *config.dag;
  MDWF_ASSERT(config.nodes >= 1);
  MDWF_ASSERT_MSG(config.solution != Solution::kXfs || config.nodes == 1,
                  "XFS cannot move data between nodes (paper Sec. III-B)");
  MDWF_ASSERT_MSG(!config.testbed.membership.enabled,
                  "membership plane does not support DAG workloads");

  const DagPlan plan = plan_dag(dag, config.dag_chunk, config.nodes);
  const std::size_t ntasks = dag.tasks.size();
  const Rng rep_rng(config.base_seed + rep);
  DagAssets assets;

  auto wire = [&](Testbed& tb, fault::CrashMonitor* crash, RepOutcome& out) {
    auto& sim = tb.simulation();
    assets.stats.assign(2 * ntasks, RankStats{});
    for (std::size_t t = 0; t < ntasks; ++t) {
      assets.recs.push_back(std::make_unique<perf::Recorder>(
          sim, "task" + std::to_string(t)));
    }

    // Per-edge movement plumbing: producer-side connector at the parent's
    // node, consumer-side at the child's.
    const std::size_t nedges = plan.edges.size();
    assets.edges.resize(nedges);
    assets.ends.resize(2 * nedges);
    std::vector<std::size_t> out_first(ntasks);
    for (std::size_t t = 0, next = nedges; t < ntasks; ++t) {
      out_first[t] = next;
      next += plan.out_edges[t].size();
    }
    std::vector<std::size_t> out_next = out_first;
    for (std::size_t e = 0; e < nedges; ++e) {
      const DagEdgePlan& ep = plan.edges[e];
      Edge& edge = assets.edges[e];
      edge.prefix = edge_prefix("", "dag", static_cast<std::uint32_t>(e));
      edge.id = static_cast<std::uint32_t>(e);
      edge.frames = ep.frames;
      edge.frame_bytes = ep.frame_bytes;
      edge.published.assign(ep.frames, TimePoint::origin());
      wire_edge(tb, config.solution, nullptr, assets.syncs, edge,
                assets.ends[out_next[ep.parent]++], plan.node_of[ep.parent],
                *assets.recs[ep.parent], assets.ends[e],
                plan.node_of[ep.child], *assets.recs[ep.child]);
    }

    for (std::size_t t = 0; t < ntasks; ++t) {
      const std::vector<std::uint32_t>& in_ids = plan.in_edges[t];
      const std::vector<std::uint32_t>& out_ids = plan.out_edges[t];
      // A task spends its runtime half fetching and half publishing (all of
      // it on its one side if it has only one): analytics per fetched
      // frame, md_compute per published frame.
      std::uint64_t in_total = 0;
      for (const std::uint32_t e : in_ids) in_total += plan.edges[e].frames;
      const std::uint64_t out_frames =
          out_ids.empty() ? 0 : plan.edges[out_ids[0]].frames;
      const Duration runtime = dag.tasks[t].runtime * config.dag_runtime_scale;
      const Duration share =
          !in_ids.empty() && !out_ids.empty() ? runtime * 0.5 : runtime;

      TaskContext ctx{
          .env = {.sim = &sim,
                  .recorder = assets.recs[t].get(),
                  .node = plan.node_of[t],
                  .crash = crash,
                  .injector = tb.fault_injector()},
          .in = {assets.ends.data() + (in_ids.empty() ? 0 : in_ids[0]),
                 in_ids.size()},
          .out = {assets.ends.data() + out_first[t], out_ids.size()},
          .compute = out_frames == 0
                         ? runtime
                         : share * (1.0 / static_cast<double>(out_frames)),
          .analytics =
              in_total == 0
                  ? Duration::zero()
                  : (share * (1.0 / static_cast<double>(in_total))) *
                        config.workload.analytics_scale,
          .jitter_sigma = config.workload.step_jitter_sigma,
          .stagger = config.workload.start_stagger,
          .rng = rep_rng.fork("dag-task" + std::to_string(t)),
          .prod_stats = &assets.stats[2 * t],
          .cons_stats = &assets.stats[2 * t + 1],
          .fetch_samples = &out.cons_fetch_us,
          .probe = probe,
          .task = static_cast<std::uint32_t>(t)};
      if (obs::TraceSink* sink = tb.params().trace) {
        attach_trace_lane(ctx.env, *sink,
                          "node" + std::to_string(ctx.env.node),
                          "task" + std::to_string(t));
      }
      assets.tasks.push_back(run_task(std::move(ctx)));
    }
    return std::move(assets.tasks);
  };

  // Same counter names and thicket shape as the classic collector, with
  // tasks in place of pairs.
  auto collect = [&](Testbed& tb, RepOutcome& out) {
    double pm = 0, pi = 0, cm = 0, ci = 0;
    std::uint32_t nprod = 0, ncons = 0;
    std::uint64_t consumed = 0;
    for (std::size_t t = 0; t < ntasks; ++t) {
      const auto& tree = assets.recs[t]->tree();
      std::uint64_t in_units = 0;
      for (const std::uint32_t e : plan.in_edges[t]) {
        in_units += plan.edges[e].frames;
      }
      const std::uint64_t out_units =
          plan.out_edges[t].empty()
              ? 0
              : plan.edges[plan.out_edges[t][0]].frames *
                    plan.out_edges[t].size();
      if (out_units > 0) {
        pm += per_frame_us(tree, "produce", perf::Category::kMovement,
                           out_units);
        pi += per_frame_us(tree, "produce", perf::Category::kIdle,
                           out_units);
        ++nprod;
      }
      if (in_units > 0) {
        cm += per_frame_us(tree, "consume", perf::Category::kMovement,
                           in_units);
        ci += per_frame_us(tree, "consume", perf::Category::kIdle, in_units);
        ++ncons;
      }
      perf::Metadata meta{
          {"solution", std::string(to_string(config.solution))},
          {"rep", std::to_string(rep)},
          {"task", dag.tasks[t].id},
          {"tasks", std::to_string(ntasks)},
          {"nodes", std::to_string(config.nodes)},
          {"workflow", dag.name},
          {"role", "task"},
      };
      out.thicket.add(meta, assets.recs[t]->snapshot());
      add_rank_stats(assets.stats[2 * t], assets.stats[2 * t + 1],
                     out.counters);
      consumed += assets.stats[2 * t + 1].frames_done;
    }
    out.prod_movement_us = nprod > 0 ? pm / nprod : 0.0;
    out.prod_idle_us = nprod > 0 ? pi / nprod : 0.0;
    out.cons_movement_us = ncons > 0 ? cm / ncons : 0.0;
    out.cons_idle_us = ncons > 0 ? ci / ncons : 0.0;

    // Zero-data-loss acceptance metric: every edge-frame must be fetched.
    out.counters.add("frames_lost", consumed < plan.total_edge_frames
                                        ? plan.total_edge_frames - consumed
                                        : 0);
    if (config.solution == Solution::kDyad) {
      for (std::size_t e = 0; e < plan.edges.size(); ++e) {
        add_dyad_consumer_counters(*assets.ends[e].conn, out.counters);
      }
    }
    add_node_counters(tb, config.solution, 0, config.nodes, out.counters);
  };

  return run_rank_repetition(config, rep, trace, wire, collect);
}

}  // namespace mdwf::workflow
