#include "mdwf/workflow/dag_run.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/rank_loop.hpp"

namespace mdwf::workflow {

std::string dag_frame_path(std::uint32_t edge, std::uint64_t f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "dag%04u/frame%05llu", edge,
                static_cast<unsigned long long>(f));
  return buf;
}

std::string dag_edge_prefix(std::uint32_t edge) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "dag%04u/", edge);
  return buf;
}

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

// One side of one edge, from the owning task's point of view.
struct DagRankIo {
  Connector* conn = nullptr;
  std::vector<TimePoint>* pub = nullptr;  // per-frame publish stamps
  std::uint32_t peer_node = 0;            // the edge's other end
};

struct DagTaskContext {
  RankEnv env;
  const wload::TaskSpec* spec = nullptr;
  const DagPlan* plan = nullptr;
  std::uint32_t task = 0;
  std::vector<DagRankIo> in;   // aligned with plan->in_edges[task]
  std::vector<DagRankIo> out;  // aligned with plan->out_edges[task]
  Rng rng{1};
  RankStats* prod_stats = nullptr;  // publish units
  RankStats* cons_stats = nullptr;  // fetch units
  Samples* fetch_samples = nullptr;
  double runtime_scale = 1.0;
  double analytics_scale = 1.0;
  double jitter_sigma = 0.0;
  double stagger = 1.0;
  DagProbe* probe = nullptr;
};

// One workflow task: fetch every parent frame (in-edge order), run the
// compute budget, publish every output frame to every out-edge, then drain
// the manual-sync barriers.  Crash-aware but checkpoint-free: an epoch
// change restarts the whole task; idempotent connectors make that safe.
sim::Task<void> run_dag_task(DagTaskContext ctx) {
  const RankEnv& env = ctx.env;
  auto& sim = *env.sim;
  auto& rec = *env.recorder;
  const auto& in_ids = ctx.plan->in_edges[ctx.task];
  const auto& out_ids = ctx.plan->out_edges[ctx.task];

  std::uint64_t in_total = 0;
  std::vector<std::uint64_t> in_base(in_ids.size(), 0);  // linear unit base
  for (std::size_t i = 0; i < in_ids.size(); ++i) {
    in_base[i] = in_total;
    in_total += ctx.plan->edges[in_ids[i]].frames;
  }
  // Every out-edge of a task carries the same frame sequence.
  const std::uint64_t out_frames =
      out_ids.empty() ? 0 : ctx.plan->edges[out_ids[0]].frames;

  const Duration runtime = ctx.spec->runtime * ctx.runtime_scale;
  const bool both = !in_ids.empty() && !out_ids.empty();
  const Duration fetch_budget =
      in_ids.empty() ? Duration::zero() : (both ? runtime * 0.5 : runtime);
  const Duration produce_budget =
      out_ids.empty() ? Duration::zero() : (both ? runtime * 0.5 : runtime);
  const Duration analytics_slice =
      in_total == 0 ? Duration::zero()
                    : (fetch_budget * (1.0 / static_cast<double>(in_total))) *
                          ctx.analytics_scale;
  const Duration compute_slice =
      out_frames == 0
          ? Duration::zero()
          : produce_budget * (1.0 / static_cast<double>(out_frames));

  if (in_ids.empty() && !out_ids.empty() && ctx.stagger > 0.0) {
    // Source tasks start with a launch/equilibration offset, like the
    // classic producers; downstream tasks are desynchronized by their
    // inputs' arrival instead.
    co_await sim.delay(compute_slice *
                       (ctx.stagger * ctx.rng.next_double()));
  }

  std::uint64_t cons_high = 0;
  std::uint64_t prod_high = 0;
  for (bool completed = false; !completed;) {
    const std::uint64_t run_epoch = rank_epoch(env);
    bool crashed = false;

    // ---- Fetch phase: a task is runnable per-frame — analytics overlap
    // the parents still publishing, exactly like the classic consumer.
    for (std::size_t ei = 0; ei < in_ids.size() && !crashed; ++ei) {
      const DagEdgePlan& e = ctx.plan->edges[in_ids[ei]];
      const DagRankIo& io = ctx.in[ei];
      for (std::uint64_t f = 0; f < e.frames && !crashed; ++f) {
        const std::uint64_t unit = in_base[ei] + f;
        const TimePoint fetch_start = sim.now();
        const std::string path = dag_frame_path(in_ids[ei], f);
        const FrameOp got = co_await retry_frame_op(
            env, run_epoch, io.peer_node, ctx.cons_stats, "consume",
            [&] { return io.conn->get(path, e.frame_bytes, f); });
        if (got == FrameOp::kDone && ctx.fetch_samples != nullptr) {
          // Same availability-relative metric as the classic consumer.
          if (const auto latency_us =
                  fetch_latency_us(sim.now(), fetch_start, *io.pub, f)) {
            ctx.fetch_samples->add(*latency_us);
          }
        }
        if (rank_epoch(env) != run_epoch) {
          crashed = true;
          break;
        }
        trace_frame(env, unit);
        if (ctx.probe != nullptr) {
          ctx.probe->on_fetch(ctx.task, in_ids[ei], f, sim.now());
        }
        if (!analytics_slice.is_zero()) {
          perf::ScopedRegion ana(rec, "analytics",
                                 perf::Category::kCompute);
          co_await sim.delay(analytics_slice * cpu_dilation(env));
        }
        io.conn->acknowledge(f);
        count_frame(ctx.cons_stats, unit, cons_high);
      }
    }

    // ---- Compute + publish phase.
    if (!crashed && in_ids.empty() && out_ids.empty() &&
        !runtime.is_zero()) {
      // Isolated task: pure compute, no movement.
      perf::ScopedRegion compute(rec, "md_compute",
                                 perf::Category::kCompute);
      co_await sim.delay(runtime * cpu_dilation(env));
    }
    for (std::uint64_t f = 0; f < out_frames && !crashed; ++f) {
      {
        perf::ScopedRegion compute(rec, "md_compute",
                                   perf::Category::kCompute);
        const double jitter =
            std::max(-0.5, ctx.rng.normal(0.0, ctx.jitter_sigma));
        co_await sim.delay(compute_slice *
                           ((1.0 + jitter) * cpu_dilation(env)));
      }
      for (std::size_t oi = 0; oi < out_ids.size() && !crashed; ++oi) {
        const DagEdgePlan& e = ctx.plan->edges[out_ids[oi]];
        const DagRankIo& io = ctx.out[oi];
        const std::uint64_t unit = f * out_ids.size() + oi;
        const std::string path = dag_frame_path(out_ids[oi], f);
        const FrameOp put = co_await retry_frame_op(
            env, run_epoch, io.peer_node, ctx.prod_stats, "produce",
            [&] { return io.conn->put(path, e.frame_bytes, f); });
        if (put == FrameOp::kDone) (*io.pub)[f] = sim.now();
        if (rank_epoch(env) != run_epoch) {
          crashed = true;
          break;
        }
        trace_frame(env, in_total + unit);
        if (ctx.probe != nullptr) {
          ctx.probe->on_publish(ctx.task, out_ids[oi], f, sim.now());
        }
        count_frame(ctx.prod_stats, unit, prod_high);
      }
    }

    // ---- End-of-edge barriers (manual-sync solutions): wait for every
    // child to drain this task's frames.  The classic per-frame
    // producer_sync would deadlock on diamond graphs, so the producer-side
    // serialization moves to one barrier per edge; the consumer-side
    // per-frame wait (the explicit_sync idle) is untouched.
    for (std::size_t oi = 0; oi < out_ids.size() && !crashed; ++oi) {
      const DagEdgePlan& e = ctx.plan->edges[out_ids[oi]];
      co_await ctx.out[oi].conn->producer_sync(e.frames - 1);
      crashed = rank_epoch(env) != run_epoch;
    }

    // A crash during a pure-compute stretch raises no exception; the
    // epoch check here catches it before the task declares itself done.
    if (!crashed && rank_epoch(env) == run_epoch) {
      completed = true;
      continue;
    }
    co_await await_restart(env,
                           !in_ids.empty() ? ctx.cons_stats : ctx.prod_stats);
  }
  if (ctx.probe != nullptr) ctx.probe->on_complete(ctx.task, sim.now());
}

// Everything the DAG rank coroutines reference; declared before the
// repetition's testbed (run_rank_repetition).
struct DagAssets {
  std::vector<std::unique_ptr<perf::Recorder>> recs;  // per task
  std::vector<std::unique_ptr<ExplicitSync>> syncs;
  std::vector<std::unique_ptr<Connector>> prod_conn;  // per edge
  std::vector<std::unique_ptr<Connector>> cons_conn;  // per edge
  std::vector<std::unique_ptr<std::vector<TimePoint>>> pub_times;  // per edge
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
    // node, consumer-side at the child's, sharing one level-triggered sync
    // (manual-sync solutions) and one publish-stamp vector.
    for (std::size_t e = 0; e < plan.edges.size(); ++e) {
      const DagEdgePlan& ep = plan.edges[e];
      const std::uint32_t pnode = plan.node_of[ep.parent];
      const std::uint32_t cnode = plan.node_of[ep.child];
      ExplicitSync* sync = nullptr;
      if (config.solution == Solution::kXfs ||
          config.solution == Solution::kLustre) {
        assets.syncs.push_back(std::make_unique<ExplicitSync>(sim));
        sync = assets.syncs.back().get();
      }
      const ConnectorSpec pspec{.testbed = &tb,
                                .solution = config.solution,
                                .node = pnode,
                                .sync = sync,
                                .recorder = assets.recs[ep.parent].get()};
      const ConnectorSpec cspec{.testbed = &tb,
                                .solution = config.solution,
                                .node = cnode,
                                .sync = sync,
                                .recorder = assets.recs[ep.child].get()};
      assets.prod_conn.push_back(make_connector(pspec));
      assets.cons_conn.push_back(make_connector(cspec));
      subscribe_consumer(tb, config.solution,
                         dag_edge_prefix(static_cast<std::uint32_t>(e)),
                         cnode);
      assets.pub_times.push_back(std::make_unique<std::vector<TimePoint>>(
          ep.frames, TimePoint::origin()));
    }

    for (std::size_t t = 0; t < ntasks; ++t) {
      DagTaskContext ctx;
      ctx.env = {.sim = &sim,
                 .recorder = assets.recs[t].get(),
                 .node = plan.node_of[t],
                 .crash = crash,
                 .injector = tb.fault_injector()};
      ctx.spec = &dag.tasks[t];
      ctx.plan = &plan;
      ctx.task = static_cast<std::uint32_t>(t);
      for (const std::uint32_t e : plan.in_edges[t]) {
        ctx.in.push_back(DagRankIo{assets.cons_conn[e].get(),
                                   assets.pub_times[e].get(),
                                   plan.node_of[plan.edges[e].parent]});
      }
      for (const std::uint32_t e : plan.out_edges[t]) {
        ctx.out.push_back(DagRankIo{assets.prod_conn[e].get(),
                                    assets.pub_times[e].get(),
                                    plan.node_of[plan.edges[e].child]});
      }
      ctx.rng = rep_rng.fork("dag-task" + std::to_string(t));
      ctx.prod_stats = &assets.stats[2 * t];
      ctx.cons_stats = &assets.stats[2 * t + 1];
      ctx.fetch_samples = &out.cons_fetch_us;
      ctx.runtime_scale = config.dag_runtime_scale;
      ctx.analytics_scale = config.workload.analytics_scale;
      ctx.jitter_sigma = config.workload.step_jitter_sigma;
      ctx.stagger = config.workload.start_stagger;
      ctx.probe = probe;
      if (obs::TraceSink* sink = tb.params().trace) {
        attach_trace_lane(ctx.env, *sink,
                          "node" + std::to_string(ctx.env.node),
                          "task" + std::to_string(t));
      }
      assets.tasks.push_back(run_dag_task(std::move(ctx)));
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
      for (const auto& conn : assets.cons_conn) {
        add_dyad_consumer_counters(*conn, out.counters);
      }
    }
    add_node_counters(tb, config.solution, 0, config.nodes, out.counters);
  };

  return run_rank_repetition(config, rep, trace, wire, collect);
}

}  // namespace mdwf::workflow
