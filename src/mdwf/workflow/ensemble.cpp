#include "mdwf/workflow/ensemble.hpp"

#include <memory>
#include <string>
#include <utility>

#include "mdwf/common/assert.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/rank_loop.hpp"

namespace mdwf::workflow {

std::string frame_path(std::uint32_t pair, std::uint64_t f) {
  return frame_key(edge_prefix("", "pair", pair), f);
}

namespace {

// Registration order of every counter — the stable column order of tables
// and CSVs across solutions and fault plans (zero when a path never fired).
constexpr const char* kCounterNames[] = {
    "dyad_warm_hits", "dyad_kvs_waits", "dyad_kvs_retries",
    "dyad_recovery_retries", "dyad_failovers", "dyad_republishes",
    "dyad_hedges", "dyad_hedge_wins", "dyad_hedge_cancels",
    "dyad_breaker_trips", "dyad_breaker_fast_fails", "dyad_busy_retries",
    "stream_puts", "stream_staged_hits", "stream_spills",
    "stream_spill_reads", "stream_replays", "stream_dup_drops",
    "stream_crash_drops", "stream_credit_waits",
    "stream_backpressure_stalls", "stream_hedges", "stream_hedge_wins",
    "kvs_sheds", "lustre_sheds", "lustre_busy_retries",
    "net_retransmit_timeouts", "frames_produced", "frames_consumed",
    "frames_reexecuted", "fault_retries", "crash_recoveries",
    "crash_windows", "checkpoint_persists", "checkpoint_restores",
    "torn_writes", "lost_dirty_pages", "integrity_verified",
    "integrity_failures", "integrity_refetches", "integrity_unrecovered",
    "kvs_commits", "kvs_lookups", "cache_hits", "cache_misses",
    "fault_windows_applied", "sim_events", "trace_events",
    // Membership plane (PR 9); appended so earlier column orders survive.
    "membership_declares", "rank_migrations", "stale_epoch_rejects",
    "declare_latency_us", "frames_lost"};

}  // namespace

void register_ensemble_counters(obs::CounterMap& counters) {
  for (const char* name : kCounterNames) counters.add(name, 0);
}

EnsembleResult make_ensemble_result() {
  EnsembleResult result;
  register_ensemble_counters(result.counters);
  return result;
}

void build_rank_set(Testbed& tb, const RankSetSpec& spec, const Rng& set_rng,
                    fault::CrashMonitor* crash, Samples* fetch_samples,
                    RankSetAssets& assets) {
  MDWF_ASSERT(spec.pairs >= 1);
  const bool colocated =
      spec.nodes == 1 || spec.placement == Placement::kColocated;
  MDWF_ASSERT_MSG(colocated || spec.nodes % 2 == 0,
                  "split multi-node ensembles need an even node count");
  MDWF_ASSERT_MSG(spec.solution != Solution::kXfs || colocated,
                  "XFS cannot move data between nodes (paper Sec. III-B)");
  MDWF_ASSERT_MSG(spec.node_base + spec.nodes <= tb.compute_nodes(),
                  "rank set extends past the testbed's compute nodes");

  auto& sim = tb.simulation();
  obs::TraceSink* sink = tb.params().trace;
  const WorkloadConfig& workload = spec.workload;

  const std::uint32_t producer_nodes =
      colocated ? spec.nodes : spec.nodes / 2;
  const std::uint32_t ranks_per_node =
      (spec.pairs + producer_nodes - 1) / producer_nodes;

  auto producer_node = [&](std::uint32_t pair) {
    return spec.node_base + pair / ranks_per_node;
  };
  auto consumer_node = [&](std::uint32_t pair) {
    return colocated
               ? spec.node_base + pair / ranks_per_node
               : spec.node_base + producer_nodes + pair / ranks_per_node;
  };
  auto trace_process = [&](std::uint32_t node) {
    return spec.trace_process.empty()
               ? "node" + std::to_string(node)
               : spec.trace_process + "/node" + std::to_string(node);
  };

  const bool ckpt_on = spec.checkpoint.resolve_enabled(crash != nullptr);
  assets.stats.assign(2 * spec.pairs, RankStats{});
  // Sized once: the tasks hold spans into the ends, the ends into the edges.
  assets.edges.resize(spec.pairs);
  assets.ends.resize(2 * spec.pairs);

  // Migration rebinder: retire the old connector (frames in flight may
  // still unwind through it), build the solution's standard connector on
  // the new home, renew the pair's push-mode/stream subscription from
  // there, and re-home the progress record with the pair-min rollback.
  auto make_migrate = [&tb, &assets, solution = spec.solution,
                       factory = spec.connectors](
                          std::uint32_t pair, bool consumer,
                          ExplicitSync* sync, perf::Recorder* rec,
                          Checkpoint* ckpt) {
    return [&tb, &assets, solution, factory, pair, consumer, sync, rec,
            ckpt](std::uint32_t node, std::uint64_t restart) {
      EdgeEnd& end = assets.ends[2 * pair + (consumer ? 1 : 0)];
      assets.retired_conn.push_back({pair, consumer, std::move(end.conn)});
      const ConnectorSpec cs{.testbed = &tb,
                             .solution = solution,
                             .node = node,
                             .sync = sync,
                             .recorder = rec};
      end.conn = factory ? factory(cs, pair, consumer) : make_connector(cs);
      if (consumer) subscribe_consumer(tb, solution, end.edge->prefix, node);
      if (ckpt != nullptr) {
        ckpt->migrate(*tb.node(node).local_fs, node, restart);
      }
    };
  };

  for (std::uint32_t pair = 0; pair < spec.pairs; ++pair) {
    assets.prod_recs.push_back(std::make_unique<perf::Recorder>(
        sim, "producer" + std::to_string(pair)));
    assets.cons_recs.push_back(std::make_unique<perf::Recorder>(
        sim, "consumer" + std::to_string(pair)));
    auto& prec = *assets.prod_recs.back();
    auto& crec = *assets.cons_recs.back();
    const std::uint32_t pnode = producer_node(pair);
    const std::uint32_t cnode = consumer_node(pair);

    // XFS is colocated by construction: both ranks share pnode's local FS.
    const std::uint32_t cnode_eff =
        spec.solution == Solution::kXfs ? pnode : cnode;
    // The pair's one edge streams frame by frame from producer to consumer.
    Edge& edge = assets.edges[pair];
    edge.prefix = edge_prefix(spec.ns, "pair", pair);
    edge.id = pair;
    edge.frames = workload.frames;
    edge.frame_bytes = workload.wire_bytes();
    edge.streams = true;
    edge.published.assign(workload.frames, TimePoint::origin());
    EdgeEnd* ends = &assets.ends[2 * pair];  // producer's, consumer's
    ExplicitSync* sync =
        wire_edge(tb, spec.solution, spec.connectors, assets.syncs, edge,
                  ends[0], pnode, prec, ends[1], cnode_eff, crec);

    Checkpoint* pckpt = nullptr;
    Checkpoint* cckpt = nullptr;
    if (ckpt_on) {
      assets.ckpts.push_back(std::make_unique<Checkpoint>(
          sim, *tb.node(pnode).local_fs,
          spec.ns + "ckpt/producer" + std::to_string(pair), spec.checkpoint,
          crash, pnode));
      pckpt = assets.ckpts.back().get();
      assets.ckpts.push_back(std::make_unique<Checkpoint>(
          sim, *tb.node(cnode_eff).local_fs,
          spec.ns + "ckpt/consumer" + std::to_string(pair), spec.checkpoint,
          crash, cnode_eff));
      cckpt = assets.ckpts.back().get();
    }

    TaskContext pctx{
        .env = {.sim = &sim,
                .recorder = &prec,
                .node = pnode,
                .crash = crash,
                .injector = tb.fault_injector()},
        .out = {ends, 1},
        // MD steps between output frames, then serialize and compress.
        .compute = workload.frame_compute(),
        .serialize = workload.serialize_time(),
        .compress = workload.compress_time(),
        .jitter_sigma = workload.step_jitter_sigma,
        // Ensemble members are launched/equilibrated independently.
        .stagger = workload.start_stagger,
        .rng = set_rng.fork(spec.rng_scope + "pair" + std::to_string(pair)),
        .prod_stats = &assets.stats[2 * pair],
        .pacing = spec.pacing,
        .checkpoint = pckpt,
        .peer_checkpoint = cckpt};
    TaskContext cctx{.env = {.sim = &sim,
                             .recorder = &crec,
                             .node = cnode_eff,
                             .crash = crash,
                             .injector = tb.fault_injector()},
                     .in = {ends + 1, 1},
                     .decompress = workload.decompress_time(),
                     .deserialize = workload.serialize_time(),
                     .analytics = workload.analytics_time(),
                     .cons_stats = &assets.stats[2 * pair + 1],
                     .fetch_samples = fetch_samples,
                     .pacing = spec.pacing,
                     .checkpoint = cckpt,
                     .peer_checkpoint = pckpt};
    if (auto* plane = tb.membership()) {
      pctx.env.membership = cctx.env.membership = plane;
      pctx.env.member_rank = plane->register_rank(pnode);
      cctx.env.member_rank = plane->register_rank(cnode_eff);
      if (spec.solution == Solution::kXfs) {
        // An XFS pair shares one local filesystem; split homes would
        // orphan every frame, so the pair migrates as a unit.
        plane->bind_colocated(pctx.env.member_rank, cctx.env.member_rank);
      }
      pctx.migrate =
          make_migrate(pair, /*consumer=*/false, sync, &prec, pckpt);
      cctx.migrate = make_migrate(pair, /*consumer=*/true, sync, &crec, cckpt);
    }
    if (sink != nullptr) {
      // One trace lane per rank, on the process of the node it runs on.
      attach_trace_lane(pctx.env, *sink, trace_process(pnode),
                        "producer" + std::to_string(pair));
      attach_trace_lane(cctx.env, *sink, trace_process(cnode),
                        "consumer" + std::to_string(pair));
    }
    assets.tasks.push_back(run_task(std::move(pctx)));
    assets.tasks.push_back(run_task(std::move(cctx)));
  }
}

void collect_rank_set(Testbed& tb, const RankSetSpec& spec,
                      RankSetAssets& assets, std::uint32_t rep,
                      const perf::Metadata& meta_extra, RepOutcome& out) {
  double pm = 0, pi = 0, cm = 0, ci = 0;
  for (std::uint32_t pair = 0; pair < spec.pairs; ++pair) {
    const auto& pt = assets.prod_recs[pair]->tree();
    const auto& ct = assets.cons_recs[pair]->tree();
    pm += per_frame_us(pt, "produce", perf::Category::kMovement,
                       spec.workload.frames);
    pi += per_frame_us(pt, "produce", perf::Category::kIdle,
                       spec.workload.frames);
    cm += per_frame_us(ct, "consume", perf::Category::kMovement,
                       spec.workload.frames);
    ci += per_frame_us(ct, "consume", perf::Category::kIdle,
                       spec.workload.frames);

    perf::Metadata meta{
        {"solution", std::string(to_string(spec.solution))},
        {"rep", std::to_string(rep)},
        {"pair", std::to_string(pair)},
        {"pairs", std::to_string(spec.pairs)},
        {"nodes", std::to_string(spec.nodes)},
        {"model", std::string(spec.workload.model.name)},
        {"stride", std::to_string(spec.workload.stride)},
    };
    for (const auto& [key, value] : meta_extra) meta[key] = value;
    meta["role"] = "producer";
    out.thicket.add(meta, assets.prod_recs[pair]->snapshot());
    meta["role"] = "consumer";
    out.thicket.add(meta, assets.cons_recs[pair]->snapshot());

    if (spec.solution == Solution::kDyad) {
      // A migrated consumer's pre-migration counters live on its retired
      // connector; fold every incarnation of this pair's consumer.
      add_dyad_consumer_counters(*assets.ends[2 * pair + 1].conn,
                                 out.counters);
      for (const auto& r : assets.retired_conn) {
        if (r.pair == pair && r.consumer) {
          add_dyad_consumer_counters(*r.conn, out.counters);
        }
      }
    }
    add_rank_stats(assets.stats[2 * pair], assets.stats[2 * pair + 1],
                   out.counters);
    // Zero-data-loss acceptance metric: frames the consumer never
    // completed.  0 on every run that finished; nonzero only if a run was
    // collected after losing frames for good.
    const std::uint64_t consumed = assets.stats[2 * pair + 1].frames_done;
    out.counters.add("frames_lost", consumed < spec.workload.frames
                                        ? spec.workload.frames - consumed
                                        : 0);
  }
  add_node_counters(tb, spec.solution, spec.node_base,
                    spec.node_base + spec.nodes, out.counters);
  for (const auto& ckpt : assets.ckpts) {
    out.counters.add("checkpoint_persists", ckpt->persists());
    out.counters.add("checkpoint_restores", ckpt->restores());
  }
  const auto npairs = static_cast<double>(spec.pairs);
  out.prod_movement_us = pm / npairs;
  out.prod_idle_us = pi / npairs;
  out.cons_movement_us = cm / npairs;
  out.cons_idle_us = ci / npairs;
}

void collect_shared(Testbed& tb, std::uint64_t events_fired,
                    RepOutcome& out) {
  if (auto* injector = tb.fault_injector()) {
    if (fault::has_crash_in_nodes(injector->plan())) {
      out.counters.add("crash_windows", injector->monitor().crashes());
    }
    out.counters.add("fault_windows_applied", injector->windows_applied());
  }
  out.counters.add("torn_writes", tb.lustre().torn_writes());
  if (auto* ledger = tb.integrity_ledger()) {
    out.counters.add("integrity_verified", ledger->verified());
    out.counters.add("integrity_failures", ledger->failures());
    out.counters.add("integrity_refetches", ledger->refetches());
    out.counters.add("integrity_unrecovered", ledger->unrecovered());
  }
  out.counters.add("kvs_commits", tb.kvs().commits());
  out.counters.add("kvs_lookups", tb.kvs().lookups());
  out.counters.add("kvs_sheds", tb.kvs().sheds());
  out.counters.add("lustre_sheds", tb.lustre().sheds());
  out.counters.add("lustre_busy_retries", tb.lustre().busy_retries());
  out.counters.add("net_retransmit_timeouts",
                   tb.network().retransmit_timeouts());
  out.counters.add("sim_events", events_fired);
  if (auto* plane = tb.membership()) {
    out.counters.add("membership_declares", plane->declares());
    out.counters.add("rank_migrations", plane->migrations());
    out.counters.add("declare_latency_us",
                     static_cast<std::uint64_t>(
                         plane->declare_latency().to_micros()));
    out.counters.add("stale_epoch_rejects", tb.fences()->stale_rejects());
  }
}

RepOutcome run_repetition(const EnsembleConfig& config, std::uint32_t rep,
                          obs::TraceSink* trace) {
  // DAG workloads take the dependency-driven executor (dag_run.cpp).
  if (config.dag != nullptr) return run_dag_repetition(config, rep, trace);
  RankSetSpec spec;
  spec.solution = config.solution;
  spec.pairs = config.pairs;
  spec.nodes = config.nodes;
  spec.placement = config.placement;
  spec.workload = config.workload;
  spec.checkpoint = config.checkpoint;
  const Rng rep_rng(config.base_seed + rep);
  // Declared before the repetition's testbed (run_rank_repetition).
  RankSetAssets assets;
  return run_rank_repetition(
      config, rep, trace,
      [&](Testbed& tb, fault::CrashMonitor* crash, RepOutcome& out) {
        // Crash windows (by default) also enable checkpointing.
        build_rank_set(tb, spec, rep_rng, crash, &out.cons_fetch_us, assets);
        if (config.lustre_interference) {
          config.interference.validate();
          // Horizon generously beyond the serialized-workflow makespan.
          const Duration per_frame = config.workload.frame_compute() +
                                     config.workload.analytics_time();
          const auto frames =
              static_cast<std::int64_t>(3 * config.workload.frames);
          const TimePoint horizon = TimePoint::origin() + per_frame * frames +
                                    Duration::seconds_i(30);
          tb.simulation().spawn(fs::run_ost_interference(
              tb.simulation(), tb.lustre(), config.interference,
              rep_rng.fork("interference"), horizon));
        }
        return std::move(assets.tasks);
      },
      [&](Testbed& tb, RepOutcome& out) {
        collect_rank_set(tb, spec, assets, rep, {}, out);
      });
}

void fold_repetition(EnsembleResult& into, RepOutcome rep) {
  into.counters.merge(rep.counters);
  for (double v : rep.cons_fetch_us.values()) into.cons_fetch_us.add(v);
  into.thicket.append(std::move(rep.thicket));
  into.prod_movement_us.add(rep.prod_movement_us);
  into.prod_idle_us.add(rep.prod_idle_us);
  into.cons_movement_us.add(rep.cons_movement_us);
  into.cons_idle_us.add(rep.cons_idle_us);
  into.makespan_s.add(rep.makespan_s);
}

EnsembleResult run_ensemble(const EnsembleConfig& config) {
  EnsembleResult result = make_ensemble_result();
  // Only the first repetition is traced: every rep is an independent
  // simulation starting at t=0, so a combined timeline would interleave
  // unrelated runs.
  obs::TraceSink trace_sink;
  const bool tracing = !config.trace_path.empty();
  for (std::uint32_t rep = 0; rep < config.repetitions; ++rep) {
    fold_repetition(
        result, run_repetition(config, rep,
                               (tracing && rep == 0) ? &trace_sink : nullptr));
  }
  if (tracing) {
    result.counters.set("trace_events", trace_sink.event_count());
    trace_sink.write(config.trace_path);
  }
  return result;
}

}  // namespace mdwf::workflow
