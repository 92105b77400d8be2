#include "mdwf/workflow/ensemble.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/rank_loop.hpp"

namespace mdwf::workflow {

std::string frame_path(std::uint32_t pair, std::uint64_t f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "pair%04u/frame%05llu", pair,
                static_cast<unsigned long long>(f));
  return buf;
}

std::string pair_prefix(std::uint32_t pair) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pair%04u/", pair);
  return buf;
}

namespace {

// Everything one classic rank needs on top of its RankEnv: its slice of the
// workload, checkpoint and migration hooks.  Passed by value into the rank
// coroutines — a context outlives nothing; the pointed-to objects must
// outlive the rank.
struct RankContext {
  RankEnv env;
  Connector* connector = nullptr;
  WorkloadConfig workload{};
  std::uint32_t pair = 0;
  // Path namespace prepended to every frame path ("" classic;
  // "<tenant>/" in multi-tenant runs so co-tenant frames never collide).
  std::string ns;
  // SLO pacing hook (null = none; see PacingHook).
  PacingHook* pacing = nullptr;
  Rng rng{1};  // producers only; consumers draw nothing
  // Progress record to roll back to; null = restart re-executes everything.
  Checkpoint* checkpoint = nullptr;
  RankStats* stats = nullptr;
  // Node the pair's other rank started on (a peer on a permanently-lost
  // node can never re-supply frames without a plane).
  std::uint32_t peer_node = 0;
  // Peer rank's progress record, for the pair-min coordinated rollback: a
  // migrated producer re-produces everything its consumer has not durably
  // consumed (the lost node's copies are unreachable).
  Checkpoint* peer_checkpoint = nullptr;
  // With a membership plane: rebuilds this rank's node-bound resources
  // (connector, subscriptions, checkpoint home) on the new node and returns
  // the replacement connector.
  std::function<Connector*(std::uint32_t node, std::uint64_t restart)>
      rebuild{};
  // Consumers only (non-null = record): per-frame get() latency in
  // microseconds, the distribution behind the frame-fetch P99.
  Samples* fetch_samples = nullptr;
  // Shared per-pair frame publication times (index = frame).  The producer
  // stamps each frame when its put completes; the consumer measures fetch
  // latency from max(request, publish) so the metric is the cost of
  // *moving* an available frame (the closed-loop variant of coordinated
  // omission: an unmitigated-slow consumer never arrives early, so raw
  // wall-clock would flatter exactly the configurations without health).
  std::vector<TimePoint>* publish_times = nullptr;
};

// Rank restart after its node failed underneath it.  Without a membership
// plane: park until power-on, then roll back to the last durable
// checkpoint.  With one: a rank whose home was declared lost re-homes onto
// a surviving node, rolls back to the pair-min of both ranks' durable
// records (the coordinated rollback that re-produces everything the
// surviving peer still needs), and rebinds its node-local resources there.
// Returns the frame to resume from; may change the node/connector.
sim::Task<std::uint64_t> crash_restart(RankContext& ctx) {
  const std::uint32_t target = co_await await_restart(ctx.env, ctx.stats);
  if (target != ctx.env.node) {
    std::uint64_t restart = 0;
    if (ctx.checkpoint != nullptr) {
      restart = ctx.checkpoint->durable();
      if (ctx.peer_checkpoint != nullptr) {
        restart = std::min(restart, ctx.peer_checkpoint->durable());
      }
    }
    if (ctx.rebuild) ctx.connector = ctx.rebuild(target, restart);
    ctx.env.node = target;
  }
  co_return ctx.checkpoint != nullptr ? ctx.checkpoint->restore() : 0;
}

// Frames below a restored checkpoint are durably complete; credit the ones
// not yet counted (a crash can land between persist(f+1) and count_frame,
// rolling the rank *forward* past an uncounted frame).
void credit_restored(RankStats* stats, std::uint64_t restored,
                     std::uint64_t& high) {
  if (restored <= high) return;
  if (stats != nullptr) stats->frames_done += restored - high;
  high = restored;
}

// One producer rank: regions md_compute / serialize / produce /
// producer_sync (plus fault_retry / crash_restart when recovering).
sim::Task<void> run_producer(RankContext ctx) {
  const RankEnv& env = ctx.env;
  auto& sim = *env.sim;
  auto& recorder = *env.recorder;
  const WorkloadConfig& workload = ctx.workload;
  const Bytes wire_bytes = workload.wire_bytes();
  if (workload.start_stagger > 0.0) {
    // Launch/equilibration phase offset; desynchronizes ensemble members.
    co_await sim.delay(workload.frame_compute() *
                       (workload.start_stagger * ctx.rng.next_double()));
  }
  std::uint64_t completed_high = 0;
  std::uint64_t f = 0;
  while (f < workload.frames) {
    const std::uint64_t frame_epoch = rank_epoch(env);
    if (ctx.pacing != nullptr) {
      // SLO-guard throttle: under contention the guard staggers production
      // so the tenant's consumer (and its neighbors) can catch up.
      const Duration hold = ctx.pacing->producer_delay(f);
      if (hold > Duration::zero()) {
        perf::ScopedRegion pace(recorder, "slo_stagger",
                                perf::Category::kIdle);
        co_await sim.delay(hold);
      }
    }
    {
      // MD steps between output frames; jitter models run-to-run rate
      // variability of a real simulation.  Re-executed frames redo the full
      // stride: the crash lost the in-memory MD state past the checkpoint.
      perf::ScopedRegion compute(recorder, "md_compute",
                                 perf::Category::kCompute);
      const double jitter =
          std::max(-0.5, ctx.rng.normal(0.0, workload.step_jitter_sigma));
      co_await sim.delay(workload.frame_compute() *
                         ((1.0 + jitter) * cpu_dilation(env)));
    }
    {
      perf::ScopedRegion ser(recorder, "serialize", perf::Category::kCompute);
      co_await sim.delay(workload.serialize_time() * cpu_dilation(env));
    }
    if (workload.compress) {
      perf::ScopedRegion comp(recorder, "compress", perf::Category::kCompute);
      co_await sim.delay(workload.compress_time() * cpu_dilation(env));
    }
    const std::string path = ctx.ns + frame_path(ctx.pair, f);
    const FrameOp put = co_await retry_frame_op(
        env, frame_epoch, ctx.peer_node, ctx.stats, "produce",
        [&]() -> sim::Task<void> {
          co_await ctx.connector->put(path, wire_bytes, f);
          (*ctx.publish_times)[f] = sim.now();
          if (ctx.checkpoint != nullptr) {
            co_await ctx.checkpoint->persist(f + 1);
          }
        });
    if (put != FrameOp::kDone || rank_epoch(env) != frame_epoch) {
      // Fenced, or our node died (the put was durable iff the checkpoint
      // says so).
      f = co_await crash_restart(ctx);
      credit_restored(ctx.stats, f, completed_high);
      continue;
    }
    trace_frame(env, f);
    co_await ctx.connector->producer_sync(f);
    if (rank_epoch(env) != frame_epoch) {
      // Node failed while parked in producer_sync (consumer acks arrive
      // from a live node).
      f = co_await crash_restart(ctx);
      credit_restored(ctx.stats, f, completed_high);
      continue;
    }
    count_frame(ctx.stats, f, completed_high);
    if (ctx.pacing != nullptr) ctx.pacing->on_frame_produced(f);
    ++f;
  }
  if (env.membership != nullptr) env.membership->rank_done();
}

// One consumer rank: regions consume / deserialize / analytics (plus
// fault_retry / crash_restart when recovering).
sim::Task<void> run_consumer(RankContext ctx) {
  const RankEnv& env = ctx.env;
  auto& sim = *env.sim;
  auto& recorder = *env.recorder;
  const WorkloadConfig& workload = ctx.workload;
  const Bytes wire_bytes = workload.wire_bytes();
  std::uint64_t completed_high = 0;
  std::uint64_t f = 0;
  while (f < workload.frames) {
    const std::uint64_t frame_epoch = rank_epoch(env);
    const TimePoint fetch_start = sim.now();
    const std::string path = ctx.ns + frame_path(ctx.pair, f);
    // A failed get polls until the producer side (crashed or re-executing)
    // makes the frame (re)appear.
    const FrameOp got = co_await retry_frame_op(
        env, frame_epoch, ctx.peer_node, ctx.stats, "consume",
        [&] { return ctx.connector->get(path, wire_bytes, f); });
    if (got == FrameOp::kDone &&
        (ctx.fetch_samples != nullptr || ctx.pacing != nullptr)) {
      // The frame-fetch latency includes any retries/hedging below the
      // connector; its P99 is the gray-failure headline metric.
      if (const auto latency_us = fetch_latency_us(
              sim.now(), fetch_start, *ctx.publish_times, f)) {
        if (ctx.fetch_samples != nullptr) ctx.fetch_samples->add(*latency_us);
        if (ctx.pacing != nullptr) ctx.pacing->on_fetch(sim.now(), *latency_us);
      }
    }
    if (got != FrameOp::kDone || rank_epoch(env) != frame_epoch) {
      f = co_await crash_restart(ctx);
      credit_restored(ctx.stats, f, completed_high);
      continue;
    }
    trace_frame(env, f);
    if (workload.compress) {
      perf::ScopedRegion dec(recorder, "decompress",
                             perf::Category::kCompute);
      co_await sim.delay(workload.decompress_time() * cpu_dilation(env));
    }
    {
      perf::ScopedRegion des(recorder, "deserialize",
                             perf::Category::kCompute);
      co_await sim.delay(workload.serialize_time() * cpu_dilation(env));
    }
    {
      // Analytics emulation matches the frame-generation frequency
      // (paper Sec. IV-C); analytics_scale > 1 models a consumer that
      // cannot keep pace.
      perf::ScopedRegion ana(recorder, "analytics", perf::Category::kCompute);
      co_await sim.delay(workload.analytics_time() * cpu_dilation(env));
    }
    ctx.connector->acknowledge(f);
    if (ctx.checkpoint != nullptr) co_await ctx.checkpoint->persist(f + 1);
    if (rank_epoch(env) != frame_epoch) {
      // Crash during analytics/ack/persist: the analytics output since the
      // last durable record is gone; re-consume from there.
      f = co_await crash_restart(ctx);
      credit_restored(ctx.stats, f, completed_high);
      continue;
    }
    count_frame(ctx.stats, f, completed_high);
    if (ctx.pacing != nullptr) ctx.pacing->on_frame_consumed(f);
    ++f;
  }
  if (env.membership != nullptr) env.membership->rank_done();
}

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

  // Migration rebinder: retire the old connector (frames in flight may
  // still unwind through it), build the solution's standard connector on
  // the new home, renew the pair's push-mode/stream subscription from
  // there, and re-home the progress record with the pair-min rollback.
  auto make_rebuild = [&tb, &assets, solution = spec.solution, ns = spec.ns,
                       factory = spec.connectors](
                          std::uint32_t pair, bool consumer,
                          ExplicitSync* sync, perf::Recorder* rec,
                          Checkpoint* ckpt) {
    return [&tb, &assets, solution, ns, factory, pair, consumer, sync, rec,
            ckpt](std::uint32_t node, std::uint64_t restart) -> Connector* {
      auto& slot = consumer ? assets.cons_conn[pair] : assets.prod_conn[pair];
      assets.retired_conn.push_back({pair, consumer, std::move(slot)});
      const ConnectorSpec cs{.testbed = &tb,
                             .solution = solution,
                             .node = node,
                             .sync = sync,
                             .recorder = rec};
      slot = factory ? factory(cs, pair, consumer) : make_connector(cs);
      if (consumer) {
        subscribe_consumer(tb, solution, ns + pair_prefix(pair), node);
      }
      if (ckpt != nullptr) {
        ckpt->migrate(*tb.node(node).local_fs, node, restart);
      }
      return slot.get();
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

    ExplicitSync* sync = nullptr;
    if (spec.solution == Solution::kXfs ||
        spec.solution == Solution::kLustre) {
      assets.syncs.push_back(std::make_unique<ExplicitSync>(sim));
      sync = assets.syncs.back().get();
    }
    // XFS is colocated by construction: both ranks share pnode's local FS.
    const std::uint32_t cnode_eff =
        spec.solution == Solution::kXfs ? pnode : cnode;
    const ConnectorSpec pconn{.testbed = &tb,
                              .solution = spec.solution,
                              .node = pnode,
                              .sync = sync,
                              .recorder = &prec};
    const ConnectorSpec cconn{.testbed = &tb,
                              .solution = spec.solution,
                              .node = cnode_eff,
                              .sync = sync,
                              .recorder = &crec};
    assets.prod_conn.push_back(spec.connectors
                                   ? spec.connectors(pconn, pair, false)
                                   : make_connector(pconn));
    assets.cons_conn.push_back(spec.connectors
                                   ? spec.connectors(cconn, pair, true)
                                   : make_connector(cconn));
    // Static route: the scheduler knows the placement, so first stream
    // frames skip the KVS cold-start handshake (which stays as the fallback
    // for routes learned at runtime, exercised by the unit tests).
    subscribe_consumer(tb, spec.solution, spec.ns + pair_prefix(pair), cnode);

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

    RankContext pctx{
        .env = {.sim = &sim,
                .recorder = &prec,
                .node = pnode,
                .crash = crash,
                .injector = tb.fault_injector()},
        .connector = assets.prod_conn.back().get(),
        .workload = spec.workload,
        .pair = pair,
        .ns = spec.ns,
        .pacing = spec.pacing,
        .rng = set_rng.fork(spec.rng_scope + "pair" + std::to_string(pair)),
        .checkpoint = pckpt,
        .stats = &assets.stats[2 * pair],
        .peer_node = cnode_eff,
        .peer_checkpoint = cckpt};
    RankContext cctx{.env = {.sim = &sim,
                             .recorder = &crec,
                             .node = cnode_eff,
                             .crash = crash,
                             .injector = tb.fault_injector()},
                     .connector = assets.cons_conn.back().get(),
                     .workload = spec.workload,
                     .pair = pair,
                     .ns = spec.ns,
                     .pacing = spec.pacing,
                     .checkpoint = cckpt,
                     .stats = &assets.stats[2 * pair + 1],
                     .peer_node = pnode,
                     .peer_checkpoint = pckpt,
                     .fetch_samples = fetch_samples};
    if (auto* plane = tb.membership()) {
      pctx.env.membership = cctx.env.membership = plane;
      pctx.env.member_rank = plane->register_rank(pnode);
      cctx.env.member_rank = plane->register_rank(cnode_eff);
      if (spec.solution == Solution::kXfs) {
        // An XFS pair shares one local filesystem; split homes would
        // orphan every frame, so the pair migrates as a unit.
        plane->bind_colocated(pctx.env.member_rank, cctx.env.member_rank);
      }
      pctx.rebuild =
          make_rebuild(pair, /*consumer=*/false, sync, &prec, pckpt);
      cctx.rebuild = make_rebuild(pair, /*consumer=*/true, sync, &crec, cckpt);
    }
    assets.pub_times.push_back(std::make_unique<std::vector<TimePoint>>(
        spec.workload.frames, TimePoint::origin()));
    pctx.publish_times = cctx.publish_times = assets.pub_times.back().get();
    if (sink != nullptr) {
      // One trace lane per rank, on the process of the node it runs on.
      attach_trace_lane(pctx.env, *sink, trace_process(pnode),
                        "producer" + std::to_string(pair));
      attach_trace_lane(cctx.env, *sink, trace_process(cnode),
                        "consumer" + std::to_string(pair));
    }
    assets.tasks.push_back(run_producer(pctx));
    assets.tasks.push_back(run_consumer(cctx));
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
      add_dyad_consumer_counters(*assets.cons_conn[pair], out.counters);
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
