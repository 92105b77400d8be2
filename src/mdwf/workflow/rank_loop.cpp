#include "mdwf/workflow/rank_loop.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "mdwf/common/fence.hpp"
#include "mdwf/workflow/dag_run.hpp"

namespace mdwf::workflow {

namespace {

// The rank's node epoch (0 without a crash model); a change means the node
// crashed underneath the rank.
std::uint64_t rank_epoch(const RankEnv& env) {
  return env.crash != nullptr ? env.crash->epoch(env.node) : 0;
}

// Fail-slow CPU: compute bursts stretch by the injector's current dilation
// for this rank's node (kSlowNode windows; x1.0 outside them).
double cpu_dilation(const RankEnv& env) {
  return env.injector != nullptr ? env.injector->cpu_dilation(env.node) : 1.0;
}

// Frame-boundary timeline marker ("f=<n>") on the rank's trace lane.  The
// frame number rides as the record payload; the name materializes at export.
void trace_frame(const RankEnv& env, std::uint64_t f) {
  if (env.trace == nullptr) return;
  env.trace->instant(env.frame_marker, env.sim->now(),
                     static_cast<std::int64_t>(f));
}

// Account a finished frame iteration: distinct progress vs post-rollback
// re-execution.
void count_frame(RankStats* stats, std::uint64_t f, std::uint64_t& high) {
  if (f < high) {
    if (stats != nullptr) ++stats->reexecuted;
  } else {
    high = f + 1;
    if (stats != nullptr) ++stats->frames_done;
  }
}

// Backoff between same-frame retries when a *remote* fault (crashed peer,
// torn fabric) failed the operation but this rank's node kept its state.
constexpr Duration kFaultRetryBackoff = Duration::milliseconds(50);
// Hard cap so an unrecoverable configuration surfaces as the original error
// instead of an endless poll loop.
constexpr std::uint64_t kMaxFaultRetries = 10'000;

// Backoff-or-park decision for a retry whose peer's node is down.  Without
// a plane, a peer on a permanently-lost node can never re-supply (or
// consume) frames: park on its up-event — which never fires — so the run
// quiesces into the deadlock reporter instead of polling forever.  With a
// plane the peer migrates and re-supplies, so keep polling.
bool park_on_lost_peer(const RankEnv& env, std::uint32_t peer_node) {
  return env.membership == nullptr && env.injector != nullptr &&
         env.crash != nullptr && env.crash->down(peer_node) &&
         env.injector->node_lost(peer_node);
}

enum class FrameOp {
  kDone,     // the operation completed
  kFenced,   // the membership plane fenced this incarnation (zombie)
  kCrashed,  // it failed and the rank's own node crashed meanwhile
};

// Runs one frame operation — `op()` returns the sim::Task to await — inside
// a `region` of the rank's recorder, retrying after remote faults
// (NetError, IoError, FsError).  Without a crash model, or past
// kMaxFaultRetries, the fault is rethrown.  StaleEpochError reports kFenced
// when a membership plane is present and is rethrown otherwise.  Each retry
// counts one fault_retries on `stats` and parks on a lost `peer_node` or
// backs off, inside a `fault_retry` idle region.  `epoch` is the rank's
// epoch when the run began.
template <typename Op>
sim::Task<FrameOp> retry_frame_op(const RankEnv& env, std::uint64_t epoch,
                                  std::uint32_t peer_node, RankStats* stats,
                                  std::string_view region, Op op) {
  for (std::uint64_t attempts = 0;; ++attempts) {
    std::exception_ptr failure;
    bool fenced = false;
    try {
      perf::ScopedRegion scope(*env.recorder, region);
      co_await op();
    } catch (const net::NetError&) {
      failure = std::current_exception();
    } catch (const storage::IoError&) {
      failure = std::current_exception();
    } catch (const fs::FsError&) {
      failure = std::current_exception();
    } catch (const StaleEpochError&) {
      // This node was declared lost while its ranks kept running (a zombie
      // cut off by a one-way partition): the first post-heal server round
      // trip fenced the old incarnation.  Terminal for this incarnation.
      if (env.membership == nullptr) throw;
      fenced = true;
    }
    if (fenced) co_return FrameOp::kFenced;
    if (failure == nullptr) co_return FrameOp::kDone;
    if (env.crash == nullptr || attempts >= kMaxFaultRetries) {
      std::rethrow_exception(failure);
    }
    if (rank_epoch(env) != epoch) co_return FrameOp::kCrashed;
    if (stats != nullptr) ++stats->fault_retries;
    perf::ScopedRegion wait(*env.recorder, "fault_retry",
                            perf::Category::kIdle);
    if (park_on_lost_peer(env, peer_node)) {
      co_await env.crash->wait_up(peer_node);
    } else {
      co_await env.sim->delay(kFaultRetryBackoff);
    }
  }
}

// Availability-relative fetch latency of frame `f` in microseconds: from
// the frame being both requested (`fetch_start`) and published (its stamp)
// to now.  A consumer idling ahead of a slow producer is not a slow fetch.
// Empty when the stamp is still missing: a hedge can finish off the Lustre
// replica before the producer's own put() returns, and that
// (certainly-not-slow) fetch is unmeasurable.
std::optional<double> fetch_latency_us(TimePoint now, TimePoint fetch_start,
                                       const Edge& edge, std::uint64_t f) {
  const TimePoint pub = edge.published[f];
  if (pub == TimePoint::origin()) return std::nullopt;
  return (now - std::max(fetch_start, pub)).to_micros();
}

// The CPU stages around the data movement, in order, and their costs.
struct Stage {
  std::string_view name;
  Duration TaskContext::*cost;
};
constexpr Stage kPackStages[] = {{"serialize", &TaskContext::serialize},
                                 {"compress", &TaskContext::compress}};
constexpr Stage kUnpackStages[] = {
    {"decompress", &TaskContext::decompress},
    {"deserialize", &TaskContext::deserialize},
    // Analytics emulation matches the frame-generation frequency (paper
    // Sec. IV-C); analytics_scale > 1 models a consumer that cannot keep
    // pace.
    {"analytics", &TaskContext::analytics}};

// A put whose progress record follows it inside the same retried operation:
// the frame is available (stamped) as soon as its put returns.
sim::Task<void> put_and_record(TaskContext& ctx, EdgeEnd& end,
                               const std::string& path, std::uint64_t f) {
  co_await end.conn->put(path, end.edge->frame_bytes, f);
  end.edge->published[f] = ctx.env.sim->now();
  co_await ctx.checkpoint->persist(f + 1);
}

// Fetches every frame of every in-edge from frame `from`, in edge order.
// False when the rank's node crashed (or its incarnation was fenced)
// underneath it.  A failed get polls until the producer side (crashed or
// re-executing) makes the frame (re)appear.
sim::Task<bool> fetch_phase(TaskContext& ctx, std::uint64_t epoch,
                            std::uint64_t from, std::uint64_t& high) {
  const RankEnv& env = ctx.env;
  auto& sim = *env.sim;
  std::uint64_t unit_base = 0;  // linear fetch unit of the edge's frame 0
  for (EdgeEnd& end : ctx.in) {
    const Edge& edge = *end.edge;
    for (std::uint64_t f = from; f < edge.frames; ++f) {
      const TimePoint fetch_start = sim.now();
      const std::string path = frame_key(edge.prefix, f);
      const FrameOp got = co_await retry_frame_op(
          env, epoch, end.peer_node, ctx.cons_stats, "consume",
          [&] { return end.conn->get(path, edge.frame_bytes, f); });
      if (got == FrameOp::kDone &&
          (ctx.fetch_samples != nullptr || ctx.pacing != nullptr)) {
        // The frame-fetch latency includes any retries/hedging below the
        // connector; its P99 is the gray-failure headline metric.
        if (const auto latency_us =
                fetch_latency_us(sim.now(), fetch_start, edge, f)) {
          if (ctx.fetch_samples != nullptr) {
            ctx.fetch_samples->add(*latency_us);
          }
          if (ctx.pacing != nullptr) {
            ctx.pacing->on_fetch(sim.now(), *latency_us);
          }
        }
      }
      if (got != FrameOp::kDone || rank_epoch(env) != epoch) co_return false;
      trace_frame(env, unit_base + f);
      if (ctx.probe != nullptr) {
        ctx.probe->on_fetch(ctx.task, edge.id, f, sim.now());
      }
      for (const Stage& stage : kUnpackStages) {
        const Duration cost = ctx.*stage.cost;
        if (cost.is_zero()) continue;
        perf::ScopedRegion region(*env.recorder, stage.name,
                                  perf::Category::kCompute);
        co_await sim.delay(cost * cpu_dilation(env));
      }
      end.conn->acknowledge(f);
      if (ctx.checkpoint != nullptr) co_await ctx.checkpoint->persist(f + 1);
      // A streaming consumer's analytics output since the last durable
      // record dies with its node; re-consume from there.
      if (edge.streams && rank_epoch(env) != epoch) co_return false;
      count_frame(ctx.cons_stats, unit_base + f, high);
      if (ctx.pacing != nullptr) ctx.pacing->on_frame_consumed(f);
    }
    unit_base += edge.frames;
  }
  co_return true;
}

// Publishes every frame from `from` to every out-edge, then drains the
// batch edges.  False when the rank's node crashed (or its incarnation was
// fenced) underneath it.
sim::Task<bool> publish_phase(TaskContext& ctx, std::uint64_t epoch,
                              std::uint64_t from, std::uint64_t& high) {
  const RankEnv& env = ctx.env;
  auto& sim = *env.sim;
  auto& rec = *env.recorder;
  if (ctx.in.empty() && ctx.out.empty() && !ctx.compute.is_zero()) {
    // An edgeless task: pure compute, no movement.
    perf::ScopedRegion compute(rec, "md_compute", perf::Category::kCompute);
    co_await sim.delay(ctx.compute * cpu_dilation(env));
  }
  // Publish units follow the fetch units on the trace lane.
  std::uint64_t unit_base = 0;
  for (const EdgeEnd& end : ctx.in) unit_base += end.edge->frames;
  const std::uint64_t frames = ctx.out.empty() ? 0 : ctx.out[0].edge->frames;
  for (std::uint64_t f = from; f < frames; ++f) {
    if (ctx.pacing != nullptr) {
      // SLO-guard throttle: under contention the guard staggers production
      // so the tenant's consumer (and its neighbors) can catch up.
      const Duration hold = ctx.pacing->producer_delay(f);
      if (hold > Duration::zero()) {
        perf::ScopedRegion pace(rec, "slo_stagger", perf::Category::kIdle);
        co_await sim.delay(hold);
      }
    }
    {
      // The compute between output frames; jitter models run-to-run rate
      // variability.  Re-executed frames redo the full stride: the crash
      // lost the in-memory state past the progress record.
      perf::ScopedRegion compute(rec, "md_compute", perf::Category::kCompute);
      const double jitter =
          std::max(-0.5, ctx.rng.normal(0.0, ctx.jitter_sigma));
      co_await sim.delay(ctx.compute * ((1.0 + jitter) * cpu_dilation(env)));
    }
    for (const Stage& stage : kPackStages) {
      const Duration cost = ctx.*stage.cost;
      if (cost.is_zero()) continue;
      perf::ScopedRegion region(rec, stage.name, perf::Category::kCompute);
      co_await sim.delay(cost * cpu_dilation(env));
    }
    for (std::size_t oi = 0; oi < ctx.out.size(); ++oi) {
      EdgeEnd& end = ctx.out[oi];
      Edge& edge = *end.edge;
      const std::string path = frame_key(edge.prefix, f);
      const FrameOp put = co_await retry_frame_op(
          env, epoch, end.peer_node, ctx.prod_stats, "produce", [&] {
            return ctx.checkpoint != nullptr
                       ? put_and_record(ctx, end, path, f)
                       : end.conn->put(path, edge.frame_bytes, f);
          });
      if (put == FrameOp::kDone && ctx.checkpoint == nullptr) {
        edge.published[f] = sim.now();
      }
      // Fenced, or our node died (the put was durable iff the record says
      // so).
      if (put != FrameOp::kDone || rank_epoch(env) != epoch) co_return false;
      const std::uint64_t unit = f * ctx.out.size() + oi;
      trace_frame(env, unit_base + unit);
      if (ctx.probe != nullptr) {
        ctx.probe->on_publish(ctx.task, edge.id, f, sim.now());
      }
      if (edge.streams) {
        // The node can fail while parked here (consumer acks arrive from a
        // live node).
        co_await end.conn->producer_sync(f);
        if (rank_epoch(env) != epoch) co_return false;
      }
      count_frame(ctx.prod_stats, unit, high);
    }
    if (ctx.pacing != nullptr) ctx.pacing->on_frame_produced(f);
  }
  // End-of-edge barriers (manual-sync solutions): wait for every child to
  // drain this task's frames.  The consumer-side per-frame wait (the
  // explicit_sync idle) is untouched.
  for (EdgeEnd& end : ctx.out) {
    if (end.edge->streams) continue;
    co_await end.conn->producer_sync(end.edge->frames - 1);
    if (rank_epoch(env) != epoch) co_return false;
  }
  co_return true;
}

// The restart path after a crash or a fence.  Park in a `crash_restart`
// region until the rank's node is back up — or, with a membership plane,
// until the plane recovers or re-homes the rank — and count the recovery on
// `stats`.  A re-homed rank rolls back to the pair-min of both ranks'
// durable records (the coordinated rollback that re-produces everything the
// surviving peer still needs) and rebinds its node-local resources there.
// Returns the frame to resume from: the progress record's, crediting the
// frames below it not yet counted (a crash can land between a record and
// the count, rolling the rank *forward*), or 0 without a record.
sim::Task<std::uint64_t> restart(TaskContext& ctx, RankStats* stats,
                                 std::uint64_t& high) {
  RankEnv& env = ctx.env;
  std::uint32_t target = env.node;
  {
    perf::ScopedRegion down(*env.recorder, "crash_restart",
                            perf::Category::kIdle);
    if (env.membership != nullptr) {
      target = co_await env.membership->wait_recover_or_migrate(
          env.member_rank);
    } else {
      co_await env.crash->wait_up(env.node);
    }
  }
  if (stats != nullptr) ++stats->crash_recoveries;
  if (target != env.node) {
    std::uint64_t rollback = 0;
    if (ctx.checkpoint != nullptr) {
      rollback = ctx.checkpoint->durable();
      if (ctx.peer_checkpoint != nullptr) {
        rollback = std::min(rollback, ctx.peer_checkpoint->durable());
      }
    }
    if (ctx.migrate) ctx.migrate(target, rollback);
    env.node = target;
  }
  if (ctx.checkpoint == nullptr) co_return 0;
  const std::uint64_t from = ctx.checkpoint->restore();
  if (from > high) {
    if (stats != nullptr) stats->frames_done += from - high;
    high = from;
  }
  co_return from;
}

}  // namespace

sim::Task<void> run_task(TaskContext ctx) {
  RankEnv& env = ctx.env;
  if (ctx.in.empty() && !ctx.out.empty() && ctx.stagger > 0.0) {
    // Source tasks start with a launch/equilibration offset that
    // desynchronizes ensemble members; downstream tasks are desynchronized
    // by their inputs' arrival instead.
    co_await env.sim->delay(ctx.compute *
                            (ctx.stagger * ctx.rng.next_double()));
  }
  std::uint64_t fetched_high = 0;
  std::uint64_t published_high = 0;
  std::uint64_t from = 0;
  for (;;) {
    const std::uint64_t epoch = rank_epoch(env);
    bool done = co_await fetch_phase(ctx, epoch, from, fetched_high);
    if (done) done = co_await publish_phase(ctx, epoch, from, published_high);
    // A crash during a pure-compute stretch raises no exception; the epoch
    // check here catches it before the task declares itself done.
    if (done && rank_epoch(env) == epoch) break;
    // Recoveries count on the fetch side of a task that fetches.
    const bool fetches = !ctx.in.empty();
    from = co_await restart(ctx, fetches ? ctx.cons_stats : ctx.prod_stats,
                            fetches ? fetched_high : published_high);
  }
  if (env.membership != nullptr) env.membership->rank_done();
  if (ctx.probe != nullptr) ctx.probe->on_complete(ctx.task, env.sim->now());
}

std::string edge_prefix(std::string_view ns, std::string_view stem,
                        std::uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04u/", id);
  return std::string(ns).append(stem).append(buf);
}

ExplicitSync* wire_edge(Testbed& tb, Solution solution,
                        const ConnectorFactory& factory,
                        std::vector<std::unique_ptr<ExplicitSync>>& syncs,
                        Edge& edge, EdgeEnd& producer, std::uint32_t pnode,
                        perf::Recorder& prec, EdgeEnd& consumer,
                        std::uint32_t cnode, perf::Recorder& crec) {
  ExplicitSync* sync = nullptr;
  if (solution == Solution::kXfs || solution == Solution::kLustre) {
    syncs.push_back(std::make_unique<ExplicitSync>(tb.simulation()));
    sync = syncs.back().get();
  }
  auto connect = [&](std::uint32_t node, perf::Recorder& rec, bool cons) {
    const ConnectorSpec cs{.testbed = &tb,
                           .solution = solution,
                           .node = node,
                           .sync = sync,
                           .recorder = &rec};
    return factory ? factory(cs, edge.id, cons) : make_connector(cs);
  };
  producer = {&edge, connect(pnode, prec, false), cnode};
  consumer = {&edge, connect(cnode, crec, true), pnode};
  // Static route: the scheduler knows the placement, so first stream frames
  // skip the KVS cold-start handshake (which stays as the fallback for
  // routes learned at runtime, exercised by the unit tests).
  subscribe_consumer(tb, solution, edge.prefix, cnode);
  return sync;
}

std::string frame_key(std::string_view prefix, std::uint64_t f) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "frame%05llu",
                              static_cast<unsigned long long>(f));
  std::string path;
  path.reserve(prefix.size() + static_cast<std::size_t>(n));
  path.append(prefix).append(buf, static_cast<std::size_t>(n));
  return path;
}

void attach_trace_lane(RankEnv& env, obs::TraceSink& sink,
                       const std::string& process, const std::string& thread) {
  env.trace = &sink;
  env.track = sink.track(process, thread);
  env.frame_marker = sink.instant_series(env.track, "f=");
  env.recorder->set_trace(&sink, env.track);
}

void subscribe_consumer(Testbed& tb, Solution solution,
                        const std::string& prefix, std::uint32_t node) {
  if (solution == Solution::kDyad && tb.params().dyad.push_mode) {
    tb.dyad_domain().subscribe(prefix, net::NodeId{node});
  }
  if (solution == Solution::kStream) {
    tb.stream_domain().subscribe(prefix, net::NodeId{node});
  }
}

double per_frame_us(const perf::CallTree& tree, std::string_view subtree,
                    perf::Category cat, std::uint64_t frames) {
  return tree.category_time(subtree, cat).to_micros() /
         static_cast<double>(frames);
}

void add_dyad_consumer_counters(const Connector& conn,
                                obs::CounterMap& counters) {
  const auto& dc =
      static_cast<const DyadConnector&>(conn.stats_target()).consumer();
  counters.add("dyad_warm_hits", dc.warm_hits());
  counters.add("dyad_kvs_waits", dc.kvs_waits());
  counters.add("dyad_kvs_retries", dc.kvs_retries());
  counters.add("dyad_recovery_retries", dc.recovery_retries());
  counters.add("dyad_failovers", dc.failovers());
}

void add_node_counters(Testbed& tb, Solution solution, std::uint32_t first,
                       std::uint32_t end, obs::CounterMap& counters) {
  for (std::uint32_t n = first; n < end; ++n) {
    const NodeResources& node = tb.node(n);
    if (solution == Solution::kDyad) {
      counters.add("dyad_republishes", node.dyad->republishes());
      const auto& hs = node.dyad->health_state();
      counters.add("dyad_hedges", hs.hedges);
      counters.add("dyad_hedge_wins", hs.hedge_wins);
      counters.add("dyad_hedge_cancels", hs.hedge_cancels);
      counters.add("dyad_breaker_trips", hs.breaker.trips());
      counters.add("dyad_breaker_fast_fails", hs.breaker_fast_fails);
      counters.add("dyad_busy_retries", hs.busy_retries);
    }
    if (solution == Solution::kStream) {
      const auto& sn = *node.stream;
      counters.add("stream_puts", sn.puts());
      counters.add("stream_staged_hits", sn.staged_hits());
      counters.add("stream_spills", sn.spills());
      counters.add("stream_spill_reads", sn.spill_reads());
      counters.add("stream_replays", sn.replays());
      counters.add("stream_dup_drops", sn.dup_drops());
      counters.add("stream_crash_drops", sn.crash_drops());
      counters.add("stream_credit_waits", sn.credit_waits());
      counters.add("stream_backpressure_stalls", sn.backpressure_stalls());
      counters.add("stream_hedges", sn.hedges());
      counters.add("stream_hedge_wins", sn.hedge_wins());
    }
    counters.add("torn_writes", node.local_fs->torn_files());
    counters.add("lost_dirty_pages", node.cache->dirty_dropped());
    counters.add("cache_hits", node.cache->hits());
    counters.add("cache_misses", node.cache->misses());
  }
}

void add_rank_stats(const RankStats& producer, const RankStats& consumer,
                    obs::CounterMap& counters) {
  counters.add("frames_produced", producer.frames_done);
  counters.add("frames_consumed", consumer.frames_done);
  counters.add("frames_reexecuted", producer.reexecuted + consumer.reexecuted);
  counters.add("fault_retries",
               producer.fault_retries + consumer.fault_retries);
  counters.add("crash_recoveries",
               producer.crash_recoveries + consumer.crash_recoveries);
}

sim::Task<void> run_all_and_mark(sim::Simulation& sim,
                                 std::vector<sim::Task<void>> tasks,
                                 TimePoint& end) {
  co_await sim::all(sim, std::move(tasks));
  end = sim.now();
}

TestbedParams repetition_testbed(const TestbedParams& base,
                                 std::uint32_t nodes, std::uint64_t base_seed,
                                 std::uint32_t rep, obs::TraceSink* trace) {
  TestbedParams tp = base;
  tp.compute_nodes = nodes;
  // Each repetition draws an independent corruption history (same prime
  // stride scheme as the workload seeds: deterministic, non-overlapping).
  tp.integrity.seed = base_seed + rep * 7919;
  tp.trace = trace;
  return tp;
}

RepOutcome run_rank_repetition(const EnsembleConfig& config, std::uint32_t rep,
                               obs::TraceSink* trace, const WireRanks& wire,
                               const CollectRanks& collect) {
  RepOutcome out;
  register_ensemble_counters(out.counters);
  Testbed tb(repetition_testbed(config.testbed, config.nodes,
                                config.base_seed, rep, trace));
  auto& sim = tb.simulation();
  // Crash windows in the plan switch the ranks to their crash-aware form.
  fault::CrashMonitor* crash = nullptr;
  if (tb.fault_injector() != nullptr &&
      fault::has_crash_in_nodes(tb.fault_injector()->plan())) {
    crash = &tb.fault_injector()->monitor();
  }

  TimePoint workload_end;
  sim.spawn(run_all_and_mark(sim, wire(tb, crash, out), workload_end));
  const std::uint64_t events_fired = sim.run_to_quiescence();
  // Close trace spans for fault windows still open at simulation end
  // (gray windows often outlive the workload).
  if (tb.fault_injector() != nullptr) tb.fault_injector()->finalize_trace();

  collect(tb, out);
  collect_shared(tb, events_fired, out);
  out.makespan_s = (workload_end - TimePoint::origin()).to_seconds();
  return out;
}

}  // namespace mdwf::workflow
