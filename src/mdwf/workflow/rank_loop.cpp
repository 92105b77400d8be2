#include "mdwf/workflow/rank_loop.hpp"

#include <algorithm>
#include <utility>

namespace mdwf::workflow {

void attach_trace_lane(RankEnv& env, obs::TraceSink& sink,
                       const std::string& process, const std::string& thread) {
  env.trace = &sink;
  env.track = sink.track(process, thread);
  env.frame_marker = sink.instant_series(env.track, "f=");
  env.recorder->set_trace(&sink, env.track);
}

void count_frame(RankStats* stats, std::uint64_t f, std::uint64_t& high) {
  if (f < high) {
    if (stats != nullptr) ++stats->reexecuted;
  } else {
    high = f + 1;
    if (stats != nullptr) ++stats->frames_done;
  }
}

sim::Task<std::uint32_t> await_restart(const RankEnv& env, RankStats* stats) {
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
  co_return target;
}

bool park_on_lost_peer(const RankEnv& env, std::uint32_t peer_node) {
  return env.membership == nullptr && env.injector != nullptr &&
         env.crash != nullptr && env.crash->down(peer_node) &&
         env.injector->node_lost(peer_node);
}

std::optional<double> fetch_latency_us(
    TimePoint now, TimePoint fetch_start,
    const std::vector<TimePoint>& publish_times, std::uint64_t f) {
  const TimePoint pub = publish_times[f];
  if (pub == TimePoint::origin()) return std::nullopt;
  return (now - std::max(fetch_start, pub)).to_micros();
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
