// Rank-loop mechanics shared by the workflow executors: the classic
// producer/consumer pipeline (ensemble.cpp), the DAG task executor
// (dag_run.cpp) and the co-tenant runner (mdwf::tenant).
//
// What is shared: the rank environment and its helpers (epoch, CPU
// dilation, frame markers, progress accounting), the same-frame fault-retry
// loop around one put or get, the crash-restart wait, consumer
// subscriptions, per-node and per-rank counter collection, and the
// repetition shell (testbed, spawn, quiescence, shared counters, makespan).
// What stays per executor is the loop shape itself: the classic loops own
// per-frame producer_sync, checkpoint rollback, migration, pacing and
// (de)serialization; the DAG task owns multi-edge fetch/publish order, the
// end-of-edge barrier and whole-task restart.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/fence.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::workflow {

// What the shared mechanics read from a running rank.  Executor contexts
// embed one; every pointer must outlive the rank coroutine.
struct RankEnv {
  sim::Simulation* sim = nullptr;
  perf::Recorder* recorder = nullptr;
  // Trace lane (null sink = off): frame instants land on `track` via the
  // pre-interned `frame_marker` series ("f=<n>").
  obs::TraceSink* trace = nullptr;
  obs::TrackId track{};
  obs::InstantId frame_marker{};
  // Compute node the rank runs on (whose crash kills it).
  std::uint32_t node = 0;
  // Non-null when the fault plan has crash windows: the rank checks its
  // node's epoch and restarts after a crash.
  fault::CrashMonitor* crash = nullptr;
  // Non-null when faults are injected: compute bursts stretch by the
  // node's CPU dilation, and a lost peer node parks retries.
  fault::FaultInjector* injector = nullptr;
  // Membership plane and this rank's registration (null = park-forever
  // recovery; always null for DAG ranks).
  membership::MembershipPlane* membership = nullptr;
  std::uint32_t member_rank = 0;
};

// The rank's node epoch (0 without a crash model); a change means the node
// crashed underneath the rank.
inline std::uint64_t rank_epoch(const RankEnv& env) {
  return env.crash != nullptr ? env.crash->epoch(env.node) : 0;
}

// Fail-slow CPU: compute bursts stretch by the injector's current dilation
// for this rank's node (kSlowNode windows; x1.0 outside them).
inline double cpu_dilation(const RankEnv& env) {
  return env.injector != nullptr ? env.injector->cpu_dilation(env.node) : 1.0;
}

// Frame-boundary timeline marker ("f=<n>") on the rank's trace lane.  The
// frame number rides as the record payload; the name materializes at export.
inline void trace_frame(const RankEnv& env, std::uint64_t f) {
  if (env.trace == nullptr) return;
  env.trace->instant(env.frame_marker, env.sim->now(),
                     static_cast<std::int64_t>(f));
}

// Gives the rank a trace lane `thread` on trace process `process` and
// routes its recorder's region spans there.
void attach_trace_lane(RankEnv& env, obs::TraceSink& sink,
                       const std::string& process, const std::string& thread);

// Account a finished frame iteration: distinct progress vs post-rollback
// re-execution.
void count_frame(RankStats* stats, std::uint64_t f, std::uint64_t& high);

// Crash restart, first half: park in a `crash_restart` region until the
// rank's node is back up — or, with a membership plane, until the plane
// says it recovers or re-homes the rank — and count the recovery.  Returns
// the node to resume on (env.node unless the rank migrates).
sim::Task<std::uint32_t> await_restart(const RankEnv& env, RankStats* stats);

// Backoff between same-frame retries when a *remote* fault (crashed peer,
// torn fabric) failed the operation but this rank's node kept its state.
inline constexpr Duration kFaultRetryBackoff = Duration::milliseconds(50);
// Hard cap so an unrecoverable configuration surfaces as the original error
// instead of an endless poll loop.
inline constexpr std::uint64_t kMaxFaultRetries = 10'000;

// Backoff-or-park decision for a retry whose peer's node is down.  Without
// a plane, a peer on a permanently-lost node can never re-supply (or
// consume) frames: park on its up-event — which never fires — so the run
// quiesces into the deadlock reporter instead of polling forever.  With a
// plane the peer migrates and re-supplies, so keep polling.
bool park_on_lost_peer(const RankEnv& env, std::uint32_t peer_node);

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
// epoch when the frame began.
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
// the frame being both requested (`fetch_start`) and published (its stamp
// in `publish_times`) to now.  A consumer idling ahead of a slow producer
// is not a slow fetch.  Empty when the stamp is still missing: a hedge can
// finish off the Lustre replica before the producer's own put() returns,
// and that (certainly-not-slow) fetch is unmeasurable.
std::optional<double> fetch_latency_us(
    TimePoint now, TimePoint fetch_start,
    const std::vector<TimePoint>& publish_times, std::uint64_t f);

// Subscribes `node` to frames under `prefix` on the solution's push plane:
// DYAD in push mode, or stream.  No-op for the other solutions.
void subscribe_consumer(Testbed& tb, Solution solution,
                        const std::string& prefix, std::uint32_t node);

// Per-frame mean of a category inside a region subtree, in microseconds.
double per_frame_us(const perf::CallTree& tree, std::string_view subtree,
                    perf::Category cat, std::uint64_t frames);

// DYAD consumer-side counters of one consumer connector.
void add_dyad_consumer_counters(const Connector& conn,
                                obs::CounterMap& counters);

// Per-node counters over compute nodes [first, end): DYAD health and
// republishes, stream staging, and every node's torn files, lost dirty
// pages and page-cache hits/misses.
void add_node_counters(Testbed& tb, Solution solution, std::uint32_t first,
                       std::uint32_t end, obs::CounterMap& counters);

// Progress counters of one producer/consumer rank pair (for a DAG task:
// its publish and fetch units).
void add_rank_stats(const RankStats& producer, const RankStats& consumer,
                    obs::CounterMap& counters);

// Completes when every task has, stamping the simulated time in `end`.
sim::Task<void> run_all_and_mark(sim::Simulation& sim,
                                 std::vector<sim::Task<void>> tasks,
                                 TimePoint& end);

// The testbed parameters of repetition `rep`: `base` on `nodes` compute
// nodes, with the repetition's integrity seed and trace sink.
TestbedParams repetition_testbed(const TestbedParams& base,
                                 std::uint32_t nodes, std::uint64_t base_seed,
                                 std::uint32_t rep, obs::TraceSink* trace);

// Wires one repetition's ranks onto the testbed; `crash` is non-null when
// the fault plan has crash windows.  Returns the rank tasks to spawn.
using WireRanks = std::function<std::vector<sim::Task<void>>(
    Testbed& tb, fault::CrashMonitor* crash, RepOutcome& out)>;
// Collects the ranks' own contribution after quiescence.
using CollectRanks = std::function<void(Testbed& tb, RepOutcome& out)>;

// One repetition of `config` on a fresh testbed: wire the ranks, run them
// to quiescence, close open fault-window spans, then collect the ranks'
// counters, the shared-service counters and the makespan.  Everything the
// rank coroutines reference must be declared by the caller, before this
// call: the testbed here unwinds first if the run throws, and destroying
// its simulation destroys blocked coroutines whose scoped regions close
// against the caller's recorders.
RepOutcome run_rank_repetition(const EnsembleConfig& config, std::uint32_t rep,
                               obs::TraceSink* trace, const WireRanks& wire,
                               const CollectRanks& collect);

}  // namespace mdwf::workflow
