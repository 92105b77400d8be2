// The one rank loop of the workflow executors.  Classic producer/consumer
// pairs (build_rank_set in ensemble.cpp, also used by mdwf::tenant for
// co-tenant runs) and DAG tasks (dag_run.cpp) are all tasks joined by
// edges, and every rank runs run_task over spans of its edge ends:
//
//   fetch phase    every frame of every in-edge: get (retried after remote
//                  faults), fetch latency, node check, then the decompress,
//                  deserialize and analytics stages, ack, progress record;
//   publish phase  per frame: pacing hold, md_compute, serialize and
//                  compress stages, then a put to every out-edge, stamped
//                  and recorded;
//   drain          producer_sync(frames - 1) once per batch (DAG) edge;
//   restart        park until the node is back (or migrate, with a
//                  membership plane), then resume from the progress record,
//                  or from frame zero without one.
//
// The wirers differ only in data: a classic pair is two tasks joined by one
// edge that streams per frame (producer_sync after each put, a node check
// after each consumed frame), a DAG edge drains once; the wirer sets the
// stage costs, and the progress record, pacing hook, migration and probe
// are null when absent.
//
// Also here: the rank environment, consumer subscriptions, per-node and
// per-rank counter collection, and the repetition shell (testbed, spawn,
// quiescence, shared counters, makespan).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::workflow {

class DagProbe;

// What the rank loop reads from a running rank; every pointer must outlive
// the rank coroutine.
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

// Everything one rank needs.  Passed by value into run_task; the objects it
// points to (edge ends included) must outlive the rank.
struct TaskContext {
  RankEnv env;
  // Edge ends in the caller's assets: every frame of each `in` end is
  // fetched in order, and each published frame goes to every `out` end.
  // Every out-edge of a task carries the same frame count.
  std::span<EdgeEnd> in{};
  std::span<EdgeEnd> out{};
  // Stage costs at full CPU speed.  md_compute costs `compute` per
  // published frame (an edgeless task computes it once); serialize and
  // compress run before each put, decompress, deserialize and analytics
  // after each get.  A stage that costs zero opens no region.
  Duration compute{};
  Duration serialize{};
  Duration compress{};
  Duration decompress{};
  Duration deserialize{};
  Duration analytics{};
  // Relative std-dev of md_compute (rate variability of a real simulation).
  double jitter_sigma = 0.0;
  // A source task starts after a launch/equilibration offset uniform in
  // [0, stagger * compute); 0 disables.
  double stagger = 0.0;
  Rng rng{1};
  RankStats* prod_stats = nullptr;  // publish units
  RankStats* cons_stats = nullptr;  // fetch units
  // Non-null records the availability-relative latency of every fetch.
  Samples* fetch_samples = nullptr;
  // SLO pacing hook (null = none; see PacingHook).
  PacingHook* pacing = nullptr;
  // Progress record to resume from; null = a restart re-executes the task
  // from frame zero.  A record counts the frames of a task's one phase.
  Checkpoint* checkpoint = nullptr;
  // The peer's record, for the pair-min rollback of a migrated rank: it
  // re-produces everything its consumer has not durably consumed (the lost
  // node's copies are unreachable).
  Checkpoint* peer_checkpoint = nullptr;
  // With a membership plane: rebinds this rank's node-bound resources
  // (connector, subscription, record home) on `node`, rolling the record
  // back to `restart`.
  std::function<void(std::uint32_t node, std::uint64_t restart)> migrate{};
  // Test-only lifecycle hook (null = off) and this task's index for it.
  DagProbe* probe = nullptr;
  std::uint32_t task = 0;
};

// Runs one rank to completion: the fetch and publish phases, the drain of
// the batch edges, and the restart path after a crash or a fence.
sim::Task<void> run_task(TaskContext ctx);

// "<ns><stem><id>/": the path prefix of an edge (see Edge::prefix).
std::string edge_prefix(std::string_view ns, std::string_view stem,
                        std::uint32_t id);

// Wires `edge` (prefix set) from a producer end on `pnode`, recording into
// `prec`, to a consumer end on `cnode` (`crec`): a level-triggered sync
// when the solution syncs by hand (XFS, Lustre), both connectors, the
// producer's first (from `factory` when set, with the edge id as its pair),
// and the consumer's push-mode/stream subscription to the prefix.  Returns
// the sync, or null.
ExplicitSync* wire_edge(Testbed& tb, Solution solution,
                        const ConnectorFactory& factory,
                        std::vector<std::unique_ptr<ExplicitSync>>& syncs,
                        Edge& edge, EdgeEnd& producer, std::uint32_t pnode,
                        perf::Recorder& prec, EdgeEnd& consumer,
                        std::uint32_t cnode, perf::Recorder& crec);

// "<prefix>frame%05llu": the path of frame `f` of the edge under `prefix`.
std::string frame_key(std::string_view prefix, std::uint64_t f);

// Gives the rank a trace lane `thread` on trace process `process` and
// routes its recorder's region spans there.
void attach_trace_lane(RankEnv& env, obs::TraceSink& sink,
                       const std::string& process, const std::string& thread);

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
