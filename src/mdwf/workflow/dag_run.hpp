// DAG workload execution on the workflow testbed (mdwf::wload graphs).
//
// Generalizes run_repetition's fixed producer→consumer pipeline to a
// dependency graph: one rank per workflow task, one connector pair per DAG
// edge, each rank running the one rank loop (rank_loop.hpp: run_task) that
// the classic pairs run.  A task fetches every parent frame through its
// in-edge connectors (so it cannot start computing before its inputs
// verify), runs its compute budget, then publishes its output frames to
// every out-edge — all through the configured Connector, so every
// data-movement solution, the fault/integrity planes, and mdwf::obs
// tracing apply to imported graphs unchanged.
//
// Edge framing: a parent's `output_bytes` payload is cut into
// ceil(bytes / dag_chunk) equal frames; every out-edge of the task carries
// the same frame sequence, and each edge has its own path prefix
// ("dag%04u/") for push-mode and stream subscriptions.
//
// DAG edges are batch edges: manual-sync solutions (XFS/Lustre) keep the
// per-frame consumer-side wait (`explicit_sync` idle) but drain the
// producer-side barrier once at the end of each edge, because the classic
// per-frame producer_sync deadlocks on diamond graphs (a producer blocked
// on one child's acks while that child waits for a sibling's output).
//
// Crash model: DAG ranks are crash-aware but have no progress record — a
// restart re-executes the whole task (fetch phase included).  Connector
// puts are idempotent and ExplicitSync marks are level-triggered, so
// re-execution is safe; RankStats separates distinct progress from
// re-execution.  The membership plane (rank migration) is not supported
// with DAG workloads; parse_ensemble_config rejects the combination and
// the node-loss scenarios that need it.
#pragma once

#include <cstdint>
#include <vector>

#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::wload {
struct Dag;
}

namespace mdwf::workflow {

// One inter-task edge with its frame layout.
struct DagEdgePlan {
  std::uint32_t parent = 0;  // Dag task indices (topological)
  std::uint32_t child = 0;
  std::uint64_t frames = 1;  // ceil(parent.output_bytes / chunk)
  Bytes frame_bytes{};       // per-frame wire size
};

// Deterministic execution layout for one Dag on a testbed: canonical edge
// order (child-major, parents ascending — so a task's out-edges and
// in-edges are both index-sorted), per-task edge lists, and round-robin
// task placement over the node range.
struct DagPlan {
  std::vector<DagEdgePlan> edges;
  std::vector<std::vector<std::uint32_t>> in_edges;   // per task, edge ids
  std::vector<std::vector<std::uint32_t>> out_edges;  // per task, edge ids
  std::vector<std::uint32_t> node_of;                 // per task
  // Sum of `frames` over all edges: the completeness denominator (a
  // finished run fetches — and publishes — exactly this many edge-frames).
  std::uint64_t total_edge_frames = 0;
};

DagPlan plan_dag(const wload::Dag& dag, Bytes chunk, std::uint32_t nodes);

// Test-only lifecycle hook: the property tests record publish/fetch times
// to assert topological ordering without reaching into the simulation.
// Calls are synchronous from the rank coroutines; implementations must not
// block.  Null = off (the production path).
class DagProbe {
 public:
  virtual ~DagProbe() = default;
  // Task `task` finished fetching frame `f` of in-edge `edge`.
  virtual void on_fetch(std::uint32_t task, std::uint32_t edge,
                        std::uint64_t f, TimePoint when) = 0;
  // Task `task` finished publishing frame `f` on out-edge `edge`.
  virtual void on_publish(std::uint32_t task, std::uint32_t edge,
                          std::uint64_t f, TimePoint when) = 0;
  // Task `task` completed (all fetches, compute, publishes, barriers).
  virtual void on_complete(std::uint32_t task, TimePoint when) = 0;
};

// Runs repetition `rep` of a DAG ensemble (config.dag non-null) in an
// isolated Simulation; the run_repetition dispatcher forwards here, so
// callers use run_repetition / run_ensemble / mdwf::sweep as usual.
// Thread-safe with respect to other repetitions; equal (config, rep) give
// byte-identical outcomes at any thread count.
RepOutcome run_dag_repetition(const EnsembleConfig& config, std::uint32_t rep,
                              obs::TraceSink* trace = nullptr,
                              DagProbe* probe = nullptr);

}  // namespace mdwf::workflow
