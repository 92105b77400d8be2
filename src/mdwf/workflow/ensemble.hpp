// MD-inspired point-to-point workflow and ensemble runner (paper Sec. IV-C).
//
// Producer ranks emulate an MD simulation: `stride` steps of fixed-duration
// compute (with seeded relative jitter) per frame, then serialize and put the
// frame through a data-management connector.  Consumer ranks get the frame,
// deserialize, and emulate analytics for exactly one frame period.  An
// ensemble runs `pairs` independent producer-consumer pairs, placed either
// on a single node (DYAD/XFS) or split across producer nodes and consumer
// nodes (DYAD/Lustre), repeated `repetitions` times with different seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/rng.hpp"
#include "mdwf/common/stats.hpp"
#include "mdwf/fault/injector.hpp"
#include "mdwf/fs/interference.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/obs/counters.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/perf/thicket.hpp"
#include "mdwf/workflow/checkpoint.hpp"
#include "mdwf/workflow/connector.hpp"
#include "mdwf/workflow/testbed.hpp"

namespace mdwf::wload {
struct Dag;
}

namespace mdwf::workflow {

struct WorkloadConfig {
  md::MolecularModel model = md::kJac;
  // Steps between frames; defaults to the model's Table II stride.
  std::uint64_t stride = md::kJac.stride;
  std::uint64_t frames = 128;
  // Relative std-dev of per-frame MD compute time (rate variability).
  double step_jitter_sigma = 0.01;
  // Producers begin with a random offset uniform in [0, stagger *
  // frame_period): ensemble members are launched/equilibrated
  // independently, so their output phases are not aligned.  0 disables.
  double start_stagger = 1.0;
  // CPU throughput for frame (de)serialization.
  double serialize_bps = 4.0e9;

  // In-situ data reduction (paper Sec. II-B): producers compress frames
  // before the put, consumers decompress after the get.  Fewer bytes move
  // at the price of codec CPU on both sides — worthwhile when the data
  // path, not the CPU, is the bottleneck (see bench/figures
  // ablation_reduction).
  bool compress = false;
  // Assumed, not measured: the conservative end of md/compress.hpp's
  // estimate for real MD frames (coordinates shrink to ~40-60% of 24
  // B/atom, so 28 / (0.6 * 24) ~= 1.9).  The codec itself measures
  // 3.28-3.29x on the synthesized Table I frames, whose uniform random
  // coordinates are not real trajectories; calibration_test pins that
  // this value stays at or below the codec's.
  double compression_ratio = 1.9;
  double compress_bps = 1.2e9;
  double decompress_bps = 1.8e9;

  // Consumer analytics time as a multiple of the frame period.  1.0 keeps
  // the consumer exactly in step with production (paper Sec. IV-C); >1
  // models heavier in-situ analysis that falls behind the producer — the
  // regime where staging back-pressure and the spill path engage.
  double analytics_scale = 1.0;

  Duration frame_compute() const {
    return model.step_time() * static_cast<std::int64_t>(stride);
  }
  Duration analytics_time() const {
    return frame_compute() * analytics_scale;
  }
  Duration serialize_time() const {
    return Duration::seconds(
        static_cast<double>(model.frame_bytes().count()) / serialize_bps);
  }
  // Bytes that actually cross the data-management solution per frame.
  Bytes wire_bytes() const {
    if (!compress) return model.frame_bytes();
    return Bytes(static_cast<std::uint64_t>(
        static_cast<double>(model.frame_bytes().count()) /
        compression_ratio));
  }
  Duration compress_time() const {
    return compress ? Duration::seconds(
                          static_cast<double>(model.frame_bytes().count()) /
                          compress_bps)
                    : Duration::zero();
  }
  Duration decompress_time() const {
    return compress ? Duration::seconds(
                          static_cast<double>(model.frame_bytes().count()) /
                          decompress_bps)
                    : Duration::zero();
  }
};

// Frame file path for pair `pair` frame `f` ("pair0003/frame00017").
std::string frame_path(std::uint32_t pair, std::uint64_t f);

// SLO-guard pacing hook (implemented by mdwf::tenant).  A rank with a hook
// reports its progress and fetch latencies and asks before each frame how
// long to hold production; everything defaults to a no-op so the classic
// single-workflow path is untouched.
class PacingHook {
 public:
  virtual ~PacingHook() = default;
  // Extra producer-side idle inserted before a frame's MD compute (the
  // "stagger frame production" degradation step).  Zero = full speed.
  virtual Duration producer_delay(std::uint64_t frame) {
    (void)frame;
    return Duration::zero();
  }
  // One consumer fetch completed with availability-relative latency
  // `latency_us` (same metric as EnsembleResult::cons_fetch_us).
  virtual void on_fetch(TimePoint now, double latency_us) {
    (void)now;
    (void)latency_us;
  }
  virtual void on_frame_produced(std::uint64_t frame) { (void)frame; }
  virtual void on_frame_consumed(std::uint64_t frame) { (void)frame; }
};

// Per-rank recovery bookkeeping, filled in by the one rank loop
// (rank_loop.hpp: run_task) and summed into EnsembleResult counters.
struct RankStats {
  std::uint64_t frames_done = 0;      // distinct frames completed
  std::uint64_t reexecuted = 0;       // frame iterations redone after rollback
  std::uint64_t fault_retries = 0;    // same-frame retries after remote faults
  std::uint64_t crash_recoveries = 0; // rollback events (wait_up + restore)
};

// Where consumer ranks live relative to their producers:
//   kSplit     - producers on the first nodes/2 nodes, consumers on the
//                rest (the paper's multi-node setup; "in transit");
//   kColocated - each pair's two ranks share a node ("in situ"), available
//                for DYAD/XFS on any node count.
enum class Placement { kSplit, kColocated };

struct EnsembleConfig {
  Solution solution = Solution::kDyad;
  std::uint32_t pairs = 1;
  // 1 = single node; otherwise per `placement` (paper Sec. IV-C).
  std::uint32_t nodes = 1;
  Placement placement = Placement::kSplit;
  WorkloadConfig workload{};
  std::uint32_t repetitions = 10;
  std::uint64_t base_seed = 1;
  // Worker threads to fan the seeded repetitions across (0 = all hardware
  // threads).  Honored by the parallel runner (mdwf::sweep); the library
  // run_ensemble below is single-threaded and ignores it.  Output is
  // byte-identical for every thread count: each repetition runs in an
  // isolated Simulation and results fold in repetition order.
  std::uint32_t threads = 1;
  // Background load on the Lustre OSTs (other cluster tenants).
  bool lustre_interference = false;
  fs::InterferenceParams interference{};
  TestbedParams testbed{};
  // Per-rank progress records (auto-enabled when the fault plan has crash
  // windows; see CheckpointParams::Mode).
  CheckpointParams checkpoint{};
  // When non-empty, the first repetition is traced and exported here as
  // Chrome trace-event JSON (plus a <path>.metrics.csv sibling).  Only rep 0
  // is recorded: each repetition is an independent simulation with its own
  // time origin, so overlaying them in one timeline would be misleading.
  std::string trace_path;

  // --- DAG workload (mdwf::wload; PR 10).  Non-null routes run_repetition
  // to the DAG wiring in dag_run.cpp: one rank per task, one connector pair
  // per edge; `pairs`, `frames`, `placement`, `model`, `stride`,
  // `compress`, `lustre_interference` and `checkpoint` do not apply (the
  // key binding rejects them).  Null wires the classic fixed pipeline.
  // Both run their ranks on the one rank loop (rank_loop.hpp).
  std::shared_ptr<const wload::Dag> dag;
  // A task's output payload is cut into ceil(bytes / dag_chunk) frames per
  // out-edge; smaller chunks stream earlier but pay more per-frame cost.
  Bytes dag_chunk = Bytes::mib(32);
  // Multiplier on every imported task runtime (scale a real trace down to
  // simulation-friendly durations without editing the instance).
  double dag_runtime_scale = 1.0;
};

struct EnsembleResult {
  // Per-repetition means of per-frame time, microseconds.
  Samples prod_movement_us;
  Samples prod_idle_us;
  Samples cons_movement_us;
  Samples cons_idle_us;
  Samples makespan_s;
  // Per-frame consumer get() latency across all pairs and repetitions, in
  // microseconds; quantile(0.99) is the frame-fetch P99 the gray-failure
  // acceptance criteria compare.
  Samples cons_fetch_us;

  // All per-rank call trees across repetitions, tagged with metadata
  // (solution, role, rep, pair).
  perf::Thicket thicket;

  // Named counters summed over ranks and repetitions, in registration order
  // (DYAD protocol counters first, then infrastructure totals).  Look up
  // specific counters with counters.get("name"); unregistered names return 0,
  // so absent subsystems (stream counters on a dyad run, integrity off) read
  // naturally as zero.
  obs::CounterMap counters;

  double mean_production_us() const {
    return prod_movement_us.mean() + prod_idle_us.mean();
  }
  double mean_consumption_us() const {
    return cons_movement_us.mean() + cons_idle_us.mean();
  }
};

// Runs the configured ensemble (repetitions x pairs) and aggregates.
EnsembleResult run_ensemble(const EnsembleConfig& config);

// --- Single-repetition building blocks (run_ensemble and mdwf::sweep) ----
//
// run_ensemble(config) is exactly:
//
//   EnsembleResult r = make_ensemble_result();
//   for (rep = 0; rep < config.repetitions; ++rep)
//     fold_repetition(r, run_repetition(config, rep, rep == 0 ? sink : null));
//
// Each repetition runs in its own Simulation/Testbed with seeds derived only
// from (base_seed, rep), so repetitions may execute concurrently on worker
// threads; folding outcomes in repetition order reproduces the serial result
// byte-for-byte.  mdwf::sweep::run_ensemble is that parallel driver.

// Everything one repetition contributes to the aggregate.
struct RepOutcome {
  // Per-pair means of per-frame time, microseconds.
  double prod_movement_us = 0.0;
  double prod_idle_us = 0.0;
  double cons_movement_us = 0.0;
  double cons_idle_us = 0.0;
  double makespan_s = 0.0;
  // Per-frame consumer fetch latencies in simulation-event order.
  Samples cons_fetch_us;
  // This repetition's call trees (pair-major, producer before consumer).
  perf::Thicket thicket;
  // Same registration order as EnsembleResult::counters.
  obs::CounterMap counters;
};

// Runs repetition `rep` of the configured ensemble in an isolated
// Simulation.  `trace` non-null records this repetition's timeline (the
// aggregate runners pass it for rep 0 only).  Thread-safe with respect to
// other run_repetition calls.
RepOutcome run_repetition(const EnsembleConfig& config, std::uint32_t rep,
                          obs::TraceSink* trace = nullptr);

// An empty EnsembleResult with every counter pre-registered, so column
// order is stable across solutions and fault plans.
EnsembleResult make_ensemble_result();

// Folds one repetition's outcome into the aggregate (must be called in
// repetition order for byte-identical samples/thicket ordering).
void fold_repetition(EnsembleResult& into, RepOutcome rep);

// --- Rank-set building blocks (one Testbed, N workflows) ------------------
//
// run_repetition instantiates exactly one rank-set covering the whole
// testbed; mdwf::tenant places several disjoint rank-sets — one per tenant —
// on a shared testbed.  The classic path goes through the same builder with
// the defaults below, so there is one rank wiring to maintain.

// Builds one pair's connector; `consumer` distinguishes the two ends.  Null
// factory = make_connector(spec) (the solution's standard connector).
using ConnectorFactory = std::function<std::unique_ptr<Connector>(
    const ConnectorSpec& spec, std::uint32_t pair, bool consumer)>;

// One workflow's slice of a testbed: `pairs` producer-consumer pairs packed
// onto compute nodes [node_base, node_base + nodes).
struct RankSetSpec {
  Solution solution = Solution::kDyad;
  std::uint32_t pairs = 1;
  std::uint32_t node_base = 0;
  std::uint32_t nodes = 1;
  Placement placement = Placement::kSplit;
  WorkloadConfig workload{};
  CheckpointParams checkpoint{};
  // Path namespace ("" classic; "<tenant>/" in multi-tenant runs) applied
  // to frame paths, checkpoint paths, and push-mode subscriptions alike.
  std::string ns;
  // Rng fork scope prepended to the per-pair tags ("" classic, so a solo
  // tenant reproduces the classic seed stream bit-for-bit).
  std::string rng_scope;
  // Trace process prefix ("" = classic per-node "node<N>" processes;
  // "<tenant>" labels them "<tenant>/node<N>").
  std::string trace_process;
  // SLO pacing hook shared by every rank of the set (null = none).
  PacingHook* pacing = nullptr;
  // Connector override (per-tenant fallback ladders); null = standard.
  ConnectorFactory connectors;
};

// One workflow edge: `frames` frames of `frame_bytes` moving from one task
// to another.  A classic pair is one edge from its producer to its
// consumer; a DAG has one per dependency.
struct Edge {
  // "<ns><stem><id>/" ("pair0003/", "t1/pair0000/", "dag0002/"): frame f
  // lives at prefix + "frame%05llu", and push-mode and stream consumers
  // subscribe to the prefix.
  std::string prefix;
  std::uint32_t id = 0;  // pair or DAG edge index
  std::uint64_t frames = 0;
  Bytes frame_bytes{};
  // A streaming edge (a classic pair) paces its producer frame by frame:
  // producer_sync(f) after each put, and both ends check their node after
  // every frame.  A batch edge (DAG) drains once, producer_sync(frames - 1)
  // after the last frame: a per-frame barrier deadlocks on diamonds.
  bool streams = false;
  // Per-frame publish stamps (index = frame), set when a put completes.
  // The consumer measures fetch latency from max(request, publish), so the
  // metric is the cost of *moving* an available frame (the closed-loop
  // variant of coordinated omission: an unmitigated-slow consumer never
  // arrives early, so raw wall-clock would flatter exactly the
  // configurations without health).
  std::vector<TimePoint> published;
};

// One end of an edge, as the task at that end sees it.
struct EdgeEnd {
  Edge* edge = nullptr;
  std::unique_ptr<Connector> conn;
  // Node of the task at the other end: a peer on a permanently-lost node
  // can never re-supply (or consume) frames without a membership plane.
  std::uint32_t peer_node = 0;
};

// Everything a rank-set's coroutines reference.  The caller declares this
// BEFORE the Testbed (same unwind-order contract as run_repetition: dying
// coroutines close regions against the recorders) and keeps it alive until
// the simulation has quiesced.
struct RankSetAssets {
  std::vector<std::unique_ptr<perf::Recorder>> prod_recs;
  std::vector<std::unique_ptr<perf::Recorder>> cons_recs;
  std::vector<std::unique_ptr<ExplicitSync>> syncs;
  std::vector<std::unique_ptr<Checkpoint>> ckpts;
  std::vector<Edge> edges;             // one per pair
  std::vector<EdgeEnd> ends;           // 2*pairs: producer's, consumer's
  std::vector<RankStats> stats;        // 2*pairs: producer, then consumer
  std::vector<sim::Task<void>> tasks;  // pair-major: producer, consumer
  // Connectors replaced by a rank migration, kept alive (frames in flight
  // may still unwind through them) and tagged so collect_rank_set can fold
  // their pre-migration counters in.
  struct RetiredConnector {
    std::uint32_t pair = 0;
    bool consumer = false;
    std::unique_ptr<Connector> conn;
  };
  std::vector<RetiredConnector> retired_conn;
};

// Wires one rank-set onto `tb`: recorders, connectors, syncs, checkpoints,
// subscriptions, trace lanes, and the (not yet spawned) rank tasks, each
// pair a producer and a consumer task joined by one streaming edge.
// `crash` non-null makes the ranks crash-aware (and, by default, enables
// checkpointing); the caller decides (globally for the classic path, per
// tenant for co-tenant runs whose neighbor crashes).  `fetch_samples`
// non-null records consumer fetch latencies.
void build_rank_set(Testbed& tb, const RankSetSpec& spec, const Rng& set_rng,
                    fault::CrashMonitor* crash, Samples* fetch_samples,
                    RankSetAssets& assets);

// Aggregates the set's own contribution into `out`: per-pair means, thicket
// rows (tagged with `meta_extra` on top of the standard keys), per-pair and
// per-node counters over the set's node range, checkpoint totals.
void collect_rank_set(Testbed& tb, const RankSetSpec& spec,
                      RankSetAssets& assets, std::uint32_t rep,
                      const perf::Metadata& meta_extra, RepOutcome& out);

// Shared-service totals counted once per repetition regardless of how many
// rank-sets ran: KVS, Lustre (including its torn writes), network, crash
// windows, integrity ledger, fault windows, simulation events.
void collect_shared(Testbed& tb, std::uint64_t events_fired, RepOutcome& out);

// Pre-registers the standard ensemble counters (the stable column order).
void register_ensemble_counters(obs::CounterMap& counters);

}  // namespace mdwf::workflow
