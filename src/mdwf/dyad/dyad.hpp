// DYAD middleware reimplementation (Dynamic and Asynchronous Data
// Streamliner, LLNL flux-framework/dyad) over the simulated testbed.
//
// Behaviour modelled from the paper (Secs. III-A, IV-C/D/E and Fig. 9):
//
//   Producer  - writes each frame to *node-local* storage (burst buffer),
//               then publishes {owner, size} metadata to the Flux KVS;
//               the metadata management is DYAD's extra production cost
//               (the paper's 1.4x over raw XFS).  The producer never waits
//               for the consumer: production and consumption pipeline.
//
//   Consumer  - multi-protocol automatic synchronization:
//               * warm path: if the file is already on this node's local
//                 storage, availability is checked with a cheap shared
//                 flock (producer holds it exclusively while writing);
//               * cold path: KVS lookup (dyad_fetch); if the metadata is
//                 not yet visible, block on a KVS watch until it is.
//               Remote data then moves with RDMA from the owner's
//               node-local storage (dyad_get_data), is staged into the
//               consumer's local storage (dyad_cons_store), and finally
//               read by the analytics (read_single_buf) - the exact call
//               tree of the paper's Fig. 9.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "mdwf/common/bytes.hpp"
#include "mdwf/fs/local_fs.hpp"
#include "mdwf/fs/lustre.hpp"
#include "mdwf/health/health.hpp"
#include "mdwf/integrity/ledger.hpp"
#include "mdwf/kvs/kvs.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/net/node_directory.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/sim/simulation.hpp"

namespace mdwf::dyad {

// Recovery protocol knobs (DESIGN.md "Fault model and recovery").  All off
// by default: the healthy-cluster paths the paper measures are unchanged.
struct DyadRetryParams {
  // Master switch.  Enables consumer RPC timeout+retry and producer-side
  // metadata re-publish after a broker recovery.  After max_attempts the
  // consumer fails over to reading the frame from the shared parallel FS;
  // producers write frames through to Lustre in the background to keep
  // that cold replica available.
  bool enabled = false;
  // Per-attempt bound on a KVS metadata watch; a remote read that fails
  // fast (partition) retries immediately after backoff.
  Duration timeout = Duration::milliseconds(40);
  // Exponential backoff between attempts.
  Duration backoff_base = Duration::milliseconds(5);
  double backoff_factor = 2.0;
  std::uint32_t max_attempts = 6;
};

struct DyadParams {
  // CPU on the producer per publish (global namespace management).
  Duration mdm_cpu = Duration::microseconds(8);
  // Warm-path flock acquire/release overhead.
  Duration flock_cpu = Duration::microseconds(10);
  // CPU added to intercepted POSIX reads (DYAD wraps the I/O calls; the
  // paper measures DYAD data movement ~1.4x raw XFS in both directions).
  Duration posix_wrap_cpu = Duration::microseconds(30);
  // Broker-side CPU to service one remote-read request.
  Duration broker_request_cpu = Duration::microseconds(50);
  // Concurrent remote reads served per broker.
  std::int64_t broker_concurrency = 8;
  // Staging prefix on the consumer-side local storage.
  std::string staging_prefix = "dyad_cache/";

  // --- Ablation switches (DESIGN.md Sec. 3) -------------------------------
  // Disable the flock warm path: every consume goes through the KVS even
  // when the data is already node-local (tests the value of multi-protocol
  // synchronization).
  bool force_kvs_sync = false;
  // Skip dyad_cons_store: the consumer reads the RDMA stream directly
  // instead of staging into node-local storage first (tests the cost of the
  // extra local copy vs re-read locality).
  bool skip_consumer_staging = false;
  // Dynamic data routing: producers push freshly written files to the node
  // that subscribed to their path prefix (asynchronously, overlapping the
  // next MD stride).  Consumers then find the data already staged locally
  // and synchronize via the cheap flock path instead of pulling over RDMA.
  bool push_mode = false;

  // --- Resilience (mdwf::fault) -------------------------------------------
  DyadRetryParams retry{};
  // --- Gray-failure mitigation (mdwf::health) -----------------------------
  // Detector + circuit breaker on the consumer's KVS lookups, request
  // hedging against the Lustre cold replica, and bounded server admission
  // queues.  The breaker and the hedge route around a sick broker via the
  // retry protocol's failover path, so they engage only when
  // retry.enabled; health.enabled alone never changes a healthy run's
  // timing.
  health::HealthParams health{};
  // Durable puts: fsync each produced frame before publishing its metadata
  // (the commit barrier of the crash-consistency model).  Off by default so
  // healthy-cluster timings match the paper; crash-aware ensembles turn it
  // on, accepting the fsync cost as the price of checkpointable progress.
  bool durable_puts = false;
};

class DyadNode;

// Per-node gray-failure mitigation state, shared by every rank on the node
// (they all talk to the same broker, so latency samples and breaker state
// compose).  Counters are cumulative over the node's lifetime.
struct NodeHealth {
  explicit NodeHealth(const health::HealthParams& params)
      : detector(params.detector), breaker(params.breaker) {}

  health::FailureDetector detector;
  health::CircuitBreaker breaker;
  // Cold-fetch latencies (KVS sync + data movement); feeds the adaptive
  // hedge delay.  Warm flock hits are excluded — they are never hedged.
  health::LatencyTracker fetch_latency;
  std::uint64_t hedges = 0;        // duplicate fetches actually launched
  std::uint64_t hedge_wins = 0;    // races the replica read finished first
  std::uint64_t hedge_cancels = 0; // hedges stood down before their read
  std::uint64_t breaker_fast_fails = 0;  // lookups skipped while open
  std::uint64_t busy_retries = 0;  // ServerBusy replies retried client-side
};

// Registry of every DYAD-enabled node in the workflow: consumers resolve a
// frame's owner NodeId to that node's broker through the domain, and (in
// push mode) producers resolve path-prefix subscriptions to destinations.
using DyadDomain = net::NodeDirectory<DyadNode>;

// Per-node DYAD runtime: broker module plus client context.  One instance
// per compute node, shared by every producer/consumer rank on that node.
// Registers itself with `domain` on construction.
class DyadNode {
 public:
  // With `params.retry.enabled`, `fallback_servers` backs the failover
  // path: producers write frames through to Lustre and consumers read from
  // it when DYAD's own paths stay broken.
  DyadNode(sim::Simulation& sim, const DyadParams& params, DyadDomain& domain,
           net::NodeId node, fs::LocalFs& local_fs, net::Network& network,
           kvs::KvsServer& kvs_server, fs::LustreServers& fallback_servers);

  net::NodeId node() const { return node_; }
  fs::LocalFs& local_fs() { return *local_fs_; }
  net::Network& network() { return *network_; }
  kvs::KvsClient& kvs() { return kvs_; }
  const DyadParams& params() const { return params_; }
  sim::Simulation& simulation() { return *sim_; }
  DyadDomain& domain() { return *domain_; }

  // Broker service: reads `path` (`size` bytes) from this node's local
  // storage and streams it to `requester` via RDMA.  Called (awaited) by
  // the remote consumer's dyad_get_data.
  sim::Task<void> serve_remote_read(net::NodeId requester,
                                    const std::string& path, Bytes size);

  // Push-mode broker service: streams `path` to `dest` and stages it in
  // dest's local storage under the staging prefix.  Races with a consumer
  // pulling the same file are benign (first stager wins).
  sim::Task<void> push_to(net::NodeId dest, std::string path, Bytes size);

  std::uint64_t remote_reads_served() const { return remote_reads_; }
  std::uint64_t pushes_sent() const { return pushes_; }

  // --- Recovery (mdwf::fault) ---------------------------------------------
  // Lustre client for the failover cold tier; nullptr when not configured.
  fs::LustreClient* fallback_client() { return fallback_client_.get(); }
  // Producer bookkeeping: metadata this node has published, so a broker
  // recovery can replay exactly the lost commits.
  void note_published(const std::string& key, std::string value);
  // Background write-through of a produced frame to the Lustre cold tier.
  // Guarded: errors (crashed writer, torn fabric) lose the replica, never
  // the run; a pre-existing (possibly torn) replica is replaced.
  sim::Task<void> write_through(std::string path, Bytes size);
  std::uint64_t republishes() const { return republishes_; }
  std::uint64_t lost_writethroughs() const { return lost_writethroughs_; }

  // --- Gray-failure mitigation (mdwf::health) -----------------------------
  NodeHealth& health_state() { return health_; }
  // KVS commit with the client-side busy-retry loop: ServerBusy replies
  // from the bounded admission queue back off exponentially (doubling from
  // health.busy_retry_base) and retry; the last busy reply is rethrown.
  // Plain commit when health is off.
  sim::Task<void> commit_guarded(std::string key, std::string value);

  // --- Fencing (mdwf::membership) -----------------------------------------
  // Controller's incarnation registry.  Consumers consult it to spot
  // metadata published under a since-fenced incarnation (its owner node was
  // declared lost) and fail over to the Lustre cold replica without burning
  // the RDMA retry budget; the authoritative commit-time rejection lives in
  // the KVS broker itself.  Not owned; nullptr = fencing off.
  void set_fencing(FenceRegistry* fences) { fences_ = fences; }
  FenceRegistry* fencing() { return fences_; }

  // --- Integrity (mdwf::integrity) ----------------------------------------
  void set_integrity(integrity::Ledger* ledger) { ledger_ = ledger; }
  integrity::Ledger* integrity() { return ledger_; }
  // Re-publishes the frame's node-local replica from producer memory (the
  // DYAD answer to a corrupt or torn local copy): rewrite + re-tag.
  sim::Task<void> repair_local(const std::string& path, Bytes size);

  // --- Observability (mdwf::obs) ------------------------------------------
  // Samples cumulative broker activity ("dyad.remote_reads", "dyad.pushes",
  // "dyad.republishes") onto `track` as it happens.
  void set_trace(obs::TraceSink* sink, obs::TrackId track);

 private:
  sim::Task<void> republish(std::string key, std::string value);
  void trace_total(obs::CounterId id, std::uint64_t value);

  sim::Simulation* sim_;
  DyadParams params_;
  DyadDomain* domain_;
  net::NodeId node_;
  fs::LocalFs* local_fs_;
  net::Network* network_;
  kvs::KvsClient kvs_;
  sim::Semaphore service_slots_;
  std::unique_ptr<fs::LustreClient> fallback_client_;
  NodeHealth health_;
  std::map<std::string, std::string> published_;
  FenceRegistry* fences_ = nullptr;
  integrity::Ledger* ledger_ = nullptr;
  std::uint64_t remote_reads_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t republishes_ = 0;
  std::uint64_t lost_writethroughs_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_republishes_id_{};
  obs::CounterId trace_remote_reads_id_{};
  obs::CounterId trace_pushes_id_{};
};

// Metadata record stored in the KVS per produced file.  `crc` is the
// producer's CRC32C tag (0 when integrity is off); it rides through the KVS
// so any consumer — warm path, RDMA, failover — can verify end to end.
struct DyadMetadata {
  net::NodeId owner;
  Bytes size;
  std::uint32_t crc = 0;
  // Incarnation epoch of the publishing daemon (mdwf::membership).  Daemons
  // are born at epoch 0 and never rebirth in place, so the tag is 0 on every
  // healthy put and the wire format only grows a fourth field for nonzero
  // epochs; consumers judge staleness against the controller's registry
  // (FenceRegistry::stale), not against the tag alone.
  std::uint64_t epoch = 0;

  std::string encode() const;
  // Accepts the legacy "owner:size", the tagged "owner:size:crc", and the
  // fenced "owner:size:crc:epoch" encodings.
  static DyadMetadata decode(const std::string& s);
};

std::string metadata_key(const std::string& path);

class DyadProducer {
 public:
  DyadProducer(DyadNode& node, perf::Recorder& recorder);

  // Writes `size` bytes under `path` on node-local storage and publishes
  // availability.  Regions: dyad_produce / {dyad_prod_write, dyad_commit}.
  sim::Task<void> produce(const std::string& path, Bytes size);

 private:
  DyadNode* node_;
  perf::Recorder* rec_;
};

class DyadConsumer {
 public:
  DyadConsumer(DyadNode& node, perf::Recorder& recorder);

  // Acquires `path` (expected `size` bytes) and reads it locally.
  // Regions (paper Fig. 9): dyad_consume / {dyad_fetch[/dyad_watch_wait,
  // dyad_retry], dyad_get_data, dyad_cons_store, dyad_failover_read,
  // read_single_buf}.  dyad_retry / dyad_failover_read appear only when the
  // recovery protocol (DyadParams::retry) engages.  With hedging on, a cold
  // fetch races the normal DYAD path against a delayed Lustre-replica read
  // under a single dyad_hedged_fetch region (the racing branches are
  // region-free: the recorder's region stack is strictly nested per rank).
  sim::Task<void> consume(const std::string& path, Bytes size);

  std::uint64_t warm_hits() const { return warm_hits_; }
  std::uint64_t kvs_waits() const { return kvs_waits_; }
  std::uint64_t kvs_retries() const { return kvs_retries_; }
  // Recovery-protocol attempts (timed-out watches + failed remote reads).
  std::uint64_t recovery_retries() const { return recovery_retries_; }
  // Frames satisfied from the Lustre cold tier after DYAD paths failed.
  std::uint64_t failovers() const { return failovers_; }

 private:
  // Shared state of one hedged cold fetch (primary DYAD path vs delayed
  // Lustre-replica read, first response wins).
  struct HedgeRace;

  // One integrity re-fetch round after a checksum mismatch; updates and
  // returns whether the delivered payload is still bad.
  sim::Task<bool> refetch(const std::string& path, Bytes size,
                          net::NodeId owner, bool failed_over, bool in_memory,
                          const std::string& local_path);

  // KVS lookup with health bookkeeping: latency feeds the phi-accrual
  // detector, suspiciously slow (or ServerBusy-shed) lookups count as
  // breaker failures.  ServerBusy is absorbed and returned as nullopt — the
  // caller's retry loop already backs off on "not visible yet".  Plain
  // lookup when health is off.
  sim::Task<std::optional<kvs::KvsValue>> observed_lookup(
      const std::string& key);

  // The two racing branches of a hedged cold fetch.  Both are spawned
  // detached and never throw; the loser stands down at the next cooperative
  // checkpoint (checked before every byte-moving stage, so a cancelled
  // branch charges no further payload bytes).
  sim::Task<void> hedge_primary(std::shared_ptr<HedgeRace> race,
                                std::string path, Bytes size);
  sim::Task<void> hedge_replica(std::shared_ptr<HedgeRace> race,
                                std::string path, Bytes size);

  DyadNode* node_;
  perf::Recorder* rec_;
  std::uint64_t warm_hits_ = 0;
  std::uint64_t kvs_waits_ = 0;
  std::uint64_t kvs_retries_ = 0;
  std::uint64_t recovery_retries_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace mdwf::dyad
