// mdwf::stream — a publish/subscribe staging data plane (solution #4).
//
// The paper's three solutions all synchronize producers and consumers
// through a filesystem namespace (first-touch files on XFS/Lustre, or
// DYAD's KVS metadata over node-local files).  The streaming alternative
// the HPC community actually deploys (ADIOS2/openPMD staging transports)
// never touches a filesystem on the hot path: producers put frames
// directly into a bounded per-node staging buffer on the subscriber's
// node over RDMA, and consumers read them from memory.
//
// Model:
//   * Per-node staging buffer — `StreamParams::buffer_capacity` bytes of
//     pinned memory per node; producers reserve space before the put and
//     the reservation is released when the consumer drains the frame.
//   * Subscription handshake — consumers announce `stream.sub/<prefix>`
//     on the KVS once per pair prefix; producers resolve the route once
//     and cache it (the per-frame path has no KVS traffic, which is
//     exactly where it beats DYAD's per-frame commit+lookup+visibility
//     cost).  Producers announce `stream.pub/<prefix>` so subscribers can
//     request replays.
//   * Credit-based back-pressure — each subscription carries
//     `StreamParams::credits` outstanding-frame credits; a put blocks
//     (bounded by `backpressure_timeout`) when the window is exhausted
//     and the consumer returns a credit as it drains each frame.
//   * Spill-to-Lustre overflow — a put that cannot go direct (no credit,
//     no buffer space, torn fabric, unresolved subscriber) degrades to a
//     durable spill file (`spill_prefix + path`) that the consumer
//     re-fetches transparently; slow consumers degrade instead of
//     deadlocking the producer.
//   * Fault semantics — a power-loss crash drops the node's staged
//     frames, replay ring, and credit state (`on_power_loss`, driven by
//     the fault injector); consumers recover via the spill replica
//     (durable mode arms a spill-before-stage commit barrier whenever
//     power-loss windows are planned) or by requesting a re-delivery
//     from the producer's replay ring.  A process kill keeps the staging
//     daemon's memory, matching the injector's kill semantics.
//   * Integrity — staged frames carry the producer's CRC32C tag; the
//     fabric can flip bits in flight (`Ledger::flip_link`), consumers
//     verify on drain and run a bounded replay/re-spill re-fetch
//     protocol.  The staging buffer itself is ECC memory: it does not
//     draw device-corruption coins the way SSD/OST replicas do.
//   * Health — a stalled subscription is hedged against the spill path:
//     after an adaptive (clamped-percentile) delay the consumer probes
//     the spill replica instead of waiting out the full arrival timeout.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "mdwf/common/bytes.hpp"
#include "mdwf/common/time.hpp"
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
#include "mdwf/sim/task.hpp"

namespace mdwf::stream {

class StreamNode;

// KVS keys of the subscription/announcement handshake.
std::string sub_key(const std::string& prefix);
std::string pub_key(const std::string& prefix);
// Routing prefix of a frame path: its directory, everything through the
// last '/' ("pair0007/frame00012" -> "pair0007/", a co-tenant's
// "t/pair0007/frame00012" -> "t/pair0007/").  Routes, credit windows and
// KVS announcements are keyed per pair by it.
std::string path_prefix(const std::string& path);

struct StreamParams {
  // Pinned staging memory per node; reservations beyond it back-pressure
  // the producers (and overflow to the spill path after the bounded wait).
  Bytes buffer_capacity = Bytes::mib(128);
  // Outstanding-frame window per subscription.
  std::uint32_t credits = 4;
  // Staging-memory copy bandwidth (drain to the consumer, local puts).
  double buffer_bps = 8.0e9;
  // Producer-side CPU per put (descriptor setup, registration cache hit).
  Duration put_cpu = Duration::microseconds(5);
  // Consumer-side CPU per drain (match + completion handling).
  Duration match_cpu = Duration::microseconds(3);
  // Cold-start bound on resolving a subscriber through the KVS.
  Duration handshake_timeout = Duration::milliseconds(10);
  // Bound on credit/space waits before the put overflows to the spill.
  Duration backpressure_timeout = Duration::milliseconds(5);
  // One consumer wait round before probing the spill / requesting replay.
  Duration arrival_timeout = Duration::milliseconds(40);
  // Fetch rounds before the subscription is declared starved (the rank
  // retry / crash-recovery loop above then owns the failure).  The bound
  // exists for liveness only — a dead producer with no spill replica must
  // not spin the event queue forever — so it is sized far beyond any
  // healthy producer silence (4096 x 40 ms > 160 s; the slowest model
  // emits frames every few seconds).
  std::uint32_t max_fetch_rounds = 4096;
  std::string spill_prefix = "stream_spill/";
  // Spill every frame before staging it (commit barrier); forced on by
  // the testbed whenever power-loss crash windows are planned.
  bool durable = false;
  health::HealthParams health{};
};

// Registry of the stream daemons plus the subscription routing table
// (one entry per consumer rank, longest prefix wins) — the warm-path
// route cache that spares the per-frame KVS round trip.
using StreamDomain = net::NodeDirectory<StreamNode>;

// One frame sitting in a node's staging buffer.
struct StagedFrame {
  Bytes size;
  net::NodeId origin;  // producer node (replay requests go back here)
};

// Per-node streaming daemon: the staging buffer and its arrival events
// (consumer side), the credit windows and replay ring (producer side).
class StreamNode {
 public:
  StreamNode(sim::Simulation& sim, const StreamParams& params,
             StreamDomain& domain, net::NodeId node, net::Network& network,
             kvs::KvsServer& kvs_server, fs::LustreServers& lustre);

  net::NodeId node() const { return node_; }
  const StreamParams& params() const { return params_; }
  sim::Simulation& simulation() { return *sim_; }
  StreamDomain& domain() { return *domain_; }
  net::Network& network() { return *network_; }
  fs::LustreClient& spill() { return *spill_client_; }
  integrity::Ledger* integrity() { return ledger_; }
  void set_integrity(integrity::Ledger* ledger) { ledger_ = ledger; }
  // Incarnation fencing (mdwf::membership): a direct put from a daemon
  // whose node was declared lost is rejected by the receiving daemon with
  // StaleEpochError after the payload moved (the zombie learns only once
  // traffic flows again).  Not owned; nullptr = fencing off.
  void set_fencing(FenceRegistry* fences) { fences_ = fences; }
  // Drop cached publisher routes through a lost node so the next replay
  // request re-resolves (the migrated producer re-announces its prefix).
  void forget_routes_to(net::NodeId lost);
  void set_trace(obs::TraceSink* sink, obs::TrackId track);

  // Integrity-ledger location of a node's staging buffer.
  static std::string stage_location(std::uint32_t node);
  std::string spill_path(const std::string& path) const;

  // --- Producer side -----------------------------------------------------
  // One-time background announcement of this producer's prefix.
  void ensure_pub_announced(const std::string& prefix);
  // Route lookup: domain cache, else a bounded KVS handshake.
  sim::Task<std::optional<net::NodeId>> resolve_subscriber(
      const std::string& prefix);
  // Take one credit from the subscription window, waiting up to
  // `backpressure_timeout`; false = stalled (the caller spills).
  sim::Task<bool> acquire_credit(const std::string& prefix);
  void refund_credit(const std::string& prefix) { grant_credit(prefix); }
  // Consumer-side drain returns the credit here (capped at the window).
  void grant_credit(const std::string& prefix);
  // SLO-guard degradation hook: shrinks every subscription window on this
  // node to `scale` of StreamParams::credits (floored at one credit so the
  // producer keeps making progress); 1.0 restores the full window.  Shrinking
  // takes effect immediately for unspent credits and as outstanding frames
  // drain for the rest.
  void set_credit_scale(double scale);
  double credit_scale() const { return credit_scale_; }
  // Move the payload and stage it at `dest`; the caller holds one credit
  // and a `dest` reservation.  False = duplicate (already staged or
  // consumed there); NetError propagates (torn fabric mid-put).
  sim::Task<bool> deliver(net::NodeId dest, const std::string& path,
                          Bytes size);
  // Durable spill replica (replaces torn leftovers; close-after-write is
  // the MDS journal barrier).
  sim::Task<void> spill_write(const std::string& path, Bytes size);
  // Refresh a corrupt spill replica from the replay ring; false when the
  // ring lost the frame (power loss).
  sim::Task<bool> respill(const std::string& path, Bytes size);
  // Re-deliver a frame from the replay ring to `requester` (restages in
  // place when already staged, spills when the buffer is full); false
  // when the ring lost the frame.
  sim::Task<bool> replay_to(net::NodeId requester, const std::string& path,
                            Bytes size);
  void note_published(const std::string& path, Bytes size);

  // --- Consumer-side staging buffer --------------------------------------
  bool try_reserve(Bytes size);
  // Bounded wait for buffer space; false = still full after the timeout.
  sim::Task<bool> reserve(Bytes size);
  void unreserve(Bytes size);
  // Accept a delivered frame (reservation already held by the sender);
  // false = duplicate, the sender unreserves and refunds its credit.
  bool receive(const std::string& path, Bytes size, net::NodeId origin);
  bool staged(const std::string& path) const {
    return staged_.find(path) != staged_.end();
  }
  std::optional<net::NodeId> staged_origin(const std::string& path) const;
  // A consumer about to (re-)fetch `path` accepts re-deliveries again
  // (crash rollback re-reads frames whose staged copy it already freed).
  void redeclare_interest(const std::string& path);
  sim::Task<void> wait_arrival(const std::string& path, Duration timeout);
  // Drain a staged frame: free the space, return the credit, dedup.
  void consume(const std::string& path);
  // The spill path satisfied the fetch: drop any racing staged copy and
  // remember the frame as consumed.
  void mark_consumed(const std::string& path);

  // --- Consumer-side handshake / health ----------------------------------
  void ensure_subscribed(const std::string& prefix);
  sim::Task<std::optional<net::NodeId>> resolve_publisher(
      const std::string& prefix);
  health::LatencyTracker& fetch_latency() { return fetch_latency_; }

  // --- Fault hook ---------------------------------------------------------
  // Power loss: volatile staging state dies (staged frames, arrival
  // events, replay ring, credit windows).  Process kills do NOT call
  // this — the staging daemon's memory survives, like the page cache.
  void on_power_loss();

  // --- Counters -----------------------------------------------------------
  std::uint64_t puts() const { return puts_; }
  std::uint64_t staged_hits() const { return hits_; }
  std::uint64_t spills() const { return spills_; }
  std::uint64_t spill_reads() const { return spill_reads_; }
  std::uint64_t replays() const { return replays_; }
  std::uint64_t dup_drops() const { return dup_drops_; }
  std::uint64_t crash_drops() const { return crash_drops_; }
  std::uint64_t credit_waits() const { return credit_waits_; }
  std::uint64_t backpressure_stalls() const { return backpressure_stalls_; }
  std::uint64_t hedges() const { return hedges_; }
  std::uint64_t hedge_wins() const { return hedge_wins_; }
  Bytes staged_bytes() const { return staged_bytes_; }

  void count_put();
  void count_spill();
  void count_spill_read();
  void count_backpressure_stall() { ++backpressure_stalls_; }
  void count_hedge() { ++hedges_; }
  void count_hedge_win() { ++hedge_wins_; }

 private:
  struct CreditState {
    std::int64_t available = 0;
    std::shared_ptr<sim::Event> changed;
  };

  CreditState& credit_state(const std::string& prefix);
  std::int64_t effective_credits() const;
  std::shared_ptr<sim::Event> credit_event(const std::string& prefix);
  std::shared_ptr<sim::Event> space_event();
  std::shared_ptr<sim::Event> arrival_event(const std::string& path);
  // Wake on the event or after `timeout`, whichever first.
  sim::Task<void> timed_wait(std::shared_ptr<sim::Event> ev,
                             Duration timeout);
  sim::Task<void> move_bytes(net::NodeId dest, Bytes size);
  // Re-draw the in-flight corruption state of a (re-)delivered frame.
  void record_delivery(net::NodeId dest, const std::string& path);
  sim::Task<void> return_credit(net::NodeId origin, std::string prefix);
  sim::Task<void> announce(std::string key, std::string value);
  void trace_total(obs::CounterId id, std::uint64_t value);
  void trace_gauge();

  sim::Simulation* sim_;
  StreamParams params_;
  StreamDomain* domain_;
  net::NodeId node_;
  net::Network* network_;
  kvs::KvsClient kvs_;
  std::unique_ptr<fs::LustreClient> spill_client_;
  integrity::Ledger* ledger_ = nullptr;
  FenceRegistry* fences_ = nullptr;

  // Consumer side.
  std::map<std::string, StagedFrame> staged_;
  Bytes staged_bytes_;
  std::map<std::string, std::shared_ptr<sim::Event>> arrivals_;
  std::shared_ptr<sim::Event> space_changed_;
  std::set<std::string> consumed_;
  std::set<std::string> announced_subs_;
  std::map<std::string, net::NodeId> pub_routes_;
  health::LatencyTracker fetch_latency_;

  // Producer side.
  std::map<std::string, CreditState> credits_;
  double credit_scale_ = 1.0;
  std::map<std::string, Bytes> published_;
  std::set<std::string> announced_pubs_;

  std::uint64_t puts_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t spill_reads_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t dup_drops_ = 0;
  std::uint64_t crash_drops_ = 0;
  std::uint64_t credit_waits_ = 0;
  std::uint64_t backpressure_stalls_ = 0;
  std::uint64_t hedges_ = 0;
  std::uint64_t hedge_wins_ = 0;

  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_puts_id_{};
  obs::CounterId trace_hits_id_{};
  obs::CounterId trace_spills_id_{};
  obs::CounterId trace_spill_reads_id_{};
  obs::CounterId trace_replays_id_{};
  obs::CounterId trace_crash_drops_id_{};
  obs::CounterId trace_staged_bytes_id_{};
};

// Rank-facing producer API: put one frame toward the subscriber, with
// back-pressure, spill overflow, and perf-region accounting.
class StreamPublisher {
 public:
  StreamPublisher(StreamNode& node, perf::Recorder& recorder);
  sim::Task<void> publish(const std::string& path, Bytes size);

 private:
  StreamNode* node_;
  perf::Recorder* rec_;
};

// Rank-facing consumer API: wait for the staged frame (or hedge against
// the spill replica), verify, drain.
class StreamSubscriber {
 public:
  StreamSubscriber(StreamNode& node, perf::Recorder& recorder);
  sim::Task<void> fetch(const std::string& path, Bytes size);

 private:
  sim::Task<void> read_staged(const std::string& path, Bytes size);
  sim::Task<bool> try_spill_read(const std::string& path, Bytes size);
  sim::Task<void> request_replay(const std::string& path, Bytes size);

  StreamNode* node_;
  perf::Recorder* rec_;
};

}  // namespace mdwf::stream
