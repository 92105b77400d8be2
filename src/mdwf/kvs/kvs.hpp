// Flux-style key-value store for workflow synchronization.
//
// DYAD publishes per-file metadata (owner rank, size) through the Flux KVS
// and consumers discover data availability by lookup/watch.  The model
// captures the costs that matter to the paper:
//
//   - commits and lookups are RPCs to a broker node (network + queued
//     service time),
//   - the store is *eventually consistent*: a commit becomes visible to
//     lookups only after a propagation delay (Flux KVS caches/synchronizes
//     lazily), which is why a consumer arriving "too early" pays an extra
//     lookup + watch round — the paper's observation that larger models
//     stress the KVS less falls out of this mechanism,
//   - watches wake at visibility time, not commit time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mdwf/common/bytes.hpp"
#include "mdwf/common/fence.hpp"
#include "mdwf/health/health.hpp"
#include "mdwf/health/quota.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/sim/simulation.hpp"

namespace mdwf::kvs {

struct KvsParams {
  // Commits enqueue into the broker's commit pipeline and return quickly;
  // durability/visibility comes later (visibility_delay).  Lookups walk the
  // namespace synchronously and are the expensive operation.
  Duration commit_service = Duration::microseconds(40);
  Duration lookup_service = Duration::microseconds(250);
  std::int64_t server_concurrency = 4;
  // Commit-to-visibility propagation delay (eventual consistency).
  Duration visibility_delay = Duration::milliseconds(2);
};

struct KvsValue {
  std::string data;
  std::uint64_t version = 0;
};

class KvsServer {
 public:
  KvsServer(sim::Simulation& sim, const KvsParams& params,
            net::Network& network, net::NodeId server_node);

  const KvsParams& params() const { return params_; }
  net::NodeId node() const { return node_; }

  std::uint64_t commits() const { return commits_; }
  std::uint64_t lookups() const { return lookups_; }

  // Entries currently visible (test/introspection helper; no cost).
  std::size_t visible_entries() const;

  // --- Fault hooks (mdwf::fault) ------------------------------------------
  // Broker stall: requests queue at the broker but none are serviced until
  // the matching end call.  Nested windows stack.
  void fault_stall_begin();
  void fault_stall_end();

  // Broker outage: a stall plus state loss — commits applied but not yet
  // *visible* are dropped (the Flux commit pipeline between apply and
  // propagation dies with the broker).  Recovery notifies listeners with
  // the lost keys so publishers can re-commit (DYAD's re-publish protocol).
  void fault_outage_begin();
  void fault_outage_end();
  void add_recovery_listener(
      std::function<void(const std::vector<std::string>&)> fn);
  std::uint64_t lost_commits() const { return lost_commits_; }

  // Overloaded-broker gray failure: every service time stretches by
  // `factor` (>= 1); 1.0 restores nominal speed.
  void set_service_dilation(double factor);
  double service_dilation() const { return dilation_; }

  // --- Backpressure (mdwf::health) ----------------------------------------
  // Bounded admission queue: a request arriving while `pending` (queued +
  // in service) is at the limit is shed with a retryable ServerBusy reply
  // instead of queueing without bound.  0 = unbounded (off).
  void set_admission_limit(std::uint32_t limit) { admission_limit_ = limit; }
  std::uint64_t sheds() const { return sheds_; }

  // Per-tenant fair-share quota (multi-tenant runs).  A request from a node
  // whose tenant is at its weighted bound is shed before it can consume
  // shared queue depth; unmapped nodes bypass the quota.  Not owned.
  void set_quota(health::TenantQuota* quota) { quota_ = quota; }

  // --- Fencing (mdwf::membership) -----------------------------------------
  // Incarnation fencing: a commit from a client whose node incarnation is
  // stale (the membership controller declared the node lost) is rejected
  // with StaleEpochError after the broker round trip instead of applied —
  // a healed zombie cannot corrupt the namespace.  Not owned; nullptr off.
  void set_fencing(FenceRegistry* fences) { fences_ = fences; }

  // --- Observability (mdwf::obs) ------------------------------------------
  // Samples broker queue depth ("kvs.pending": requests queued or in
  // service, including those parked behind a stall gate) and cumulative
  // commit/lookup totals onto `track` as they change.
  void set_trace(obs::TraceSink* sink, obs::TrackId track);

 private:
  friend class KvsClient;

  struct Entry {
    KvsValue value;
    TimePoint visible_at = TimePoint::origin();
  };

  // Queued service-time charge on the broker; `client` identifies the
  // requesting node for per-tenant quota accounting.
  sim::Task<void> serve(Duration service, net::NodeId client);
  void arm_watch_wakeup(const std::string& key, TimePoint when);
  void trace_pending(int delta);
  void trace_total(obs::CounterId id, std::uint64_t value);

  sim::Simulation* sim_;
  KvsParams params_;
  net::Network* network_;
  net::NodeId node_;
  std::unique_ptr<sim::Semaphore> slots_;
  std::map<std::string, Entry> store_;
  // One-shot events waiting for a key to become visible.
  std::map<std::string, std::vector<std::shared_ptr<sim::Event>>> watchers_;
  std::uint64_t commits_ = 0;
  std::uint64_t lookups_ = 0;
  int stall_depth_ = 0;
  std::shared_ptr<sim::Event> stall_gate_;
  std::vector<std::string> lost_keys_;
  std::vector<std::function<void(const std::vector<std::string>&)>>
      recovery_listeners_;
  std::uint64_t lost_commits_ = 0;
  double dilation_ = 1.0;
  std::uint32_t admission_limit_ = 0;
  health::TenantQuota* quota_ = nullptr;
  FenceRegistry* fences_ = nullptr;
  std::uint64_t sheds_ = 0;
  std::int64_t pending_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_pending_id_{};
  obs::CounterId trace_commits_id_{};
  obs::CounterId trace_lookups_id_{};
};

class KvsClient {
 public:
  KvsClient(sim::Simulation& sim, KvsServer& server, net::NodeId node);

  net::NodeId node() const { return node_; }

  // Publishes key=value; returns after the broker applied the commit (the
  // value becomes *visible* visibility_delay later).
  sim::Task<void> commit(std::string key, std::string value);

  // Visible value for key, or nullopt.
  sim::Task<std::optional<KvsValue>> lookup(const std::string& key);

  // Blocks until `key` becomes visible (push notification; no lookup RPC).
  // Returns immediately if it already is.
  sim::Task<void> watch_until_visible(const std::string& key);

  // Bounded watch: like watch_until_visible but gives up after `timeout`.
  // Returns whether the key is visible (the building block of DYAD's
  // timeout-and-retry recovery path).
  sim::Task<bool> watch_for(const std::string& key, Duration timeout);

 private:
  sim::Task<void> rpc_to_server();
  sim::Task<void> rpc_from_server();

  sim::Simulation* sim_;
  KvsServer* server_;
  net::NodeId node_;
};

}  // namespace mdwf::kvs
