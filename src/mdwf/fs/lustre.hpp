// Lustre-class parallel filesystem model.
//
// Topology: one metadata server (MDS) plus N object storage targets (OSTs),
// each living on its own fabric endpoint with a backing block device.
// Clients (one per compute node) translate POSIX-style calls into RPCs:
//
//   create/open/unlink/stat -> MDS round-trip (+ service queueing)
//   write/read              -> bulk "brw" RPCs of up to max_rpc_size bytes
//                              to the OSTs that hold the file's stripes,
//                              issued concurrently up to max_rpcs_in_flight
//   close (after write)     -> size/attr update RPC to the MDS
//
// Striping follows Lustre defaults: stripe_count OSTs per file assigned
// round-robin by the MDS, stripe_size interleaving.  Every byte crosses the
// network — this is precisely the contrast with DYAD's node-local staging
// that the paper measures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mdwf/common/bytes.hpp"
#include "mdwf/common/fence.hpp"
#include "mdwf/fs/local_fs.hpp"  // FsError
#include "mdwf/health/quota.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/storage/block_device.hpp"

namespace mdwf::fs {

struct LustreParams {
  std::uint32_t ost_count = 8;
  Bytes stripe_size = Bytes::mib(1);
  std::uint32_t stripe_count = 1;  // Lustre default layout
  Bytes max_rpc_size = Bytes::mib(4);
  std::int64_t max_rpcs_in_flight = 8;  // per client

  Duration mds_service = Duration::microseconds(400);
  std::int64_t mds_concurrency = 4;
  Duration ost_service = Duration::microseconds(150);
  std::int64_t ost_concurrency = 8;
  // Client-side CPU per RPC (request marshalling, completion handling).
  Duration client_rpc_cpu = Duration::microseconds(150);
  // Grant-based client write-back cache: writes up to `write_grant` copy
  // into the client cache at `client_cache_bps` and flush to the OSTs in
  // the background; larger writes are synchronous (write-through).
  bool client_writeback = true;
  Bytes write_grant = Bytes::mib(32);
  double client_cache_bps = 5.0e9;
  // Cost of the first read of a file by a client that did not write it:
  // LDLM extent-lock acquisition plus revocation of the writer's cached
  // grant (Lustre's cross-node coherence).  Frames are written once and
  // read once by the peer, so every frame read pays this.
  Duration first_read_lock = Duration::microseconds(2300);

  storage::BlockDeviceParams ost_device{
      .read_bandwidth_bps = 1.2e9,
      .write_bandwidth_bps = 3.0e9,
      .op_latency = Duration::microseconds(50),
      .queue_depth = 32,
      .capacity = Bytes::gib(65536),
  };
};

// Server-side state shared by every client.
class LustreServers {
 public:
  // `mds_node` and `ost_nodes` are fabric endpoints reserved for servers.
  LustreServers(sim::Simulation& sim, const LustreParams& params,
                net::Network& network, net::NodeId mds_node,
                std::vector<net::NodeId> ost_nodes);

  const LustreParams& params() const { return params_; }
  net::NodeId mds_node() const { return mds_node_; }

  storage::BlockDevice& ost_device(std::uint32_t idx);
  std::uint32_t ost_count() const {
    return static_cast<std::uint32_t>(osts_.size());
  }

  // MDS service slots (exposed so interference can model metadata storms
  // from other tenants occupying server capacity).
  sim::Semaphore& mds_slots() { return *mds_slots_; }

  std::uint64_t mds_requests() const { return mds_requests_; }
  std::uint64_t journal_commits() const { return journal_commits_; }
  std::uint64_t torn_writes() const { return torn_writes_; }
  std::uint64_t lost_flushes() const { return lost_flushes_; }

  // Overloaded-server gray failure: MDS and OST service times stretch by
  // `factor` (>= 1); 1.0 restores nominal speed.
  void set_service_dilation(double factor);
  double service_dilation() const { return dilation_; }

  // --- Backpressure (mdwf::health) ----------------------------------------
  // Bounded admission queues: an MDS or OST RPC arriving at a full queue
  // bounces with a retryable busy reply; the client backs off and re-sends
  // internally (bounded attempts, then it queues regardless so progress is
  // guaranteed).  0 = unbounded (off).
  void set_admission_limits(std::uint32_t mds_limit, std::uint32_t ost_limit,
                            std::uint32_t retry_limit, Duration retry_base);
  std::uint64_t sheds() const { return sheds_; }
  std::uint64_t busy_retries() const { return busy_retries_; }

  // Per-tenant fair-share quota (multi-tenant runs).  An MDS or OST RPC from
  // a tenant at its weighted bound bounces exactly like a full global queue —
  // backoff, bounded attempts, then proceed — but the shed is charged to the
  // overloading tenant and other tenants' shares stay untouched.  Not owned.
  void set_quota(health::TenantQuota* quota) { quota_ = quota; }

  // --- Fencing (mdwf::membership) -----------------------------------------
  // Incarnation fencing of the namespace-mutating paths (create/unlink): an
  // RPC from a client node the membership controller declared lost is
  // rejected with StaleEpochError after the MDS round trip, so a healed
  // zombie cannot commit into the shared namespace.  Not owned; nullptr off.
  void set_fencing(FenceRegistry* fences) { fences_ = fences; }

  // --- Crash consistency ----------------------------------------------------
  // Client `node` lost power: every file it wrote past the last journal
  // commit (close-after-write publishes size to the MDS journal) is torn
  // back to the committed size — bytes parked in the client's grant cache or
  // still in flight in background flushes never reached the journal tail.
  // Returns the number of files torn.
  std::size_t client_crash(net::NodeId node);

  // --- Observability (mdwf::obs) ------------------------------------------
  // Registers a "lustre" process with one "mds" lane (queue depth +
  // cumulative request count) and one lane per OST (device inflight/flow
  // counters via BlockDevice::set_trace).
  void set_trace(obs::TraceSink* sink);

 private:
  friend class LustreClient;

  struct FileState {
    std::uint64_t id = 0;
    Bytes size = Bytes::zero();
    // Size recorded in the MDS write journal (advanced by close-after-write,
    // the commit barrier): what survives a writer crash.
    Bytes durable = Bytes::zero();
    std::vector<std::uint32_t> stripe_osts;
    // Last writer and coherence state for the first-read lock charge.
    net::NodeId written_by{};
    bool coherent = true;  // false after a write until first foreign read
  };

  struct Ost {
    net::NodeId node;
    std::unique_ptr<storage::BlockDevice> device;
    std::unique_ptr<sim::Semaphore> service_slots;
    std::int64_t pending = 0;  // admitted bulk RPCs queued or in service
  };

  // MDS round-trip from `client`: request + queued service + reply.
  sim::Task<void> mds_rpc(net::NodeId client);
  void trace_mds_pending(int delta);

  sim::Simulation* sim_;
  LustreParams params_;
  net::Network* network_;
  net::NodeId mds_node_;
  std::unique_ptr<sim::Semaphore> mds_slots_;
  std::vector<Ost> osts_;
  std::map<std::string, FileState> files_;
  std::uint64_t next_file_id_ = 1;
  std::uint32_t next_ost_rr_ = 0;
  std::uint64_t mds_requests_ = 0;
  std::uint64_t journal_commits_ = 0;
  std::uint64_t torn_writes_ = 0;
  std::uint64_t lost_flushes_ = 0;
  double dilation_ = 1.0;
  std::uint32_t mds_admission_limit_ = 0;
  std::uint32_t ost_admission_limit_ = 0;
  std::uint32_t busy_retry_limit_ = 24;
  Duration busy_retry_base_ = Duration::microseconds(200);
  health::TenantQuota* quota_ = nullptr;
  FenceRegistry* fences_ = nullptr;
  std::uint64_t sheds_ = 0;
  std::uint64_t busy_retries_ = 0;
  std::int64_t mds_pending_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_mds_pending_id_{};
};

struct LustreHandle {
  std::uint64_t file_id = 0;
  std::string path;
};

// Per-compute-node client.
//
// Lifetime: buffered writes flush in background tasks that are independent
// of this client object (they share the RPC window and reference only the
// servers), so the client may be destroyed while a flush is still in
// flight.  The servers and simulation must outlive the flush as usual.
class LustreClient {
 public:
  LustreClient(sim::Simulation& sim, LustreServers& servers,
               net::NodeId node);

  net::NodeId node() const { return node_; }

  sim::Task<LustreHandle> create(std::string path);
  sim::Task<LustreHandle> open(const std::string& path);
  sim::Task<void> write(const LustreHandle& h, Bytes offset, Bytes len);
  sim::Task<void> read(const LustreHandle& h, Bytes offset, Bytes len);
  // Close after writing publishes size/attrs to the MDS.
  sim::Task<void> close(const LustreHandle& h, bool wrote);
  sim::Task<void> unlink(const std::string& path);
  sim::Task<bool> exists(const std::string& path);
  sim::Task<std::optional<Bytes>> stat(const std::string& path);

 private:
  // One bulk RPC: request -> OST service -> device IO -> payload/ack.
  // Static (all state passed explicitly) so frames spawned as detached
  // background flushes never dangle on a destroyed client.
  static sim::Task<void> brw_rpc(sim::Simulation& sim, LustreServers& servers,
                                 net::NodeId node, sim::Semaphore& window,
                                 std::uint32_t ost_idx, Bytes chunk,
                                 bool is_write);
  // Splits [offset, offset+len) into per-OST chunks of <= max_rpc_size and
  // runs them with bounded concurrency.  Stripe assignment is taken by
  // value so background flushes survive namespace changes; the shared RPC
  // window keeps the semaphore alive past the client.
  static sim::Task<void> bulk_io(sim::Simulation& sim, LustreServers& servers,
                                 net::NodeId node,
                                 std::shared_ptr<sim::Semaphore> window,
                                 std::vector<std::uint32_t> stripe_osts,
                                 Bytes offset, Bytes len, bool is_write);
  // Detached background flush: a grant-cache flush that dies mid-transfer
  // (crashed writer NIC, injected I/O error) is lost data, not a sim abort.
  static sim::Task<void> flush_guarded(sim::Simulation& sim,
                                       LustreServers& servers,
                                       net::NodeId node,
                                       std::shared_ptr<sim::Semaphore> window,
                                       std::vector<std::uint32_t> stripe_osts,
                                       Bytes offset, Bytes len);

  sim::Simulation* sim_;
  LustreServers* servers_;
  net::NodeId node_;
  std::shared_ptr<sim::Semaphore> rpcs_in_flight_;
};

}  // namespace mdwf::fs
