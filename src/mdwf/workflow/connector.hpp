// Data-management connectors: the pluggable put/get layer between an MD
// producer and its in-situ consumer.
//
// Three implementations mirror the paper's solutions:
//
//   DyadConnector    - DYAD middleware: node-local staging + KVS/flock
//                      automatic synchronization.  Fully pipelined: the
//                      producer never waits for the consumer.
//
//   XfsConnector     - node-local XFS shared by co-located producer and
//                      consumer, with *manual* coarse-grained sync.
//
//   LustreConnector  - shared parallel filesystem with the same manual
//                      coarse-grained sync.
//
// A fourth solution extends the study beyond the paper (DESIGN.md Sec. 10):
//
//   StreamConnector  - mdwf::stream pub/sub staging data plane: RDMA puts
//                      into a bounded consumer-side buffer, credit-based
//                      back-pressure, spill-to-Lustre overflow.  Like DYAD
//                      it needs no ExplicitSync; unlike DYAD the hot path
//                      never touches the page cache or the filesystem.
//
// Manual synchronization (ExplicitSync) reproduces what the paper measures
// as MPI_Barrier idle time: the coarse-grained approach serializes producer
// and consumer iterations (paper Sec. III: "...not overlapping producer and
// consumer tasks", "result in serialized execution of the producer and
// consumer").  Concretely: the consumer blocks until the frame is written
// (`explicit_sync`, its idle bar), and the producer blocks until the
// consumer finishes its iteration before starting the next stride
// (`producer_sync`; outside the measured produce region, as in the paper
// where production shows "no significant idle").
//
// Crash consistency (PR 3): every verb carries an explicit frame index so
// re-executed frames stay idempotent.  ExplicitSync is level-triggered on
// per-frame high-water marks rather than edge-triggered tokens: a producer
// that rolls back to a checkpoint and re-announces frames it already
// announced cannot double-release a consumer, and a consumer that re-waits
// for an already-announced frame proceeds immediately instead of
// deadlocking on a consumed token.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "mdwf/common/bytes.hpp"
#include "mdwf/dyad/dyad.hpp"
#include "mdwf/fs/local_fs.hpp"
#include "mdwf/fs/lustre.hpp"
#include "mdwf/integrity/ledger.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/stream/stream.hpp"

namespace mdwf::workflow {

class Testbed;

// The paper's three data-management solutions, plus the streaming plane.
enum class Solution { kDyad, kXfs, kLustre, kStream };
std::string_view to_string(Solution s);

// Producer/consumer-pair rendezvous for the manual-sync connectors.
//
// Level-triggered per-frame marks: `signal_ready(f)` declares frames
// [0, f] visible (idempotent under producer re-execution), `wait_ready(f)`
// resolves once frame f has ever been announced.  Same for done.  For
// healthy in-order callers this behaves exactly like the old paired
// semaphore; under crash/restart it tolerates replayed signals and
// re-issued waits.
class ExplicitSync {
 public:
  explicit ExplicitSync(sim::Simulation& sim) : sim_(&sim) {}

  // Producer: frame `frame` data is visible.
  void signal_ready(std::uint64_t frame) { announce(ready_, frame); }
  // Consumer: block until frame `frame` is ready.
  sim::Task<void> wait_ready(std::uint64_t frame) {
    return await(ready_, frame);
  }
  // Consumer: iteration `frame` (read + analytics) finished.
  void signal_done(std::uint64_t frame) { announce(done_, frame); }
  // Producer: block until the consumer finished iteration `frame`.
  sim::Task<void> wait_done(std::uint64_t frame) { return await(done_, frame); }

 private:
  struct Mark {
    std::uint64_t high = 0;              // frames [0, high) announced
    std::shared_ptr<sim::Event> changed; // recreated per announcement
  };

  void announce(Mark& m, std::uint64_t frame);
  sim::Task<void> await(Mark& m, std::uint64_t frame);

  sim::Simulation* sim_;
  Mark ready_;
  Mark done_;
};

// One connector instance per rank (producer or consumer); put() is used by
// producers, get() by consumers.  Every verb carries the frame index, so
// re-execution after a crash is explicit.
class Connector {
 public:
  virtual ~Connector() = default;

  // Publish `size` bytes under `path` as frame `frame`.
  virtual sim::Task<void> put(const std::string& path, Bytes size,
                              std::uint64_t frame) = 0;
  // After put: block until the consumer allows the next iteration (manual
  // coarse-grained sync only; no-op for DYAD).
  virtual sim::Task<void> producer_sync(std::uint64_t frame) = 0;
  // Acquire and read `path` (frame `frame`).
  virtual sim::Task<void> get(const std::string& path, Bytes size,
                              std::uint64_t frame) = 0;
  // Consumer iteration complete (manual sync only; no-op for DYAD).
  virtual void acknowledge(std::uint64_t /*frame*/) {}

  // The connector whose per-rank counters the collector should read.
  // Decorators (e.g. the co-tenant SLO fallback wrapper) forward to their
  // primary so a DYAD tenant's stats survive wrapping.
  virtual const Connector& stats_target() const { return *this; }
};

class DyadConnector final : public Connector {
 public:
  DyadConnector(dyad::DyadNode& node, perf::Recorder& recorder)
      : producer_(node, recorder), consumer_(node, recorder) {}

  sim::Task<void> put(const std::string& path, Bytes size,
                      std::uint64_t frame) override {
    (void)frame;  // DYAD synchronizes on the namespace, not frame order
    co_await producer_.produce(path, size);
  }
  sim::Task<void> producer_sync(std::uint64_t frame) override {
    (void)frame;
    co_return;
  }
  sim::Task<void> get(const std::string& path, Bytes size,
                      std::uint64_t frame) override {
    (void)frame;
    co_await consumer_.consume(path, size);
  }

  const dyad::DyadConsumer& consumer() const { return consumer_; }

 private:
  dyad::DyadProducer producer_;
  dyad::DyadConsumer consumer_;
};

class XfsConnector final : public Connector {
 public:
  // `ledger` (optional) enables end-to-end CRC verification on every get;
  // `durable` makes each put fsync (crash-consistent commit barrier) and
  // re-puts replace possibly-torn leftovers.  Defaults preserve the
  // healthy-cluster timings the paper measures.
  XfsConnector(sim::Simulation& sim, fs::LocalFs& fs, ExplicitSync& sync,
               perf::Recorder& recorder, std::uint32_t node = 0,
               integrity::Ledger* ledger = nullptr, bool durable = false)
      : sim_(&sim),
        fs_(&fs),
        sync_(&sync),
        rec_(&recorder),
        node_(node),
        ledger_(ledger),
        durable_(durable) {}

  sim::Task<void> put(const std::string& path, Bytes size,
                      std::uint64_t frame) override;
  sim::Task<void> producer_sync(std::uint64_t frame) override;
  sim::Task<void> get(const std::string& path, Bytes size,
                      std::uint64_t frame) override;
  void acknowledge(std::uint64_t frame) override {
    sync_->signal_done(frame);
  }

 private:
  sim::Task<void> verify(const std::string& path, Bytes size);

  sim::Simulation* sim_;
  fs::LocalFs* fs_;
  ExplicitSync* sync_;
  perf::Recorder* rec_;
  std::uint32_t node_;
  integrity::Ledger* ledger_;
  bool durable_;
};

class LustreConnector final : public Connector {
 public:
  LustreConnector(sim::Simulation& sim, fs::LustreServers& servers,
                  net::NodeId node, ExplicitSync& sync,
                  perf::Recorder& recorder,
                  integrity::Ledger* ledger = nullptr, bool durable = false)
      : sim_(&sim),
        client_(sim, servers, node),
        sync_(&sync),
        rec_(&recorder),
        node_(node.value),
        ledger_(ledger),
        durable_(durable) {}

  sim::Task<void> put(const std::string& path, Bytes size,
                      std::uint64_t frame) override;
  sim::Task<void> producer_sync(std::uint64_t frame) override;
  sim::Task<void> get(const std::string& path, Bytes size,
                      std::uint64_t frame) override;
  void acknowledge(std::uint64_t frame) override {
    sync_->signal_done(frame);
  }

 private:
  sim::Task<void> verify(const std::string& path, Bytes size);

  sim::Simulation* sim_;
  fs::LustreClient client_;
  ExplicitSync* sync_;
  perf::Recorder* rec_;
  std::uint32_t node_;
  integrity::Ledger* ledger_;
  bool durable_;
};

class StreamConnector final : public Connector {
 public:
  StreamConnector(stream::StreamNode& node, perf::Recorder& recorder)
      : node_(&node), publisher_(node, recorder), subscriber_(node, recorder) {}

  sim::Task<void> put(const std::string& path, Bytes size,
                      std::uint64_t frame) override {
    (void)frame;  // re-published frames dedup on the path, not frame order
    co_await publisher_.publish(path, size);
  }
  sim::Task<void> producer_sync(std::uint64_t frame) override {
    (void)frame;  // back-pressure is credit-based, not barrier-based
    co_return;
  }
  sim::Task<void> get(const std::string& path, Bytes size,
                      std::uint64_t frame) override {
    (void)frame;
    co_await subscriber_.fetch(path, size);
  }

  const stream::StreamNode& node() const { return *node_; }

 private:
  stream::StreamNode* node_ = nullptr;
  stream::StreamPublisher publisher_;
  stream::StreamSubscriber subscriber_;
};

// Everything needed to build one rank's connector against a testbed.  The
// manual-sync solutions (XFS, Lustre) require `sync`; DYAD and stream
// ignore it.
struct ConnectorSpec {
  Testbed* testbed = nullptr;
  Solution solution = Solution::kDyad;
  // Compute node the rank runs on.  For XFS this is also the node whose
  // local filesystem both ranks share (colocated by construction).
  std::uint32_t node = 0;
  ExplicitSync* sync = nullptr;
  perf::Recorder* recorder = nullptr;
};

// Factory for the solution-appropriate connector.  Integrity verification is
// wired when the testbed carries a ledger; durable (fsync-barrier) puts are
// wired when its fault plan contains crash windows.
std::unique_ptr<Connector> make_connector(const ConnectorSpec& spec);

}  // namespace mdwf::workflow
