// Fault injector: applies a `FaultPlan` to live resources.
//
// The injector is attached to concrete resources (node SSDs, the network,
// the KVS broker, Lustre OSTs) and, once `arm()`ed, schedules plain-callback
// timers at every window's start and end.  All state transitions happen at
// exact plan instants through the simulation's timer queue, so injection
// perturbs neither process scheduling order nor any model's random stream —
// the run stays bit-reproducible for a fixed (plan, workload) pair.
//
// Overlapping windows compose:
//   degrade   combined loss = 1 - prod(1 - severity_i), capped at 0.95
//   offline   depth-counted (resource back up when every window ended)
//   io-error  effective probability = max of active severities
//   stall / outage  stack through the broker's own depth counter
//   bit-flip  effective probability = max of active severities
//   crash     depth-counted node-down state through the CrashMonitor
//   fail-slow combined slowdown = 1 / prod(1 - severity_i), capped at 100x
//   lossy     combined loss = 1 - prod(1 - severity_i), capped at 0.9
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mdwf/fault/plan.hpp"
#include "mdwf/fs/local_fs.hpp"
#include "mdwf/fs/lustre.hpp"
#include "mdwf/integrity/ledger.hpp"
#include "mdwf/kvs/kvs.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/storage/block_device.hpp"
#include "mdwf/storage/page_cache.hpp"
#include "mdwf/stream/stream.hpp"

namespace mdwf::fault {

// Per-node crash state, visible to crash-aware ranks.
//
// A node's *epoch* increments on every crash or process kill: a rank
// comparing the epoch around a unit of work knows whether the node failed
// underneath it (work completed into a dropped page cache is lost without
// any exception firing).  While a node is powered off (`down`), restarted
// ranks park in `wait_up`; kills bump the epoch without a down period.
class CrashMonitor {
 public:
  explicit CrashMonitor(sim::Simulation& sim) : sim_(&sim) {}

  std::uint64_t epoch(std::uint32_t node) const;
  bool down(std::uint32_t node) const;
  // Resolves when the node is powered on (immediately if it already is).
  sim::Task<void> wait_up(std::uint32_t node);

  std::uint64_t crashes() const { return crashes_; }

  // Injector-side transitions.
  void begin_crash(std::uint32_t node, bool power_loss);
  void end_crash(std::uint32_t node);

 private:
  struct NodeState {
    std::uint64_t epoch = 0;
    int down_depth = 0;
    std::shared_ptr<sim::Event> up;  // recreated per down period (one-shot)
  };

  sim::Simulation* sim_;
  std::map<std::uint32_t, NodeState> nodes_;
  std::uint64_t crashes_ = 0;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  // --- Resource attachment (before arm) -------------------------------------
  // Also reseeds the device's fault RNG from the plan seed so per-op I/O
  // error draws are a function of (plan.seed, node) alone.
  void attach_node_ssd(std::uint32_t node, storage::BlockDevice& device);
  void attach_network(net::Network& network);
  void attach_kvs(kvs::KvsServer& server);
  void attach_lustre(fs::LustreServers& servers);
  // Node-local cache + filesystem, needed for crash windows (dirty-page drop
  // and torn-write truncation).
  void attach_node_fs(std::uint32_t node, storage::PageCache& cache,
                      fs::LocalFs& fs);
  // Integrity ledger, needed for bit-flip windows.
  void attach_integrity(integrity::Ledger& ledger);
  // Stream staging node: power-loss crash windows drop its RAM-staged
  // frames (kills keep them, like the page cache).
  void attach_stream(std::uint32_t node, stream::StreamNode& staging);

  // Annotates the trace with one "fault"-category span per plan window, on
  // a "faults" process with one lane per struck resource.  Spans are
  // emitted when a window actually closes; call before arm().
  void set_trace(obs::TraceSink* sink);

  // Schedules begin/end callbacks for every plan window.  Call once, after
  // attaching resources and before running the simulation.
  void arm();

  // Emits spans for windows that began but never ended (a bounded run that
  // stopped inside a fault window): clamped to the current instant and
  // suffixed "(open)".  Call once after the run, before the trace is
  // written; idempotent.
  void finalize_trace();

  // Windows whose target had no attached resource at fire time.
  std::uint64_t windows_skipped() const { return skipped_; }
  std::uint64_t windows_applied() const { return applied_; }

  // Crash state for crash-aware ranks; valid for the injector's lifetime.
  CrashMonitor& monitor() { return *monitor_; }

  // True if the plan permanently removes `node` (a kNodeLoss window).
  // Rank loops use this to park instead of polling for a peer that can
  // never come back, so membership-less runs quiesce into the deadlock
  // reporter rather than retrying forever.
  bool node_lost(std::uint32_t node) const;

  // CPU dilation of the ranks on `node` right now (1.0 = nominal); rank
  // loops consult it before each compute burst (kSlowNode windows).
  double cpu_dilation(std::uint32_t node) const;

 private:
  // Active-fault bookkeeping per (target, index).
  struct Active {
    std::vector<double> degrades;
    std::vector<double> io_errors;
    std::vector<double> bitflips;
    std::vector<double> failslows;  // fail-slow / lossy severities
    int offline_depth = 0;
  };

  struct NodeFs {
    storage::PageCache* cache = nullptr;
    fs::LocalFs* fs = nullptr;
  };

  storage::BlockDevice* device_for(FaultTarget target, std::uint32_t index);
  void apply(const FaultWindow& w, bool begin);
  void refresh_device(storage::BlockDevice& device, const Active& a);
  void apply_bitflip(const FaultWindow& w, Active& a, bool begin);
  void apply_crash(const FaultWindow& w, bool begin);
  void emit_span(const FaultWindow& w, Duration duration, bool open);

  sim::Simulation* sim_;
  FaultPlan plan_;
  std::map<std::uint32_t, storage::BlockDevice*> node_ssds_;
  std::map<std::uint32_t, NodeFs> node_fs_;
  std::map<std::uint32_t, stream::StreamNode*> streams_;
  net::Network* network_ = nullptr;
  kvs::KvsServer* kvs_ = nullptr;
  fs::LustreServers* lustre_ = nullptr;
  integrity::Ledger* integrity_ = nullptr;
  std::unique_ptr<CrashMonitor> monitor_;
  std::map<std::pair<std::uint8_t, std::uint32_t>, Active> active_;
  std::map<std::uint32_t, double> cpu_dilation_;
  std::uint64_t skipped_ = 0;
  std::uint64_t applied_ = 0;
  bool armed_ = false;
  bool trace_finalized_ = false;
  // Per plan window: did its begin/end callback fire yet?
  std::vector<bool> began_;
  std::vector<bool> ended_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace mdwf::fault
