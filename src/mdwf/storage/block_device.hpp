// Node-local storage device model (NVMe SSD class).
//
// Costs per operation: a fixed submission/completion latency, a queue-depth
// limit (ops beyond it wait FIFO), and byte streaming through per-direction
// fair-share bandwidth channels.  Corona's 3.5 TB node-local NVMe is the
// reference configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "mdwf/common/bytes.hpp"
#include "mdwf/common/rng.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/net/fair_share.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::storage {

// A simulated device-level I/O failure (media error, controller reset).
// Raised by read/write when a fault plan arms a per-op error probability.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

struct BlockDeviceParams {
  double read_bandwidth_bps = 3.2e9;
  double write_bandwidth_bps = 3.0e9;
  Duration op_latency = Duration::microseconds(20);
  std::int64_t queue_depth = 16;
  Bytes capacity = Bytes::gib(3584);  // 3.5 TB
};

class BlockDevice {
 public:
  BlockDevice(sim::Simulation& sim, const BlockDeviceParams& params,
              std::string name = "nvme");

  const BlockDeviceParams& params() const { return params_; }
  const std::string& name() const { return name_; }

  sim::Task<void> read(Bytes n);
  sim::Task<void> write(Bytes n);

  // Interference hook: fraction of device bandwidth consumed by other
  // tenants (applies to both directions).  Composes with fault degradation.
  void set_background_load(double fraction);

  // --- Fault hooks (mdwf::fault) ------------------------------------------
  // Additional capacity loss from an injected fault window; composes
  // multiplicatively with the interference background load.
  void set_fault_degradation(double fraction);
  // While offline, newly submitted ops queue (device-missing semantics);
  // in-flight transfers complete.  They resume when the device returns.
  void set_offline(bool offline);
  bool offline() const { return offline_; }
  // Permanent failure (the node hosting the device was declared lost): ops
  // parked on the offline gate wake and throw IoError, as does every later
  // submission.  There is no way back — a declare is terminal.
  void set_lost();
  bool lost() const { return lost_; }
  // Per-op failure probability; an affected op charges its submission
  // latency then throws IoError without moving bytes.  Draws come from a
  // dedicated stream so p == 0 consumes no randomness.
  void set_io_error_p(double p);
  void reseed_fault_rng(Rng rng) { fault_rng_ = rng; }
  // Fail-slow (gray failure): every op's submission latency stretches by
  // `factor` (>= 1) and both bandwidth channels slow by the same factor.
  // 1.0 restores nominal speed.
  void set_fault_slowdown(double factor);

  std::uint64_t reads_completed() const { return reads_; }
  std::uint64_t writes_completed() const { return writes_; }
  std::uint64_t io_errors() const { return io_errors_; }
  Bytes bytes_read() const { return read_channel_.total_requested(); }
  Bytes bytes_written() const { return write_channel_.total_requested(); }

  // --- Observability (mdwf::obs) ------------------------------------------
  // Samples device queue occupancy ("<prefix>.inflight": submitted ops not
  // yet complete, including those waiting for a queue slot) and the per-
  // direction active-stream counts ("<prefix>.read.flows" / ".write.flows")
  // onto `track` whenever they change.
  void set_trace(obs::TraceSink* sink, obs::TrackId track,
                 const std::string& prefix);

 private:
  sim::Task<void> submit(net::FairShareChannel& channel, Bytes n);
  void apply_channel_load();
  void trace_inflight(int delta);

  sim::Simulation* sim_;
  BlockDeviceParams params_;
  std::string name_;
  net::FairShareChannel read_channel_;
  net::FairShareChannel write_channel_;
  sim::Semaphore queue_slots_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  double background_load_ = 0.0;
  double fault_degradation_ = 0.0;
  double slowdown_ = 1.0;
  bool offline_ = false;
  bool lost_ = false;
  std::shared_ptr<sim::Event> online_gate_;
  double io_error_p_ = 0.0;
  Rng fault_rng_{1};
  std::uint64_t io_errors_ = 0;
  std::int64_t inflight_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_inflight_{};
};

}  // namespace mdwf::storage
