// Processor-sharing bandwidth channel.
//
// Models a capacity-limited resource (NIC port, switch bisection slice, SSD
// channel) shared equally among concurrent byte streams: with k active flows
// each progresses at capacity/k.  Arrivals and departures re-rate the channel
// exactly — progress is advanced to the event instant, the completion timer
// recomputed — which yields the same completion times an ideal fluid model
// would, independent of event interleaving.
//
// Hot-path notes (paper-scale sweeps hammer this class):
//   * Flow records come from a chunked per-channel pool; a transfer
//     allocates nothing once the pool is warm (previously one
//     `std::make_shared<Flow>` + one `sim::Event` per transfer).
//   * N same-instant arrivals coalesce into ONE settle/re-arm share
//     recomputation: each arrival only advances progress (a no-op within an
//     instant) and schedules a single zero-delay settle event.  The fluid
//     model makes this exact — intermediate re-rates within one instant are
//     unobservable, so completion times are bit-identical to the
//     settle-per-arrival behaviour (tests/heap_property_test.cpp pins the
//     fluid oracle; tests/net_test.cpp pins completion times).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mdwf/common/bytes.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::net {

class FairShareChannel {
 public:
  FairShareChannel(sim::Simulation& sim, double bytes_per_second,
                   std::string name = "channel");
  ~FairShareChannel();

  FairShareChannel(const FairShareChannel&) = delete;
  FairShareChannel& operator=(const FairShareChannel&) = delete;

  // Streams `n` bytes through the channel; completes when the last byte has
  // passed.  Zero-byte transfers complete immediately.  Throws NetError if
  // the flow is torn down mid-stream by `abort_active` (endpoint crash).
  sim::Task<void> transfer(Bytes n);

  // Tears down every in-flight flow (NIC power loss): each waiting transfer
  // resumes with a NetError.  Bytes not yet streamed are deducted from the
  // requested totals so conservation checks still balance.  Returns the
  // number of flows aborted.
  std::size_t abort_active();

  std::size_t active_flows() const { return flows_.size(); }
  double capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  // Fraction of capacity stolen by modelled background load (interference
  // from other cluster jobs).  Applies to future progress immediately.
  void set_background_load(double fraction);

  // Lifetime totals for conservation checks and utilization reports.
  Bytes total_requested() const { return total_requested_; }
  Bytes total_completed() const { return total_completed_; }
  std::uint64_t aborted_flows() const { return aborted_flows_; }

  // Samples the active-flow count (the channel's queue depth) into `sink`
  // whenever it changes, as the pre-interned counter series `id` (mdwf::obs).
  void set_trace(obs::TraceSink* sink, obs::CounterId id);

 private:
  // Pooled: recycled by the owning transfer coroutine after it has observed
  // the completion (so `aborted` stays readable after abort_active() has
  // dropped the flow from the active list).
  struct Flow {
    double remaining_bytes = 0.0;
    bool aborted = false;
    bool completed = false;
    std::coroutine_handle<> waiter{};
    Flow* next_free = nullptr;
  };

  double effective_capacity() const {
    return capacity_ * (1.0 - background_load_);
  }
  Flow* acquire_flow(double bytes);
  void release_flow(Flow* f);
  // Marks `f` done and wakes its transfer coroutine (scheduled, not inline).
  void complete_flow(Flow* f);
  // Advances every active flow to the current instant.
  void advance_progress();
  // Completes exhausted flows and re-arms the completion timer.
  void settle_and_rearm();
  // Coalesces same-instant arrivals into one settle_and_rearm call via a
  // single zero-delay event.
  void schedule_settle();
  void on_timer();
  void trace_flows();

  sim::Simulation* sim_;
  double capacity_;
  std::string name_;
  double background_load_ = 0.0;
  std::vector<Flow*> flows_;
  std::vector<std::unique_ptr<Flow[]>> flow_chunks_;
  Flow* free_flows_ = nullptr;
  TimePoint last_update_ = TimePoint::origin();
  sim::TimerId timer_{};
  bool timer_armed_ = false;
  sim::TimerId settle_timer_{};
  bool settle_pending_ = false;
  Bytes total_requested_ = Bytes::zero();
  Bytes total_completed_ = Bytes::zero();
  std::uint64_t aborted_flows_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_flows_id_{};
  std::int64_t traced_flows_ = -1;
};

}  // namespace mdwf::net
