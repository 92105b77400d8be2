// Discrete-event simulation kernel.
//
// A `Simulation` owns a virtual clock and a time-ordered event queue.  Events
// are either coroutine resumptions (a process waking from `delay`) or plain
// callbacks (model-internal timers, e.g. a fair-share channel re-rating).
// Events at equal timestamps fire in scheduling (FIFO) order, which together
// with integer nanosecond time makes every run bit-reproducible.
//
// Processes are `Task<void>` coroutines registered via `spawn`; the kernel
// owns their frames until completion and destroys any still-suspended frames
// at teardown.  An exception escaping a process aborts the run and is
// rethrown from the run loop — models are expected not to throw in normal
// operation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdwf/common/time.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/sim/event_heap.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::sim {

// Cancellable handle for a scheduled callback.  Carries the pooled slot plus
// the schedule seq; the seq guards against the slot having been recycled, so
// cancelling an already-fired timer is a safe no-op.
struct TimerId {
  EventSlot* slot = nullptr;
  std::uint64_t seq = 0;
};

class Simulation {
 public:
  Simulation() = default;
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return now_; }

  // --- Process management -------------------------------------------------

  // Registers and starts a detached process.  The first slice of the task
  // body executes when the event queue reaches the current time, not inside
  // spawn itself.  The optional `name` labels the process in diagnostics
  // (deadlock reports name every still-blocked process).
  void spawn(Task<void> task);
  void spawn(Task<void> task, std::string name);

  // Number of spawned processes that have not yet completed.
  std::size_t live_processes() const { return live_roots_.size(); }

  // --- Awaitables for processes -------------------------------------------

  // Suspends the calling process for `d` of virtual time (d >= 0).  delay(0)
  // yields: the process re-runs after already-queued events at this instant.
  auto delay(Duration d) {
    struct Awaiter {
      Simulation* sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim->schedule_resume(h, d);
      }
      void await_resume() const noexcept {}
    };
    MDWF_ASSERT_MSG(!d.is_negative(), "negative delay");
    return Awaiter{this, d};
  }

  // --- Timers (model-internal callbacks) ----------------------------------

  TimerId call_at(TimePoint t, std::function<void()> fn);
  TimerId call_after(Duration d, std::function<void()> fn);
  void cancel(TimerId id);

  // Schedules a coroutine resumption (used by synchronization primitives).
  void schedule_resume(std::coroutine_handle<> h, Duration after);

  // --- Run loop ------------------------------------------------------------

  // Runs until the event queue drains.  Returns the number of events fired.
  std::uint64_t run();

  // Runs events with timestamp <= `limit`; the clock ends at min(limit, last
  // event time).  Self-rescheduling processes (e.g. interference generators)
  // make plain run() non-terminating; bounded runs are the normal mode.
  std::uint64_t run_until(TimePoint limit);

  // Fires the single next event.  Returns false if the queue is empty.
  bool step();

  // True when no event is pending but spawned processes are still alive:
  // every remaining process is blocked on a condition nothing can signal.
  bool deadlocked() const;

  // Runs to completion and verifies every spawned process finished; throws
  // std::runtime_error on deadlock.  The workhorse for tests and benches.
  std::uint64_t run_to_quiescence();

  // Guard against runaway models.
  void set_max_events(std::uint64_t n) { max_events_ = n; }
  std::uint64_t events_fired() const { return events_fired_; }

  // --- Observability (mdwf::obs) ------------------------------------------
  // Attaches a trace sink; the kernel then samples its live-process count on
  // every spawn/completion (the timeline's "what was running" backdrop).
  void set_trace(obs::TraceSink* sink, obs::TrackId track) {
    trace_ = sink;
    if (sink != nullptr) {
      trace_live_id_ = sink->counter_id(track, "sim.live_processes");
    }
  }

  // --- Internal: root-process bookkeeping (used by the spawn machinery) ----
  void internal_root_finished(std::uint64_t id);
  void internal_report_error(std::exception_ptr e) { pending_error_ = e; }

 private:
  void fire(EventSlot* e);

  TimePoint now_ = TimePoint::origin();
  EventHeap queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  std::uint64_t max_events_ = 2'000'000'000;
  struct RootRecord {
    std::coroutine_handle<> handle;
    std::string name;  // empty for anonymous spawns
  };

  void trace_live_processes();

  std::unordered_map<std::uint64_t, RootRecord> live_roots_;
  std::uint64_t next_root_id_ = 0;
  std::exception_ptr pending_error_;
  obs::TraceSink* trace_ = nullptr;
  obs::CounterId trace_live_id_{};
};

}  // namespace mdwf::sim
