// Synchronization primitives for simulated processes.
//
// All primitives resume waiters by *scheduling* them at the current virtual
// time rather than resuming inline; this avoids re-entrancy into the waker
// and preserves deterministic FIFO ordering among same-instant events.
#pragma once

#include <coroutine>
#include <deque>
#include <utility>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::sim {

// One-shot broadcast event.  `trigger` wakes every current and future waiter.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}

  bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    for (auto h : waiters_) sim_->schedule_resume(h, Duration::zero());
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->triggered_; }
      void await_suspend(std::coroutine_handle<> h) const {
        ev->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO handoff: release passes the permit directly
// to the longest-waiting acquirer, so no acquirer can be starved.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t initial)
      : sim_(&sim), count_(initial) {
    MDWF_ASSERT(initial >= 0);
  }

  std::int64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

  auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->count_ > 0) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) const {
        sem->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release(std::int64_t n = 1) {
    MDWF_ASSERT(n >= 0);
    while (n > 0 && !waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->schedule_resume(h, Duration::zero());
      --n;  // permit handed off, never touches count_
    }
    count_ += n;
  }

 private:
  Simulation* sim_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// RAII permit: release on scope exit.  Acquire first, then adopt:
//   co_await sem.acquire();
//   SemaphoreGuard guard(sem);
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) : sem_(&sem) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  SemaphoreGuard(SemaphoreGuard&& o) noexcept
      : sem_(std::exchange(o.sem_, nullptr)) {}
  ~SemaphoreGuard() {
    if (sem_) sem_->release();
  }

 private:
  Semaphore* sem_;
};

// Completion counter: `wait` resumes once `done` has been called `add`-many
// times.  Reusable only after a full cycle.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(&sim) {}

  void add(std::size_t n = 1) { pending_ += n; }

  void done() {
    MDWF_ASSERT_MSG(pending_ > 0, "WaitGroup::done without matching add");
    if (--pending_ == 0) {
      for (auto h : waiters_) sim_->schedule_resume(h, Duration::zero());
      waiters_.clear();
    }
  }

  std::size_t pending() const { return pending_; }

  auto wait() {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() const noexcept { return wg->pending_ == 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        wg->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  std::size_t pending_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Runs tasks concurrently and completes when all have finished.  The first
// exception (in completion order) is rethrown after every task has settled.
Task<void> all(Simulation& sim, std::vector<Task<void>> tasks);

}  // namespace mdwf::sim
