// Advisory file locking (flock semantics) for simulated processes.
//
// DYAD's warm synchronization path is flock-based: the producer holds an
// exclusive lock while writing; a consumer taking a shared lock therefore
// blocks exactly until the data is complete.  Readers are admitted together
// and, while a writer holds the lock, wait FIFO until it unlocks.
//
// Writers never wait: the only exclusive acquisition is
// `LocalFs::create(path, /*exclusive_lock=*/true)`, which locks the
// `FileLock` it has just constructed, so `try_lock_exclusive` always
// succeeds there.  Hence every queued waiter is a reader, and the queue is
// non-empty only while a writer holds the lock.
#pragma once

#include <cstdint>
#include <deque>

#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::fs {

class FileLock {
 public:
  explicit FileLock(sim::Simulation& sim) : sim_(&sim) {}

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  sim::Task<void> lock_shared();
  bool try_lock_shared();
  bool try_lock_exclusive();
  void unlock_shared();
  void unlock_exclusive();

  std::uint32_t shared_holders() const { return shared_holders_; }
  bool exclusive_held() const { return exclusive_held_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  sim::Simulation* sim_;
  std::uint32_t shared_holders_ = 0;
  bool exclusive_held_ = false;
  std::deque<std::coroutine_handle<>> waiters_;  // readers, FIFO
};

}  // namespace mdwf::fs
