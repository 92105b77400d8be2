#include "mdwf/fs/file_lock.hpp"

#include "mdwf/common/assert.hpp"

namespace mdwf::fs {

sim::Task<void> FileLock::lock_shared() {
  if (try_lock_shared()) co_return;
  struct Waiting {
    FileLock* l;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      l->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  co_await Waiting{this};
}

bool FileLock::try_lock_shared() {
  if (exclusive_held_ || !waiters_.empty()) return false;
  ++shared_holders_;
  return true;
}

bool FileLock::try_lock_exclusive() {
  if (exclusive_held_ || shared_holders_ != 0) return false;
  exclusive_held_ = true;
  return true;
}

void FileLock::unlock_shared() {
  MDWF_ASSERT_MSG(shared_holders_ > 0, "unlock_shared without holder");
  --shared_holders_;
}

void FileLock::unlock_exclusive() {
  MDWF_ASSERT_MSG(exclusive_held_, "unlock_exclusive without holder");
  exclusive_held_ = false;
  // Every waiter is a reader: admit the whole queue, FIFO.
  for (auto h : waiters_) {
    ++shared_holders_;
    sim_->schedule_resume(h, Duration::zero());
  }
  waiters_.clear();
}

}  // namespace mdwf::fs
