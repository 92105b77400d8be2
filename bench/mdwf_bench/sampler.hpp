// Statistical PC sampler: where the simulator's host time goes.
//
// A CLOCK_MONOTONIC POSIX timer signals the calling thread (SIGEV_THREAD_ID)
// `hz` times a second while armed; the handler stores the call stack into a
// buffer preallocated at construction and does nothing else.  After the run
// every distinct PC is symbolized with one `addr2line -i` call and each
// sample goes to its innermost frame under src/mdwf/ — inlined frames
// included, and frames outside the tree (libc's malloc, libstdc++) skipped,
// so their time lands on the mdwf code that called them.
#pragma once

#include <signal.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace mdwf::bench {

class PcSampler {
 public:
  // Room for `capacity` samples.  At most one sampler exists at a time.
  PcSampler(std::size_t capacity, int hz);
  ~PcSampler();
  PcSampler(const PcSampler&) = delete;
  PcSampler& operator=(const PcSampler&) = delete;

  void start();
  void stop();
  std::size_t samples() const { return count_.load(std::memory_order_relaxed); }

  struct Attribution {
    std::uint64_t samples = 0;
    std::uint64_t attributed = 0;  // samples with a frame under src/mdwf/
    std::map<std::string, std::uint64_t> by_module;  // "storage"
    std::map<std::string, std::uint64_t> by_file;    // "storage.page_cache"
  };
  // Symbolizes and attributes every sample taken so far.  Throws
  // std::runtime_error when addr2line cannot be run.
  Attribution attribute() const;

 private:
  static void on_signal(int sig, siginfo_t* info, void* context);

  std::size_t capacity_;
  int hz_;
  std::unique_ptr<void*[]> frames_;  // capacity_ x kDepth return addresses
  std::unique_ptr<std::uint8_t[]> first_;  // index of the interrupted PC
  std::unique_ptr<std::uint8_t[]> depth_;
  std::atomic<std::size_t> count_{0};
  timer_t timer_{};
  struct sigaction previous_{};
};

}  // namespace mdwf::bench
