// Host-side measurement helpers of the benchmark binary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mdwf::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Totals of the counting global operator new linked into this binary.
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCount alloc_count();

// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

// Absolute path of this executable.
std::string self_exe();

struct Captured {
  int exit_code = -1;  // -1: could not start, or killed by a signal
  std::string output;
};

// Runs argv[0] (looked up on PATH) with argv, waits for it, and returns its
// standard output — merged with standard error when `with_stderr`.
Captured spawn_capture(const std::vector<std::string>& argv, bool with_stderr);

}  // namespace mdwf::bench
