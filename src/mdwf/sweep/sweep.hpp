// Deterministic parallel replica runner.
//
// A paper-scale study is a grid — model x pairs x nodes x solution x fault
// plan — with seeded repetitions at every point.  Each repetition already
// runs in its own Simulation with seeds derived only from (base_seed, rep)
// (see workflow::run_repetition), so the grid fans perfectly across cores:
// each worker claims the next unrun (point, repetition) task from one shared
// counter, results land in pre-sized slots, and the fold walks the slots in
// canonical (grid-point, repetition) order.  Merged output is
// therefore byte-identical for every thread count, including threads=1 —
// parallelism changes wall-clock time and nothing else
// (tests/sweep_test.cpp pins this contract).
//
// Error containment: a repetition that throws poisons only its grid point.
// The point reports the canonically-first failing repetition's message; the
// rest of the grid completes normally.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::sweep {

// Worker count actually used for a requested `threads` config value
// (0 = all hardware threads; hardware_concurrency() == 0 falls back to 1).
unsigned resolve_threads(std::uint32_t requested);

// Runs a fixed batch of independent tasks on min(threads, tasks) workers,
// each taking the next unclaimed index until none is left; blocks until
// every task has completed.  A task that throws does not stop the batch:
// the result holds, per task index, its failure message (what() for a
// std::exception, "unknown error" otherwise), or nothing for a task that
// completed.  Each caller decides what a failure means.  With one worker
// the tasks run inline in index order.  threads as in resolve_threads.
std::vector<std::optional<std::string>> run_tasks(
    std::vector<std::function<void()>> tasks, std::uint32_t threads);

// One grid point: a full ensemble configuration plus a label for reports.
struct SweepPoint {
  std::string label;
  workflow::EnsembleConfig config;
};

struct PointResult {
  std::string label;
  workflow::EnsembleConfig config;    // as run
  workflow::EnsembleResult result;    // empty when failed()
  // Non-empty when a repetition threw: the message of the lowest-numbered
  // failing repetition (canonical across thread counts).
  std::string error_text;
  // Simulation events summed over this point's completed repetitions.
  std::uint64_t sim_events = 0;

  bool failed() const { return !error_text.empty(); }
};

struct SweepResult {
  std::vector<PointResult> points;  // grid order, independent of threads
  std::size_t errors = 0;           // points with failed() set
  std::uint64_t total_sim_events = 0;
  double wall_seconds = 0.0;        // real time, the only thread-dependent field

  double events_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_sim_events) / wall_seconds
               : 0.0;
  }

  // Canonical per-point summary CSV.  Deliberately excludes wall-clock and
  // thread count so the bytes are identical for every `threads` value.
  std::string to_csv() const;
};

// Runs every (grid point, repetition) across `threads` workers and merges
// in canonical order.  threads as in resolve_threads.
SweepResult run_sweep(std::vector<SweepPoint> grid, std::uint32_t threads);

// Drop-in parallel workflow::run_ensemble honoring config.threads: a
// one-point run_sweep, so the result is byte-identical to the serial
// library call.  A failed repetition throws std::runtime_error carrying the
// canonically-first failure's message, as the serial loop would.
workflow::EnsembleResult run_ensemble(const workflow::EnsembleConfig& config);

}  // namespace mdwf::sweep
