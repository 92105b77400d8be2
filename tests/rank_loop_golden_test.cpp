// Golden digest over the faulted rank-loop paths: the same-frame retry loop,
// crash restart with checkpoint rollback, rank migration and fencing, and
// the DAG executor's whole-task restart.  The fault-free digests
// (dag_golden_test, the benchmark's sim_digest) never enter those branches,
// so this grid pins them: any change to the rank loops that moves a number
// on a faulted run shows up as a digest mismatch.
//
// The digest follows the benchmark's sim_digest recipe: CRC32C over the
// sweep CSV, then per point the counters CSV, every fetch sample and the
// aggregated call tree.  On an intentional behavior change, re-pin the
// constant from the failure message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/crc32c.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/workflow/config.hpp"

namespace mdwf {
namespace {

// Space-separated key=value pairs, parsed exactly as mdwf_run parses them.
workflow::EnsembleConfig parse_keys(std::string_view keys) {
  KeyValueConfig cfg;
  while (!keys.empty()) {
    const std::size_t end = keys.find(' ');
    const std::string_view token = keys.substr(0, end);
    const std::size_t eq = token.find('=');
    cfg.set(std::string(token.substr(0, eq)),
            std::string(token.substr(eq + 1)));
    keys = end == std::string_view::npos ? "" : keys.substr(end + 1);
  }
  return workflow::parse_ensemble_config(cfg, workflow::EnsembleConfig{});
}

std::vector<sweep::SweepPoint> faulted_grid() {
  std::vector<std::string> points;
  // Classic pipeline: crash/restart with checkpoints, crash plus
  // corruption, and the remote-fault paths of a lossy or overloaded fabric.
  for (const char* faults :
       {"node-crash", "rank-kill", "crash-flip", "lossy-link", "overload"}) {
    for (const char* solution : {"dyad", "lustre", "stream"}) {
      points.push_back(std::string("solution=") + solution +
                       " pairs=2 nodes=2 frames=8 reps=2 faults=" + faults);
    }
    points.push_back(std::string("solution=xfs pairs=2 nodes=1 frames=8 "
                                 "reps=2 faults=") +
                     faults);
  }
  // Membership plane: migration after a permanent loss, and a healed
  // zombie fenced by its stale epoch (the same-frame retry loop).
  for (const char* faults : {"node-loss", "heal-after-declare"}) {
    points.push_back(std::string("solution=dyad pairs=2 nodes=2 frames=8 "
                                 "reps=2 membership=1 faults=") +
                     faults);
  }
  // DAG executor: whole-task restart and integrity re-fetch.  DYAD under
  // node-crash fails ("read past EOF"), most likely because a parent that
  // finished before the crash never re-produces its torn output (no DAG
  // checkpoints yet).  The digest pins that error too.
  for (const char* faults : {"node-crash", "bit-flip"}) {
    for (const char* solution : {"dyad", "lustre", "stream", "xfs"}) {
      points.push_back(std::string("solution=") + solution +
                       " workload=synth:montage dag_tasks=6 "
                       "dag_bytes=4194304 dag_runtime=1.0 nodes=" +
                       (std::string_view(solution) == "xfs" ? "1" : "2") +
                       " reps=2 faults=" + faults);
    }
  }
  points.push_back(
      "solution=dyad workload=synth:montage dag_tasks=6 dag_bytes=4194304 "
      "dag_runtime=1.0 nodes=2 reps=2 faults=rank-kill");

  std::vector<sweep::SweepPoint> grid;
  for (const std::string& keys : points) {
    grid.push_back({keys, parse_keys(keys)});
  }
  return grid;
}

std::uint32_t crc_of(std::string_view s, std::uint32_t crc) {
  return crc32c(s.data(), s.size(), crc);
}

std::uint32_t digest_of(const sweep::SweepResult& swept) {
  std::uint32_t crc = crc_of(swept.to_csv(), 0);
  for (const sweep::PointResult& p : swept.points) {
    crc = crc_of(p.result.counters.to_csv(), crc);
    const std::vector<double>& fetches = p.result.cons_fetch_us.values();
    crc = crc32c(fetches.data(), fetches.size() * sizeof(double), crc);
    crc = crc_of(p.result.thicket.aggregate().to_csv(), crc);
  }
  return crc;
}

TEST(RankLoopGolden, FaultedGridCoversRetryAndRestartPaths) {
  const sweep::SweepResult swept = sweep::run_sweep(faulted_grid(), 1);
  std::uint64_t retries = 0, recoveries = 0, reexecuted = 0, restores = 0;
  for (const sweep::PointResult& p : swept.points) {
    retries += p.result.counters.get("fault_retries");
    recoveries += p.result.counters.get("crash_recoveries");
    reexecuted += p.result.counters.get("frames_reexecuted");
    restores += p.result.counters.get("checkpoint_restores");
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(recoveries, 0u);
  EXPECT_GT(reexecuted, 0u);
  EXPECT_GT(restores, 0u);
  // Exactly the one documented point fails.
  EXPECT_EQ(swept.errors, 1u);
}

TEST(RankLoopGolden, FaultedGridMatchesCommittedDigest) {
  constexpr std::uint32_t kCommittedDigest = 0x68abca20u;
  for (const std::uint32_t threads : {1u, 4u}) {
    const sweep::SweepResult swept = sweep::run_sweep(faulted_grid(), threads);
    const std::uint32_t digest = digest_of(swept);
    EXPECT_EQ(digest, kCommittedDigest)
        << "faulted rank-loop digest drifted at threads=" << threads
        << "; if intentional, re-pin with 0x" << std::hex << digest
        << "\n--- csv ---\n"
        << swept.to_csv();
  }
}

}  // namespace
}  // namespace mdwf
