// Tests for extension features: StatTree CSV export and in-situ
// (colocated) vs in-transit (split) placement.
#include <gtest/gtest.h>

#include "mdwf/workflow/ensemble.hpp"

namespace mdwf {
namespace {

using namespace mdwf::literals;
using sim::Task;

// --- StatTree CSV export ----------------------------------------------------------

TEST(CsvExportTest, ContainsPathsAndStats) {
  sim::Simulation sim;
  perf::Recorder rec(sim, "c");
  sim.spawn([](sim::Simulation& s, perf::Recorder& r) -> Task<void> {
    perf::ScopedRegion outer(r, "consume");
    perf::ScopedRegion inner(r, "read", perf::Category::kMovement);
    co_await s.delay(3_ms);
  }(sim, rec));
  sim.run_to_quiescence();
  perf::Thicket th;
  th.add({}, rec.snapshot());
  const std::string csv = th.aggregate().to_csv();
  EXPECT_NE(csv.find("path,category,mean_count"), std::string::npos);
  EXPECT_NE(csv.find("consume/read,movement,1.00,3000.000"),
            std::string::npos);
}

// --- Placement --------------------------------------------------------------------

workflow::EnsembleConfig placed(workflow::Solution s, workflow::Placement p,
                                std::uint32_t nodes) {
  workflow::EnsembleConfig c;
  c.solution = s;
  c.pairs = 8;
  c.nodes = nodes;
  c.placement = p;
  c.workload.frames = 8;
  c.repetitions = 2;
  return c;
}

TEST(PlacementTest, ColocatedDyadUsesWarmPathEverywhere) {
  const auto r = run_ensemble(placed(workflow::Solution::kDyad,
                                     workflow::Placement::kColocated, 4));
  // Every frame except the per-pair first (which waits on the KVS) takes
  // the flock warm path; nothing crosses the fabric.
  EXPECT_GT(r.counters.get("dyad_warm_hits"), 8u * 6u);
  EXPECT_EQ(r.thicket.filter("role", "consumer")
                .aggregate()
                .find("consume/dyad_consume/dyad_get_data"),
            nullptr);
}

TEST(PlacementTest, SplitDyadPullsEverything) {
  const auto r = run_ensemble(placed(workflow::Solution::kDyad,
                                     workflow::Placement::kSplit, 4));
  EXPECT_EQ(r.counters.get("dyad_warm_hits"), 0u);
}

TEST(PlacementTest, ColocatedXfsOnManyNodesWorks) {
  const auto r = run_ensemble(placed(workflow::Solution::kXfs,
                                     workflow::Placement::kColocated, 4));
  EXPECT_GT(r.cons_idle_us.mean(), 500'000.0);  // still coarse-grained
}

TEST(PlacementTest, SplitXfsIsRejected) {
  EXPECT_DEATH((void)run_ensemble(placed(workflow::Solution::kXfs,
                                         workflow::Placement::kSplit, 4)),
               "XFS cannot move data between nodes");
}

// --- Data reduction in the workflow ---------------------------------------------

TEST(ReductionTest, CompressionShrinksMovementAndAddsCompute) {
  workflow::EnsembleConfig cfg;
  cfg.solution = workflow::Solution::kDyad;
  cfg.pairs = 2;
  cfg.nodes = 2;
  cfg.workload.model = md::kStmv;
  cfg.workload.stride = md::kStmv.stride;
  cfg.workload.frames = 8;
  cfg.repetitions = 2;
  const auto raw = run_ensemble(cfg);
  cfg.workload.compress = true;
  const auto compressed = run_ensemble(cfg);
  EXPECT_LT(compressed.cons_movement_us.mean(),
            0.8 * raw.cons_movement_us.mean());
  // Codec compute shows in the consumer tree.
  const auto agg = compressed.thicket.filter("role", "consumer").aggregate();
  ASSERT_NE(agg.find("decompress"), nullptr);
  EXPECT_GT(agg.find("decompress")->inclusive_us.mean(), 0.0);
  EXPECT_EQ(raw.thicket.filter("role", "consumer")
                .aggregate()
                .find("decompress"),
            nullptr);
}

TEST(ReductionTest, WireBytesFollowRatio) {
  workflow::WorkloadConfig w;
  w.model = md::kJac;
  EXPECT_EQ(w.wire_bytes(), md::kJac.frame_bytes());
  w.compress = true;
  w.compression_ratio = 2.0;
  EXPECT_EQ(w.wire_bytes().count(), md::kJac.frame_bytes().count() / 2);
  EXPECT_GT(w.compress_time(), 0_ns);
  EXPECT_GT(w.decompress_time(), 0_ns);
}

TEST(PlacementTest, InSituMovementCheaperThanInTransit) {
  // In-situ avoids dyad_get_data + dyad_cons_store entirely.
  const auto insitu = run_ensemble(placed(workflow::Solution::kDyad,
                                          workflow::Placement::kColocated, 2));
  const auto intransit = run_ensemble(placed(workflow::Solution::kDyad,
                                             workflow::Placement::kSplit, 2));
  EXPECT_LT(insitu.cons_movement_us.mean(),
            0.6 * intransit.cons_movement_us.mean());
}

}  // namespace
}  // namespace mdwf
