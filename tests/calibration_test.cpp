// Calibration regression suite: pins the model's agreement with the paper's
// published numbers (EXPERIMENTS.md) as toleranced assertions, so a future
// change to the testbed parameters or the DES kernel that silently drifts
// the headline ratios fails CI instead of quietly invalidating the tables.
//
// Pinned here:
//   * Table I  — serialized frame sizes, exact by construction
//                (28 B/atom payload + fixed header/CRC).
//   * Fig. 5   — single-node DYAD vs XFS, JAC: DYAD production 1.4-1.5x
//                slower (measured 192 vs 131 us/frame).
//   * Fig. 6   — two-node DYAD vs Lustre, JAC: DYAD consumer movement 6-8x
//                faster (paper 6.9x, measured 7.4x).
//   * Codec    — md::compress_frame on every Table I frame, and the bound
//                it puts on the ensemble's assumed compression_ratio.
//
// The ensembles run fewer repetitions than the bench binaries (3 vs 10) but
// the full 128 frames, so the per-frame steady-state means match the
// EXPERIMENTS.md capture closely.
#include <gtest/gtest.h>

#include <string>

#include "mdwf/md/compress.hpp"
#include "mdwf/md/frame.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf {
namespace {

using workflow::EnsembleConfig;
using workflow::EnsembleResult;
using workflow::Solution;

// --- Table I: molecular models and frame sizes ----------------------------

// Serialized layout (md/frame.hpp): magic u32 + version u16 + reserved u16 +
// name(u8 len + bytes) + index u64 + count u64 + atoms*28 + crc32c u32.
constexpr std::uint64_t kFixedOverhead = 4 + 2 + 2 + 1 + 8 + 8 + 4;

std::uint64_t expected_serialized_bytes(const md::MolecularModel& m) {
  return m.atoms * md::kBytesPerAtom + kFixedOverhead + m.name.size();
}

TEST(CalibrationTest, TableIAtomCountsAndLayout) {
  EXPECT_EQ(md::kBytesPerAtom, 28u);  // u32 id + 3 x f64 position
  EXPECT_EQ(md::kJac.atoms, 23'558u);
  EXPECT_EQ(md::kApoA1.atoms, 92'224u);
  EXPECT_EQ(md::kF1Atpase.atoms, 327'506u);
  EXPECT_EQ(md::kStmv.atoms, 1'066'628u);
}

TEST(CalibrationTest, TableISerializedSizesExact) {
  for (const auto& model : md::kAllModels) {
    const md::Frame f = md::synthesize_frame(std::string(model.name),
                                             model.atoms, /*index=*/0,
                                             /*seed=*/1);
    const std::uint64_t expected = expected_serialized_bytes(model);
    EXPECT_EQ(f.serialized_size().count(), expected) << model.name;
    EXPECT_EQ(f.serialize().size(), expected) << model.name;
  }
}

TEST(CalibrationTest, TableIFrameSizesMatchPaper) {
  // Paper Table I reports JAC 644.21 KiB / ApoA1 2.46 MiB / F1 ATPase
  // 8.75 MiB / STMV 28.48 MiB.  Our serialized sizes (payload + header/CRC)
  // reproduce them to the table's printed precision (JAC differs in the
  // last digit: 644.20 vs 644.21 KiB — the paper rounds the raw payload).
  EXPECT_NEAR(Bytes(expected_serialized_bytes(md::kJac)).to_kib(), 644.21,
              0.02);
  EXPECT_NEAR(Bytes(expected_serialized_bytes(md::kApoA1)).to_mib(), 2.46,
              0.005);
  EXPECT_NEAR(Bytes(expected_serialized_bytes(md::kF1Atpase)).to_mib(), 8.75,
              0.005);
  EXPECT_NEAR(Bytes(expected_serialized_bytes(md::kStmv)).to_mib(), 28.48,
              0.005);
}

TEST(CalibrationTest, TableIIFramePeriods) {
  // Table II strides give every model a ~0.82 s frame period (F1 ATPase
  // 0.79 s, as the paper's own steps/s rounding implies).
  EXPECT_NEAR(md::kJac.frame_period_seconds(), 0.82, 0.005);
  EXPECT_NEAR(md::kApoA1.frame_period_seconds(), 0.82, 0.005);
  EXPECT_NEAR(md::kF1Atpase.frame_period_seconds(), 0.79, 0.005);
  EXPECT_NEAR(md::kStmv.frame_period_seconds(), 0.82, 0.005);
}

TEST(CalibrationTest, CodecRatioOnTableIFrames) {
  // At 1e-3 precision the codec measures 3.28-3.29x on every synthesized
  // Table I frame (uniform coordinates, implicit atom ids).  The ensemble's
  // compression_ratio is an assumption for real frames, not this
  // measurement; it may be more conservative than the codec, never less.
  const double assumed = workflow::WorkloadConfig{}.compression_ratio;
  for (const auto& model : md::kAllModels) {
    const md::Frame f = md::synthesize_frame(std::string(model.name),
                                             model.atoms, /*index=*/0,
                                             /*seed=*/1);
    const double ratio = md::compress_frame(f, 1e-3).ratio();
    EXPECT_GE(ratio, 3.28) << model.name;
    EXPECT_LE(ratio, 3.29) << model.name;
    EXPECT_LE(assumed, ratio) << model.name;
  }
}

// --- Figure ratio bands ---------------------------------------------------

EnsembleConfig figure_config(Solution s, std::uint32_t pairs,
                             std::uint32_t nodes) {
  EnsembleConfig c;
  c.solution = s;
  c.pairs = pairs;
  c.nodes = nodes;
  if (s == Solution::kXfs) c.placement = workflow::Placement::kColocated;
  c.workload.model = md::kJac;
  c.workload.stride = md::kJac.stride;
  c.workload.frames = 128;
  c.repetitions = 3;
  c.base_seed = 1;
  return c;
}

double prod_total_us(const EnsembleResult& r) {
  return r.prod_movement_us.mean() + r.prod_idle_us.mean();
}

TEST(CalibrationTest, Fig5DyadProductionSlowdownVsXfs) {
  // Paper Fig. 5(a): DYAD production ~1.4x slower than XFS on one node
  // (global namespace management).  EXPERIMENTS.md capture: 1.5x
  // (192 vs 131 us/frame).  Pin the ratio band and the absolute scale.
  const EnsembleResult dyad =
      workflow::run_ensemble(figure_config(Solution::kDyad, 4, 1));
  const EnsembleResult xfs =
      workflow::run_ensemble(figure_config(Solution::kXfs, 4, 1));
  const double ratio = prod_total_us(dyad) / prod_total_us(xfs);
  EXPECT_GE(ratio, 1.35) << "DYAD " << prod_total_us(dyad) << " us vs XFS "
                         << prod_total_us(xfs) << " us";
  EXPECT_LE(ratio, 1.60) << "DYAD " << prod_total_us(dyad) << " us vs XFS "
                         << prod_total_us(xfs) << " us";
  EXPECT_NEAR(prod_total_us(dyad), 192.0, 20.0);  // us/frame
  EXPECT_NEAR(prod_total_us(xfs), 131.0, 15.0);   // us/frame
  // Fig. 5(a): production idle is insignificant for both solutions.
  EXPECT_LT(dyad.prod_idle_us.mean(), 0.05 * prod_total_us(dyad));
  EXPECT_LT(xfs.prod_idle_us.mean(), 0.05 * prod_total_us(xfs));
}

TEST(CalibrationTest, Fig6DyadConsumerMovementSpeedupVsLustre) {
  // Paper Fig. 6(b): DYAD consumer movement 6.9x faster than Lustre for JAC
  // at 8 pairs on two nodes.  EXPERIMENTS.md capture: 7.4x.  Band 6-8x.
  const EnsembleResult dyad =
      workflow::run_ensemble(figure_config(Solution::kDyad, 8, 2));
  const EnsembleResult lustre =
      workflow::run_ensemble(figure_config(Solution::kLustre, 8, 2));
  const double ratio =
      lustre.cons_movement_us.mean() / dyad.cons_movement_us.mean();
  EXPECT_GE(ratio, 6.0) << "Lustre " << lustre.cons_movement_us.mean()
                        << " us vs DYAD " << dyad.cons_movement_us.mean()
                        << " us";
  EXPECT_LE(ratio, 8.0) << "Lustre " << lustre.cons_movement_us.mean()
                        << " us vs DYAD " << dyad.cons_movement_us.mean()
                        << " us";
  // Paper Fig. 6(a): DYAD producer movement 7.5x faster (measured 6.4x).
  const double prod_ratio =
      lustre.prod_movement_us.mean() / dyad.prod_movement_us.mean();
  EXPECT_GE(prod_ratio, 5.5);
  EXPECT_LE(prod_ratio, 7.5);
}

}  // namespace
}  // namespace mdwf
