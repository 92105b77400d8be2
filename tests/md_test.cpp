// Unit tests for molecular models, the frame format, and the lossy frame
// compressor (in-situ data reduction).
#include <gtest/gtest.h>

#include <cmath>

#include "mdwf/common/rng.hpp"
#include "mdwf/md/compress.hpp"
#include "mdwf/md/frame.hpp"
#include "mdwf/md/models.hpp"

namespace mdwf::md {
namespace {

// --- Models (paper Tables I and II) -----------------------------------------

TEST(ModelsTest, FrameSizesMatchTableI) {
  EXPECT_NEAR(kJac.frame_bytes().to_kib(), 644.21, 0.3);
  EXPECT_NEAR(kApoA1.frame_bytes().to_mib(), 2.46, 0.01);
  EXPECT_NEAR(kF1Atpase.frame_bytes().to_mib(), 8.75, 0.01);
  EXPECT_NEAR(kStmv.frame_bytes().to_mib(), 28.48, 0.01);
}

TEST(ModelsTest, AtomCountsMatchTableI) {
  EXPECT_EQ(kJac.atoms, 23'558u);
  EXPECT_EQ(kApoA1.atoms, 92'224u);
  EXPECT_EQ(kF1Atpase.atoms, 327'506u);
  EXPECT_EQ(kStmv.atoms, 1'066'628u);
}

TEST(ModelsTest, MsPerStepMatchesTableII) {
  EXPECT_NEAR(kJac.ms_per_step(), 0.93, 0.01);
  EXPECT_NEAR(kApoA1.ms_per_step(), 2.79, 0.01);
  EXPECT_NEAR(kF1Atpase.ms_per_step(), 8.64, 0.01);
  EXPECT_NEAR(kStmv.ms_per_step(), 29.29, 0.01);
}

TEST(ModelsTest, FramePeriodsAreEqualAcrossModels) {
  // Table II: strides are chosen so every model emits at ~0.82 s.
  for (const auto& m : kAllModels) {
    EXPECT_NEAR(m.frame_period_seconds(), 0.82, 0.03) << m.name;
  }
}

TEST(ModelsTest, StmvToJacDataRatioMatchesPaper) {
  // Paper Sec. IV-E: STMV moves 45.3x more data than JAC.
  const double ratio =
      static_cast<double>(kStmv.frame_bytes().count()) /
      static_cast<double>(kJac.frame_bytes().count());
  EXPECT_NEAR(ratio, 45.3, 0.1);
}

TEST(ModelsTest, FindModelByName) {
  ASSERT_TRUE(find_model("JAC").has_value());
  EXPECT_EQ(find_model("JAC")->atoms, kJac.atoms);
  ASSERT_TRUE(find_model("F1 ATPase").has_value());
  EXPECT_FALSE(find_model("unknown").has_value());
}

// --- Frame serialization -----------------------------------------------------

TEST(FrameTest, RoundTripPreservesEverything) {
  Frame f = synthesize_frame("JAC", 1000, 42, 7);
  const auto buf = f.serialize();
  EXPECT_EQ(Bytes(buf.size()), f.serialized_size());
  const Frame g = Frame::deserialize(buf);
  EXPECT_EQ(f, g);
}

TEST(FrameTest, SerializedSizeTracksTableISizes) {
  const Frame f = synthesize_frame("JAC", kJac.atoms, 0, 1);
  // Header+trailer overhead is ~31 bytes on top of 28 B/atom.
  const auto payload = kJac.frame_bytes().count();
  EXPECT_GE(f.serialized_size().count(), payload);
  EXPECT_LE(f.serialized_size().count(), payload + 64);
}

TEST(FrameTest, CorruptionIsDetected) {
  Frame f = synthesize_frame("STMV", 100, 1, 2);
  auto buf = f.serialize();
  buf[40] ^= std::byte{0x01};
  EXPECT_THROW((void)Frame::deserialize(buf), FrameError);
}

TEST(FrameTest, TruncationIsDetected) {
  Frame f = synthesize_frame("JAC", 100, 1, 2);
  auto buf = f.serialize();
  buf.resize(buf.size() - 10);
  EXPECT_THROW((void)Frame::deserialize(buf), FrameError);
}

TEST(FrameTest, EmptyFrameRoundTrips) {
  Frame f;
  f.model = "empty";
  f.index = 0;
  const Frame g = Frame::deserialize(f.serialize());
  EXPECT_EQ(f, g);
}

TEST(FrameTest, SynthesisIsDeterministic) {
  const Frame a = synthesize_frame("JAC", 500, 3, 11);
  const Frame b = synthesize_frame("JAC", 500, 3, 11);
  const Frame c = synthesize_frame("JAC", 500, 4, 11);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- Compression -------------------------------------------------------------

TEST(CompressTest, RoundTripWithinPrecision) {
  const Frame f = synthesize_frame("JAC", 5000, 3, 7);
  const auto c = compress_frame(f, 1e-3);
  const Frame g = decompress_frame(c.data);
  ASSERT_EQ(g.atoms.size(), f.atoms.size());
  EXPECT_EQ(g.index, f.index);
  EXPECT_EQ(g.model, f.model);
  for (std::size_t i = 0; i < f.atoms.size(); ++i) {
    EXPECT_NEAR(g.atoms[i].x, f.atoms[i].x, 5.1e-4);
    EXPECT_NEAR(g.atoms[i].y, f.atoms[i].y, 5.1e-4);
    EXPECT_NEAR(g.atoms[i].z, f.atoms[i].z, 5.1e-4);
  }
}

TEST(CompressTest, CoarserPrecisionCompressesHarder) {
  const Frame f = synthesize_frame("X", 20000, 0, 5);
  const auto fine = compress_frame(f, 1e-4);
  const auto coarse = compress_frame(f, 1e-2);
  EXPECT_LT(coarse.compressed_size, fine.compressed_size);
}

TEST(CompressTest, CorruptionDetected) {
  const Frame f = synthesize_frame("X", 100, 0, 5);
  auto c = compress_frame(f);
  c.data[c.data.size() / 2] ^= std::byte{0x40};
  EXPECT_THROW((void)decompress_frame(c.data), FrameError);
}

TEST(CompressTest, TruncationDetected) {
  const Frame f = synthesize_frame("X", 100, 0, 5);
  auto c = compress_frame(f);
  c.data.resize(c.data.size() - 3);
  EXPECT_THROW((void)decompress_frame(c.data), FrameError);
}

TEST(CompressTest, SmoothTrajectoriesCompressBetterThanNoise) {
  // Lattice-like (spatially sorted) coordinates have small deltas.
  Frame smooth;
  smooth.model = "lattice";
  for (int i = 0; i < 20000; ++i) {
    smooth.atoms.push_back(Atom{static_cast<std::uint32_t>(i),
                                0.01 * i, 0.005 * i, 0.0025 * i});
  }
  const Frame noisy = synthesize_frame("noise", 20000, 0, 3);
  const auto cs = compress_frame(smooth, 1e-3);
  const auto cn = compress_frame(noisy, 1e-3);
  EXPECT_LT(cs.compressed_size.count(), cn.compressed_size.count() / 2);
}

// Parameterized fuzz: random frames always round-trip or fail loudly.
class CompressFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressFuzz, RandomFramesRoundTrip) {
  Rng rng(GetParam());
  const auto atoms = 1 + rng.next_below(3000);
  const Frame f = synthesize_frame("fuzz", atoms, rng.next_below(100),
                                   GetParam());
  const double precision = std::pow(10.0, -1.0 - rng.next_below(4));
  const auto c = compress_frame(f, precision);
  const Frame g = decompress_frame(c.data);
  ASSERT_EQ(g.atoms.size(), f.atoms.size());
  for (std::size_t i = 0; i < f.atoms.size(); i += 97) {
    EXPECT_NEAR(g.atoms[i].x, f.atoms[i].x, precision * 0.51);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace mdwf::md
