// Final coverage sweep: edge cases of the utility and reporting surfaces
// not exercised elsewhere.
#include <gtest/gtest.h>

#include "mdwf/common/format.hpp"
#include "mdwf/common/rng.hpp"
#include "mdwf/common/stats.hpp"
#include "mdwf/common/table.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/perf/thicket.hpp"
#include "mdwf/sim/simulation.hpp"

namespace mdwf {
namespace {

using namespace mdwf::literals;

TEST(FormatExtraTest, RatioAndDoubleFormatting) {
  EXPECT_EQ(format_ratio(1.44), "1.4x");
  EXPECT_EQ(format_ratio(192.93, 1), "192.9x");
  EXPECT_EQ(format_double(3.14159, 3), "3.142");
  EXPECT_EQ(format_double(-2.5, 0), "-2");  // round-half-even via printf
}

TEST(FormatExtraTest, NegativeDuration) {
  EXPECT_EQ(format_duration(Duration(-1'500'000)), "-1.500 ms");
}

TEST(DurationExtraTest, DivisionAndComparison) {
  EXPECT_EQ((820_ms / 128).ns(), 6'406'250);
  EXPECT_EQ(820_ms / 1_us, 820'000);
  EXPECT_TRUE((1_s - 1'000'000'000_ns).is_zero());
  EXPECT_TRUE((1_ms - 2_ms).is_negative());
  EXPECT_EQ(Duration::max().ns(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(BytesExtraTest, ConversionsAndMinMax) {
  EXPECT_DOUBLE_EQ(Bytes::mib(28).to_mib(), 28.0);
  EXPECT_DOUBLE_EQ((28_MiB + 492_KiB).to_mib(), 28.48046875);
  EXPECT_EQ(Bytes::gib(3584).count(), 3584ull << 30);
}

TEST(RngExtraTest, BernoulliFrequency) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngExtraTest, LognormalMedian) {
  Rng r(18);
  Samples s;
  for (int i = 0; i < 20000; ++i) s.add(r.lognormal(-2.5, 0.8));
  EXPECT_NEAR(s.median(), std::exp(-2.5), 0.01);
}

TEST(TableExtraTest, AlignmentOverride) {
  TextTable t({"k", "v"});
  t.set_align(1, TextTable::Align::kLeft);
  t.add_row({"key", "x"});
  const auto out = t.render();
  // Left-aligned value: "x" followed by padding before the pipe.
  EXPECT_NE(out.find("| x "), std::string::npos);
}

TEST(ModelsExtraTest, StepTimeRoundTrip) {
  for (const auto& m : md::kAllModels) {
    // step_time rounds to whole nanoseconds (~1e-7 relative error).
    EXPECT_NEAR(m.step_time().to_seconds() * m.steps_per_second, 1.0, 1e-6)
        << m.name;
    EXPECT_NEAR(m.frame_period().to_seconds(),
                m.ms_per_step() * static_cast<double>(m.stride) / 1000.0,
                1e-6)
        << m.name;
  }
}

TEST(CallTreeExtraTest, ExclusiveWithMultipleChildren) {
  sim::Simulation sim;
  perf::Recorder rec(sim, "p");
  sim.spawn([](sim::Simulation& s, perf::Recorder& r) -> sim::Task<void> {
    perf::ScopedRegion outer(r, "outer");
    co_await s.delay(1_ms);  // exclusive time
    {
      perf::ScopedRegion a(r, "a");
      co_await s.delay(2_ms);
    }
    co_await s.delay(3_ms);  // more exclusive time
    {
      perf::ScopedRegion b(r, "b");
      co_await s.delay(4_ms);
    }
  }(sim, rec));
  sim.run_to_quiescence();
  const auto* outer = rec.tree().find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->inclusive, 10_ms);
  EXPECT_EQ(outer->exclusive(), 4_ms);
  EXPECT_EQ(outer->max_single, 10_ms);
}

TEST(CallTreeExtraTest, MaxSingleTracksWorstInvocation) {
  sim::Simulation sim;
  perf::Recorder rec(sim, "p");
  sim.spawn([](sim::Simulation& s, perf::Recorder& r) -> sim::Task<void> {
    for (int i = 1; i <= 4; ++i) {
      perf::ScopedRegion reg(r, "op");
      co_await s.delay(Duration::milliseconds(i));
    }
  }(sim, rec));
  sim.run_to_quiescence();
  const auto* op = rec.tree().find("op");
  EXPECT_EQ(op->inclusive, 10_ms);
  EXPECT_EQ(op->max_single, 4_ms);
}

TEST(ThicketExtraTest, SteadyPerCallExcludesColdStart) {
  sim::Simulation sim;
  perf::Recorder rec(sim, "c");
  sim.spawn([](sim::Simulation& s, perf::Recorder& r) -> sim::Task<void> {
    {
      perf::ScopedRegion cold(r, "fetch");
      co_await s.delay(820_ms);  // first-frame wait
    }
    for (int i = 0; i < 9; ++i) {
      perf::ScopedRegion warm(r, "fetch");
      co_await s.delay(1_ms);
    }
  }(sim, rec));
  sim.run_to_quiescence();
  perf::Thicket th;
  th.add({}, rec.snapshot());
  const auto agg = th.aggregate();
  const auto* fetch = agg.find("fetch");
  ASSERT_NE(fetch, nullptr);
  EXPECT_NEAR(fetch->steady_per_call_us(), 1000.0, 1e-6);
  EXPECT_NEAR(fetch->inclusive_us.mean() / 10.0, 82'900.0, 1.0);
}

TEST(ThicketExtraTest, QueryWildcardsOnDeepTrees) {
  sim::Simulation sim;
  perf::Recorder rec(sim, "c");
  sim.spawn([](sim::Simulation& s, perf::Recorder& r) -> sim::Task<void> {
    perf::ScopedRegion a(r, "consume");
    perf::ScopedRegion b(r, "dyad_consume");
    perf::ScopedRegion c(r, "dyad_fetch");
    perf::ScopedRegion d(r, "dyad_watch_wait");
    co_await s.delay(1_ms);
  }(sim, rec));
  sim.run_to_quiescence();
  perf::Thicket th;
  th.add({}, rec.snapshot());
  const perf::StatTree agg = th.aggregate();
  EXPECT_EQ(agg.query("**").size(), 4u);
  EXPECT_EQ(agg.query("consume/*").size(), 1u);
  EXPECT_EQ(agg.query("**/dyad_*").size(), 0u);  // no glob within name
  EXPECT_EQ(agg.query("consume/**/dyad_watch_wait").size(), 1u);
}

TEST(StatsExtraTest, RunningStatsMinMaxAcrossMerge) {
  RunningStats a, b;
  a.add(1.0);
  a.add(9.0);
  b.add(-5.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.min(), -5.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_EQ(a.count(), 4u);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

}  // namespace
}  // namespace mdwf
