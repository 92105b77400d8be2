// Unit tests for the Caliper-like recorder and Thicket-like analysis layer.
#include <gtest/gtest.h>

#include "mdwf/common/time.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/perf/thicket.hpp"
#include "mdwf/sim/primitives.hpp"

namespace mdwf::perf {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

Task<void> instrumented_consume(Simulation& sim, Recorder& rec) {
  ScopedRegion consume(rec, "dyad_consume", Category::kOther);
  {
    ScopedRegion fetch(rec, "dyad_fetch", Category::kIdle);
    co_await sim.delay(2_ms);
  }
  {
    ScopedRegion get(rec, "dyad_get_data", Category::kMovement);
    co_await sim.delay(3_ms);
  }
  {
    ScopedRegion rd(rec, "read_single_buf", Category::kMovement);
    co_await sim.delay(1_ms);
  }
}

TEST(RecorderTest, BuildsTreeWithInclusiveTimes) {
  Simulation sim;
  Recorder rec(sim, "consumer0");
  sim.spawn(instrumented_consume(sim, rec));
  sim.run_to_quiescence();

  EXPECT_EQ(rec.open_regions(), 0u);
  const auto& tree = rec.tree();
  const CallNode* consume = tree.find("dyad_consume");
  ASSERT_NE(consume, nullptr);
  EXPECT_EQ(consume->count, 1u);
  EXPECT_EQ(consume->inclusive, 6_ms);
  const CallNode* fetch = tree.find("dyad_consume/dyad_fetch");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->inclusive, 2_ms);
  EXPECT_EQ(fetch->category, Category::kIdle);
  // Exclusive time of the parent is zero: all time is in children.
  EXPECT_EQ(consume->exclusive(), 0_ms);
}

TEST(RecorderTest, RepeatedRegionsAccumulate) {
  Simulation sim;
  Recorder rec(sim, "p");
  sim.spawn([](Simulation& s, Recorder& r) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      ScopedRegion w(r, "write", Category::kMovement);
      co_await s.delay(2_us);
    }
  }(sim, rec));
  sim.run_to_quiescence();
  const CallNode* w = rec.tree().find("write");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->count, 5u);
  EXPECT_EQ(w->inclusive, 10_us);
}

TEST(RecorderTest, SiblingProcessesDoNotInterfere) {
  Simulation sim;
  Recorder ra(sim, "a"), rb(sim, "b");
  sim.spawn([](Simulation& s, Recorder& r) -> Task<void> {
    ScopedRegion x(r, "x");
    co_await s.delay(1_ms);
  }(sim, ra));
  sim.spawn([](Simulation& s, Recorder& r) -> Task<void> {
    ScopedRegion y(r, "y");
    co_await s.delay(2_ms);
  }(sim, rb));
  sim.run_to_quiescence();
  EXPECT_NE(ra.tree().find("x"), nullptr);
  EXPECT_EQ(ra.tree().find("y"), nullptr);
  EXPECT_EQ(rb.tree().find("y")->inclusive, 2_ms);
}

TEST(CallTreeTest, CategoryTimeSumsWithoutDoubleCounting) {
  Simulation sim;
  Recorder rec(sim, "c");
  sim.spawn(instrumented_consume(sim, rec));
  sim.run_to_quiescence();
  const CallTree& t = rec.tree();
  EXPECT_EQ(t.category_time("dyad_consume", Category::kMovement), 4_ms);
  EXPECT_EQ(t.category_time("dyad_consume", Category::kIdle), 2_ms);
  EXPECT_EQ(t.category_time("", Category::kMovement), 4_ms);
}

TEST(CallTreeTest, RenderContainsNodesAndCategories) {
  Simulation sim;
  Recorder rec(sim, "c");
  sim.spawn(instrumented_consume(sim, rec));
  sim.run_to_quiescence();
  const std::string s = rec.tree().render();
  EXPECT_NE(s.find("dyad_consume"), std::string::npos);
  EXPECT_NE(s.find("dyad_fetch"), std::string::npos);
  EXPECT_NE(s.find("[idle]"), std::string::npos);
  EXPECT_NE(s.find("[movement]"), std::string::npos);
}

TEST(QueryTest, PathMatching) {
  auto match = [](std::string_view pat, std::string_view path) {
    const auto p = split_query(pat);
    const auto q = split_query(path);
    return path_matches(p, q);
  };
  EXPECT_TRUE(match("a/b", "a/b"));
  EXPECT_FALSE(match("a/b", "a"));
  EXPECT_FALSE(match("a", "a/b"));
  EXPECT_TRUE(match("a/*", "a/b"));
  EXPECT_FALSE(match("a/*", "a/b/c"));
  EXPECT_TRUE(match("**/c", "a/b/c"));
  EXPECT_TRUE(match("**/c", "c"));
  EXPECT_TRUE(match("a/**", "a"));
  EXPECT_TRUE(match("a/**", "a/b/c/d"));
  EXPECT_TRUE(match("a/**/d", "a/b/c/d"));
  EXPECT_FALSE(match("a/**/d", "a/b/c"));
  EXPECT_TRUE(match("**", ""));
}

TEST(ThicketTest, AggregateAcrossRunsComputesStats) {
  Thicket th;
  for (int rep = 0; rep < 4; ++rep) {
    Simulation sim;
    Recorder rec(sim, "c");
    // Vary the fetch time across "runs": 2ms, 4ms, 6ms, 8ms.
    sim.spawn([](Simulation& s, Recorder& r, int k) -> Task<void> {
      ScopedRegion consume(r, "dyad_consume");
      ScopedRegion fetch(r, "dyad_fetch", Category::kIdle);
      co_await s.delay(Duration::milliseconds(2 * (k + 1)));
    }(sim, rec, rep));
    sim.run_to_quiescence();
    th.add({{"rep", std::to_string(rep)}, {"solution", "dyad"}},
           rec.snapshot());
  }
  EXPECT_EQ(th.size(), 4u);
  StatTree agg = th.aggregate();
  const StatNode* fetch = agg.find("dyad_consume/dyad_fetch");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->inclusive_us.count(), 4u);
  EXPECT_DOUBLE_EQ(fetch->inclusive_us.mean(), 5000.0);
  EXPECT_NEAR(fetch->inclusive_us.stddev(), 2581.99, 0.01);
}

TEST(ThicketTest, FilterByMetadata) {
  Thicket th;
  for (int i = 0; i < 6; ++i) {
    Simulation sim;
    Recorder rec(sim, "p");
    sim.spawn([](Simulation& s, Recorder& r) -> Task<void> {
      ScopedRegion w(r, "write", Category::kMovement);
      co_await s.delay(1_ms);
    }(sim, rec));
    sim.run_to_quiescence();
    th.add({{"solution", i % 2 ? "dyad" : "lustre"}}, rec.snapshot());
  }
  EXPECT_EQ(th.filter("solution", "dyad").size(), 3u);
  EXPECT_EQ(th.filter("solution", "lustre").size(), 3u);
  EXPECT_EQ(th.filter("solution", "xfs").size(), 0u);
}

TEST(ThicketTest, QueryFindsNodesAnywhere) {
  Thicket th;
  Simulation sim;
  Recorder rec(sim, "c");
  sim.spawn(instrumented_consume(sim, rec));
  sim.run_to_quiescence();
  th.add({}, rec.snapshot());
  const StatTree agg = th.aggregate();
  const auto hits = agg.query("**/read_single_buf");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, "dyad_consume/read_single_buf");
  EXPECT_DOUBLE_EQ(hits[0].second->inclusive_us.mean(), 1000.0);
}

TEST(StatTreeTest, MeanCategoryUs) {
  Thicket th;
  for (int rep = 0; rep < 2; ++rep) {
    Simulation sim;
    Recorder rec(sim, "c");
    sim.spawn(instrumented_consume(sim, rec));
    sim.run_to_quiescence();
    th.add({}, rec.snapshot());
  }
  StatTree agg = th.aggregate();
  EXPECT_DOUBLE_EQ(agg.mean_category_us("dyad_consume", Category::kMovement),
                   4000.0);
  EXPECT_DOUBLE_EQ(agg.mean_category_us("", Category::kIdle), 2000.0);
}

}  // namespace
}  // namespace mdwf::perf
