// mdwf::sweep — the deterministic parallel replica runner.
//
// The load-bearing property is the determinism contract: for the same
// (grid, seeds), the merged output is byte-identical no matter how many
// worker threads execute the repetitions.  These tests pin it on plain
// ensembles, on a cancellation-heavy configuration (hedged reads under
// overload cancel timers constantly), and on grids where a replica throws.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mdwf/fault/plan.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/workflow/config.hpp"

namespace mdwf::sweep {
namespace {

using workflow::EnsembleConfig;
using workflow::EnsembleResult;
using workflow::Placement;
using workflow::Solution;

EnsembleConfig small_config(Solution s, std::uint32_t pairs,
                            std::uint32_t nodes, std::uint32_t reps = 3) {
  EnsembleConfig c;
  c.solution = s;
  c.pairs = pairs;
  c.nodes = nodes;
  c.workload.frames = 8;
  c.repetitions = reps;
  c.base_seed = 7;
  return c;
}

// Hedged DYAD reads under an overloaded KVS: every fetch arms hedge and
// health timers and most are cancelled — the heaviest cancel() traffic any
// configuration produces.
EnsembleConfig cancellation_heavy_config() {
  EnsembleConfig c = small_config(Solution::kDyad, 2, 2);
  c.testbed.dyad.retry.enabled = true;
  c.testbed.dyad.health.enabled = true;
  c.testbed.dyad.health.hedge.enabled = true;
  c.testbed.faults =
      fault::make_scenario("overload", {.compute_nodes = c.nodes});
  return c;
}

// Retry-less DYAD through a broker outage: the first frame's metadata commit
// is still awaiting visibility (long visibility delay) when the broker dies
// and loses pending commits, so the consumer blocks forever on its KVS watch
// and the repetition dies with a deadlock error.
EnsembleConfig poisoned_config() {
  EnsembleConfig c = small_config(Solution::kDyad, 1, 2, 4);
  c.testbed.dyad.retry.enabled = false;
  c.workload.start_stagger = 0.0;  // first publish lands at ~0.82 s
  c.testbed.kvs.visibility_delay = Duration::seconds_i(5);
  c.testbed.faults.windows.push_back(fault::FaultWindow{
      fault::FaultTarget::kKvsBroker, 0, fault::FaultMode::kOutage,
      TimePoint::origin() + Duration::seconds_i(3),
      Duration::milliseconds(250), 1.0});
  return c;
}

// Byte-level equality of two ensemble results: every sample vector (exact
// doubles, exact order), every counter (name and value, registration
// order), and every thicket record (metadata plus the rendered call tree).
void expect_identical(const EnsembleResult& a, const EnsembleResult& b) {
  EXPECT_EQ(a.prod_movement_us.values(), b.prod_movement_us.values());
  EXPECT_EQ(a.prod_idle_us.values(), b.prod_idle_us.values());
  EXPECT_EQ(a.cons_movement_us.values(), b.cons_movement_us.values());
  EXPECT_EQ(a.cons_idle_us.values(), b.cons_idle_us.values());
  EXPECT_EQ(a.makespan_s.values(), b.makespan_s.values());
  EXPECT_EQ(a.cons_fetch_us.values(), b.cons_fetch_us.values());
  EXPECT_EQ(a.counters.items(), b.counters.items());
  ASSERT_EQ(a.thicket.size(), b.thicket.size());
  for (std::size_t i = 0; i < a.thicket.size(); ++i) {
    EXPECT_EQ(a.thicket.records()[i].meta, b.thicket.records()[i].meta);
    EXPECT_EQ(a.thicket.records()[i].tree.render(),
              b.thicket.records()[i].tree.render());
  }
}

std::vector<SweepPoint> standard_grid() {
  return {
      {"dyad", small_config(Solution::kDyad, 2, 2)},
      {"xfs", small_config(Solution::kXfs, 2, 1)},
      {"lustre", small_config(Solution::kLustre, 1, 2)},
  };
}

TEST(SweepTest, ResolveThreadsHonorsExplicitAndAuto) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(5), 5u);
  EXPECT_GE(resolve_threads(0), 1u);  // 0 = hardware concurrency
}

TEST(SweepTest, ThreadsKeyParses) {
  KeyValueConfig cfg;
  cfg.set("threads", "6");
  const EnsembleConfig parsed =
      workflow::parse_ensemble_config(cfg, EnsembleConfig{});
  EXPECT_EQ(parsed.threads, 6u);
  EXPECT_EQ(EnsembleConfig{}.threads, 1u);  // serial by default
}

TEST(SweepTest, RunEnsembleMatchesSerialLibraryByteForByte) {
  EnsembleConfig cfg = small_config(Solution::kDyad, 2, 2);
  const EnsembleResult serial = workflow::run_ensemble(cfg);
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    expect_identical(serial, sweep::run_ensemble(cfg));
  }
}

TEST(SweepTest, MergedCsvByteIdenticalAcrossThreadCounts) {
  const SweepResult one = run_sweep(standard_grid(), 1);
  const SweepResult two = run_sweep(standard_grid(), 2);
  const SweepResult eight = run_sweep(standard_grid(), 8);
  EXPECT_EQ(one.errors, 0u);
  EXPECT_EQ(one.to_csv(), two.to_csv());
  EXPECT_EQ(one.to_csv(), eight.to_csv());
  EXPECT_EQ(one.total_sim_events, two.total_sim_events);
  EXPECT_EQ(one.total_sim_events, eight.total_sim_events);
  ASSERT_EQ(one.points.size(), eight.points.size());
  for (std::size_t p = 0; p < one.points.size(); ++p) {
    expect_identical(one.points[p].result, two.points[p].result);
    expect_identical(one.points[p].result, eight.points[p].result);
  }
}

TEST(SweepTest, CancellationHeavyRunsStayDeterministic) {
  EnsembleConfig cfg = cancellation_heavy_config();
  const EnsembleResult serial = workflow::run_ensemble(cfg);
  // The scenario must actually exercise the cancel path.
  EXPECT_GT(serial.counters.get("dyad_hedges"), 0u);
  EXPECT_GT(serial.counters.get("dyad_hedge_cancels") + serial.counters.get("dyad_hedge_wins"), 0u);
  cfg.threads = 8;
  expect_identical(serial, sweep::run_ensemble(cfg));
}

TEST(SweepTest, ReplicaExceptionRethrownCanonically) {
  EnsembleConfig cfg = poisoned_config();
  std::string serial_what;
  try {
    workflow::run_ensemble(cfg);
    FAIL() << "expected the serial run to deadlock";
  } catch (const std::runtime_error& e) {
    serial_what = e.what();
    EXPECT_NE(serial_what.find("deadlock"), std::string::npos) << serial_what;
  }
  // The parallel runner reports the canonically-first failure with the same
  // message, regardless of which worker hit it first.
  cfg.threads = 8;
  try {
    sweep::run_ensemble(cfg);
    FAIL() << "expected the parallel run to rethrow the replica error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(serial_what, std::string(e.what()));
  }
}

TEST(SweepTest, PoisonedPointDoesNotSpoilTheGrid) {
  const auto make_grid = [] {
    return std::vector<SweepPoint>{
        {"bad", poisoned_config()},
        {"good", small_config(Solution::kDyad, 1, 2)},
    };
  };
  const SweepResult one = run_sweep(make_grid(), 1);
  const SweepResult eight = run_sweep(make_grid(), 8);
  for (const SweepResult* r : {&one, &eight}) {
    ASSERT_EQ(r->points.size(), 2u);
    EXPECT_EQ(r->errors, 1u);
    EXPECT_TRUE(r->points[0].failed());
    EXPECT_NE(r->points[0].error_text.find("deadlock"), std::string::npos);
    EXPECT_FALSE(r->points[1].failed());
    EXPECT_GT(r->points[1].result.counters.get("frames_consumed"), 0u);
  }
  EXPECT_EQ(one.to_csv(), eight.to_csv());
  EXPECT_EQ(one.points[0].error_text, eight.points[0].error_text);
  expect_identical(one.points[1].result, eight.points[1].result);
}

}  // namespace
}  // namespace mdwf::sweep
