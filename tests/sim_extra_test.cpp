// Additional kernel and task-type edge cases.
#include <gtest/gtest.h>

#include <vector>

#include "mdwf/common/time.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/sim/simulation.hpp"

namespace mdwf::sim {
namespace {

using namespace mdwf::literals;

TEST(TaskTest, MoveTransfersOwnership) {
  Simulation sim;
  auto make = [](Simulation& s) -> Task<int> {
    co_await s.delay(1_us);
    co_return 5;
  };
  Task<int> a = make(sim);
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): post-move test
  EXPECT_TRUE(b.valid());
  Task<int> c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
  int out = 0;
  sim.spawn([](Task<int> t, int& o) -> Task<void> {
    o = co_await std::move(t);
  }(std::move(c), out));
  sim.run_to_quiescence();
  EXPECT_EQ(out, 5);
}

TEST(TaskTest, DroppingUnstartedTaskIsClean) {
  Simulation sim;
  bool ran = false;
  {
    auto t = [](Simulation& s, bool& r) -> Task<void> {
      r = true;
      co_await s.delay(1_us);
    }(sim, ran);
    EXPECT_TRUE(t.valid());
    // Never awaited/spawned: destroyed lazily-unstarted here.
  }
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(TaskTest, ValueTypesMoveThroughTasks) {
  Simulation sim;
  auto make = [](Simulation& s) -> Task<std::vector<int>> {
    co_await s.delay(1_us);
    co_return std::vector<int>{1, 2, 3};
  };
  std::vector<int> out;
  sim.spawn([](Simulation& s, auto mk, std::vector<int>& o) -> Task<void> {
    o = co_await mk(s);
  }(sim, make, out));
  sim.run_to_quiescence();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationExtraTest, CallAtAbsoluteTimeOrdersWithDelays) {
  Simulation sim;
  std::vector<int> log;
  sim.call_at(TimePoint::origin() + 5_us, [&] { log.push_back(2); });
  sim.call_at(TimePoint::origin() + 1_us, [&] { log.push_back(1); });
  sim.spawn([](Simulation& s, std::vector<int>& l) -> Task<void> {
    co_await s.delay(3_us);
    l.push_back(10);
  }(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 10, 2}));
}

TEST(SimulationExtraTest, CancelAfterFireIsHarmless) {
  Simulation sim;
  int fired = 0;
  const TimerId id = sim.call_after(1_us, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // already fired: no effect, no crash
  sim.call_after(1_us, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationExtraTest, YieldRunsAfterQueuedSameTimeEvents) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& l) -> Task<void> {
    l.push_back(1);
    co_await s.delay(Duration::zero());
    l.push_back(3);
  }(sim, log));
  sim.spawn([](std::vector<int>& l) -> Task<void> {
    l.push_back(2);
    co_return;
  }(log));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationExtraTest, RunUntilExactBoundaryIncludesEvents) {
  Simulation sim;
  int fired = 0;
  sim.call_at(TimePoint::origin() + 10_us, [&] { ++fired; });
  sim.run_until(TimePoint::origin() + 10_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 10_us);
}

TEST(SimulationExtraTest, EventsFiredCounts) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.call_after(Duration(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(SimulationExtraTest, SpawnFromInsideProcess) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& l) -> Task<void> {
    l.push_back(1);
    s.spawn([](Simulation& s2, std::vector<int>& l2) -> Task<void> {
      co_await s2.delay(1_us);
      l2.push_back(2);
    }(s, l));
    co_await s.delay(2_us);
    l.push_back(3);
  }(sim, log));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(SemaphoreExtraTest, GuardMoveTransfersRelease) {
  Simulation sim;
  Semaphore sem(sim, 1);
  sim.spawn([](Simulation& s, Semaphore& sm) -> Task<void> {
    co_await sm.acquire();
    SemaphoreGuard a(sm);
    {
      SemaphoreGuard b(std::move(a));
      co_await s.delay(1_us);
      // b releases here; a must not double-release.
    }
    EXPECT_EQ(sm.available(), 1);
  }(sim, sem));
  sim.run_to_quiescence();
  EXPECT_EQ(sem.available(), 1);
}

}  // namespace
}  // namespace mdwf::sim
