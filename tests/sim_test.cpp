// Unit tests for the discrete-event simulation kernel and its primitives.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mdwf/common/time.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::sim {
namespace {

using namespace mdwf::literals;

Task<void> record_after(Simulation& sim, Duration d, std::vector<int>& log,
                        int id) {
  co_await sim.delay(d);
  log.push_back(id);
}

TEST(SimulationTest, ClockStartsAtOrigin) {
  Simulation sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(SimulationTest, DelayAdvancesClock) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, 5_ms, log, 1));
  sim.run_to_quiescence();
  EXPECT_EQ(sim.now(), TimePoint::origin() + 5_ms);
  EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, 30_us, log, 3));
  sim.spawn(record_after(sim, 10_us, log, 1));
  sim.spawn(record_after(sim, 20_us, log, 2));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, SameTimestampIsFifo) {
  Simulation sim;
  std::vector<int> log;
  for (int i = 0; i < 8; ++i) sim.spawn(record_after(sim, 1_ms, log, i));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulationTest, SequentialDelaysAccumulate) {
  Simulation sim;
  TimePoint end;
  sim.spawn([](Simulation& s, TimePoint& out) -> Task<void> {
    co_await s.delay(1_ms);
    co_await s.delay(2_ms);
    co_await s.delay(3_ms);
    out = s.now();
  }(sim, end));
  sim.run_to_quiescence();
  EXPECT_EQ(end, TimePoint::origin() + 6_ms);
}

TEST(SimulationTest, NestedTaskAwaitPropagatesValue) {
  Simulation sim;
  int result = 0;
  auto inner = [](Simulation& s) -> Task<int> {
    co_await s.delay(2_us);
    co_return 41;
  };
  sim.spawn([](Simulation& s, auto make_inner, int& out) -> Task<void> {
    const int v = co_await make_inner(s);
    out = v + 1;
  }(sim, inner, result));
  sim.run_to_quiescence();
  EXPECT_EQ(result, 42);
}

TEST(SimulationTest, DeeplyNestedAwaitsDoNotOverflowStack) {
  Simulation sim;
  // Recursion depth beyond native stack frames would tolerate if coroutine
  // chaining consumed real stack.
  struct Helper {
    static Task<int> countdown(Simulation& s, int n) {
      if (n == 0) co_return 0;
      co_await s.delay(1_ns);
      const int v = co_await countdown(s, n - 1);
      co_return v + 1;
    }
  };
  int result = -1;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await Helper::countdown(s, 50000);
  }(sim, result));
  sim.run_to_quiescence();
  EXPECT_EQ(result, 50000);
}

TEST(SimulationTest, ExceptionInProcessSurfacesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulationTest, ExceptionPropagatesThroughNestedTask) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
    throw std::runtime_error("inner");
  };
  sim.spawn([](Simulation& s, auto mk, bool& c) -> Task<void> {
    try {
      co_await mk(s);
    } catch (const std::runtime_error& e) {
      c = std::string(e.what()) == "inner";
    }
  }(sim, thrower, caught));
  sim.run_to_quiescence();
  EXPECT_TRUE(caught);
}

TEST(SimulationTest, RunUntilStopsAtLimit) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, 10_ms, log, 1));
  sim.spawn(record_after(sim, 20_ms, log, 2));
  sim.run_until(TimePoint::origin() + 15_ms);
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + 15_ms);
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(SimulationTest, TimerCallbackAndCancel) {
  Simulation sim;
  int fired = 0;
  sim.call_after(1_ms, [&] { ++fired; });
  const TimerId cancelled = sim.call_after(2_ms, [&] { fired += 100; });
  sim.cancel(cancelled);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, DestructionWithSuspendedProcessesIsClean) {
  // A process blocked forever must be destroyed without leaks or crashes
  // when the simulation goes out of scope (ASAN-checked implicitly).
  Simulation sim;
  auto ev = std::make_unique<Event>(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(*ev));
  sim.run();
  EXPECT_TRUE(sim.deadlocked());
  EXPECT_EQ(sim.live_processes(), 1u);
}

TEST(SimulationTest, RunToQuiescenceThrowsOnDeadlock) {
  Simulation sim;
  auto ev = std::make_unique<Event>(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(*ev));
  EXPECT_THROW(sim.run_to_quiescence(), std::runtime_error);
}

TEST(SimulationTest, MaxEventsGuardTrips) {
  Simulation sim;
  sim.set_max_events(100);
  sim.spawn([](Simulation& s) -> Task<void> {
    for (;;) co_await s.delay(1_ns);
  }(sim));
  EXPECT_DEATH(sim.run(), "event budget");
}

// --- Event ------------------------------------------------------------------

TEST(EventTest, TriggerWakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  std::vector<int> log;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Event& e, std::vector<int>& l, int id) -> Task<void> {
      co_await e.wait();
      l.push_back(id);
    }(ev, log, i));
  }
  sim.spawn([](Simulation& s, Event& e) -> Task<void> {
    co_await s.delay(5_us);
    e.trigger();
  }(sim, ev));
  sim.run_to_quiescence();
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 5_us);
}

TEST(EventTest, WaitAfterTriggerIsImmediate) {
  Simulation sim;
  Event ev(sim);
  ev.trigger();
  TimePoint waited;
  sim.spawn([](Simulation& s, Event& e, TimePoint& out) -> Task<void> {
    co_await s.delay(3_us);
    co_await e.wait();  // must not block
    out = s.now();
  }(sim, ev, waited));
  sim.run_to_quiescence();
  EXPECT_EQ(waited, TimePoint::origin() + 3_us);
}

TEST(EventTest, TriggerIsIdempotent) {
  Simulation sim;
  Event ev(sim);
  int wakes = 0;
  sim.spawn([](Event& e, int& w) -> Task<void> {
    co_await e.wait();
    ++w;
  }(ev, wakes));
  ev.trigger();
  ev.trigger();
  sim.run_to_quiescence();
  EXPECT_EQ(wakes, 1);
}

// --- Semaphore ---------------------------------------------------------------

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([](Simulation& s, Semaphore& sm, int& act,
                       int& pk) -> Task<void> {
      co_await sm.acquire();
      SemaphoreGuard g(sm);
      ++act;
      pk = std::max(pk, act);
      co_await s.delay(1_ms);
      --act;
    }(sim, sem, active, peak));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 6 holders, 2 at a time, 1 ms each -> 3 ms.
  EXPECT_EQ(sim.now(), TimePoint::origin() + 3_ms);
}

TEST(SemaphoreTest, FifoHandoff) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([](Simulation& s, Semaphore& sm, std::vector<int>& ord,
                       int id) -> Task<void> {
      // Stagger arrival so the wait queue order is known.
      co_await s.delay(Duration::microseconds(id + 1));
      co_await sm.acquire();
      ord.push_back(id);
      co_await s.delay(1_ms);
      sm.release();
    }(sim, sem, order, i));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SemaphoreTest, ReleaseWithoutWaitersRestoresCount) {
  Simulation sim;
  Semaphore sem(sim, 0);
  sem.release(3);
  EXPECT_EQ(sem.available(), 3);
}

// --- WaitGroup -------------------------------------------------------------------

TEST(WaitGroupTest, WaitsForAllDone) {
  Simulation sim;
  WaitGroup wg(sim);
  wg.add(3);
  TimePoint released;
  sim.spawn([](Simulation& s, WaitGroup& w, TimePoint& out) -> Task<void> {
    co_await w.wait();
    out = s.now();
  }(sim, wg, released));
  for (int i = 1; i <= 3; ++i) {
    sim.spawn([](Simulation& s, WaitGroup& w, int id) -> Task<void> {
      co_await s.delay(Duration::milliseconds(id));
      w.done();
    }(sim, wg, i));
  }
  sim.run_to_quiescence();
  EXPECT_EQ(released, TimePoint::origin() + 3_ms);
}

TEST(WaitGroupTest, WaitOnZeroPendingIsImmediate) {
  Simulation sim;
  WaitGroup wg(sim);
  bool done = false;
  sim.spawn([](WaitGroup& w, bool& d) -> Task<void> {
    co_await w.wait();
    d = true;
  }(wg, done));
  sim.run_to_quiescence();
  EXPECT_TRUE(done);
}

// --- all() -----------------------------------------------------------------------

TEST(AllTest, CompletesAtSlowestChild) {
  Simulation sim;
  std::vector<Task<void>> tasks;
  for (int i = 1; i <= 4; ++i) {
    tasks.push_back([](Simulation& s, int id) -> Task<void> {
      co_await s.delay(Duration::milliseconds(id * 10));
    }(sim, i));
  }
  TimePoint done_at;
  sim.spawn([](Simulation& s, std::vector<Task<void>> ts,
               TimePoint& out) -> Task<void> {
    co_await all(s, std::move(ts));
    out = s.now();
  }(sim, std::move(tasks), done_at));
  sim.run_to_quiescence();
  EXPECT_EQ(done_at, TimePoint::origin() + 40_ms);
}

TEST(AllTest, PropagatesChildException) {
  Simulation sim;
  std::vector<Task<void>> tasks;
  tasks.push_back([](Simulation& s) -> Task<void> {
    co_await s.delay(1_ms);
  }(sim));
  tasks.push_back([](Simulation& s) -> Task<void> {
    co_await s.delay(2_ms);
    throw std::runtime_error("child failed");
  }(sim));
  bool caught = false;
  sim.spawn([](Simulation& s, std::vector<Task<void>> ts,
               bool& c) -> Task<void> {
    try {
      co_await all(s, std::move(ts));
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, std::move(tasks), caught));
  sim.run_to_quiescence();
  EXPECT_TRUE(caught);
}

TEST(AllTest, EmptyVectorCompletesImmediately) {
  Simulation sim;
  bool done = false;
  sim.spawn([](Simulation& s, bool& d) -> Task<void> {
    co_await all(s, {});
    d = true;
  }(sim, done));
  sim.run_to_quiescence();
  EXPECT_TRUE(done);
}

// --- Determinism ------------------------------------------------------------------

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto run_once = [] {
    Simulation sim;
    Semaphore sem(sim, 2);
    WaitGroup wg(sim);
    wg.add(5);
    std::vector<std::pair<std::int64_t, int>> trace;
    for (int i = 0; i < 5; ++i) {
      sim.spawn([](Simulation& s, Semaphore& sm, WaitGroup& w,
                   std::vector<std::pair<std::int64_t, int>>& tr,
                   int id) -> Task<void> {
        co_await sm.acquire();
        co_await s.delay(Duration::microseconds(id * 3 + 1));
        sm.release();
        tr.emplace_back(s.now().ns(), id);
        w.done();
      }(sim, sem, wg, trace, i));
    }
    sim.spawn([](Simulation& s, WaitGroup& w,
                 std::vector<std::pair<std::int64_t, int>>& tr) -> Task<void> {
      co_await w.wait();
      tr.emplace_back(s.now().ns(), -1);
    }(sim, wg, trace));
    sim.run_to_quiescence();
    return trace;
  };
  const auto first = run_once();
  EXPECT_EQ(first.size(), 6u);
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace mdwf::sim
