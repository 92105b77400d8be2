// Property tests for the DES hot path introduced with the sweep engine: the
// pooled 4-ary event heap with O(1) lazy cancellation, and the fair-share
// channel's batched (same-instant-coalesced) settle/rearm.
//
// The heap is checked against a reference oracle — a plain sorted schedule
// with tombstone cancellation, the semantics of the old priority_queue
// kernel — under randomized schedule/cancel interleavings.  The channel is
// checked against the analytic fluid model (equal shares, exact re-rating)
// and for byte conservation through abort_active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mdwf/common/rng.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/net/fair_share.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/sim/event_heap.hpp"
#include "mdwf/sim/simulation.hpp"

namespace mdwf {
namespace {

using namespace mdwf::literals;
using sim::EventHeap;
using sim::EventSlot;
using sim::Simulation;
using sim::Task;
using sim::TimerId;

// --- EventHeap vs reference oracle ---------------------------------------

// The oracle: every (at, seq) ever scheduled, fired in (at, seq) order,
// skipping cancelled seqs — exactly what the old tombstone priority_queue
// produced.
struct Oracle {
  std::vector<std::pair<std::int64_t, std::uint64_t>> events;  // (ns, seq)
  std::vector<bool> cancelled;

  void push(std::int64_t at_ns, std::uint64_t seq) {
    events.emplace_back(at_ns, seq);
    if (cancelled.size() <= seq) cancelled.resize(seq + 1, false);
  }
  void cancel(std::uint64_t seq) { cancelled[seq] = true; }
  std::vector<std::pair<std::int64_t, std::uint64_t>> fire_order() {
    std::sort(events.begin(), events.end());
    std::vector<std::pair<std::int64_t, std::uint64_t>> out;
    for (const auto& e : events) {
      if (!cancelled[e.second]) out.push_back(e);
    }
    return out;
  }
};

// The oracle checks the queue through its push/peek/pop/cancel interface;
// a candidate replacement queue joins QueueTypes and must match it.
template <typename Queue>
class EventQueuePropertyTest : public ::testing::Test {};
using QueueTypes = ::testing::Types<EventHeap>;
TYPED_TEST_SUITE(EventQueuePropertyTest, QueueTypes);

TYPED_TEST(EventQueuePropertyTest, RandomScheduleCancelMatchesOracle) {
  for (std::uint64_t round = 0; round < 20; ++round) {
    Rng rng(1000 + round);
    TypeParam heap;
    Oracle oracle;
    std::uint64_t next_seq = 0;
    std::vector<std::pair<EventSlot*, std::uint64_t>> live;  // (slot, seq)

    const std::uint64_t ops = 200 + rng.next_below(300);
    for (std::uint64_t op = 0; op < ops; ++op) {
      if (live.empty() || rng.bernoulli(0.7)) {
        // Duplicate timestamps on purpose: FIFO-within-instant is the
        // determinism-critical tie-break.
        const auto at_ns = static_cast<std::int64_t>(rng.next_below(64));
        const std::uint64_t seq = next_seq++;
        EventSlot* slot =
            heap.push(TimePoint::origin() + Duration(at_ns), seq,
                      std::function<void()>([] {}));
        oracle.push(at_ns, seq);
        live.emplace_back(slot, seq);
      } else {
        const std::size_t pick = rng.next_below(live.size());
        heap.cancel(live[pick].first, live[pick].second);
        oracle.cancel(live[pick].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }

    const auto expected = oracle.fire_order();
    EXPECT_EQ(heap.live(), expected.size());
    std::vector<std::pair<std::int64_t, std::uint64_t>> fired;
    while (EventSlot* e = heap.pop()) {
      fired.emplace_back((e->at - TimePoint::origin()).ns(), e->seq);
      heap.release(e);
    }
    EXPECT_EQ(fired, expected) << "round " << round;
    EXPECT_TRUE(heap.empty());
  }
}

TYPED_TEST(EventQueuePropertyTest, InterleavedPopsMatchOracleSemantics) {
  // Pop and schedule interleaved (the real kernel pattern): fired events
  // recycle slots that later pushes immediately reuse.  Pushes never predate
  // the last pop — the simulator's monotone-time contract.
  Rng rng(42);
  TypeParam heap;
  std::uint64_t next_seq = 0;
  std::int64_t now = 0;
  std::vector<std::int64_t> fired_at;
  for (int burst = 0; burst < 50; ++burst) {
    const std::uint64_t pushes = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < pushes; ++i) {
      const auto at = now + static_cast<std::int64_t>(rng.next_below(16));
      heap.push(TimePoint::origin() + Duration(at), next_seq++,
                std::function<void()>([] {}));
    }
    const std::uint64_t pops = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < pops; ++i) {
      EventSlot* e = heap.pop();
      if (e == nullptr) break;
      const auto at = (e->at - TimePoint::origin()).ns();
      EXPECT_GE(at, now);  // time never runs backwards
      now = at;
      fired_at.push_back(at);
      heap.release(e);
    }
  }
  while (EventSlot* e = heap.pop()) {
    fired_at.push_back((e->at - TimePoint::origin()).ns());
    heap.release(e);
  }
  EXPECT_TRUE(std::is_sorted(fired_at.begin(), fired_at.end()));
  EXPECT_EQ(heap.live(), 0u);
}

TYPED_TEST(EventQueuePropertyTest, PeekPopAgreeUnderChurn) {
  // peek() must return exactly the slot the next pop() removes, including
  // across cancellations of the current minimum (which force both queues to
  // re-derive it).
  Rng rng(77);
  TypeParam q;
  std::uint64_t next_seq = 0;
  std::int64_t now = 0;
  std::vector<std::pair<EventSlot*, std::uint64_t>> live;
  for (int op = 0; op < 3000; ++op) {
    const int roll = static_cast<int>(rng.next_below(10));
    if (live.empty() || roll < 5) {
      const auto at = now + static_cast<std::int64_t>(rng.next_below(4096));
      EventSlot* s = q.push(TimePoint::origin() + Duration(at), next_seq,
                            std::function<void()>([] {}));
      live.emplace_back(s, next_seq);
      ++next_seq;
    } else if (roll < 8) {
      EventSlot* const head = q.peek();
      EventSlot* const popped = q.pop();
      ASSERT_EQ(head, popped);
      if (popped != nullptr) {
        now = (popped->at - TimePoint::origin()).ns();
        live.erase(std::find_if(live.begin(), live.end(),
                                [&](const auto& e) { return e.first == popped; }));
        q.release(popped);
      }
    } else {
      const std::size_t pick = rng.next_below(live.size());
      EXPECT_TRUE(q.cancel(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(q.live(), live.size());
  }
}

TYPED_TEST(EventQueuePropertyTest, SparseScheduleJumpsGapsInOrder) {
  // Widely separated clusters must still drain in exact (at, seq) order.
  TypeParam q;
  std::uint64_t next_seq = 0;
  std::vector<std::int64_t> keys;
  for (const std::int64_t base :
       {std::int64_t{0}, std::int64_t{1'000'000}, std::int64_t{50'000'000'000},
        std::int64_t{50'000'000'064}}) {
    for (std::int64_t off = 0; off < 16; ++off) {
      keys.push_back(base + off);
      q.push(TimePoint::origin() + Duration(base + off), next_seq++,
             std::function<void()>([] {}));
    }
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::int64_t> fired;
  while (EventSlot* e = q.pop()) {
    fired.push_back((e->at - TimePoint::origin()).ns());
    q.release(e);
  }
  EXPECT_EQ(fired, keys);
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueuePropertyTest, CancelAllThenReuse) {
  // Cancelling every pending event leaves only residue that the next
  // peek/pop sweeps; the queue stays usable afterwards.
  TypeParam q;
  std::vector<std::pair<EventSlot*, std::uint64_t>> live;
  for (std::uint64_t i = 0; i < 500; ++i) {
    live.emplace_back(q.push(TimePoint::origin() + Duration(10 + (i % 7)), i,
                             std::function<void()>([] {})),
                      i);
  }
  for (auto& [slot, seq] : live) EXPECT_TRUE(q.cancel(slot, seq));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek(), nullptr);
  EXPECT_EQ(q.pop(), nullptr);
  EventSlot* s = q.push(TimePoint::origin() + Duration(99), 500,
                        std::function<void()>([] {}));
  EXPECT_EQ(q.peek(), s);
  EXPECT_EQ(q.pop(), s);
  q.release(s);
  EXPECT_TRUE(q.empty());
}

// --- TimerId ABA guard ----------------------------------------------------

TEST(EventHeapPropertyTest, StaleCancelCannotKillRecycledSlot) {
  Simulation sim;
  int first = 0;
  int second = 0;
  const TimerId stale = sim.call_after(1_us, [&] { ++first; });
  sim.run();  // fires; the slot returns to the pool
  ASSERT_EQ(first, 1);
  // The pool reissues the same slot for the next timer (single free slot).
  const TimerId fresh = sim.call_after(1_us, [&] { ++second; });
  ASSERT_EQ(fresh.slot, stale.slot) << "pool should recycle LIFO";
  sim.cancel(stale);  // stale seq: must NOT cancel the new occupant
  sim.run();
  EXPECT_EQ(second, 1);
  EXPECT_EQ(first, 1);
}

TEST(EventHeapPropertyTest, CancelledThenRecycledSlotFiresExactlyOnce) {
  Simulation sim;
  int cancelled_fired = 0;
  int replacement_fired = 0;
  const TimerId doomed = sim.call_after(5_us, [&] { ++cancelled_fired; });
  sim.cancel(doomed);
  // A cancelled slot still sits mid-heap; scheduling more work at the same
  // instant and double-cancelling must neither fire it nor fire the
  // replacement twice.
  sim.cancel(doomed);  // idempotent
  const TimerId replacement =
      sim.call_after(5_us, [&] { ++replacement_fired; });
  sim.call_after(2_us, [&] {});  // unrelated earlier event drains first
  sim.run();
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(replacement_fired, 1);
  sim.cancel(replacement);  // after fire: harmless
  sim.run();
  EXPECT_EQ(replacement_fired, 1);
}

TEST(EventHeapPropertyTest, RandomizedTimerChurnThroughSimulation) {
  // End-to-end kernel churn: random call_after/cancel traffic; every
  // surviving timer fires exactly once, every cancelled one never.
  Rng rng(7);
  Simulation sim;
  std::vector<int> fired(400, 0);
  std::vector<TimerId> ids(400);
  std::vector<bool> cancelled(400, false);
  for (int i = 0; i < 400; ++i) {
    ids[i] = sim.call_after(Duration(static_cast<std::int64_t>(
                                rng.next_below(1000))),
                            [&fired, i] { ++fired[i]; });
    if (i >= 2 && rng.bernoulli(0.4)) {
      const std::size_t victim = rng.next_below(static_cast<std::size_t>(i));
      if (!cancelled[victim]) {
        sim.cancel(ids[victim]);
        cancelled[victim] = true;
      }
    }
  }
  sim.run();
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(fired[i], cancelled[i] ? 0 : 1) << "timer " << i;
  }
}

// --- Fair-share batched settle vs the fluid model -------------------------

Task<void> one_transfer(Simulation& sim, net::FairShareChannel& ch,
                        Duration start, Bytes n, TimePoint& done) {
  co_await sim.delay(start);
  co_await ch.transfer(n);
  done = sim.now();
}

TEST(FairSharePropertyTest, BatchedSettleMatchesFluidOracleForBursts) {
  // N flows arriving at the same instant on capacity C, each b bytes: the
  // fluid model drains them together at t = N*b/C.  Batching N arrivals
  // into one settle must not move completion by a nanosecond.
  for (const std::size_t n : {1u, 2u, 5u, 16u, 64u}) {
    Simulation sim;
    net::FairShareChannel ch(sim, 1e9);
    std::vector<TimePoint> done(n);
    for (std::size_t i = 0; i < n; ++i) {
      sim.spawn(one_transfer(sim, ch, Duration::zero(), Bytes(10'000'000),
                             done[i]));
    }
    sim.run_to_quiescence();
    // 1e9 B/s is one byte per nanosecond: the fluid drain of n*10 MB takes
    // exactly n*10^7 ns.  The channel's completion timer rounds the fp
    // share computation up to a whole ns, so allow [ideal, ideal + 1ns] —
    // never early, never more than the ceil.
    const TimePoint ideal =
        TimePoint::origin() +
        Duration(static_cast<std::int64_t>(n) * 10'000'000);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(done[i], done[0]) << "batched burst must drain together";
      EXPECT_GE(done[i], ideal) << "n=" << n << " flow " << i;
      EXPECT_LE(done[i], ideal + Duration(1)) << "n=" << n << " flow " << i;
    }
    EXPECT_EQ(ch.total_requested(), ch.total_completed());
  }
}

TEST(FairSharePropertyTest, StaggeredArrivalsMatchExactReRating) {
  // Two 100 MB flows on 1 GB/s, second arriving at 50 ms: piecewise fluid
  // solution puts the first at 150 ms and the second at 200 ms.
  Simulation sim;
  net::FairShareChannel ch(sim, 1e9);
  TimePoint a, b;
  sim.spawn(one_transfer(sim, ch, Duration::zero(), Bytes(100'000'000), a));
  sim.spawn(one_transfer(sim, ch, 50_ms, Bytes(100'000'000), b));
  sim.run_to_quiescence();
  EXPECT_EQ(a, TimePoint::origin() + 150_ms);
  EXPECT_EQ(b, TimePoint::origin() + 200_ms);
}

TEST(FairSharePropertyTest, RandomizedScheduleConservesBytes) {
  for (std::uint64_t round = 0; round < 10; ++round) {
    Rng rng(900 + round);
    Simulation sim;
    net::FairShareChannel ch(sim, 2e9);
    const std::size_t flows = 3 + rng.next_below(20);
    std::vector<TimePoint> done(flows);
    Bytes requested = Bytes::zero();
    for (std::size_t i = 0; i < flows; ++i) {
      const Bytes n(1 + rng.next_below(50'000'000));
      requested += n;
      sim.spawn(one_transfer(
          sim, ch,
          Duration(static_cast<std::int64_t>(rng.next_below(5'000'000))), n,
          done[i]));
    }
    sim.run_to_quiescence();
    EXPECT_EQ(ch.total_requested(), requested);
    EXPECT_EQ(ch.total_completed(), requested);
    EXPECT_EQ(ch.active_flows(), 0u);
  }
}

Task<void> absorbing_transfer(net::FairShareChannel& ch, Bytes n,
                              int& aborted) {
  try {
    co_await ch.transfer(n);
  } catch (const net::NetError&) {
    ++aborted;
  }
}

TEST(FairSharePropertyTest, AbortActiveConservesBytesUnderBatching) {
  // Same-instant burst, partially drained, torn down: requested totals are
  // truncated at the crash instant, so requested == completed afterwards
  // and the channel keeps working for new flows.
  Simulation sim;
  net::FairShareChannel ch(sim, 1e9);
  int aborted = 0;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(absorbing_transfer(ch, Bytes(100'000'000), aborted));
  }
  sim.call_after(100_ms, [&] {
    // Mid-stream: all 8 flows active (the burst was batch-settled once).
    EXPECT_EQ(ch.active_flows(), 8u);
    EXPECT_EQ(ch.abort_active(), 8u);
  });
  sim.run_to_quiescence();
  EXPECT_EQ(aborted, 8);
  EXPECT_EQ(ch.aborted_flows(), 8u);
  EXPECT_EQ(ch.total_requested(), ch.total_completed());

  // The channel is reusable after the teardown.
  TimePoint done;
  sim.spawn(one_transfer(sim, ch, Duration::zero(), Bytes(1'000'000), done));
  sim.run_to_quiescence();
  EXPECT_GT(done, TimePoint::origin());
  EXPECT_EQ(ch.total_requested(), ch.total_completed());
}

TEST(FairSharePropertyTest, AbortWithPendingSettleStaysConsistent) {
  // abort_active in the same instant as a new arrival (settle still
  // pending): the aborted flow must not resurrect, the pending settle must
  // not double-complete anything.
  Simulation sim;
  net::FairShareChannel ch(sim, 1e9);
  int aborted = 0;
  sim.spawn(absorbing_transfer(ch, Bytes(50'000'000), aborted));
  sim.call_after(Duration::zero(), [&] { ch.abort_active(); });
  sim.run_to_quiescence();
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(ch.total_requested(), ch.total_completed());
  EXPECT_EQ(ch.active_flows(), 0u);
}

}  // namespace
}  // namespace mdwf
