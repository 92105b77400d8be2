// Tests for the mdwf::health gray-failure mitigation layer: phi-accrual
// failure detection, circuit-breaker state transitions, adaptive hedge
// delays, and the DYAD hedged-fetch race (cancellation must not charge
// bytes that never moved).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mdwf/common/time.hpp"
#include "mdwf/dyad/dyad.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/health/health.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "mdwf/workflow/testbed.hpp"

namespace mdwf::health {
namespace {

using namespace mdwf::literals;
using dyad::DyadConsumer;
using dyad::DyadProducer;
using sim::Task;
using workflow::Testbed;
using workflow::TestbedParams;

TimePoint at(std::int64_t ms) {
  return TimePoint::origin() + Duration::milliseconds(ms);
}

// --- FailureDetector --------------------------------------------------------

TEST(FailureDetectorTest, PhiIsMonotoneInLatency) {
  FailureDetector d;
  for (int i = 0; i < 32; ++i) d.observe(Duration::microseconds(500 + i * 10));
  double prev = -1.0;
  for (int ms = 0; ms <= 50; ++ms) {
    const double p = d.phi(Duration::milliseconds(ms));
    EXPECT_GE(p, prev) << "phi must be non-decreasing (x = " << ms << " ms)";
    prev = p;
  }
}

TEST(FailureDetectorTest, IdenticalObservationsGiveIdenticalPhi) {
  FailureDetector a, b;
  for (int i = 0; i < 64; ++i) {
    const Duration x = Duration::microseconds(200 + (i * 37) % 900);
    a.observe(x);
    b.observe(x);
  }
  for (int ms = 1; ms <= 30; ms += 3) {
    const Duration x = Duration::milliseconds(ms);
    EXPECT_EQ(a.phi(x), b.phi(x));  // bit-identical, not just approximately
    EXPECT_EQ(a.suspect(x), b.suspect(x));
  }
}

TEST(FailureDetectorTest, WarmupIsNotSuspectBelowCeiling) {
  FailureDetector d;  // zero samples
  EXPECT_FALSE(d.suspect(Duration::milliseconds(5)));
}

TEST(FailureDetectorTest, CeilingFiresEvenWhenBaselineIsSick) {
  // A server that is slow from the very first RPC teaches phi that slowness
  // is normal; the absolute SLO ceiling must still flag it.
  DetectorParams p;
  FailureDetector d(p);
  for (int i = 0; i < 64; ++i) d.observe(Duration::milliseconds(25));
  EXPECT_LT(d.phi(Duration::milliseconds(25)), p.phi_threshold);
  EXPECT_TRUE(d.suspect(Duration::milliseconds(25)));
  // And before any warm-up at all.
  FailureDetector cold(p);
  EXPECT_TRUE(cold.suspect(p.suspect_ceiling));
}

TEST(FailureDetectorTest, FastLatencyNeverSuspect) {
  FailureDetector d;
  for (int i = 0; i < 32; ++i) d.observe(Duration::microseconds(100));
  // Below the suspect floor, phi is irrelevant.
  EXPECT_FALSE(d.suspect(Duration::microseconds(1500)));
}

// --- CircuitBreaker ---------------------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndCoolsDown) {
  BreakerParams p;
  p.failure_threshold = 3;
  p.open_for = Duration::seconds_i(2);
  CircuitBreaker b(p);

  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow(at(0)));
  b.record_failure(at(1));
  b.record_failure(at(2));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);  // 2 < threshold
  b.record_failure(at(3));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.trips(), 1u);

  // Open admits nothing until the cool-down expires...
  EXPECT_FALSE(b.allow(at(100)));
  EXPECT_FALSE(b.allow(at(2002)));
  // ...then transitions to half-open and admits exactly one probe.
  EXPECT_TRUE(b.allow(at(2004)));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(b.allow(at(2005)));  // probe already in flight

  // A successful probe closes the breaker again.
  b.record_success(at(2030));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow(at(2031)));
}

TEST(CircuitBreakerTest, FailedProbeReopensAndCountsAsTrip) {
  BreakerParams p;
  p.failure_threshold = 1;
  p.open_for = Duration::seconds_i(1);
  CircuitBreaker b(p);
  b.record_failure(at(0));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(b.allow(at(1001)));  // half-open probe
  b.record_failure(at(1025));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.trips(), 2u);
  // The new open phase restarts the cool-down from the failed probe.
  EXPECT_FALSE(b.allow(at(1500)));
  EXPECT_TRUE(b.allow(at(2026)));
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  BreakerParams p;
  p.failure_threshold = 3;
  CircuitBreaker b(p);
  b.record_failure(at(0));
  b.record_failure(at(1));
  b.record_success(at(2));
  b.record_failure(at(3));
  b.record_failure(at(4));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.trips(), 0u);
}

// --- LatencyTracker / hedge delay -------------------------------------------

TEST(LatencyTrackerTest, HedgeDelayClampsToConfiguredBounds) {
  HedgeParams hp;
  hp.min_samples = 4;
  LatencyTracker t;
  // Below min_samples: the conservative initial delay.
  EXPECT_EQ(t.hedge_delay(hp), hp.initial_delay);
  // A window full of multi-second waits (consumer idling ahead of a slow
  // producer) must not push the delay past max_delay.
  for (int i = 0; i < 16; ++i) t.observe(Duration::seconds_i(2));
  EXPECT_EQ(t.hedge_delay(hp), hp.max_delay);
  // A window of near-zero latencies clamps up to min_delay.
  LatencyTracker fast;
  for (int i = 0; i < 16; ++i) fast.observe(Duration::microseconds(5));
  EXPECT_EQ(fast.hedge_delay(hp), hp.min_delay);
}

TEST(LatencyTrackerTest, PercentileTracksRecentWindow) {
  LatencyTracker t(8);  // tiny ring: old samples age out
  for (int i = 0; i < 8; ++i) t.observe(Duration::milliseconds(1));
  for (int i = 0; i < 8; ++i) t.observe(Duration::milliseconds(9));
  EXPECT_EQ(t.percentile(0.5), Duration::milliseconds(9));
}

// --- DYAD hedging: cancellation and byte accounting -------------------------

workflow::EnsembleConfig base_ensemble_config() {
  workflow::EnsembleConfig cfg;
  cfg.solution = workflow::Solution::kDyad;
  cfg.pairs = 2;
  cfg.nodes = 2;
  cfg.workload.frames = 8;
  cfg.repetitions = 1;
  cfg.base_seed = 17;
  return cfg;
}

TEST(DyadHedgeTest, HealthWithoutFailoverIsFreeOnHealthyCluster) {
  // Breaker and hedge act through the retry protocol's Lustre failover
  // path.  Without it (retry off, the healthy-cluster default) health is
  // detection-only and must not perturb the run at all.
  workflow::EnsembleConfig off = base_ensemble_config();
  workflow::EnsembleConfig on = base_ensemble_config();
  on.testbed.dyad.health.enabled = true;
  on.testbed.dyad.health.hedge.enabled = true;

  const auto r_off = workflow::run_ensemble(off);
  const auto r_on = workflow::run_ensemble(on);
  EXPECT_EQ(r_on.makespan_s.mean(), r_off.makespan_s.mean());
  EXPECT_EQ(r_on.counters.get("kvs_lookups"),
            r_off.counters.get("kvs_lookups"));
  EXPECT_EQ(r_on.counters.get("frames_consumed"), r_off.counters.get("frames_consumed"));
  EXPECT_EQ(r_on.counters.get("dyad_hedges"), 0u);
  EXPECT_EQ(r_on.counters.get("dyad_hedge_wins"), 0u);
  EXPECT_EQ(r_on.counters.get("dyad_breaker_trips"), 0u);
}

// One healthy produce-then-consume exchange between two nodes, with the
// consumer arriving after the frame is published.  Returns the evidence the
// cancellation test compares across hedge on/off.
struct CancelCase {
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_cancels = 0;
  std::uint64_t mds_requests = 0;
  Bytes consumer_ssd_written = Bytes::zero();
  Duration consume_done = Duration::zero();
  bool staged = false;
};

CancelCase run_cancel_case(bool hedge) {
  TestbedParams tp;
  tp.compute_nodes = 2;
  tp.dyad.retry.enabled = true;
  tp.dyad.health.enabled = true;
  tp.dyad.health.hedge.enabled = hedge;

  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb.node(0).dyad, prec);
  DyadConsumer consumer(*tb.node(1).dyad, crec);
  sim.spawn([](DyadProducer& p) -> Task<void> {
    co_await p.produce("pair0/frame0", Bytes::kib(644));
  }(producer));
  Duration consume_done = Duration::zero();
  sim.spawn([](sim::Simulation& s, DyadConsumer& c,
               Duration& done) -> Task<void> {
    co_await s.delay(50_ms);  // well past the put and its write-through
    co_await c.consume("pair0/frame0", Bytes::kib(644));
    done = s.now() - TimePoint::origin();
  }(sim, consumer, consume_done));
  sim.run_to_quiescence();

  const auto& hs = tb.node(1).dyad->health_state();
  CancelCase out;
  out.hedges = hs.hedges;
  out.hedge_wins = hs.hedge_wins;
  out.hedge_cancels = hs.hedge_cancels;
  out.mds_requests = tb.lustre().mds_requests();
  out.consumer_ssd_written = tb.node(1).ssd->bytes_written();
  out.consume_done = consume_done;
  out.staged = tb.node(1).local_fs->exists("dyad_cache/pair0/frame0");
  return out;
}

TEST(DyadHedgeTest, LosingHedgeIsCancelledWithoutExtraRpcs) {
  const CancelCase off = run_cancel_case(false);
  const CancelCase on = run_cancel_case(true);

  // A healthy primary answers inside the hedge delay, so the speculative
  // duplicate stands down before it launches: no replica RPC is ever
  // issued, and no bytes are double-charged anywhere.
  EXPECT_EQ(on.hedge_cancels, 1u);
  EXPECT_EQ(on.hedges, 0u);
  EXPECT_EQ(on.hedge_wins, 0u);
  EXPECT_EQ(on.mds_requests, off.mds_requests);
  EXPECT_EQ(on.consumer_ssd_written, off.consumer_ssd_written);
  // The consumer sees bit-identical timing with or without the hedge (only
  // the stood-down branch's last poll sleep outlives the fetch).
  EXPECT_EQ(on.consume_done, off.consume_done);
  // The frame arrived over the normal DYAD path and was staged locally.
  EXPECT_TRUE(on.staged);
  EXPECT_TRUE(off.staged);
}

TEST(DyadHedgeTest, WinningHedgeConsumesReplicaWithoutStaging) {
  TestbedParams tp;
  tp.compute_nodes = 2;
  tp.dyad.retry.enabled = true;
  tp.dyad.health.enabled = true;
  tp.dyad.health.hedge.enabled = true;
  tp.dyad.health.hedge.initial_delay = 2_ms;
  // KVS broker 100x slow for the whole test: the primary's lookup crawls
  // while the producer's write-through lands on a healthy Lustre.
  tp.faults.windows.push_back(fault::FaultWindow{
      fault::FaultTarget::kOverloadedServer, 0, fault::FaultMode::kFailSlow,
      TimePoint::origin(), Duration::seconds_i(30), 0.99});

  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb.node(0).dyad, prec);
  DyadConsumer consumer(*tb.node(1).dyad, crec);
  sim.spawn([](DyadProducer& p) -> Task<void> {
    co_await p.produce("pair0/frame0", Bytes::kib(644));
  }(producer));
  sim.spawn([](sim::Simulation& s, DyadConsumer& c) -> Task<void> {
    co_await s.delay(1_ms);
    co_await c.consume("pair0/frame0", Bytes::kib(644));
  }(sim, consumer));
  sim.run_to_quiescence();

  const auto& hs = tb.node(1).dyad->health_state();
  EXPECT_EQ(hs.hedges, 1u);
  EXPECT_EQ(hs.hedge_wins, 1u);
  // The frame was consumed straight from the Lustre stream: no staging copy
  // on the consumer node, no remote read served by the producer — the bytes
  // moved exactly once.
  EXPECT_FALSE(tb.node(1).local_fs->exists("dyad_cache/pair0/frame0"));
  EXPECT_EQ(tb.node(1).ssd->bytes_written(), Bytes::zero());
}

TEST(DyadHedgeTest, HedgedOverloadRunsAreSeedDeterministic) {
  workflow::EnsembleConfig cfg = base_ensemble_config();
  cfg.testbed.dyad.retry.enabled = true;
  cfg.testbed.dyad.health.enabled = true;
  cfg.testbed.dyad.health.hedge.enabled = true;
  cfg.testbed.faults =
      fault::make_scenario("overload", {.compute_nodes = cfg.nodes});
  const auto a = workflow::run_ensemble(cfg);
  const auto b = workflow::run_ensemble(cfg);
  EXPECT_EQ(a.makespan_s.mean(), b.makespan_s.mean());
  EXPECT_EQ(a.cons_fetch_us.quantile(0.99), b.cons_fetch_us.quantile(0.99));
  EXPECT_EQ(a.counters.get("dyad_hedges"), b.counters.get("dyad_hedges"));
  EXPECT_EQ(a.counters.get("dyad_hedge_wins"), b.counters.get("dyad_hedge_wins"));
  EXPECT_EQ(a.counters.get("dyad_breaker_trips"), b.counters.get("dyad_breaker_trips"));
  EXPECT_EQ(a.counters.get("frames_consumed"), b.counters.get("frames_consumed"));
  EXPECT_EQ(a.counters.get("integrity_unrecovered"), 0u);
}

}  // namespace
}  // namespace mdwf::health
