// PR-6 streaming data plane tests: the pub/sub staging path (direct put
// into the subscriber's buffer), the KVS subscription handshake cold
// start, credit back-pressure and the spill overflow, duplicate-delivery
// dedup, power-loss semantics, the config binding (fail-fast unknown keys
// with suggestions, solution=stream), the connector factory across all
// four named solutions, the cross-thread determinism contract, and the
// acceptance gate: every named fault scenario completes with zero data
// loss under solution=stream.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mdwf/common/keyval.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/stream/stream.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/connector.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "mdwf/workflow/testbed.hpp"

namespace mdwf::stream {
namespace {

using namespace mdwf::literals;
using sim::Task;
using workflow::EnsembleConfig;
using workflow::Solution;
using workflow::Testbed;
using workflow::TestbedParams;

TestbedParams two_node_params() {
  TestbedParams p;
  p.compute_nodes = 2;
  return p;
}

TEST(StreamTest, PathPrefixAndHandshakeKeys) {
  EXPECT_EQ(path_prefix("pair0007/frame00012"), "pair0007/");
  // A co-tenant path keys on its pair's directory, not the tenant's.
  EXPECT_EQ(path_prefix("a/pair0007/frame00012"), "a/pair0007/");
  EXPECT_EQ(path_prefix("flat"), "flat");
  EXPECT_EQ(sub_key("pair0/"), "stream.sub/pair0/");
  EXPECT_EQ(pub_key("pair0/"), "stream.pub/pair0/");
}

TEST(StreamTest, DirectPutIsStagedHitWithNoSpill) {
  Testbed tb(two_node_params());
  auto& sim = tb.simulation();
  // Static route, as the ensemble wires it: consumer on node 1.
  tb.stream_domain().subscribe("pair0/", net::NodeId{1});
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  sim.spawn([](Testbed& t, perf::Recorder& pr, perf::Recorder& cr)
                -> Task<void> {
    StreamPublisher pub(*t.node(0).stream, pr);
    StreamSubscriber sub(*t.node(1).stream, cr);
    co_await pub.publish("pair0/frame0", Bytes::kib(644));
    co_await sub.fetch("pair0/frame0", Bytes::kib(644));
  }(tb, prec, crec));
  sim.run_to_quiescence();
  EXPECT_EQ(tb.node(0).stream->puts(), 1u);
  EXPECT_EQ(tb.node(1).stream->staged_hits(), 1u);
  EXPECT_EQ(tb.node(0).stream->spills(), 0u);
  // Drained: the reservation is released and the dedup set remembers it.
  EXPECT_EQ(tb.node(1).stream->staged_bytes().count(), 0u);
  EXPECT_FALSE(tb.node(1).stream->staged("pair0/frame0"));
}

TEST(StreamTest, ColdStartResolvesSubscriberThroughKvs) {
  // No static route: the subscriber announces its prefix on the KVS and
  // the publisher's bounded handshake finds it.
  Testbed tb(two_node_params());
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    StreamSubscriber sub(*t.node(1).stream, r);
    co_await sub.fetch("pair0/frame0", Bytes::kib(644));
  }(tb, crec));
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    // Give the subscription announcement time to commit and turn visible.
    co_await t.simulation().delay(20_ms);
    StreamPublisher pub(*t.node(0).stream, r);
    co_await pub.publish("pair0/frame0", Bytes::kib(644));
  }(tb, prec));
  sim.run_to_quiescence();
  EXPECT_EQ(tb.node(1).stream->staged_hits(), 1u);
  EXPECT_EQ(tb.node(0).stream->spills(), 0u);
}

TEST(StreamTest, UnresolvedSubscriberSpillsAndConsumerRefetches) {
  // Publisher first (nobody subscribed): the put degrades to the spill
  // replica; the late consumer is satisfied from it transparently.
  Testbed tb(two_node_params());
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  sim.spawn([](Testbed& t, perf::Recorder& pr, perf::Recorder& cr)
                -> Task<void> {
    StreamPublisher pub(*t.node(0).stream, pr);
    co_await pub.publish("pair0/frame0", Bytes::kib(644));
    EXPECT_EQ(t.node(0).stream->spills(), 1u);
    StreamSubscriber sub(*t.node(1).stream, cr);
    co_await sub.fetch("pair0/frame0", Bytes::kib(644));
  }(tb, prec, crec));
  sim.run_to_quiescence();
  EXPECT_EQ(tb.node(1).stream->staged_hits(), 0u);
  EXPECT_EQ(tb.node(1).stream->spill_reads(), 1u);
}

TEST(StreamTest, ExhaustedCreditWindowBackpressuresThenSpills) {
  TestbedParams tp = two_node_params();
  tp.stream.credits = 2;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  tb.stream_domain().subscribe("pair0/", net::NodeId{1});
  perf::Recorder prec(sim, "p");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    StreamPublisher pub(*t.node(0).stream, r);
    // Nobody drains: the third put exhausts the 2-credit window, waits
    // out the bounded back-pressure, and overflows to the spill.
    for (int f = 0; f < 3; ++f) {
      co_await pub.publish("pair0/frame" + std::to_string(f),
                           Bytes::kib(644));
    }
  }(tb, prec));
  sim.run_to_quiescence();
  EXPECT_EQ(tb.node(1).stream->staged_bytes(), Bytes::kib(2 * 644));
  EXPECT_EQ(tb.node(0).stream->credit_waits(), 1u);
  EXPECT_EQ(tb.node(0).stream->backpressure_stalls(), 1u);
  EXPECT_EQ(tb.node(0).stream->spills(), 1u);
}

TEST(StreamTest, FullBufferBackpressuresThenSpills) {
  TestbedParams tp = two_node_params();
  tp.stream.buffer_capacity = Bytes::mib(1);
  Testbed tb(tp);
  auto& sim = tb.simulation();
  tb.stream_domain().subscribe("pair0/", net::NodeId{1});
  perf::Recorder prec(sim, "p");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    StreamPublisher pub(*t.node(0).stream, r);
    // Two 644 KiB frames against a 1 MiB buffer: the second cannot
    // reserve staging space even though a credit is free.
    co_await pub.publish("pair0/frame0", Bytes::kib(644));
    co_await pub.publish("pair0/frame1", Bytes::kib(644));
  }(tb, prec));
  sim.run_to_quiescence();
  EXPECT_EQ(tb.node(1).stream->staged_bytes(), Bytes::kib(644));
  EXPECT_EQ(tb.node(0).stream->spills(), 1u);
  EXPECT_EQ(tb.node(0).stream->backpressure_stalls(), 1u);
}

TEST(StreamTest, DuplicateDeliveryIsDropped) {
  Testbed tb(two_node_params());
  auto& sim = tb.simulation();
  tb.stream_domain().subscribe("pair0/", net::NodeId{1});
  perf::Recorder prec(sim, "p");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    StreamPublisher pub(*t.node(0).stream, r);
    co_await pub.publish("pair0/frame0", Bytes::kib(644));
    // A retransmitted put of the same frame must not double-stage.
    co_await pub.publish("pair0/frame0", Bytes::kib(644));
  }(tb, prec));
  sim.run_to_quiescence();
  EXPECT_EQ(tb.node(1).stream->dup_drops(), 1u);
  EXPECT_EQ(tb.node(1).stream->staged_bytes(), Bytes::kib(644));
}

TEST(StreamTest, PowerLossDropsStagedStateAndCountsIt) {
  Testbed tb(two_node_params());
  auto& sim = tb.simulation();
  tb.stream_domain().subscribe("pair0/", net::NodeId{1});
  perf::Recorder prec(sim, "p");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    StreamPublisher pub(*t.node(0).stream, r);
    co_await pub.publish("pair0/frame0", Bytes::kib(644));
  }(tb, prec));
  sim.run_to_quiescence();
  ASSERT_TRUE(tb.node(1).stream->staged("pair0/frame0"));
  tb.node(1).stream->on_power_loss();
  EXPECT_FALSE(tb.node(1).stream->staged("pair0/frame0"));
  EXPECT_EQ(tb.node(1).stream->staged_bytes().count(), 0u);
  EXPECT_EQ(tb.node(1).stream->crash_drops(), 1u);
}

// --- Config binding ---------------------------------------------------------

TEST(StreamConfigTest, StreamSolutionParsesAndKeepsSplitPlacement) {
  KeyValueConfig cfg;
  cfg.set("solution", "stream");
  cfg.set("pairs", "2");
  EnsembleConfig defaults;
  defaults.nodes = 2;
  const EnsembleConfig c = workflow::parse_ensemble_config(cfg, defaults);
  EXPECT_EQ(c.solution, Solution::kStream);
  EXPECT_EQ(c.nodes, 2u);
}

TEST(StreamConfigTest, UnknownKeyFailsFastWithSuggestion) {
  KeyValueConfig cfg;
  cfg.set("solution", "dyad");
  cfg.set("framse", "8");
  try {
    (void)workflow::parse_ensemble_config(cfg, EnsembleConfig{});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("framse"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("did you mean 'frames'"),
              std::string::npos);
  }
}

TEST(StreamConfigTest, UnknownSolutionNameSuggestsStream) {
  KeyValueConfig cfg;
  cfg.set("solution", "strem");
  try {
    (void)workflow::parse_ensemble_config(cfg, EnsembleConfig{});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'stream'"),
              std::string::npos);
  }
}

TEST(StreamConfigTest, AnalyticsScaleParsesAndRejectsNonPositive) {
  KeyValueConfig cfg;
  cfg.set("solution", "dyad");
  cfg.set("analytics", "2.5");
  const EnsembleConfig c =
      workflow::parse_ensemble_config(cfg, EnsembleConfig{});
  EXPECT_DOUBLE_EQ(c.workload.analytics_scale, 2.5);

  KeyValueConfig bad;
  bad.set("analytics", "0");
  EXPECT_THROW(
      (void)workflow::parse_ensemble_config(bad, EnsembleConfig{}),
      ConfigError);
}

// --- Connector factory & determinism across every named solution ------------

struct SolutionCase {
  Solution solution;
  const char* name;
};

class AllSolutionsTest : public ::testing::TestWithParam<SolutionCase> {};

INSTANTIATE_TEST_SUITE_P(
    Solutions, AllSolutionsTest,
    ::testing::Values(SolutionCase{Solution::kDyad, "dyad"},
                      SolutionCase{Solution::kXfs, "xfs"},
                      SolutionCase{Solution::kLustre, "lustre"},
                      SolutionCase{Solution::kStream, "stream"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(AllSolutionsTest, FactoryBuildsWorkingConnectorPair) {
  const SolutionCase sc = GetParam();
  TestbedParams tp;
  tp.compute_nodes = sc.solution == Solution::kXfs ? 1u : 2u;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  const std::uint32_t cnode = tp.compute_nodes - 1;
  if (sc.solution == Solution::kStream) {
    tb.stream_domain().subscribe("pair0/", net::NodeId{cnode});
  }
  workflow::ExplicitSync sync(sim);
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  auto producer = workflow::make_connector(
      {.testbed = &tb, .solution = sc.solution, .node = 0, .sync = &sync,
       .recorder = &prec});
  auto consumer = workflow::make_connector(
      {.testbed = &tb, .solution = sc.solution, .node = cnode, .sync = &sync,
       .recorder = &crec});
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(consumer, nullptr);
  bool consumed = false;
  sim.spawn([](workflow::Connector& p, workflow::Connector& c,
               bool& done) -> Task<void> {
    co_await p.put("pair0/frame0", Bytes::kib(644), 0);
    co_await c.get("pair0/frame0", Bytes::kib(644), 0);
    c.acknowledge(0);
    // Manual-sync solutions block here until the consumer acknowledged;
    // DYAD and stream return immediately.
    co_await p.producer_sync(0);
    done = true;
  }(*producer, *consumer, consumed));
  sim.run_to_quiescence();
  EXPECT_TRUE(consumed) << workflow::to_string(sc.solution);
}

TEST_P(AllSolutionsTest, MergedEnsembleOutputByteIdenticalAcrossThreads) {
  const SolutionCase sc = GetParam();
  for (const std::uint64_t seed : {7ull, 1234ull}) {
    // Tiny 2-rank ensemble (one producer/consumer pair).
    EnsembleConfig c;
    c.solution = sc.solution;
    c.pairs = 1;
    c.nodes = sc.solution == Solution::kXfs ? 1 : 2;
    c.workload.frames = 6;
    c.repetitions = 3;
    c.base_seed = seed;
    const sweep::SweepResult one =
        sweep::run_sweep({{sc.name, c}, {std::string(sc.name) + "2", c}}, 1);
    const sweep::SweepResult four =
        sweep::run_sweep({{sc.name, c}, {std::string(sc.name) + "2", c}}, 4);
    EXPECT_EQ(one.to_csv(), four.to_csv())
        << sc.name << " seed " << seed;
  }
}

// --- Acceptance: every named fault scenario, zero data loss -----------------

class StreamFaultScenarioTest : public ::testing::TestWithParam<const char*> {
};

INSTANTIATE_TEST_SUITE_P(Scenarios, StreamFaultScenarioTest,
                         ::testing::Values("node-crash", "rank-kill",
                                           "bit-flip", "slow-disk",
                                           "lossy-link", "overload"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST_P(StreamFaultScenarioTest, CompletesWithZeroDataLoss) {
  // Built through the shared config binding, exactly as mdwf_run would:
  // faults= arms retries, integrity, and checkpointing per the cross-key
  // rules (and durable spill-before-stage when crash windows are planned).
  KeyValueConfig cfg;
  cfg.set("solution", "stream");
  cfg.set("pairs", "2");
  cfg.set("frames", "8");
  cfg.set("reps", "2");
  cfg.set("faults", GetParam());
  EnsembleConfig defaults;
  defaults.nodes = 2;
  const EnsembleConfig c = workflow::parse_ensemble_config(cfg, defaults);
  const workflow::EnsembleResult r = workflow::run_ensemble(c);
  EXPECT_EQ(r.counters.get("frames_consumed"), 2u * 8u * 2u) << GetParam();
  EXPECT_EQ(r.counters.get("integrity_unrecovered"), 0u) << GetParam();
  // And deterministically: the parallel runner merges to the same bytes.
  const sweep::SweepResult one = sweep::run_sweep({{GetParam(), c}}, 1);
  const sweep::SweepResult four = sweep::run_sweep({{GetParam(), c}}, 4);
  EXPECT_EQ(one.to_csv(), four.to_csv()) << GetParam();
}

}  // namespace
}  // namespace mdwf::stream
