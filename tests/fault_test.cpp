// Tests for the mdwf::fault subsystem: deterministic fault plans, the
// injector's resource hooks, and DYAD's retry/failover recovery protocol.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "mdwf/common/time.hpp"
#include "mdwf/dyad/dyad.hpp"
#include "mdwf/fault/injector.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/kvs/kvs.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/storage/block_device.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "mdwf/workflow/testbed.hpp"

namespace mdwf::fault {
namespace {

using namespace mdwf::literals;
using dyad::DyadConsumer;
using dyad::DyadProducer;
using sim::Task;
using workflow::Testbed;
using workflow::TestbedParams;

FaultWindow window(FaultTarget target, std::uint32_t index, FaultMode mode,
                   TimePoint start, Duration duration, double severity) {
  return FaultWindow{target, index, mode, start, duration, severity};
}

// --- Plans and scenarios ----------------------------------------------------

TEST(FaultPlanTest, HorizonIsLatestWindowEnd) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.horizon(), TimePoint::origin());
  plan.windows.push_back(window(FaultTarget::kKvsBroker, 0, FaultMode::kStall,
                                TimePoint::origin() + 10_ms, 30_ms, 1.0));
  plan.windows.push_back(window(FaultTarget::kNodeSsd, 1, FaultMode::kDegrade,
                                TimePoint::origin() + 5_ms, 100_ms, 0.5));
  EXPECT_EQ(plan.horizon(), TimePoint::origin() + 105_ms);
}

TEST(FaultPlanTest, FaultClockIsDeterministic) {
  FaultProcess process;
  process.target = FaultTarget::kLustreOst;
  process.target_pool = 8;
  process.mean_interarrival = 50_ms;
  const TimePoint from = TimePoint::origin();
  const TimePoint horizon = TimePoint::origin() + 2_s;

  FaultPlan a, b, c;
  FaultClock(Rng(7)).materialize(process, from, horizon, a);
  FaultClock(Rng(7)).materialize(process, from, horizon, b);
  FaultClock(Rng(8)).materialize(process, from, horizon, c);

  ASSERT_FALSE(a.windows.empty());
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].index, b.windows[i].index);
    EXPECT_EQ(a.windows[i].start, b.windows[i].start);
    EXPECT_EQ(a.windows[i].duration, b.windows[i].duration);
    EXPECT_EQ(a.windows[i].severity, b.windows[i].severity);
  }
  // A different seed produces a different episode sequence.
  bool differs = a.windows.size() != c.windows.size();
  for (std::size_t i = 0; !differs && i < a.windows.size(); ++i) {
    differs = a.windows[i].start != c.windows[i].start;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, EveryNamedScenarioBuilds) {
  ScenarioShape shape;
  shape.compute_nodes = 4;
  for (const auto& name : scenario_names()) {
    const FaultPlan plan = make_scenario(name, shape);
    if (name == "none") {
      EXPECT_TRUE(plan.empty());
    } else {
      EXPECT_FALSE(plan.empty()) << name;
    }
  }
  EXPECT_THROW(make_scenario("cosmic-rays", shape), std::invalid_argument);

  const FaultPlan outage = make_scenario("broker-outage", shape);
  ASSERT_EQ(outage.windows.size(), 1u);
  EXPECT_EQ(outage.windows[0].target, FaultTarget::kKvsBroker);
  EXPECT_EQ(outage.windows[0].mode, FaultMode::kOutage);
}

// --- Injector: block devices ------------------------------------------------

TEST(FaultInjectorTest, DegradedDeviceSlowsDown) {
  auto timed_write = [](double severity) {
    sim::Simulation sim;
    storage::BlockDevice dev(sim, {});
    FaultPlan plan;
    if (severity > 0.0) {
      plan.windows.push_back(window(FaultTarget::kNodeSsd, 0,
                                    FaultMode::kDegrade, TimePoint::origin(),
                                    10_s, severity));
    }
    FaultInjector inj(sim, plan);
    inj.attach_node_ssd(0, dev);
    inj.arm();
    Duration took;
    sim.spawn([](sim::Simulation& s, storage::BlockDevice& d,
                 Duration& out) -> Task<void> {
      co_await s.delay(1_ms);  // after the window begins
      const TimePoint t0 = s.now();
      co_await d.write(Bytes::mib(64));
      out = s.now() - t0;
    }(sim, dev, took));
    sim.run_to_quiescence();
    return took;
  };
  const Duration healthy = timed_write(0.0);
  const Duration degraded = timed_write(0.7);
  // 70% capacity loss -> at least 3x slower.
  EXPECT_GT(degraded, healthy * 3);
}

TEST(FaultInjectorTest, OfflineDeviceQueuesOpsUntilWindowEnds) {
  sim::Simulation sim;
  storage::BlockDevice dev(sim, {});
  FaultPlan plan;
  plan.windows.push_back(window(FaultTarget::kNodeSsd, 0, FaultMode::kOffline,
                                TimePoint::origin() + 1_ms, 49_ms, 1.0));
  FaultInjector inj(sim, plan);
  inj.attach_node_ssd(0, dev);
  inj.arm();
  TimePoint done;
  sim.spawn([](sim::Simulation& s, storage::BlockDevice& d,
               TimePoint& out) -> Task<void> {
    co_await s.delay(10_ms);
    EXPECT_TRUE(d.offline());
    co_await d.read(Bytes::kib(4));
    out = s.now();
  }(sim, dev, done));
  sim.run_to_quiescence();
  EXPECT_FALSE(dev.offline());
  EXPECT_GE(done, TimePoint::origin() + 50_ms);
  EXPECT_LT(done, TimePoint::origin() + 51_ms);
}

TEST(FaultInjectorTest, IoErrorWindowFailsOps) {
  sim::Simulation sim;
  storage::BlockDevice dev(sim, {});
  FaultPlan plan;
  plan.seed = 99;
  plan.windows.push_back(window(FaultTarget::kNodeSsd, 0, FaultMode::kIoError,
                                TimePoint::origin(), 10_ms, 1.0));
  FaultInjector inj(sim, plan);
  inj.attach_node_ssd(0, dev);
  inj.arm();
  sim.spawn([](sim::Simulation& s, storage::BlockDevice& d) -> Task<void> {
    co_await s.delay(1_ms);
    bool threw = false;
    try {
      co_await d.read(Bytes::kib(4));
    } catch (const storage::IoError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    // After the window the device is healthy again.
    co_await s.delay(20_ms);
    co_await d.read(Bytes::kib(4));
  }(sim, dev));
  sim.run_to_quiescence();
  EXPECT_EQ(dev.io_errors(), 1u);
  EXPECT_EQ(dev.reads_completed(), 1u);
}

// --- Injector: network ------------------------------------------------------

TEST(FaultInjectorTest, PartitionedLinkFailsFast) {
  sim::Simulation sim;
  net::Network network(sim, {}, 3);
  FaultPlan plan;
  plan.windows.push_back(window(FaultTarget::kNodeLink, 1, FaultMode::kOffline,
                                TimePoint::origin() + 1_ms, 10_ms, 1.0));
  FaultInjector inj(sim, plan);
  inj.attach_network(network);
  inj.arm();
  sim.spawn([](sim::Simulation& s, net::Network& n) -> Task<void> {
    co_await s.delay(2_ms);
    EXPECT_TRUE(n.link_down(net::NodeId{1}));
    bool threw = false;
    try {
      co_await n.transfer(net::NodeId{0}, net::NodeId{1}, Bytes::kib(64));
    } catch (const net::NetError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    // Unaffected links keep working, and the victim recovers.
    co_await n.transfer(net::NodeId{0}, net::NodeId{2}, Bytes::kib(64));
    co_await s.delay(20_ms);
    co_await n.transfer(net::NodeId{0}, net::NodeId{1}, Bytes::kib(64));
  }(sim, network));
  sim.run_to_quiescence();
  EXPECT_FALSE(network.link_down(net::NodeId{1}));
}

TEST(FaultInjectorTest, LinkDegradationSlowsTransfers) {
  auto timed_transfer = [](double severity) {
    sim::Simulation sim;
    net::Network network(sim, {}, 2);
    FaultPlan plan;
    if (severity > 0.0) {
      plan.windows.push_back(window(FaultTarget::kNodeLink, 1,
                                    FaultMode::kDegrade, TimePoint::origin(),
                                    10_s, severity));
    }
    FaultInjector inj(sim, plan);
    inj.attach_network(network);
    inj.arm();
    Duration took;
    sim.spawn([](sim::Simulation& s, net::Network& n,
                 Duration& out) -> Task<void> {
      co_await s.delay(1_ms);
      const TimePoint t0 = s.now();
      co_await n.transfer(net::NodeId{0}, net::NodeId{1}, Bytes::mib(256));
      out = s.now() - t0;
    }(sim, network, took));
    sim.run_to_quiescence();
    return took;
  };
  EXPECT_GT(timed_transfer(0.5), timed_transfer(0.0) * 1.8);
}

// --- Injector: KVS broker ---------------------------------------------------

TEST(FaultInjectorTest, BrokerStallDefersService) {
  sim::Simulation sim;
  net::Network network(sim, {}, 2);
  kvs::KvsServer server(sim, {}, network, net::NodeId{1});
  kvs::KvsClient client(sim, server, net::NodeId{0});
  FaultPlan plan;
  plan.windows.push_back(window(FaultTarget::kKvsBroker, 0, FaultMode::kStall,
                                TimePoint::origin() + 1_ms, 19_ms, 1.0));
  FaultInjector inj(sim, plan);
  inj.attach_kvs(server);
  inj.arm();
  TimePoint done;
  sim.spawn([](sim::Simulation& s, kvs::KvsClient& c,
               TimePoint& out) -> Task<void> {
    co_await s.delay(5_ms);
    co_await c.lookup("key");
    out = s.now();
  }(sim, client, done));
  sim.run_to_quiescence();
  // The lookup arrived mid-stall and was serviced only after the window.
  EXPECT_GE(done, TimePoint::origin() + 20_ms);
  EXPECT_LT(done, TimePoint::origin() + 21_ms);
}

TEST(FaultInjectorTest, BrokerOutageLosesPendingCommitsAndNotifies) {
  sim::Simulation sim;
  net::Network network(sim, {}, 2);
  kvs::KvsParams kp;
  kp.visibility_delay = 50_ms;
  kvs::KvsServer server(sim, kp, network, net::NodeId{1});
  kvs::KvsClient client(sim, server, net::NodeId{0});
  std::vector<std::string> reported;
  server.add_recovery_listener(
      [&reported](const std::vector<std::string>& lost) { reported = lost; });
  FaultPlan plan;
  plan.windows.push_back(window(FaultTarget::kKvsBroker, 0, FaultMode::kOutage,
                                TimePoint::origin() + 10_ms, 40_ms, 1.0));
  FaultInjector inj(sim, plan);
  inj.attach_kvs(server);
  inj.arm();
  sim.spawn([](kvs::KvsClient& c) -> Task<void> {
    // Applied at ~t0, visible at ~50 ms: the 10 ms outage wipes it.
    co_await c.commit("doomed", "v");
  }(client));
  sim.spawn([](sim::Simulation& s, kvs::KvsClient& c) -> Task<void> {
    co_await s.delay(200_ms);
    const auto found = co_await c.lookup("doomed");
    EXPECT_FALSE(found.has_value());
  }(sim, client));
  sim.run_to_quiescence();
  EXPECT_EQ(server.lost_commits(), 1u);
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0], "doomed");
}

// --- DYAD recovery protocol -------------------------------------------------

// Two-node testbed with a long commit-to-visibility delay and a broker
// outage that swallows the producer's first metadata publish.
TestbedParams outage_params(bool retry_enabled) {
  TestbedParams tp;
  tp.compute_nodes = 2;
  tp.kvs.visibility_delay = 50_ms;
  tp.dyad.retry.enabled = retry_enabled;
  tp.dyad.retry.timeout = 60_ms;
  tp.dyad.retry.max_attempts = 8;
  tp.faults.windows.push_back(window(FaultTarget::kKvsBroker, 0,
                                     FaultMode::kOutage,
                                     TimePoint::origin() + 10_ms, 90_ms, 1.0));
  return tp;
}

TEST(DyadRecoveryTest, RetryCompletesThroughBrokerOutage) {
  Testbed tb(outage_params(true));
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb.node(0).dyad, prec);
  DyadConsumer consumer(*tb.node(1).dyad, crec);
  sim.spawn([](DyadProducer& p) -> Task<void> {
    co_await p.produce("pair0/frame0", Bytes::kib(644));
  }(producer),
            "producer0");
  sim.spawn([](DyadConsumer& c) -> Task<void> {
    co_await c.consume("pair0/frame0", Bytes::kib(644));
  }(consumer),
            "consumer0");
  sim.run_to_quiescence();

  // The first publish was lost to the outage; the producer re-published on
  // recovery and the consumer got the data after bounded retries.
  EXPECT_EQ(tb.kvs().lost_commits(), 1u);
  EXPECT_EQ(tb.node(0).dyad->republishes(), 1u);
  EXPECT_GE(consumer.recovery_retries(), 1u);
  EXPECT_EQ(consumer.failovers(), 0u);
  // Recovery shows up in the call tree as dyad_retry backoff under fetch.
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_fetch/dyad_retry"), nullptr);
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_get_data"), nullptr);
}

TEST(DyadRecoveryTest, WithoutRetryBrokerOutageDeadlocksConsumer) {
  auto tb = std::make_unique<Testbed>(outage_params(false));
  auto& sim = tb->simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb->node(0).dyad, prec);
  DyadConsumer consumer(*tb->node(1).dyad, crec);
  sim.spawn([](DyadProducer& p) -> Task<void> {
    co_await p.produce("pair0/frame0", Bytes::kib(644));
  }(producer),
            "producer0");
  sim.spawn([](DyadConsumer& c) -> Task<void> {
    co_await c.consume("pair0/frame0", Bytes::kib(644));
  }(consumer),
            "consumer0");
  // The metadata is gone and nothing will ever re-publish it: the consumer
  // blocks forever on a KVS watch, and the deadlock report names it.
  try {
    sim.run_to_quiescence();
    FAIL() << "expected a deadlock";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 process(es)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("consumer0"), std::string::npos) << msg;
  }
  // Tear the testbed down while the recorders are alive: destroying the
  // simulation unwinds the blocked consumer's still-open regions.
  tb.reset();
}

TEST(DyadRecoveryTest, FailoverReadsLustreWhenOwnerUnreachable) {
  TestbedParams tp;
  tp.compute_nodes = 2;
  tp.dyad.retry.enabled = true;
  tp.dyad.retry.max_attempts = 2;
  // The producer node drops off the fabric after publishing (metadata is
  // visible, the write-through replica is on Lustre) and stays down.
  tp.faults.windows.push_back(window(FaultTarget::kNodeLink, 0,
                                     FaultMode::kOffline,
                                     TimePoint::origin() + 20_ms, 10_s, 1.0));
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb.node(0).dyad, prec);
  DyadConsumer consumer(*tb.node(1).dyad, crec);
  sim.spawn([](DyadProducer& p) -> Task<void> {
    co_await p.produce("pair0/frame0", Bytes::kib(644));
  }(producer));
  sim.spawn([](sim::Simulation& s, DyadConsumer& c) -> Task<void> {
    co_await s.delay(30_ms);  // owner is already unreachable
    co_await c.consume("pair0/frame0", Bytes::kib(644));
  }(sim, consumer));
  sim.run_to_quiescence();

  EXPECT_GE(consumer.recovery_retries(), 2u);
  EXPECT_EQ(consumer.failovers(), 1u);
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_retry"), nullptr);
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_failover_read"), nullptr);
  // The frame never staged locally: it was consumed from the Lustre stream.
  EXPECT_FALSE(tb.node(1).local_fs->exists("dyad_cache/pair0/frame0"));
}

// Ablation switches compose with the recovery protocol.
TEST(DyadRecoveryTest, PushModeSurvivesBrokerOutage) {
  TestbedParams tp = outage_params(true);
  tp.dyad.push_mode = true;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  tb.dyad_domain().subscribe("pair0/", net::NodeId{1});
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb.node(0).dyad, prec);
  DyadConsumer consumer(*tb.node(1).dyad, crec);
  sim.spawn([](DyadProducer& p) -> Task<void> {
    co_await p.produce("pair0/frame0", Bytes::kib(644));
  }(producer));
  sim.spawn([](DyadConsumer& c) -> Task<void> {
    co_await c.consume("pair0/frame0", Bytes::kib(644));
  }(consumer));
  sim.run_to_quiescence();
  // Either the pushed copy arrived first (warm path) or the consumer pulled
  // after the republish; both complete without deadlock.
  EXPECT_EQ(consumer.warm_hits() + consumer.failovers() +
                (crec.tree().find("dyad_consume/dyad_get_data") ? 1u : 0u),
            1u);
  EXPECT_EQ(tb.kvs().lost_commits(), 1u);
}

TEST(DyadRecoveryTest, SkipConsumerStagingSurvivesBrokerOutage) {
  TestbedParams tp = outage_params(true);
  tp.dyad.skip_consumer_staging = true;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb.node(0).dyad, prec);
  DyadConsumer consumer(*tb.node(1).dyad, crec);
  sim.spawn([](DyadProducer& p) -> Task<void> {
    co_await p.produce("pair0/frame0", Bytes::kib(644));
  }(producer));
  sim.spawn([](DyadConsumer& c) -> Task<void> {
    co_await c.consume("pair0/frame0", Bytes::kib(644));
  }(consumer));
  sim.run_to_quiescence();
  EXPECT_GE(consumer.recovery_retries(), 1u);
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_get_data"), nullptr);
  EXPECT_EQ(crec.tree().find("dyad_consume/dyad_cons_store"), nullptr);
  EXPECT_FALSE(tb.node(1).local_fs->exists("dyad_cache/pair0/frame0"));
}

// --- Bit-reproducibility under fault injection ------------------------------

std::pair<std::uint64_t, std::string> run_faulted_workflow() {
  ScenarioShape shape;
  shape.compute_nodes = 2;
  shape.start = TimePoint::origin() + 10_ms;
  TestbedParams tp;
  tp.compute_nodes = 2;
  tp.kvs.visibility_delay = 50_ms;
  tp.dyad.retry.enabled = true;
  tp.faults = make_scenario("broker-outage", shape);
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  DyadProducer producer(*tb.node(0).dyad, prec);
  DyadConsumer consumer(*tb.node(1).dyad, crec);
  sim.spawn([](sim::Simulation& s, DyadProducer& p) -> Task<void> {
    for (std::uint64_t f = 0; f < 4; ++f) {
      co_await p.produce(workflow::frame_path(0, f), Bytes::kib(644));
      co_await s.delay(20_ms);
    }
  }(sim, producer));
  sim.spawn([](DyadConsumer& c) -> Task<void> {
    for (std::uint64_t f = 0; f < 4; ++f) {
      co_await c.consume(workflow::frame_path(0, f), Bytes::kib(644));
    }
  }(consumer));
  const std::uint64_t events = sim.run_to_quiescence();
  return {events, crec.tree().render()};
}

TEST(FaultDeterminismTest, SameSeedSamePlanIsBitIdentical) {
  const auto a = run_faulted_workflow();
  const auto b = run_faulted_workflow();
  EXPECT_EQ(a.first, b.first);    // same event count
  EXPECT_EQ(a.second, b.second);  // identical recorder output
}

}  // namespace
}  // namespace mdwf::fault
