// Unit and property tests for the fair-share channel and network model.
#include <gtest/gtest.h>

#include <vector>

#include "mdwf/common/time.hpp"
#include "mdwf/net/fair_share.hpp"
#include "mdwf/net/network.hpp"
#include "mdwf/sim/primitives.hpp"

namespace mdwf::net {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

TEST(FairShareTest, SingleFlowTakesBytesOverBandwidth) {
  Simulation sim;
  FairShareChannel ch(sim, 1e9);  // 1 GB/s
  TimePoint done;
  sim.spawn([](Simulation& s, FairShareChannel& c, TimePoint& t) -> Task<void> {
    co_await c.transfer(Bytes(500'000'000));
    t = s.now();
  }(sim, ch, done));
  sim.run_to_quiescence();
  EXPECT_EQ(done, TimePoint::origin() + 500_ms);
}

TEST(FairShareTest, TwoEqualFlowsHalveThroughput) {
  Simulation sim;
  FairShareChannel ch(sim, 1e9);
  std::vector<TimePoint> done(2);
  for (int i = 0; i < 2; ++i) {
    sim.spawn(
        [](Simulation& s, FairShareChannel& c, TimePoint& t) -> Task<void> {
          co_await c.transfer(Bytes(100'000'000));
          t = s.now();
        }(sim, ch, done[i]));
  }
  sim.run_to_quiescence();
  // Both 100 MB flows share 1 GB/s -> each effectively 0.5 GB/s -> 200 ms.
  EXPECT_EQ(done[0], TimePoint::origin() + 200_ms);
  EXPECT_EQ(done[1], TimePoint::origin() + 200_ms);
}

TEST(FairShareTest, LateArrivalSlowsExistingFlow) {
  Simulation sim;
  FairShareChannel ch(sim, 1e9);
  TimePoint first_done, second_done;
  sim.spawn([](Simulation& s, FairShareChannel& c, TimePoint& t) -> Task<void> {
    co_await c.transfer(Bytes(100'000'000));
    t = s.now();
  }(sim, ch, first_done));
  sim.spawn([](Simulation& s, FairShareChannel& c, TimePoint& t) -> Task<void> {
    co_await s.delay(50_ms);
    co_await c.transfer(Bytes(100'000'000));
    t = s.now();
  }(sim, ch, second_done));
  sim.run_to_quiescence();
  // Flow A: 50 MB alone in 50 ms; then shares. A has 50 MB left at 0.5 GB/s
  // -> 100 ms more, done at 150 ms.  B then finishes its remaining 50 MB
  // alone at full speed: 150 ms + 50 ms = 200 ms.
  EXPECT_EQ(first_done, TimePoint::origin() + 150_ms);
  EXPECT_EQ(second_done, TimePoint::origin() + 200_ms);
}

TEST(FairShareTest, ZeroByteTransferIsImmediate) {
  Simulation sim;
  FairShareChannel ch(sim, 1e9);
  TimePoint done;
  sim.spawn([](Simulation& s, FairShareChannel& c, TimePoint& t) -> Task<void> {
    co_await c.transfer(Bytes::zero());
    t = s.now();
  }(sim, ch, done));
  sim.run_to_quiescence();
  EXPECT_EQ(done, TimePoint::origin());
}

TEST(FairShareTest, BackgroundLoadReducesRate) {
  Simulation sim;
  FairShareChannel ch(sim, 1e9);
  ch.set_background_load(0.5);
  TimePoint done;
  sim.spawn([](Simulation& s, FairShareChannel& c, TimePoint& t) -> Task<void> {
    co_await c.transfer(Bytes(100'000'000));
    t = s.now();
  }(sim, ch, done));
  sim.run_to_quiescence();
  EXPECT_EQ(done, TimePoint::origin() + 200_ms);
}

TEST(FairShareTest, ConservationAcrossManyFlows) {
  Simulation sim;
  FairShareChannel ch(sim, 2.5e9);
  const int kFlows = 37;
  const Bytes each(7'777'777);
  std::vector<Task<void>> tasks;
  for (int i = 0; i < kFlows; ++i) {
    tasks.push_back([](Simulation& s, FairShareChannel& c, int id) -> Task<void> {
      co_await s.delay(Duration::microseconds(id * 137));
      co_await c.transfer(Bytes(7'777'777));
    }(sim, ch, i));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(ch.total_requested(), each * kFlows);
  EXPECT_EQ(ch.total_completed(), each * kFlows);
  EXPECT_EQ(ch.active_flows(), 0u);
  // Aggregate throughput cannot beat capacity: elapsed >= total/capacity.
  const double min_secs =
      static_cast<double>((each * kFlows).count()) / 2.5e9;
  EXPECT_GE(sim.now().to_seconds(), min_secs - 1e-9);
}

// Property sweep: total time for N simultaneous equal flows equals N*size/C
// regardless of N (processor sharing preserves work).
class FairShareSweep : public ::testing::TestWithParam<int> {};

TEST_P(FairShareSweep, WorkConservation) {
  const int n = GetParam();
  Simulation sim;
  FairShareChannel ch(sim, 1e9);
  std::vector<Task<void>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back([](FairShareChannel& c) -> Task<void> {
      co_await c.transfer(Bytes(10'000'000));
    }(ch));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  const double expected = n * 10'000'000.0 / 1e9;
  EXPECT_NEAR(sim.now().to_seconds(), expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Flows, FairShareSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

TEST(NetworkTest, TransferPaysLatencyPlusBandwidth) {
  Simulation sim;
  NetworkParams p;
  p.nic_bandwidth_bps = 1e9;
  p.latency = 10_us;
  Network net(sim, p, 2);
  TimePoint done;
  sim.spawn([](Simulation& s, Network& n, TimePoint& t) -> Task<void> {
    co_await n.transfer(NodeId{0}, NodeId{1}, Bytes(1'000'000));
    t = s.now();
  }(sim, net, done));
  sim.run_to_quiescence();
  EXPECT_EQ(done, TimePoint::origin() + 10_us + 1_ms);
}

TEST(NetworkTest, IntraNodeTransferIsFree) {
  Simulation sim;
  Network net(sim, NetworkParams{}, 2);
  TimePoint done;
  sim.spawn([](Simulation& s, Network& n, TimePoint& t) -> Task<void> {
    co_await n.transfer(NodeId{1}, NodeId{1}, Bytes(1'000'000'000));
    t = s.now();
  }(sim, net, done));
  sim.run_to_quiescence();
  EXPECT_EQ(done, TimePoint::origin());
}

TEST(NetworkTest, ManySendersShareReceiverNic) {
  Simulation sim;
  NetworkParams p;
  p.nic_bandwidth_bps = 1e9;
  p.latency = Duration::zero();
  Network net(sim, p, 5);
  // Nodes 1..4 each send 100 MB to node 0 simultaneously: the rx channel of
  // node 0 is the bottleneck -> 400 MB / 1 GB/s = 400 ms.
  std::vector<Task<void>> tasks;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    tasks.push_back([](Network& n, std::uint32_t src) -> Task<void> {
      co_await n.transfer(NodeId{src}, NodeId{0}, Bytes(100'000'000));
    }(net, i));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_NEAR(sim.now().to_seconds(), 0.4, 1e-6);
}

TEST(NetworkTest, BisectionCapsAggregate) {
  Simulation sim;
  NetworkParams p;
  p.nic_bandwidth_bps = 1e9;
  p.bisection_bandwidth_bps = 1e9;  // constrained core
  p.latency = Duration::zero();
  Network net(sim, p, 4);
  // Two disjoint pairs could do 2 GB/s on NICs alone, but the core caps the
  // aggregate at 1 GB/s: 2 x 100 MB takes 200 ms.
  std::vector<Task<void>> tasks;
  tasks.push_back([](Network& n) -> Task<void> {
    co_await n.transfer(NodeId{0}, NodeId{1}, Bytes(100'000'000));
  }(net));
  tasks.push_back([](Network& n) -> Task<void> {
    co_await n.transfer(NodeId{2}, NodeId{3}, Bytes(100'000'000));
  }(net));
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_NEAR(sim.now().to_seconds(), 0.2, 1e-6);
}

TEST(NetworkTest, DefaultParamsMatchCoronaScale) {
  // Keep the reference configuration honest: IB QDR ~3.2 GB/s.
  NetworkParams p;
  EXPECT_NEAR(p.nic_bandwidth_bps / kGiB, 2.98, 0.05);
  EXPECT_EQ(p.latency, Duration::nanoseconds(1500));
}

}  // namespace
}  // namespace mdwf::net
