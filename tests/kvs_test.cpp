// Unit tests for the Flux-style KVS model.
#include <gtest/gtest.h>

#include "mdwf/common/time.hpp"
#include "mdwf/kvs/kvs.hpp"
#include "mdwf/sim/primitives.hpp"

namespace mdwf::kvs {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

struct KvsFixture {
  Simulation sim;
  net::Network network;
  KvsServer server;

  static net::NetworkParams net_params() {
    net::NetworkParams p;
    p.latency = 2_us;
    p.control_message_size = Bytes(256);
    return p;
  }
  static KvsParams kvs_params() {
    KvsParams p;
    p.commit_service = 300_us;
    p.lookup_service = 250_us;
    p.visibility_delay = 2_ms;
    return p;
  }
  // Nodes 0,1 = clients, 2 = broker.
  KvsFixture() : network(sim, net_params(), 3),
                 server(sim, kvs_params(), network, net::NodeId{2}) {}
};

TEST(KvsTest, CommitThenLookupAfterVisibilityDelay) {
  KvsFixture f;
  f.sim.spawn([](KvsFixture& fx) -> Task<void> {
    KvsClient writer(fx.sim, fx.server, net::NodeId{0});
    KvsClient reader(fx.sim, fx.server, net::NodeId{1});
    co_await writer.commit("dyad/pair0/frame0", "0:659624");
    // Immediately after commit the value is not yet visible.
    auto miss = co_await reader.lookup("dyad/pair0/frame0");
    EXPECT_FALSE(miss.has_value());
    co_await fx.sim.delay(3_ms);
    auto hit = co_await reader.lookup("dyad/pair0/frame0");
    EXPECT_TRUE(hit.has_value());
    if (hit.has_value()) {
      EXPECT_EQ(hit->data, "0:659624");
      EXPECT_EQ(hit->version, 1u);
    }
  }(f));
  f.sim.run_to_quiescence();
}

TEST(KvsTest, LookupOfAbsentKeyIsEmpty) {
  KvsFixture f;
  f.sim.spawn([](KvsFixture& fx) -> Task<void> {
    KvsClient c(fx.sim, fx.server, net::NodeId{0});
    auto v = co_await c.lookup("nope");
    EXPECT_FALSE(v.has_value());
  }(f));
  f.sim.run_to_quiescence();
}

TEST(KvsTest, WaitForBlocksUntilVisible) {
  KvsFixture f;
  TimePoint got_at;
  Duration idle;
  f.sim.spawn([](KvsFixture& fx, TimePoint& t, Duration& idle_out) -> Task<void> {
    // DYAD's consumer pattern: look up, watch while absent, look up again.
    KvsClient reader(fx.sim, fx.server, net::NodeId{1});
    EXPECT_FALSE((co_await reader.lookup("k")).has_value());
    const TimePoint blocked_at = fx.sim.now();
    co_await reader.watch_until_visible("k");
    idle_out = fx.sim.now() - blocked_at;
    const auto v = co_await reader.lookup("k");
    EXPECT_TRUE(v.has_value());
    EXPECT_EQ(v.value_or(KvsValue{}).data, "v");
    t = fx.sim.now();
  }(f, got_at, idle));
  f.sim.spawn([](KvsFixture& fx) -> Task<void> {
    KvsClient writer(fx.sim, fx.server, net::NodeId{0});
    co_await fx.sim.delay(50_ms);
    co_await writer.commit("k", "v");
  }(f));
  f.sim.run_to_quiescence();
  // Reader wakes at commit time + visibility delay, then pays one more
  // lookup round-trip.
  EXPECT_GT(got_at, TimePoint::origin() + 52_ms);
  EXPECT_LT(got_at, TimePoint::origin() + 54_ms);
  EXPECT_GT(idle, 49_ms);
}

TEST(KvsTest, WatchAfterCommitButBeforeVisibilityWakesAtVisibility) {
  KvsFixture f;
  TimePoint woke_at;
  TimePoint commit_done;
  f.sim.spawn([](KvsFixture& fx, TimePoint& c, TimePoint& w) -> Task<void> {
    KvsClient writer(fx.sim, fx.server, net::NodeId{0});
    co_await writer.commit("k", "v");
    c = fx.sim.now();
    KvsClient reader(fx.sim, fx.server, net::NodeId{1});
    co_await reader.watch_until_visible("k");
    w = fx.sim.now();
  }(f, commit_done, woke_at));
  f.sim.run_to_quiescence();
  // Visibility is measured from when the broker applied the commit, which is
  // one reply-latency before commit() returned; allow that slack.
  EXPECT_GE(woke_at, commit_done + 1900_us);
  EXPECT_LE(woke_at, commit_done + 2_ms);
}

TEST(KvsTest, WatchOnVisibleKeyReturnsImmediately) {
  KvsFixture f;
  f.sim.spawn([](KvsFixture& fx) -> Task<void> {
    KvsClient c(fx.sim, fx.server, net::NodeId{0});
    co_await c.commit("k", "v");
    co_await fx.sim.delay(5_ms);
    const TimePoint t0 = fx.sim.now();
    co_await c.watch_until_visible("k");
    EXPECT_EQ(fx.sim.now(), t0);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(KvsTest, MultipleWatchersAllWake) {
  KvsFixture f;
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    f.sim.spawn([](KvsFixture& fx, int& w) -> Task<void> {
      KvsClient c(fx.sim, fx.server, net::NodeId{1});
      co_await c.watch_until_visible("shared");
      ++w;
    }(f, woken));
  }
  f.sim.spawn([](KvsFixture& fx) -> Task<void> {
    KvsClient c(fx.sim, fx.server, net::NodeId{0});
    co_await fx.sim.delay(1_ms);
    co_await c.commit("shared", "x");
  }(f));
  f.sim.run_to_quiescence();
  EXPECT_EQ(woken, 3);
}

TEST(KvsTest, VersionsIncrementOnRecommit) {
  KvsFixture f;
  f.sim.spawn([](KvsFixture& fx) -> Task<void> {
    KvsClient c(fx.sim, fx.server, net::NodeId{0});
    co_await c.commit("k", "v1");
    co_await c.commit("k", "v2");
    co_await fx.sim.delay(5_ms);
    const auto v = co_await c.lookup("k");
    EXPECT_TRUE(v.has_value());
    if (v.has_value()) {
      EXPECT_EQ(v->data, "v2");
      EXPECT_EQ(v->version, 2u);
    }
  }(f));
  f.sim.run_to_quiescence();
}

TEST(KvsTest, ServerConcurrencyQueuesRequests) {
  Simulation sim;
  net::NetworkParams np;
  np.latency = Duration::zero();
  np.control_message_size = Bytes(0);
  net::Network network(sim, np, 3);
  KvsParams kp;
  kp.server_concurrency = 1;
  kp.lookup_service = 1_ms;
  KvsServer server(sim, kp, network, net::NodeId{2});
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([](Simulation& s, KvsServer& sv) -> Task<void> {
      KvsClient c(s, sv, net::NodeId{0});
      (void)co_await c.lookup("x");
    }(sim, server));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(sim.now(), TimePoint::origin() + 4_ms);
  EXPECT_EQ(server.lookups(), 4u);
}

TEST(KvsTest, CountersTrackOperations) {
  KvsFixture f;
  f.sim.spawn([](KvsFixture& fx) -> Task<void> {
    KvsClient c(fx.sim, fx.server, net::NodeId{0});
    co_await c.commit("a", "1");
    co_await c.commit("b", "2");
    (void)co_await c.lookup("a");
    co_await fx.sim.delay(5_ms);
    EXPECT_EQ(fx.server.visible_entries(), 2u);
  }(f));
  f.sim.run_to_quiescence();
  EXPECT_EQ(f.server.commits(), 2u);
  EXPECT_EQ(f.server.lookups(), 1u);
}

}  // namespace
}  // namespace mdwf::kvs
