// Cross-module integration tests: whole-stack scenarios through the
// testbed, exercising DYAD + KVS + filesystems + network + measurement
// together, including conservation laws and regression cases.
#include <gtest/gtest.h>

#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::workflow {
namespace {

using namespace mdwf::literals;

EnsembleConfig base(Solution s, std::uint32_t pairs, std::uint32_t nodes,
                    std::uint64_t frames = 16) {
  EnsembleConfig c;
  c.solution = s;
  c.pairs = pairs;
  c.nodes = nodes;
  c.workload.model = md::kJac;
  c.workload.stride = md::kJac.stride;
  c.workload.frames = frames;
  c.repetitions = 1;
  return c;
}

// Byte conservation: every frame a DYAD consumer pulls crosses the fabric
// exactly once (RDMA), and every one a Lustre pair exchanges crosses twice
// (producer flush + consumer read).
TEST(IntegrationTest, DyadMovesEveryFrameAcrossFabricOnce) {
  TestbedParams tp;
  tp.compute_nodes = 2;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  const std::uint64_t frames = 12;
  const Bytes frame = md::kJac.frame_bytes();

  perf::Recorder prec(sim, "p"), crec(sim, "c");
  sim.spawn([](Testbed& t, perf::Recorder& pr, perf::Recorder& cr,
               std::uint64_t n, Bytes fb) -> sim::Task<void> {
    dyad::DyadProducer producer(*t.node(0).dyad, pr);
    dyad::DyadConsumer consumer(*t.node(1).dyad, cr);
    for (std::uint64_t f = 0; f < n; ++f) {
      co_await producer.produce(frame_path(0, f), fb);
      co_await consumer.consume(frame_path(0, f), fb);
    }
  }(tb, prec, crec, frames, frame));
  sim.run_to_quiescence();

  // Node 0 tx carried the payloads (plus control messages).
  const Bytes tx = tb.network().tx(net::NodeId{0}).total_requested();
  EXPECT_GE(tx, frame * frames);
  EXPECT_LE(tx, frame * frames + Bytes::kib(64));
  EXPECT_EQ(tb.node(0).dyad->remote_reads_served(), frames);
  // Every produce committed metadata; every consume looked it up.
  EXPECT_EQ(tb.kvs().commits(), frames);
  EXPECT_GE(tb.kvs().lookups(), frames);
}

TEST(IntegrationTest, LustreMovesEveryByteThroughOsts) {
  auto cfg = base(Solution::kLustre, 2, 2, 8);
  // Count device traffic on a dedicated testbed run.
  TestbedParams tp = cfg.testbed;
  tp.compute_nodes = 2;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  const Bytes frame = md::kJac.frame_bytes();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  ExplicitSync sync(sim);
  LustreConnector prod(sim, tb.lustre(), net::NodeId{0}, sync, prec);
  LustreConnector cons(sim, tb.lustre(), net::NodeId{1}, sync, crec);
  sim.spawn([](Connector& p, Connector& c, Bytes fb) -> sim::Task<void> {
    for (std::uint64_t f = 0; f < 8; ++f) {
      co_await p.put(frame_path(0, f), fb, f);
      co_await c.get(frame_path(0, f), fb, f);
      c.acknowledge(f);
      co_await p.producer_sync(f);
    }
  }(prod, cons, frame));
  sim.run_to_quiescence();

  Bytes written = Bytes::zero(), read = Bytes::zero();
  for (std::uint32_t i = 0; i < tb.lustre().ost_count(); ++i) {
    written += tb.lustre().ost_device(i).bytes_written();
    read += tb.lustre().ost_device(i).bytes_read();
  }
  EXPECT_EQ(written, frame * 8);
  EXPECT_EQ(read, frame * 8);
}

// DYAD pipelines: the producer is never blocked by a slow consumer, so its
// makespan is production-bound while coarse-grained solutions serialize.
TEST(IntegrationTest, DyadMakespanIsProductionBound) {
  const auto dyad = run_ensemble(base(Solution::kDyad, 1, 2));
  const auto lustre = run_ensemble(base(Solution::kLustre, 1, 2));
  const double production_s =
      16 * md::kJac.frame_period_seconds();  // 16 frames at ~0.82 s
  // DYAD: production plus one trailing consumption (plus start stagger of
  // up to one period).
  EXPECT_LT(dyad.makespan_s.mean(), production_s * 1.35);
  // Coarse sync: producer and consumer alternate -> ~2x.
  EXPECT_GT(lustre.makespan_s.mean(), production_s * 1.8);
}

// Regression: on a single node, a consumer opening the file between the
// producer's create() and its first write must block on the flock rather
// than read a partial frame (this was a real TOCTOU in an early version).
TEST(IntegrationTest, WarmPathNeverReadsPartialFrames) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto cfg = base(Solution::kDyad, 4, 1, 8);
    cfg.base_seed = seed;
    // Stress the race window: no stagger, minimal jitter, so producers and
    // consumers collide at frame boundaries.
    cfg.workload.start_stagger = 0.0;
    cfg.workload.step_jitter_sigma = 0.0;
    EXPECT_NO_THROW((void)run_ensemble(cfg)) << "seed " << seed;
  }
}

// The paper's placement rule: with N nodes, producers occupy the first
// N/2 and consumers the rest; node-local filesystems never see a rank from
// the other side.
TEST(IntegrationTest, PlacementSplitsProducersAndConsumers) {
  auto cfg = base(Solution::kDyad, 8, 4, 4);
  const auto r = run_ensemble(cfg);
  // All staged copies live on consumer nodes: warm hits would mean a
  // producer-side consumer existed.
  EXPECT_EQ(r.counters.get("dyad_warm_hits"), 0u);
  EXPECT_EQ(r.thicket.filter("role", "producer").size(), 8u);
}

// End-to-end determinism including the Thicket contents.
TEST(IntegrationTest, FullStackDeterminism) {
  const auto run = [] {
    auto cfg = base(Solution::kDyad, 2, 2, 8);
    cfg.repetitions = 2;
    const auto r = run_ensemble(cfg);
    perf::StatTree agg = r.thicket.aggregate();
    return std::make_tuple(
        r.makespan_s.values(),
        agg.mean_category_us("consume", perf::Category::kMovement),
        agg.mean_category_us("consume", perf::Category::kIdle));
  };
  EXPECT_EQ(run(), run());
}

// Interference only perturbs Lustre-visible components and stays seeded.
TEST(IntegrationTest, InterferenceIsSeededAndLustreOnly) {
  auto cfg = base(Solution::kLustre, 2, 2, 8);
  cfg.lustre_interference = true;
  const auto a = run_ensemble(cfg);
  const auto b = run_ensemble(cfg);
  EXPECT_EQ(a.cons_movement_us.values(), b.cons_movement_us.values());

  auto dyad_cfg = base(Solution::kDyad, 2, 2, 8);
  const auto clean = run_ensemble(dyad_cfg);
  dyad_cfg.lustre_interference = true;  // OSTs are idle for DYAD anyway
  const auto noisy = run_ensemble(dyad_cfg);
  EXPECT_EQ(clean.cons_movement_us.values(), noisy.cons_movement_us.values());
}

// KVS traffic accounting across a whole ensemble.
TEST(IntegrationTest, KvsSeesOneCommitPerFrame) {
  TestbedParams tp;
  tp.compute_nodes = 2;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> sim::Task<void> {
    dyad::DyadProducer producer(*t.node(0).dyad, r);
    for (std::uint64_t f = 0; f < 10; ++f) {
      co_await producer.produce(frame_path(0, f), Bytes::kib(16));
    }
  }(tb, prec));
  sim.run_to_quiescence();
  EXPECT_EQ(tb.kvs().commits(), 10u);
  // The final commit's visibility delay may still be pending; advance past
  // it before counting.
  sim.run_until(sim.now() + 10_ms);
  EXPECT_EQ(tb.kvs().visible_entries(), 10u);
}

}  // namespace
}  // namespace mdwf::workflow
