// mdwf::tenant — multi-tenant co-scheduling invariants.
//
// Pins the four load-bearing properties of co-tenant runs: the solo
// contract (one tenant, quotas idle == the classic runner bit-for-bit),
// thread-count byte-identity of the merged CSV, fault isolation (chaos in
// tenant A never recovers or re-executes anything in healthy tenant B),
// and quota conservation/bounding (admits == releases, weighted shares
// floor at one slot, a noise storm sheds instead of starving the victim).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mdwf/common/keyval.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/health/quota.hpp"
#include "mdwf/stream/stream.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/workflow/config.hpp"

namespace mdwf::tenant {
namespace {

using workflow::EnsembleConfig;
using workflow::Placement;
using workflow::Solution;

TenantSpec small_tenant(const std::string& name, Solution s,
                        std::uint32_t pairs, std::uint32_t nodes,
                        std::uint64_t frames = 8) {
  TenantSpec t;
  t.name = name;
  t.solution = s;
  t.pairs = pairs;
  t.nodes = nodes;
  t.workload.frames = frames;
  if (s == Solution::kXfs) t.placement = Placement::kColocated;
  return t;
}

TenantSpec noise_tenant(const std::string& name, std::uint32_t intensity) {
  TenantSpec t;
  t.name = name;
  t.kind = TenantKind::kNoise;
  t.nodes = 1;
  t.noise.intensity = intensity;
  return t;
}

MultiTenantConfig small_multi(std::vector<TenantSpec> tenants,
                              std::uint32_t reps = 3) {
  MultiTenantConfig c;
  c.tenants = std::move(tenants);
  c.repetitions = reps;
  c.base_seed = 7;
  return c;
}

// --- Solo contract -------------------------------------------------------

// A single-tenant result `got` equals the classic `want`: same samples, and
// every classic counter is the sum of the tenant row and the shared row.
void expect_matches_classic(const workflow::EnsembleResult& want,
                            const MultiTenantResult& got) {
  ASSERT_EQ(got.tenants.size(), 1u);
  const auto& r = got.tenants[0].result;
  EXPECT_EQ(want.makespan_s.values(), r.makespan_s.values());
  EXPECT_EQ(want.cons_fetch_us.values(), r.cons_fetch_us.values());
  EXPECT_EQ(want.prod_movement_us.values(), r.prod_movement_us.values());
  EXPECT_EQ(want.prod_idle_us.values(), r.prod_idle_us.values());
  EXPECT_EQ(want.cons_movement_us.values(), r.cons_movement_us.values());
  EXPECT_EQ(want.cons_idle_us.values(), r.cons_idle_us.values());
  // Counters split across the tenant row and the shared-service row
  // (KVS/Lustre/fabric totals are counted once); their sum is the classic
  // single-ensemble value, exactly.
  for (const auto& [name, value] : want.counters) {
    EXPECT_EQ(value, r.counters.get(name) + got.shared.get(name)) << name;
  }
}

// A single-tenant config reproduces sweep::run_ensemble exactly: same
// samples, same counters.  This is what makes the solo overhead zero — the
// co-tenant path IS the classic path when nobody shares the testbed.
TEST(TenantSolo, MatchesClassicRunnerBitForBit) {
  EnsembleConfig classic;
  classic.solution = Solution::kDyad;
  classic.pairs = 2;
  classic.nodes = 2;
  classic.workload.frames = 8;
  classic.repetitions = 3;
  classic.base_seed = 7;
  const auto want = sweep::run_ensemble(classic);

  auto mc = small_multi({small_tenant("solo", Solution::kDyad, 2, 2)});
  const auto got = run_multi_tenant(mc);
  expect_matches_classic(want, got);
  ASSERT_EQ(got.tenants.size(), 1u);
  // The tenant-only counters exist and stayed idle.
  const auto& r = got.tenants[0].result;
  EXPECT_EQ(r.counters.get("slo_escalations"), 0u);
  EXPECT_EQ(r.counters.get("quota_kvs_sheds"), 0u);
}

// The solo contract covers isolation scenarios too: a tenant whose own slice
// is partitioned, declared lost and healed runs the crash-aware loops (retry,
// restart, migration) exactly as the classic runner does.
TEST(TenantSolo, IsolationScenarioMatchesClassicRunnerBitForBit) {
  EnsembleConfig classic;
  classic.solution = Solution::kDyad;
  classic.pairs = 2;
  classic.nodes = 2;
  classic.workload.frames = 16;
  classic.repetitions = 2;
  classic.base_seed = 7;
  classic.testbed.membership.enabled = true;
  classic.testbed.dyad.retry.enabled = true;
  fault::ScenarioShape shape;
  shape.compute_nodes = classic.nodes;
  shape.ost_count = classic.testbed.lustre.ost_count;
  shape.seed = classic.base_seed;
  classic.testbed.faults = fault::make_scenario("heal-after-declare", shape);
  const auto want = sweep::run_ensemble(classic);
  ASSERT_GT(want.counters.get("membership_declares"), 0u);

  auto solo = small_tenant("solo", Solution::kDyad, 2, 2, 16);
  solo.faults = "heal-after-declare";
  auto mc = small_multi({solo}, 2);
  mc.testbed.membership.enabled = true;
  mc.testbed.dyad.retry.enabled = true;
  expect_matches_classic(want, run_multi_tenant(mc));
}

// --- Stream routing ------------------------------------------------------

// A co-tenant frame path carries the tenant's namespace
// ("a/pair0001/frame00003"), so each pair of a stream tenant must still be
// routed, credited and announced on its own: every frame is consumed with
// no replay and the fetch tail stays below one arrival timeout.
TEST(TenantStream, EachPairRoutesToItsOwnConsumer) {
  auto mc = small_multi({small_tenant("a", Solution::kStream, 4, 4, 16),
                         small_tenant("b", Solution::kStream, 4, 4, 16)},
                        1);
  mc.quota = false;
  const auto got = run_multi_tenant(mc);
  ASSERT_EQ(got.tenants.size(), 2u);
  const double timeout_us =
      stream::StreamParams{}.arrival_timeout.to_micros();
  for (const auto& t : got.tenants) {
    const auto& c = t.result.counters;
    EXPECT_EQ(c.get("frames_consumed"), 4u * 16u) << t.spec.name;
    EXPECT_EQ(c.get("stream_replays"), 0u) << t.spec.name;
    EXPECT_LT(t.result.cons_fetch_us.quantile(0.99), timeout_us)
        << t.spec.name;
  }
}

// --- Thread-count determinism --------------------------------------------

// The merged CSV is the byte-compare surface: crash chaos in one tenant,
// SLO guard on it, a lustre neighbor, and a noise storm — folded across
// 1, 2, and 8 worker threads — must serialize identically.  The storm runs
// at intensity 1: the victim's recoveries, escalations and frames are the
// same as at 8, for a fifth of the events.
TEST(TenantDeterminism, CsvByteIdenticalAcrossThreadCounts) {
  auto victim = small_tenant("victim", Solution::kDyad, 2, 2, 4);
  victim.faults = "crash:0";
  victim.slo = true;
  victim.slo_params.fetch_p99_target_us = 500.0;  // breach early
  victim.slo_params.min_samples = 4;
  victim.slo_params.holdoff = Duration::milliseconds(50);
  auto mc = small_multi({victim, small_tenant("peer", Solution::kLustre, 1, 2, 4),
                         noise_tenant("storm", 1)});
  mc.threads = 1;
  const auto r1 = run_multi_tenant(mc);
  const std::string csv1 = r1.to_csv();
  mc.threads = 2;
  const std::string csv2 = run_multi_tenant(mc).to_csv();
  mc.threads = 8;
  const std::string csv8 = run_multi_tenant(mc).to_csv();
  EXPECT_EQ(csv1, csv2);
  EXPECT_EQ(csv1, csv8);
  // And the run was not vacuous: the crash fired, the guard moved, both
  // workflows delivered every frame and the storm ran.
  ASSERT_NE(csv1.find("victim"), std::string::npos);
  ASSERT_EQ(r1.tenants.size(), 3u);
  const auto& v = r1.tenants[0].result.counters;
  EXPECT_GT(v.get("crash_recoveries"), 0u);
  EXPECT_GT(v.get("slo_escalations"), 0u);
  EXPECT_EQ(v.get("frames_consumed"), 2ull * 4ull * mc.repetitions);
  EXPECT_EQ(r1.tenants[1].result.counters.get("frames_consumed"),
            1ull * 4ull * mc.repetitions);
  EXPECT_GT(r1.tenants[2].result.counters.get("noise_ops"), 0u);
}

// --- Fault isolation -----------------------------------------------------

// Chaos scoped to tenant A must be invisible to tenant B's recovery
// machinery: B consumes every frame with zero crash recoveries and zero
// re-executions, and nothing in the run loses data.
TEST(TenantIsolation, CrashInOneTenantLeavesNeighborUntouched) {
  auto chaotic = small_tenant("chaotic", Solution::kDyad, 2, 2, 8);
  chaotic.faults = "crash:0";
  auto mc = small_multi(
      {chaotic, small_tenant("healthy", Solution::kDyad, 2, 2, 8)});
  const auto r = run_multi_tenant(mc);
  ASSERT_EQ(r.tenants.size(), 2u);
  const auto& a = r.tenants[0].result.counters;
  const auto& b = r.tenants[1].result.counters;

  const std::uint64_t expected = 2ull * 8ull * mc.repetitions;
  EXPECT_EQ(a.get("frames_consumed"), expected);
  EXPECT_EQ(b.get("frames_consumed"), expected);
  // The crash actually happened — to A, and only to A.
  EXPECT_GT(a.get("crash_recoveries"), 0u);
  EXPECT_EQ(b.get("crash_recoveries"), 0u);
  EXPECT_EQ(b.get("frames_reexecuted"), 0u);
  EXPECT_EQ(b.get("checkpoint_restores"), 0u);
  EXPECT_EQ(r.shared.get("integrity_unrecovered"), 0u);
}

// A tenant scenario targeting a node outside the tenant's own slice is a
// config error, not silent chaos in a neighbor.
TEST(TenantIsolation, ScenarioBeyondSliceIsRejected) {
  auto bad = small_tenant("bad", Solution::kDyad, 2, 2);
  bad.faults = "crash:5";  // node 5 of a 2-node tenant
  auto mc = small_multi({bad, small_tenant("peer", Solution::kDyad, 2, 2)});
  EXPECT_THROW(run_multi_tenant(mc), ConfigError);
}

// --- Quotas --------------------------------------------------------------

TEST(TenantQuotaUnit, WeightedBoundsFloorAtOneSlot) {
  health::QuotaParams qp;
  qp.enabled = true;
  qp.kvs_queue = 24;
  qp.mds_queue = 16;
  qp.ost_queue = 48;
  health::TenantQuota q(qp);
  const std::uint32_t big = q.add_tenant("big", 3.0);
  const std::uint32_t small = q.add_tenant("small", 1.0);
  const std::uint32_t tiny = q.add_tenant("tiny", 0.01);
  q.map_nodes(0, 2, big);
  q.map_nodes(2, 1, small);
  q.map_nodes(3, 1, tiny);

  // 24 slots at weights 3 : 1 : 0.01 — shares round, never below one.
  EXPECT_EQ(q.bound(health::QuotaResource::kKvs, big), 18u);
  EXPECT_EQ(q.bound(health::QuotaResource::kKvs, small), 6u);
  EXPECT_EQ(q.bound(health::QuotaResource::kKvs, tiny), 1u);

  EXPECT_EQ(q.tenant_of(net::NodeId{1}), big);
  EXPECT_EQ(q.tenant_of(net::NodeId{3}), tiny);
  // Unmapped nodes (servers) are never quota-limited.
  EXPECT_EQ(q.tenant_of(net::NodeId{17}), health::TenantQuota::kUnmapped);
  EXPECT_FALSE(q.at_bound(health::QuotaResource::kKvs, net::NodeId{17}));

  // tiny's single slot: free, taken, free again; admits pair with releases.
  const net::NodeId tn{3};
  EXPECT_FALSE(q.at_bound(health::QuotaResource::kKvs, tn));
  q.admit(health::QuotaResource::kKvs, tn);
  EXPECT_TRUE(q.at_bound(health::QuotaResource::kKvs, tn));
  q.release(health::QuotaResource::kKvs, tn);
  EXPECT_FALSE(q.at_bound(health::QuotaResource::kKvs, tn));
  EXPECT_EQ(q.admits(health::QuotaResource::kKvs, tiny), 1u);
  EXPECT_EQ(q.releases(health::QuotaResource::kKvs, tiny), 1u);
  EXPECT_EQ(q.in_flight(health::QuotaResource::kKvs, tiny), 0);
}

// A KVS metadata storm next to a DYAD victim: with quotas armed the storm
// sheds (bounded to its share) while the victim still consumes every frame,
// and every tenant's admission accounting balances.
TEST(TenantQuotaRun, NoiseStormShedsWhileVictimCompletes) {
  auto mc = small_multi({small_tenant("victim", Solution::kDyad, 2, 2, 4),
                         noise_tenant("storm", 32)},
                        /*reps=*/1);
  const auto r = run_multi_tenant(mc);
  const auto& victim = r.tenants[0].result.counters;
  const auto& storm = r.tenants[1].result.counters;

  EXPECT_EQ(victim.get("frames_consumed"), 2ull * 4ull);
  EXPECT_GT(storm.get("noise_ops"), 0u);
  EXPECT_GT(storm.get("noise_sheds"), 0u);
  // Conservation: every admitted request was released (RAII pairing); the
  // runner also asserts in_flight == 0 at end of every repetition.
  for (const auto& tr : r.tenants) {
    EXPECT_EQ(tr.result.counters.get("quota_admits"),
              tr.result.counters.get("quota_releases"))
        << tr.spec.name;
  }
}

// Quotas protect the victim: its fetch P99 under the same storm is strictly
// better with fair-share admission than without.
TEST(TenantQuotaRun, QuotaImprovesVictimTailUnderStorm) {
  auto mc = small_multi({small_tenant("victim", Solution::kDyad, 2, 2, 4),
                         noise_tenant("storm", 32)},
                        /*reps=*/1);
  mc.quota = false;
  const double p99_open = run_multi_tenant(mc)
                              .tenants[0]
                              .result.cons_fetch_us.quantile(0.99);
  mc.quota = true;
  const double p99_fair = run_multi_tenant(mc)
                              .tenants[0]
                              .result.cons_fetch_us.quantile(0.99);
  EXPECT_LT(p99_fair, p99_open);
}

// --- SLO guard -----------------------------------------------------------

// An unreachable P99 target under a noisy neighbor forces the guard up the
// ladder: escalations and staggered frames are counted, and degradation is
// graceful — the victim still consumes everything.
TEST(TenantSlo, GuardEscalatesAndVictimStillCompletes) {
  auto victim = small_tenant("victim", Solution::kDyad, 2, 2, 8);
  victim.slo = true;
  victim.slo_params.fetch_p99_target_us = 300.0;
  // Trust the window early and escalate fast, so the ladder moves while
  // frames are still being produced (16 fetch samples total in this run).
  victim.slo_params.min_samples = 4;
  victim.slo_params.holdoff = Duration::milliseconds(50);
  auto mc = small_multi({victim, noise_tenant("storm", 16)}, /*reps=*/1);
  const auto r = run_multi_tenant(mc);
  const auto& c = r.tenants[0].result.counters;
  EXPECT_GT(c.get("slo_escalations"), 0u);
  EXPECT_GT(c.get("slo_staggered_frames"), 0u);
  EXPECT_EQ(c.get("frames_consumed"), 2ull * 8ull);
}

// --- key=value binding ---------------------------------------------------

TEST(TenantParse, DescriptorGrammar) {
  KeyValueConfig cfg;
  cfg.set("tenants", "victim@dyad/4/2/crash:0/2.5,noise/16/0.5,xfs");
  cfg.set("slo", "1");
  cfg.set("slo_target_us", "4000");
  cfg.set("frames", "4");
  cfg.set("reps", "2");
  const auto mc = parse_multi_tenant(cfg, workflow::EnsembleConfig{});
  ASSERT_EQ(mc.tenants.size(), 3u);

  const auto& v = mc.tenants[0];
  EXPECT_EQ(v.name, "victim");
  EXPECT_EQ(v.kind, TenantKind::kWorkflow);
  EXPECT_EQ(v.solution, Solution::kDyad);
  EXPECT_EQ(v.pairs, 4u);
  EXPECT_EQ(v.nodes, 2u);
  EXPECT_EQ(v.faults, "crash:0");
  EXPECT_DOUBLE_EQ(v.weight, 2.5);
  EXPECT_TRUE(v.slo);
  EXPECT_DOUBLE_EQ(v.slo_params.fetch_p99_target_us, 4000.0);
  EXPECT_EQ(v.workload.frames, 4u);

  const auto& n = mc.tenants[1];
  EXPECT_EQ(n.name, "t1");  // default name by index
  EXPECT_EQ(n.kind, TenantKind::kNoise);
  EXPECT_EQ(n.nodes, 1u);
  EXPECT_EQ(n.noise.intensity, 16u);
  EXPECT_DOUBLE_EQ(n.weight, 0.5);

  const auto& x = mc.tenants[2];
  EXPECT_EQ(x.solution, Solution::kXfs);
  EXPECT_EQ(x.nodes, 1u);  // xfs defaults to one (colocated) node
  EXPECT_EQ(x.placement, Placement::kColocated);

  EXPECT_EQ(mc.repetitions, 2u);
  // Crash windows in any tenant default end-to-end integrity on, as in the
  // classic binding.
  EXPECT_TRUE(mc.testbed.integrity.enabled);
}

TEST(TenantParse, RejectsMalformedDescriptors) {
  const workflow::EnsembleConfig d{};
  auto parse = [&](const char* tenants) {
    KeyValueConfig cfg;
    cfg.set("tenants", tenants);
    return parse_multi_tenant(cfg, d);
  };
  EXPECT_THROW(parse(""), ConfigError);
  EXPECT_THROW(parse("frisbee/2/2"), ConfigError);      // unknown solution
  EXPECT_THROW(parse("dyad/two/2"), ConfigError);       // not a number
  EXPECT_THROW(parse("dyad/2/2/none/0"), ConfigError);  // weight must be > 0
  EXPECT_THROW(parse("a@dyad/2/2,a@lustre/2/2"), ConfigError);  // dup name
  EXPECT_THROW(parse("dyad/2/2/crash:9"), ConfigError);  // beyond slice
  EXPECT_THROW(parse("noise/16/1/9"), ConfigError);      // too many fields

  // Each row once aborted on a runner assertion, wrapped through the
  // uint32 cast, or ran silently; the diagnostic quotes the descriptor.
  const struct {
    const char* tenants;
    const char* needle;
  } kCases[] = {
      {"victim@dyad/0/2", "pairs must be >= 1"},
      {"victim@dyad/2/0", "nodes must be >= 1"},
      {"victim@dyad/2/3", "nodes=3: a split placement"},
      {"victim@dyad/4294967296/2", "pairs must be at most 4294967295"},
      {"victim@dyad/2/4294967297", "nodes must be at most 4294967295"},
      {"noise/4294967297", "intensity must be at most 4294967295"},
      {"a@dyad/2/2/none/nan", "weight 'nan' is not a finite number"},
      {"noise/8/nan", "weight 'nan' is not a finite number"},
      {"noise/8/inf", "weight 'inf' is not a finite number"},
  };
  for (const auto& c : kCases) {
    try {
      parse(c.tenants);
      ADD_FAILURE() << c.tenants << " must be rejected";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad tenant descriptor '" + std::string(c.tenants) +
                          "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(c.needle), std::string::npos) << what;
    }
  }
  // A single node is colocated, as in the classic binding.
  EXPECT_EQ(parse("victim@dyad/2/1").tenants[0].nodes, 1u);

  // Global faults= would chaos every tenant ambiguously; each tenant
  // declares its own scenario instead.
  KeyValueConfig cfg;
  cfg.set("tenants", "dyad/2/2");
  cfg.set("faults", "bit-flip");
  EXPECT_THROW(parse_multi_tenant(cfg, d), ConfigError);

  for (const char* target : {"0", "-5"}) {
    KeyValueConfig slo;
    slo.set("tenants", "dyad/2/2");
    slo.set("slo", "1");
    slo.set("slo_target_us", target);
    EXPECT_THROW(parse_multi_tenant(slo, d), ConfigError) << target;
  }
}

TEST(TenantParse, SuggestsMisspeltSolution) {
  KeyValueConfig cfg;
  cfg.set("tenants", "victim@dyda/2/2,noise/8");
  try {
    parse_multi_tenant(cfg, workflow::EnsembleConfig{});
    FAIL() << "a misspelt tenant solution must be rejected";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad tenant descriptor 'victim@dyda/2/2'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean 'dyad'"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mdwf::tenant
