// Golden digest over the co-tenant rank paths that no other golden pins:
// the SLO pacing hook (producer_delay, on_fetch, on_frame_produced/consumed),
// the RouteBook/FallbackConnector ladder, and the stream credit sink.
// bench_figures_golden leaves out the co-tenant sweep and the benchmark's
// co-tenant workload runs without a guard, so without this grid a change to
// the rank loops could move a guarded tenant's numbers unnoticed.
//
// The digest follows rank_loop_golden's recipe: CRC32C over each point's
// merged CSV, then per tenant the counters CSV, every fetch sample and the
// aggregated call tree.  On an intentional behavior change, re-pin the
// constant from the failure message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/crc32c.hpp"
#include "mdwf/tenant/tenant.hpp"

namespace mdwf::tenant {
namespace {

using workflow::Solution;

TenantSpec guarded_victim(Solution solution, double target_us) {
  TenantSpec t;
  t.name = "victim";
  t.solution = solution;
  t.pairs = 2;
  t.nodes = 2;
  t.workload.frames = 8;
  t.slo = true;
  t.slo_params.fetch_p99_target_us = target_us;
  // Trust the window early and escalate fast, so the ladder moves while
  // frames are still being produced.
  t.slo_params.min_samples = 4;
  t.slo_params.holdoff = Duration::milliseconds(50);
  return t;
}

TenantSpec noise_tenant() {
  TenantSpec t;
  t.name = "storm";
  t.kind = TenantKind::kNoise;
  t.nodes = 1;
  t.noise.intensity = 1;
  return t;
}

MultiTenantConfig multi(std::vector<TenantSpec> tenants, std::uint32_t reps) {
  MultiTenantConfig c;
  c.tenants = std::move(tenants);
  c.repetitions = reps;
  c.base_seed = 7;
  return c;
}

// (a) DYAD and (b) stream victims climb to the fallback rung (the stream
// one through the credit sink), (c) a Lustre victim's ladder stops at
// stagger, and (d) a crashing DYAD victim recovers under its guard beside
// a stream peer.
std::vector<MultiTenantConfig> guarded_grid() {
  std::vector<MultiTenantConfig> grid;
  grid.push_back(
      multi({guarded_victim(Solution::kDyad, 100.0), noise_tenant()}, 1));
  grid.push_back(
      multi({guarded_victim(Solution::kStream, 50.0), noise_tenant()}, 1));
  grid.push_back(
      multi({guarded_victim(Solution::kLustre, 100.0), noise_tenant()}, 1));
  TenantSpec crashing = guarded_victim(Solution::kDyad, 100.0);
  crashing.faults = "crash:0";
  TenantSpec peer;
  peer.name = "peer";
  peer.solution = Solution::kStream;
  peer.pairs = 2;
  peer.nodes = 2;
  peer.workload.frames = 8;
  MultiTenantConfig d = multi({crashing, peer, noise_tenant()}, 2);
  d.testbed.dyad.retry.enabled = true;
  d.testbed.integrity.enabled = true;
  grid.push_back(d);
  return grid;
}

std::uint32_t crc_of(std::string_view s, std::uint32_t crc) {
  return crc32c(s.data(), s.size(), crc);
}

std::uint32_t digest_of(const MultiTenantResult& r, std::uint32_t crc) {
  crc = crc_of(r.to_csv(), crc);
  for (const TenantResult& t : r.tenants) {
    crc = crc_of(t.result.counters.to_csv(), crc);
    const std::vector<double>& fetches = t.result.cons_fetch_us.values();
    crc = crc32c(fetches.data(), fetches.size() * sizeof(double), crc);
    crc = crc_of(t.result.thicket.aggregate().to_csv(), crc);
  }
  return crc;
}

TEST(TenantGolden, GuardedGridMatchesCommittedDigest) {
  constexpr std::uint32_t kCommittedDigest = 0x20b6d5b0u;
  std::vector<MultiTenantResult> results;
  std::uint32_t digest = 0;
  std::string csv;
  for (const MultiTenantConfig& config : guarded_grid()) {
    results.push_back(run_multi_tenant(config));
    digest = digest_of(results.back(), digest);
    csv += results.back().to_csv();
  }
  EXPECT_EQ(digest, kCommittedDigest)
      << "guarded co-tenant digest drifted; if intentional, re-pin with 0x"
      << std::hex << digest << "\n--- csv ---\n"
      << csv;

  // The grid is not vacuous: every guarded victim staggered, (a), (b) and
  // (d) climbed to the fallback plane, and (d) recovered from its crash.
  ASSERT_EQ(results.size(), 4u);
  for (const std::size_t i : {0u, 1u, 3u}) {
    const obs::CounterMap& v = results[i].tenants[0].result.counters;
    EXPECT_GT(v.get("slo_escalations"), 0u) << "point " << i;
    EXPECT_GT(v.get("slo_staggered_frames"), 0u) << "point " << i;
    EXPECT_GT(v.get("slo_fallback_frames"), 0u) << "point " << i;
  }
  EXPECT_GT(results[2].tenants[0].result.counters.get("slo_staggered_frames"),
            0u);
  EXPECT_GT(results[3].tenants[0].result.counters.get("crash_recoveries"), 0u);
}

}  // namespace
}  // namespace mdwf::tenant
