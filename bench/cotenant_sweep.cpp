// Co-tenant frontier: victim tail latency vs neighbor intensity, with and
// without the isolation machinery.
//
// A DYAD victim ensemble shares one testbed with a KVS noise storm of
// growing intensity (0 = solo).  Each intensity runs twice: isolation off
// (no quotas, no SLO guard — the storm queues freely underneath the victim
// at the shared broker) and isolation on (weighted fair-share quotas bound
// the storm's in-flight share; the victim's SLO guard staggers production
// and falls back to Lustre when its fetch-P99 target is breached anyway).
// The frontier is the victim's fetch P99 across that grid: the gap between
// the two curves is what the isolation machinery buys, and the intensity-0
// pair pins the solo overhead (the co-tenant runner must match the classic
// runner exactly when nobody shares — the solo contract).
//
//   cotenant_sweep [intensities=0,16,64,128] [frames=4] [reps=2] [pairs=2]
//                  [slo_target_us=4000] [threads=1] [out=<csv path>]
//
// stdout carries one "cotenant:" line per (intensity, isolation) cell and a
// machine-readable "cotenant_sweep:" summary (tools/bench.sh cotenant turns
// it into BENCH_pr8.json).  The CSV excludes wall-clock, so re-runs at any
// thread count are byte-identical.  Exit 0 when every cell ran clean and
// the gates hold: isolation improves the victim's P99 at the heaviest storm
// at least 2x (when the grid has a storm), and the solo tenant's overhead
// over the classic runner stays within 2% (when it has intensity 0).  Exit
// 1 on a failed cell or gate, 2 on an unknown key.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/format.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/workflow/config.hpp"

using namespace mdwf;

namespace {

struct Cell {
  std::uint32_t intensity = 0;
  bool isolation = false;
  double victim_p99_us = 0.0;
  double victim_makespan_s = 0.0;
  std::uint64_t noise_sheds = 0;
  std::uint64_t quota_sheds = 0;
  std::uint64_t slo_escalations = 0;
  std::uint64_t slo_staggered = 0;
  std::uint64_t slo_fallback = 0;
};

std::vector<std::uint32_t> parse_intensities(const std::string& csv) {
  std::vector<std::uint32_t> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) {
      out.push_back(static_cast<std::uint32_t>(
          std::stoul(csv.substr(start, end - start))));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  KeyValueConfig cfg;
  cfg.parse_args(argc, argv);
  const auto intensities =
      parse_intensities(cfg.get_string("intensities", "0,16,64,128"));
  const std::uint64_t frames = cfg.get_uint("frames", 4);
  const auto reps = static_cast<std::uint32_t>(cfg.get_uint("reps", 2));
  const auto pairs = static_cast<std::uint32_t>(cfg.get_uint("pairs", 2));
  const double slo_target = cfg.get_double("slo_target_us", 4000.0);
  const auto threads = static_cast<std::uint32_t>(cfg.get_uint("threads", 1));
  const std::string out_path = cfg.get_string("out", "");
  static constexpr std::string_view kKeys[] = {
      "intensities", "frames",  "reps", "pairs",
      "slo_target_us", "threads", "out"};
  try {
    cfg.reject_unknown_keys(kKeys);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "cotenant_sweep: %s\n", e.what());
    return 2;
  }

  std::vector<Cell> cells;
  for (const std::uint32_t intensity : intensities) {
    for (const bool isolation : {false, true}) {
      tenant::MultiTenantConfig mc;
      mc.repetitions = reps;
      mc.base_seed = 7;
      mc.threads = threads;
      mc.quota = isolation;

      tenant::TenantSpec victim;
      victim.name = "victim";
      victim.solution = workflow::Solution::kDyad;
      victim.pairs = pairs;
      victim.nodes = 2;
      victim.workload.frames = frames;
      victim.slo = isolation;
      victim.slo_params.fetch_p99_target_us = slo_target;
      // Short bench runs produce few fetch samples per repetition; trust
      // the window early so the guard can act inside the measured run.
      victim.slo_params.min_samples = 4;
      victim.slo_params.holdoff = Duration::milliseconds(100);
      mc.tenants.push_back(victim);

      if (intensity > 0) {
        tenant::TenantSpec storm;
        storm.name = "storm";
        storm.kind = tenant::TenantKind::kNoise;
        storm.nodes = 1;
        storm.noise.intensity = intensity;
        mc.tenants.push_back(storm);
      }

      const tenant::MultiTenantResult r = tenant::run_multi_tenant(mc);
      const auto& vc = r.tenants[0].result.counters;
      Cell cell;
      cell.intensity = intensity;
      cell.isolation = isolation;
      cell.victim_p99_us = r.tenants[0].result.cons_fetch_us.quantile(0.99);
      cell.victim_makespan_s = r.tenants[0].result.makespan_s.mean();
      cell.quota_sheds = vc.get("quota_kvs_sheds") +
                         vc.get("quota_mds_sheds") +
                         vc.get("quota_ost_sheds");
      cell.slo_escalations = vc.get("slo_escalations");
      cell.slo_staggered = vc.get("slo_staggered_frames");
      cell.slo_fallback = vc.get("slo_fallback_frames");
      if (r.tenants.size() > 1) {
        cell.noise_sheds = r.tenants[1].result.counters.get("noise_sheds");
      }
      const std::uint64_t expected =
          static_cast<std::uint64_t>(pairs) * frames * reps;
      if (vc.get("frames_consumed") != expected) {
        std::fprintf(stderr,
                     "cotenant_sweep: victim incomplete at intensity=%u "
                     "isolation=%d\n",
                     intensity, isolation ? 1 : 0);
        return 1;
      }
      cells.push_back(cell);

      std::printf("cotenant: intensity=%u isolation=%s victim_p99_us=%s "
                  "victim_makespan_s=%s noise_sheds=%llu quota_sheds=%llu "
                  "slo_escalations=%llu slo_staggered=%llu "
                  "slo_fallback=%llu\n",
                  intensity, isolation ? "on" : "off",
                  format_double(cell.victim_p99_us, 3).c_str(),
                  format_double(cell.victim_makespan_s, 6).c_str(),
                  static_cast<unsigned long long>(cell.noise_sheds),
                  static_cast<unsigned long long>(cell.quota_sheds),
                  static_cast<unsigned long long>(cell.slo_escalations),
                  static_cast<unsigned long long>(cell.slo_staggered),
                  static_cast<unsigned long long>(cell.slo_fallback));
      std::fflush(stdout);
    }
  }

  // Solo contract: the intensity-0, isolation-off cell must reproduce the
  // classic runner exactly (same makespan to the bit) — that IS the solo
  // overhead figure, measured in simulated time rather than noisy wall ms.
  // Only meaningful when the grid includes intensity 0.
  bool has_solo = false;
  double solo_makespan = 0.0;
  for (const Cell& c : cells) {
    if (c.intensity == 0 && !c.isolation) {
      has_solo = true;
      solo_makespan = c.victim_makespan_s;
    }
  }
  double classic_makespan = 0.0;
  double solo_overhead_pct = 0.0;
  if (has_solo) {
    workflow::EnsembleConfig classic;
    classic.solution = workflow::Solution::kDyad;
    classic.pairs = pairs;
    classic.nodes = 2;
    classic.workload.frames = frames;
    classic.repetitions = reps;
    classic.base_seed = 7;
    classic.threads = threads;
    classic_makespan = sweep::run_ensemble(classic).makespan_s.mean();
    solo_overhead_pct = classic_makespan > 0.0
                            ? (solo_makespan / classic_makespan - 1.0) * 100.0
                            : 0.0;
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "intensity,isolation,victim_p99_us,victim_makespan_s,noise_sheds,"
           "quota_sheds,slo_escalations,slo_staggered,slo_fallback\n";
    for (const Cell& c : cells) {
      out << c.intensity << "," << (c.isolation ? "on" : "off") << ","
          << format_double(c.victim_p99_us, 6) << ","
          << format_double(c.victim_makespan_s, 9) << "," << c.noise_sheds
          << "," << c.quota_sheds << "," << c.slo_escalations << ","
          << c.slo_staggered << "," << c.slo_fallback << "\n";
    }
  }

  // Headline: the improvement factor at the highest shared intensity.
  double worst_off = 0.0, worst_on = 0.0;
  std::uint32_t worst_intensity = 0;
  for (const Cell& c : cells) {
    if (c.intensity >= worst_intensity && c.intensity > 0) {
      worst_intensity = c.intensity;
      (c.isolation ? worst_on : worst_off) = c.victim_p99_us;
    }
  }
  const double improvement =
      worst_on > 0.0 ? worst_off / worst_on : 1.0;
  bool has_storm = false;
  for (const Cell& c : cells) has_storm = has_storm || c.intensity > 0;
  std::printf("cotenant_sweep: cells=%zu solo_makespan_classic=%s "
              "solo_makespan_cotenant=%s solo_overhead_pct=%s "
              "worst_intensity=%u p99_off=%s p99_on=%s improvement=%s\n",
              cells.size(), format_double(classic_makespan, 9).c_str(),
              format_double(solo_makespan, 9).c_str(),
              format_double(solo_overhead_pct, 4).c_str(), worst_intensity,
              format_double(worst_off, 3).c_str(),
              format_double(worst_on, 3).c_str(),
              format_double(improvement, 3).c_str());

  // Gates: the isolation machinery must at least halve the victim's fetch
  // P99 under the heaviest storm, and a solo tenant must pay <= 2% (it
  // actually pays exactly 0: the solo path IS the classic runner).
  int status = 0;
  if (has_storm && improvement < 2.0) {
    std::fprintf(stderr, "cotenant_sweep: FAILED improvement %sx < 2x\n",
                 format_double(improvement, 3).c_str());
    status = 1;
  }
  if (has_solo && std::fabs(solo_overhead_pct) > 2.0) {
    std::fprintf(stderr, "cotenant_sweep: FAILED solo overhead %s%% > 2%%\n",
                 format_double(solo_overhead_pct, 4).c_str());
    status = 1;
  }
  return status;
}
