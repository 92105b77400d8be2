// Membership frontier sweep: MTTR vs detection latency for the declare-dead
// policy under permanent node loss.
//
// The grid sweeps the declare policy's silence ceiling (the phi-confirm
// window scales as a quarter of it) for a DYAD ensemble, against two fault
// scenarios.  Under `node-loss` (a node really dies) an eager policy wins:
// detection latency IS dead time, so MTTR falls with the ceiling.  Under
// `heal-after-declare` (a 1.2 s one-way partition, the node is fine) an
// eager policy fires a spurious declare — terminal by design, so the
// healthy node is fenced and its ranks migrate for nothing — while a
// conservative one (confirm window past the partition length) rides it
// out and pays nothing.  That tension is the frontier; every point still
// finishes with zero data loss, the policies just pay different MTTR.
//
//   membership_sweep [ceilings=60,120,250,500,1000,8000] [frames=8]
//                    [reps=2] [threads=1] [out=<csv path>]
//
// stdout carries one "frontier:" line per (ceiling, scenario) point, then a
// machine-readable summary line (tools/bench.sh membership turns a re-run
// pair into BENCH_pr9.json).  The CSV excludes wall-clock, so re-runs at
// any thread count are byte-identical.  Exit 0 when every point ran clean,
// every faulted point delivered the full frame set, the no-fault overhead
// of leaving the plane enabled stays within the 2% gate, every spurious
// declare fenced a zombie publish (stale_rejects > 0), and — given two or
// more ceilings — the sweep brackets the spurious-declare crossover (some
// heal-after-declare point declares, some rides the partition out).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/keyval.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/workflow/config.hpp"

using namespace mdwf;

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) items.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

workflow::EnsembleConfig base_config(const std::string& faults,
                                     std::uint64_t frames,
                                     std::uint64_t reps) {
  KeyValueConfig point;
  point.set("solution", "dyad");
  point.set("pairs", "2");
  point.set("frames", std::to_string(frames));
  point.set("reps", std::to_string(reps));
  if (!faults.empty()) point.set("faults", faults);
  workflow::EnsembleConfig defaults;
  defaults.nodes = 2;
  return workflow::parse_ensemble_config(point, defaults);
}

}  // namespace

int main(int argc, char** argv) {
  KeyValueConfig cfg;
  cfg.parse_args(argc, argv);
  const std::string ceilings_csv =
      cfg.get_string("ceilings", "60,120,250,500,1000,8000");
  const std::uint64_t frames = cfg.get_uint("frames", 8);
  const std::uint64_t reps = cfg.get_uint("reps", 2);
  const auto threads = static_cast<std::uint32_t>(cfg.get_uint("threads", 1));
  const std::string out = cfg.get_string("out", "");
  if (const auto unknown = cfg.unknown_keys(); !unknown.empty()) {
    std::string msg = "membership_sweep: unknown key(s):";
    for (const auto& k : unknown) msg += " " + k;
    std::fprintf(stderr, "%s\n", msg.c_str());
    return 1;
  }

  const std::vector<std::string> ceilings = split_list(ceilings_csv);
  static constexpr const char* kScenarios[] = {"node-loss",
                                               "heal-after-declare"};

  std::vector<sweep::SweepPoint> grid;
  // Two no-fault baselines lead the grid: plane off (the reference
  // makespan) and plane on (its price: heartbeats + declare scans).
  for (const bool membership : {false, true}) {
    workflow::EnsembleConfig c = base_config("", frames, reps);
    c.testbed.membership.enabled = membership;
    grid.push_back({std::string("baseline/") + (membership ? "on" : "off"),
                    c});
  }
  for (const std::string& ceiling : ceilings) {
    for (const char* scenario : kScenarios) {
      workflow::EnsembleConfig c = base_config(scenario, frames, reps);
      c.testbed.membership.enabled = true;
      const auto ceiling_ms = static_cast<std::int64_t>(std::stoll(ceiling));
      c.testbed.membership.declare.silence_ceiling =
          Duration::milliseconds(ceiling_ms);
      // The phi-confirm path stays proportionally eager: a quarter of the
      // ceiling, floored at one heartbeat period.  Past ~5 s the confirm
      // window exceeds the heal-after-declare partition (1.2 s) and the
      // policy rides the transient out instead of declaring.
      c.testbed.membership.declare.confirm_window =
          Duration::milliseconds(ceiling_ms / 4 > 10 ? ceiling_ms / 4 : 10);
      grid.push_back({"ceiling" + ceiling + "/" + scenario, c});
    }
  }

  const sweep::SweepResult result = sweep::run_sweep(std::move(grid), threads);
  for (const sweep::PointResult& pt : result.points) {
    if (pt.failed()) {
      std::fprintf(stderr, "membership_sweep: point '%s' failed: %s\n",
                   pt.label.c_str(), pt.error_text.c_str());
    }
  }
  if (result.errors != 0) return 1;

  const double makespan_off = result.points[0].result.makespan_s.mean();
  const double makespan_on = result.points[1].result.makespan_s.mean();
  const double overhead_pct =
      makespan_off > 0.0
          ? 100.0 * (makespan_on - makespan_off) / makespan_off
          : 0.0;

  std::string csv =
      "ceiling_ms,scenario,declares,detect_ms,migrations,stale_rejects,"
      "frames_lost,frames_consumed,crash_recoveries,makespan_s,mttr_s\n";
  {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "0,none-off,0,0.0,0,0,0,%llu,0,%.4f,0.0\n",
                  static_cast<unsigned long long>(
                      result.points[0].result.counters.get("frames_consumed")),
                  makespan_off);
    csv += line;
    std::snprintf(line, sizeof(line),
                  "0,none-on,0,0.0,0,0,0,%llu,0,%.4f,0.0\n",
                  static_cast<unsigned long long>(
                      result.points[1].result.counters.get("frames_consumed")),
                  makespan_on);
    csv += line;
  }

  bool all_delivered = true;
  bool spurious_declare = false;  // some heal-after-declare point declared
  bool rode_out = false;          // ... and some did not
  bool unfenced = false;  // a spurious declare without a stale reject
  std::size_t idx = 2;
  for (const std::string& ceiling : ceilings) {
    for (const char* scenario : kScenarios) {
      const workflow::EnsembleResult& r = result.points[idx++].result;
      const auto declares = r.counters.get("membership_declares");
      const double detect_ms =
          declares > 0
              ? static_cast<double>(r.counters.get("declare_latency_us")) /
                    (1000.0 * static_cast<double>(declares))
              : 0.0;
      const auto lost = r.counters.get("frames_lost");
      const double makespan = r.makespan_s.mean();
      // MTTR proxy: the makespan the loss-plus-recovery added on top of
      // the plane-on fault-free run.
      const double mttr = makespan - makespan_on;
      all_delivered = all_delivered && lost == 0;
      if (std::string_view(scenario) == "heal-after-declare") {
        (declares > 0 ? spurious_declare : rode_out) = true;
        unfenced = unfenced || (declares > 0 &&
                                r.counters.get("stale_epoch_rejects") == 0);
      }
      char line[320];
      std::snprintf(
          line, sizeof(line),
          "%s,%s,%llu,%.1f,%llu,%llu,%llu,%llu,%llu,%.4f,%.4f\n",
          ceiling.c_str(), scenario,
          static_cast<unsigned long long>(declares), detect_ms,
          static_cast<unsigned long long>(r.counters.get("rank_migrations")),
          static_cast<unsigned long long>(
              r.counters.get("stale_epoch_rejects")),
          static_cast<unsigned long long>(lost),
          static_cast<unsigned long long>(r.counters.get("frames_consumed")),
          static_cast<unsigned long long>(r.counters.get("crash_recoveries")),
          makespan, mttr);
      csv += line;
      std::printf(
          "frontier: ceiling_ms=%s scenario=%s detect_ms=%.1f mttr_s=%.4f "
          "declares=%llu migrations=%llu stale_rejects=%llu frames_lost=%llu\n",
          ceiling.c_str(), scenario, detect_ms, mttr,
          static_cast<unsigned long long>(declares),
          static_cast<unsigned long long>(r.counters.get("rank_migrations")),
          static_cast<unsigned long long>(
              r.counters.get("stale_epoch_rejects")),
          static_cast<unsigned long long>(lost));
    }
  }

  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "membership_sweep: cannot write '%s'\n",
                   out.c_str());
      return 1;
    }
    f << csv;
  } else {
    std::fputs(csv.c_str(), stdout);
  }

  std::printf(
      "membership_sweep: points=%zu errors=%zu overhead_pct=%.3f "
      "all_delivered=%d sim_events=%llu\n",
      result.points.size(), result.errors, overhead_pct,
      all_delivered ? 1 : 0,
      static_cast<unsigned long long>(result.total_sim_events));
  // Gates: zero data loss everywhere, the idle plane must cost <= 2%, a
  // spurious declare must fence the zombie's publishes, and a multi-ceiling
  // sweep must bracket the spurious-declare crossover.
  const auto gate = [](bool ok, const char* what) {
    if (!ok) std::fprintf(stderr, "membership_sweep: FAILED %s\n", what);
    return ok;
  };
  bool ok = gate(all_delivered, "a faulted point lost frames");
  ok &= gate(std::fabs(overhead_pct) <= 2.0,
             "idle membership plane costs more than 2%");
  ok &= gate(!unfenced, "a spurious declare fenced no zombie publish");
  ok &= gate(ceilings.size() < 2 || (spurious_declare && rode_out),
             "ceiling sweep no longer brackets the spurious-declare "
             "crossover");
  return ok ? 0 : 1;
}
