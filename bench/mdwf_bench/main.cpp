// mdwf_bench: host and simulated performance of one pinned workload.
//
//   mdwf_bench workload=<name> [seed=<n>] [seconds=<s>] [layers=0|1]
//   mdwf_bench selftest=1
//
// The default run measures end to end with tracing off: the workload
// through its public entry point, sample after sample, each after a burst
// of set-ups, until `seconds` have passed (at least 5 samples).  wall_s is
// the fastest sample, setup_s the median of the set-ups next to the five
// fastest samples.  layers=1 is the separate
// traced run that breaks the host time and the simulated time down by
// layer.  Both print one JSON object with every metric's name, unit,
// value, quartiles and sample count.
//
// Every run checks the simulator's output: all samples give the same
// sim_digest, repetition 0 gives the same digest traced and untraced, and
// no frame is lost.  A failed check prints one stderr line naming the
// workload and seed and exits 2; so does a bad argument.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "host.hpp"
#include "layers.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/common/suggest.hpp"
#include "report.hpp"
#include "sampler.hpp"
#include "selftest.hpp"
#include "workload.hpp"

namespace {

using namespace mdwf;
using namespace mdwf::bench;

constexpr std::string_view kKeys[] = {"workload", "seed", "seconds", "layers",
                                      "selftest"};

constexpr std::size_t kMinSamples = 5;
constexpr std::size_t kSetupsPerSample = 25;
// setup_s comes from the bursts before this many fastest samples:
// 5 x 25 = 125 set-ups, at least the 101 a stable median needs.
constexpr std::size_t kQuietSamples = kMinSamples;
constexpr int kSampleHz = 1000;
// Repetition-0 trace overhead: alternating pairs, each side repeated until
// it has run this long.
constexpr int kOverheadPairs = 5;
constexpr double kOverheadSideSeconds = 0.25;

struct Report {
  const char* mode = "";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint32_t digest = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void check_digest(const RunResult& r, const char* what) {
    check(r.digest == digest, std::string(what) + " changed sim_digest");
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int emit(const Workload& w, const Report& r) {
  std::string out = "{\"workload\":\"" + std::string(w.def().name) + "\"";
  out += ",\"seed\":" + std::to_string(w.seed());
  out += ",\"mode\":\"" + std::string(r.mode) + "\"";
  out += ",\"correct\":" + std::string(r.failures.empty() ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08x", r.digest);
  out += ",\"sim_digest\":\"" + std::string(digest) + "\"";
  out += ",\"build_type\":\"" MDWF_BENCH_BUILD_TYPE "\"";
  out += ",\"host_threads\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\",\"q1\":" + json_number(m.q1) +
           ",\"q3\":" + json_number(m.q3) + ",\"n\":" + std::to_string(m.n) +
           "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  if (r.failures.empty()) return 0;
  std::string why;
  for (const std::string& f : r.failures) why += (why.empty() ? "" : "; ") + f;
  std::fprintf(stderr, "mdwf_bench: FAILED: %s (workload=%s seed=%llu)\n",
               why.c_str(), std::string(w.def().name).c_str(),
               static_cast<unsigned long long>(w.seed()));
  return 2;
}

void check_frames(Report& r, const RunResult& run) {
  r.attempted += run.frames_expected;
  r.failed += run.frames_failed();
  r.check(run.frames_failed() == 0, "frames lost");
}

// The paper's per-frame bars and fetch latency, from one sample.
void add_simulated(const RunResult& run, std::vector<Metric>& m) {
  const workflow::EnsembleResult& p = run.primary;
  const Samples& fetch = p.cons_fetch_us;
  m.push_back(single("sim_fetch_p50_us", "sim_us", fetch.quantile(0.5)));
  // A 99th percentile needs at least ten samples beyond it.
  if (fetch.count() >= 1000) {
    m.push_back(single("sim_fetch_p99_us", "sim_us", fetch.quantile(0.99)));
  }
  m.push_back(
      single("sim_fetches", "count", static_cast<double>(fetch.count())));
  m.push_back(single("sim_makespan_s", "sim_s", p.makespan_s.mean()));
  m.push_back(single("sim_prod_move_us", "sim_us", p.prod_movement_us.mean()));
  m.push_back(single("sim_cons_move_us", "sim_us", p.cons_movement_us.mean()));
  m.push_back(single("sim_cons_idle_us", "sim_us", p.cons_idle_us.mean()));
}

int run_end_to_end(const Workload& w, double seconds) {
  Report r;
  r.mode = "end_to_end";

  // Warm-up, and the reference of the trace check below.
  for (std::size_t i = 0; i < kSetupsPerSample; ++i) (void)w.time_setup();
  const std::uint32_t rep0_digest = w.run_reps(1).digest;

  // Each sample follows a burst of set-ups; the host's speed swings in
  // phases of seconds, so a burst runs in the same phase as its sample.
  std::vector<double> wall;
  std::vector<double> setup;
  const auto t_start = Clock::now();
  while (wall.size() < kMinSamples || seconds_since(t_start) < seconds) {
    for (std::size_t i = 0; i < kSetupsPerSample; ++i) {
      setup.push_back(w.time_setup());
    }
    const auto t0 = Clock::now();
    RunResult run = w.run();
    wall.push_back(seconds_since(t0));
    check_frames(r, run);
    if (wall.size() == 1) {
      r.digest = run.digest;
      add_simulated(run, r.metrics);
    } else {
      r.check_digest(run, "a repeated sample");
    }
  }
  // The set-ups timed just before the fastest samples ran in the run's
  // quietest windows; their median is set-up time without interference.
  std::vector<std::size_t> order(wall.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::partial_sort(order.begin(), order.begin() + kQuietSamples, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return wall[a] < wall[b];
                    });
  std::vector<double> quiet_setup;
  for (std::size_t k = 0; k < kQuietSamples; ++k) {
    const auto burst = setup.begin() + order[k] * kSetupsPerSample;
    quiet_setup.insert(quiet_setup.end(), burst, burst + kSetupsPerSample);
  }
  r.metrics.insert(r.metrics.begin(),
                   {fastest_of("wall_s", "s", wall),
                    median_of("wall_median_s", "s", wall),
                    median_of("setup_s", "s", quiet_setup),
                    single("peak_rss_mib", "MiB", peak_rss_mib())});
  r.metrics.push_back(single(
      "frames_failed_frac", "ratio",
      static_cast<double>(r.failed) / static_cast<double>(r.attempted)));

  // After the peak-RSS reading: a traced repetition keeps its whole record
  // log in memory.
  obs::TraceSink sink;
  RepHooks traced;
  traced.rep0_trace = &sink;
  r.check(w.run_reps(1, &traced).digest == rep0_digest,
          "tracing changed repetition 0's sim_digest");
  return emit(w, r);
}

int run_layers(const Workload& w, double seconds) {
  Report r;
  r.mode = "layers";
  // The public entry point's digest (and the warm-up): the repetition-by-
  // repetition path below must reproduce it.
  r.digest = w.run().digest;

  // Repetition 0 traced vs untraced: same digest; the traced sink gives the
  // occupancy series and the trace's own cost.
  auto sink = std::make_unique<obs::TraceSink>();
  RepHooks traced_hooks;
  traced_hooks.rep0_trace = sink.get();
  const RunResult traced = w.run_reps(1, &traced_hooks);
  r.check(traced.digest == w.run_reps(1).digest,
          "tracing changed repetition 0's sim_digest");
  const auto m0 = Clock::now();
  const std::size_t json_bytes = sink->chrome_json().size();
  const std::string csv = sink->metrics_csv();
  const double materialize_s = seconds_since(m0);
  r.check(json_bytes > 0, "empty chrome trace");
  const double records = static_cast<double>(sink->event_count());
  sink.reset();

  const double rep0_s = std::max(w.time_rep0(nullptr), 1e-6);
  const int side_reps =
      static_cast<int>(std::ceil(kOverheadSideSeconds / rep0_s));
  auto side = [&](bool trace) {
    double total = 0.0;
    for (int i = 0; i < side_reps; ++i) {
      if (trace) {
        obs::TraceSink s;
        total += w.time_rep0(&s);
      } else {
        total += w.time_rep0(nullptr);
      }
    }
    return total;
  };
  // Fastest side against fastest side, as for wall_s: a pair that straddles
  // a slow phase of the host would otherwise swing the ratio either way.
  std::vector<double> on;
  std::vector<double> off;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool traced_first = pair % 2 == 1;
    const double first = side(traced_first);
    const double second = side(!traced_first);
    on.push_back(traced_first ? first : second);
    off.push_back(traced_first ? second : first);
  }
  const double fastest_off = *std::min_element(off.begin(), off.end());
  const double fastest_on = *std::min_element(on.begin(), on.end());

  PcSampler sampler(
      static_cast<std::size_t>((seconds + 60.0) * kSampleHz), kSampleHz);
  std::vector<double> ns_per_event, fold_s, aggregate_s;
  AllocCount allocs;
  std::uint64_t events = 0;
  std::optional<RunResult> first;
  const auto t_start = Clock::now();
  while (ns_per_event.empty() || seconds_since(t_start) < seconds) {
    RepHooks h;
    h.sampler = &sampler;
    RunResult run = w.run_reps(w.reps(), &h);
    ns_per_event.push_back(h.run_s * 1e9 / static_cast<double>(run.events()));
    fold_s.push_back(h.fold_s);
    aggregate_s.push_back(run.aggregate_s);
    allocs.calls += h.allocs.calls;
    allocs.bytes += h.allocs.bytes;
    events += run.events();
    check_frames(r, run);
    r.check_digest(run, "the repetition-by-repetition path");
    if (!first) first = std::move(run);
  }

  add_host_shares(sampler.attribute(), r.metrics);
  const double ev = static_cast<double>(events);
  r.metrics.push_back(single("sim.events", "count",
                             static_cast<double>(first->events())));
  r.metrics.push_back(median_of("sim.ns_per_event", "ns", ns_per_event));
  r.metrics.push_back(single("process.allocs_per_event", "count",
                             static_cast<double>(allocs.calls) / ev));
  r.metrics.push_back(single("process.alloc_bytes_per_event", "B",
                             static_cast<double>(allocs.bytes) / ev));
  r.metrics.push_back(median_of("workflow.fold_s", "s", fold_s));
  r.metrics.push_back(median_of("perf.thicket_aggregate_s", "s", aggregate_s));
  r.metrics.push_back(single("obs.trace_overhead_pct", "%",
                             100.0 * (fastest_on - fastest_off) / fastest_off));
  r.metrics.push_back(single("obs.records_per_event", "count",
                             records / static_cast<double>(traced.events())));
  r.metrics.push_back(single("obs.materialize_ns_per_record", "ns",
                             materialize_s * 1e9 / records));
  add_sim_per_call(first->primary.thicket, r.metrics);
  add_occupancy(csv, r.metrics);
  add_counts(first->counters, r.metrics);
  return emit(w, r);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    KeyValueConfig cfg;
    const std::vector<std::string> positional = cfg.parse_args(argc, argv);
    if (!positional.empty()) {
      throw ConfigError("unexpected argument '" + positional[0] +
                        "' (arguments are key=value)");
    }
    const bool selftest = cfg.get_bool("selftest", false);
    const std::string name = cfg.get_string("workload", "");
    const std::uint64_t seed = cfg.get_uint("seed", 1);
    const double seconds = cfg.get_double("seconds", 10.0);
    const bool layers = cfg.get_bool("layers", false);
    for (const std::string& key : cfg.unknown_keys()) {
      throw ConfigError("unknown key '" + key + "'" + did_you_mean(key, kKeys));
    }
    if (selftest) return run_selftest();
    if (name.empty()) throw ConfigError("workload=<name> is required");
    if (!(seconds >= 0.0 && seconds <= 3600.0)) {
      throw ConfigError("seconds must be in [0, 3600]");
    }
    const Workload w(find_workload(name), seed);
    return layers ? run_layers(w, seconds) : run_end_to_end(w, seconds);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "mdwf_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdwf_bench: error: %s\n", e.what());
    return 1;
  }
}
