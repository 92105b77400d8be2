#include "layers.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <map>
#include <string>

namespace mdwf::bench {
namespace {

constexpr std::array<const char*, 12> kModules = {
    "sim",      "net",  "storage", "fs",     "kvs",    "dyad",
    "stream",   "workflow", "perf", "obs",   "health", "tenant"};

constexpr std::array<const char*, 10> kFiles = {
    "sim.event_heap",     "sim.task",           "sim.primitives",
    "net.fair_share",     "storage.page_cache", "storage.block_device",
    "fs.local_fs",        "fs.lustre",          "perf.recorder",
    "workflow.connector"};

// Thicket region behind each simulated per-call metric.
constexpr std::array<std::pair<const char*, const char*>, 9> kRegions = {{
    {"dyad.fetch_sim_us", "dyad_fetch"},
    {"dyad.watch_wait_sim_us", "dyad_watch_wait"},
    {"dyad.get_data_sim_us", "dyad_get_data"},
    {"dyad.commit_sim_us", "dyad_commit"},
    {"stream.fetch_sim_us", "stream_fetch"},
    {"stream.wait_sim_us", "stream_wait"},
    {"stream.put_sim_us", "stream_put"},
    {"workflow.explicit_sync_sim_us", "explicit_sync"},
    {"workflow.producer_sync_sim_us", "producer_sync"},
}};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Occupancy kinds: which trace counters each one averages over.
enum Kind { kNic, kNvme, kDirty, kKvs, kMds, kLive, kKinds };

int kind_of(std::string_view counter) {
  if (counter == "nic.tx.flows" || counter == "nic.rx.flows") return kNic;
  if (counter == "nvme.inflight") return kNvme;
  if (counter == "pagecache.dirty_pages") return kDirty;
  if (counter == "kvs.pending") return kKvs;
  if (counter == "mds.pending") return kMds;
  if (counter == "sim.live_processes") return kLive;
  return -1;
}

struct Series {
  int kind = -1;
  double last_ts = 0.0;
  double last_value = 0.0;
  double area = 0.0;  // value x microseconds
  double busy = 0.0;  // microseconds with value > 0

  void advance(double ts) {
    const double dt = ts - last_ts;
    area += last_value * dt;
    if (last_value > 0.0) busy += dt;
    last_ts = ts;
  }
};

}  // namespace

void add_host_shares(const PcSampler::Attribution& a,
                     std::vector<Metric>& out) {
  const double total = static_cast<double>(a.samples);
  auto pct = [&](std::uint64_t n) {
    return ratio(100.0 * static_cast<double>(n), total);
  };
  auto count_of = [](const std::map<std::string, std::uint64_t>& m,
                     const std::string& key) -> std::uint64_t {
    const auto it = m.find(key);
    return it == m.end() ? 0 : it->second;
  };
  std::uint64_t listed = 0;
  for (const char* m : kModules) {
    const std::uint64_t n = count_of(a.by_module, m);
    listed += n;
    out.push_back(single(std::string(m) + ".host_pct", "%", pct(n)));
  }
  // Everything else: common, fault, sweep, ... and unattributed samples.
  out.push_back(single("other.host_pct", "%", pct(a.samples - listed)));
  for (const char* f : kFiles) {
    out.push_back(single(std::string(f) + ".host_pct", "%",
                         pct(count_of(a.by_file, f))));
  }
  out.push_back(single("layers.samples", "count", total));
  out.push_back(single("layers.attributed_frac", "ratio",
                       ratio(static_cast<double>(a.attributed), total)));
}

void add_sim_per_call(const perf::Thicket& thicket, std::vector<Metric>& out) {
  const perf::StatTree tree = thicket.aggregate();
  for (const auto& [metric, region] : kRegions) {
    double total_us = 0.0;
    double calls = 0.0;
    for (const auto& [path, node] : tree.query(std::string("**/") + region)) {
      total_us += node->inclusive_us.sum();
      calls += node->count.sum();
    }
    out.push_back(single(metric, "sim_us", ratio(total_us, calls)));
  }
}

void add_occupancy(std::string_view csv, std::vector<Metric>& out) {
  std::map<std::string, Series, std::less<>> series;
  double end_ts = 0.0;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    if (eol == std::string_view::npos) eol = csv.size();
    const std::string_view line = csv.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#' || line.starts_with("ts_us")) continue;
    // ts_us,process,track,counter,value
    const std::size_t c1 = line.find(',');
    const std::size_t c3 = line.find(',', line.find(',', c1 + 1) + 1);
    const std::size_t c4 = line.rfind(',');
    const std::string_view counter = line.substr(c3 + 1, c4 - c3 - 1);
    const int kind = kind_of(counter);
    double ts = 0.0;
    double value = 0.0;
    std::from_chars(line.data(), line.data() + c1, ts);
    std::from_chars(line.data() + c4 + 1, line.data() + line.size(), value);
    end_ts = std::max(end_ts, ts);
    if (kind < 0) continue;
    Series& s = series[std::string(line.substr(c1 + 1, c4 - c1 - 1))];
    s.kind = kind;
    s.advance(ts);
    s.last_value = value;
  }
  std::array<double, kKinds> mean{};
  std::array<double, kKinds> busy{};
  std::array<int, kKinds> n{};
  for (auto& [key, s] : series) {
    s.advance(end_ts);
    mean[s.kind] += ratio(s.area, end_ts);
    busy[s.kind] += ratio(s.busy, end_ts);
    ++n[s.kind];
  }
  auto avg = [&](const std::array<double, kKinds>& v, Kind k) {
    return ratio(v[k], n[k]);
  };
  out.push_back(single("net.nic_flows_mean", "flows", avg(mean, kNic)));
  out.push_back(single("net.nic_busy_frac", "ratio", avg(busy, kNic)));
  out.push_back(single("storage.nvme_inflight_mean", "ops", avg(mean, kNvme)));
  out.push_back(single("storage.nvme_busy_frac", "ratio", avg(busy, kNvme)));
  out.push_back(
      single("storage.dirty_pages_mean", "pages", avg(mean, kDirty)));
  out.push_back(single("kvs.pending_mean", "requests", avg(mean, kKvs)));
  out.push_back(single("kvs.busy_frac", "ratio", avg(busy, kKvs)));
  out.push_back(single("fs.mds_pending_mean", "requests", avg(mean, kMds)));
  out.push_back(
      single("sim.live_processes_mean", "processes", avg(mean, kLive)));
}

void add_counts(const obs::CounterMap& c, std::vector<Metric>& out) {
  auto get = [&](const char* name) {
    return static_cast<double>(c.get(name));
  };
  const double frames = get("frames_consumed");
  out.push_back(single("kvs.commits", "count", get("kvs_commits")));
  out.push_back(single("kvs.lookups_per_frame", "count/frame",
                       ratio(get("kvs_lookups"), frames)));
  out.push_back(single("kvs.sheds", "count", get("kvs_sheds")));
  out.push_back(single(
      "storage.cache_hit_ratio", "ratio",
      ratio(get("cache_hits"), get("cache_hits") + get("cache_misses"))));
  out.push_back(single("dyad.warm_hit_ratio", "ratio",
                       ratio(get("dyad_warm_hits"), frames)));
  out.push_back(single("dyad.kvs_retries", "count", get("dyad_kvs_retries")));
  out.push_back(single("stream.staged_hit_ratio", "ratio",
                       ratio(get("stream_staged_hits"), frames)));
  out.push_back(
      single("stream.credit_waits", "count", get("stream_credit_waits")));
  out.push_back(single("health.quota_sheds", "count",
                       get("quota_kvs_sheds") + get("quota_mds_sheds") +
                           get("quota_ost_sheds")));
  out.push_back(single("tenant.noise_shed_ratio", "ratio",
                       ratio(get("noise_sheds"), get("noise_ops"))));
  out.push_back(single("net.retransmit_timeouts", "count",
                       get("net_retransmit_timeouts")));
}

}  // namespace mdwf::bench
