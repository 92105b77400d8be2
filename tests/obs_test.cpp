// mdwf::obs: counter map semantics, Chrome-trace export (golden file),
// determinism of traced ensemble runs, and fault-window annotations.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "mdwf/common/keyval.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/obs/counters.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf {
namespace {

// --- Minimal JSON validity checker -----------------------------------------
// Recursive-descent scan; accepts exactly the subset the exporter emits
// (objects, arrays, strings with escapes, numbers, literals).  Returns true
// iff the whole input is one well-formed value.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- CounterMap -------------------------------------------------------------

TEST(CounterMapTest, InsertionOrderAndAccess) {
  obs::CounterMap c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.get("missing"), 0u);
  c.add("b", 2);
  c.add("a", 1);
  c.add("b", 3);
  c.set("z", 9);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.get("b"), 5u);
  EXPECT_EQ(c.get("a"), 1u);
  EXPECT_EQ(c.get("z"), 9u);
  EXPECT_TRUE(c.contains("a"));
  EXPECT_FALSE(c.contains("q"));
  // Iteration follows first-insertion order, not name order.
  std::string order;
  for (const auto& [name, value] : c) order += name;
  EXPECT_EQ(order, "baz");
}

TEST(CounterMapTest, MergeAndCsv) {
  obs::CounterMap a;
  a.add("x", 1);
  a.add("y", 2);
  obs::CounterMap b;
  b.add("y", 10);
  b.add("w", 4);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 1u);
  EXPECT_EQ(a.get("y"), 12u);
  EXPECT_EQ(a.get("w"), 4u);
  EXPECT_EQ(a.to_csv(), "counter,value\nx,1\ny,12\nw,4\n");
}

// --- TraceSink export -------------------------------------------------------

TEST(TraceSinkTest, GoldenChromeJson) {
  obs::TraceSink sink;
  const obs::TrackId rank = sink.track("node0", "producer0");
  const obs::TrackId nvme = sink.track("node0", "nvme");
  const obs::SpanId compute = sink.span_id(rank, "md_compute", "compute");
  const obs::CounterId inflight = sink.counter_id(nvme, "nvme.inflight");
  const obs::InstantId frames = sink.instant_series(rank, "f=");
  sink.span(compute, TimePoint::origin() + Duration::microseconds(1),
            Duration::microseconds(2));
  sink.counter(inflight, TimePoint::origin() + Duration::nanoseconds(1500), 3);
  sink.instant(frames, TimePoint::origin() + Duration::microseconds(4), 0);

  EXPECT_EQ(sink.event_count(), 3u);
  EXPECT_EQ(sink.span_count(), 1u);
  EXPECT_EQ(sink.counter_samples(), 1u);

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"node0\"}},\n"
      "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"sort_index\":0}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"producer0\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"sort_index\":0}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"nvme\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"sort_index\":1}},\n"
      "{\"ph\":\"X\",\"name\":\"md_compute\",\"cat\":\"compute\","
      "\"pid\":0,\"tid\":0,\"ts\":1.000,\"dur\":2.000},\n"
      "{\"ph\":\"C\",\"name\":\"nvme.inflight\",\"pid\":0,\"tid\":1,"
      "\"ts\":1.500,\"args\":{\"value\":3}},\n"
      "{\"ph\":\"i\",\"name\":\"f=0\",\"pid\":0,\"tid\":0,\"ts\":4.000,"
      "\"s\":\"t\"}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(sink.chrome_json(), expected);
  EXPECT_TRUE(JsonChecker(expected).valid());

  // The metrics CSV leads with a strippable interned-table stats comment.
  EXPECT_EQ(sink.metrics_csv(),
            "# interned names=4 tracks=2 handles=3 records=3\n"
            "ts_us,process,track,counter,value\n"
            "1.500,node0,nvme,nvme.inflight,3\n");
}

TEST(TraceSinkTest, EventsSortedByTimestampStable) {
  obs::TraceSink sink;
  const obs::TrackId t = sink.track("p", "t");
  sink.instant(sink.instant_id(t, "late"),
               TimePoint::origin() + Duration::microseconds(9));
  sink.instant(sink.instant_id(t, "early"),
               TimePoint::origin() + Duration::microseconds(1));
  sink.instant(sink.instant_id(t, "early2"),
               TimePoint::origin() + Duration::microseconds(1));
  const std::string json = sink.chrome_json();
  const auto early = json.find("early");
  const auto early2 = json.find("early2");
  const auto late = json.find("late");
  EXPECT_LT(early, early2);
  EXPECT_LT(early2, late);
}

TEST(TraceSinkTest, EscapesStrings) {
  obs::TraceSink sink;
  const obs::TrackId t = sink.track("p\"q", "a\\b");
  sink.instant(sink.instant_id(t, "x\ny"), TimePoint::origin());
  const std::string json = sink.chrome_json();
  EXPECT_NE(json.find("p\\\"q"), std::string::npos);
  EXPECT_NE(json.find("a\\\\b"), std::string::npos);
  EXPECT_NE(json.find("x\\ny"), std::string::npos);
  EXPECT_TRUE(JsonChecker(json).valid());
}

// A write the device refuses is an error: /dev/full accepts the open and
// fails when the bytes are flushed, and the metrics CSV is then never
// opened (a root run would otherwise create /dev/full.metrics.csv).
TEST(TraceSinkTest, FailedWriteThrowsBeforeTheCsvIsOpened) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::TraceSink sink;
  const obs::TrackId t = sink.track("p", "t");
  sink.instant(sink.instant_id(t, "x"), TimePoint::origin());
  try {
    sink.write("/dev/full");
    ADD_FAILURE() << "a write to /dev/full did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trace: cannot write '/dev/full'");
  }
  EXPECT_FALSE(std::filesystem::exists("/dev/full.metrics.csv"));
}

TEST(TraceSinkTest, HandleInterningDedupesSeries) {
  obs::TraceSink sink;
  const obs::TrackId t = sink.track("node0", "nvme");
  const obs::CounterId a = sink.counter_id(t, "nvme.inflight");
  const obs::CounterId b = sink.counter_id(t, "nvme.inflight");
  EXPECT_EQ(a.v, b.v);
  const obs::SpanId s1 = sink.span_id(t, "flush", "movement");
  const obs::SpanId s2 = sink.span_id(t, "flush", "movement");
  EXPECT_EQ(s1.v, s2.v);
  // Same name, different category: a distinct series.
  const obs::SpanId s3 = sink.span_id(t, "flush", "idle");
  EXPECT_NE(s1.v, s3.v);
  EXPECT_EQ(sink.interned_handles(), 3u);
}

TEST(TraceSinkTest, CounterRegistrationRejectsChromeKeyCollision) {
  obs::TraceSink sink;
  const obs::TrackId nvme = sink.track("node0", "nvme");
  const obs::TrackId cache = sink.track("node0", "pagecache");
  (void)sink.counter_id(nvme, "inflight");
  // Same process (pid), different lane: Chrome would merge the two series
  // under pid+name, so registration must refuse.
  EXPECT_THROW((void)sink.counter_id(cache, "inflight"), std::logic_error);
  // Same name in a *different* process is a distinct Chrome key.
  const obs::TrackId other = sink.track("node1", "nvme");
  EXPECT_NO_THROW((void)sink.counter_id(other, "inflight"));
}

TEST(TraceSinkTest, InstantSeriesMaterializesPayloadSuffix) {
  obs::TraceSink sink;
  const obs::TrackId t = sink.track("node0", "producer0");
  const obs::InstantId frames = sink.instant_series(t, "f=");
  for (std::int64_t f = 0; f < 3; ++f) {
    sink.instant(frames, TimePoint::origin() + Duration::microseconds(f + 1),
                 f);
  }
  const std::string json = sink.chrome_json();
  EXPECT_NE(json.find("\"name\":\"f=0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"f=1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"f=2\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(json).valid());
}

// --- Traced ensemble runs ---------------------------------------------------

workflow::EnsembleConfig tiny_config() {
  workflow::EnsembleConfig config;
  config.solution = workflow::Solution::kDyad;
  config.pairs = 1;
  config.nodes = 1;
  config.workload.frames = 4;
  config.repetitions = 2;
  config.base_seed = 7;
  return config;
}

TEST(ObsEnsembleTest, TraceExportIsValidAndComplete) {
  auto config = tiny_config();
  config.trace_path = testing::TempDir() + "obs_trace_run.json";
  const auto r = workflow::run_ensemble(config);

  const std::string json = read_file(config.trace_path);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_GT(r.counters.get("trace_events"), 0u);

  // Rank spans, frame markers, resource counter samples, and lane metadata
  // all present.
  EXPECT_NE(json.find("\"md_compute\""), std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"i\",\"name\":\"f=0\""), std::string::npos);
  EXPECT_NE(json.find("\"dyad_consume\""), std::string::npos);
  EXPECT_NE(json.find("\"nvme.inflight\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.live_processes\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"producer0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"consumer0\""), std::string::npos);

  const std::string csv =
      read_file(obs::TraceSink::metrics_csv_path(config.trace_path));
  EXPECT_EQ(csv.rfind("# interned ", 0), 0u);
  EXPECT_NE(csv.find("\nts_us,process,track,counter,value\n"),
            std::string::npos);
  EXPECT_NE(csv.find("nvme.inflight"), std::string::npos);
}

TEST(ObsEnsembleTest, SameSeedTracesAreByteIdentical) {
  auto config = tiny_config();
  config.trace_path = testing::TempDir() + "obs_trace_a.json";
  workflow::run_ensemble(config);
  auto config2 = tiny_config();
  config2.trace_path = testing::TempDir() + "obs_trace_b.json";
  workflow::run_ensemble(config2);

  EXPECT_EQ(read_file(config.trace_path), read_file(config2.trace_path));
  EXPECT_EQ(read_file(obs::TraceSink::metrics_csv_path(config.trace_path)),
            read_file(obs::TraceSink::metrics_csv_path(config2.trace_path)));
}

TEST(ObsEnsembleTest, FaultWindowsAnnotateTheTrace) {
  auto config = tiny_config();
  config.workload.frames = 8;
  config.repetitions = 1;
  fault::ScenarioShape shape;
  shape.compute_nodes = config.nodes;
  shape.seed = config.base_seed;
  config.testbed.faults = fault::make_scenario("broker-outage", shape);
  config.testbed.dyad.retry.enabled = true;
  config.trace_path = testing::TempDir() + "obs_trace_fault.json";
  const auto r = workflow::run_ensemble(config);

  const std::string json = read_file(config.trace_path);
  EXPECT_TRUE(JsonChecker(json).valid());
  // The injected broker outage appears as a "fault"-category span on the
  // faults process's kvs lane.
  EXPECT_NE(json.find("\"name\":\"faults\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"outage"), std::string::npos);
  EXPECT_GT(r.counters.get("fault_windows_applied"), 0u);
}

TEST(ObsEnsembleTest, UntracedRunRecordsNoTraceEvents) {
  const auto r = workflow::run_ensemble(tiny_config());
  EXPECT_EQ(r.counters.get("trace_events"), 0u);
  EXPECT_GT(r.counters.get("sim_events"), 0u);
}

// --- EnsembleResult counter round-trip --------------------------------------

TEST(ObsEnsembleTest, CounterMapRoundTrip) {
  auto config = tiny_config();
  const auto r = workflow::run_ensemble(config);
  // Protocol counters land in the map under their registration names, and
  // unregistered names read as zero rather than throwing.
  EXPECT_GT(r.counters.get("dyad_warm_hits") + r.counters.get("dyad_kvs_waits") +
                r.counters.get("dyad_kvs_retries"),
            0u);
  EXPECT_EQ(r.counters.get("no_such_counter"), 0u);
  // Infrastructure counters fire on every DYAD run.
  EXPECT_GT(r.counters.get("kvs_commits"), 0u);
  EXPECT_GT(r.counters.get("cache_misses"), 0u);

  // CSV round-trip: every registered counter appears, in order, with its
  // value.
  const std::string csv = r.counters.to_csv();
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "counter,value");
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    const auto comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    EXPECT_EQ(std::to_string(r.counters.get(line.substr(0, comma))),
              line.substr(comma + 1));
    ++rows;
  }
  EXPECT_EQ(rows, r.counters.size());
}

// --- parse_ensemble_config --------------------------------------------------

TEST(ParseEnsembleConfigTest, AppliesDefaultsAndOverrides) {
  KeyValueConfig cfg;
  cfg.set("solution", "lustre");
  cfg.set("pairs", "8");
  cfg.set("frames", "32");
  cfg.set("trace", "/tmp/t.json");
  workflow::EnsembleConfig defaults;
  defaults.pairs = 4;
  defaults.nodes = 2;
  defaults.repetitions = 5;
  const auto config = workflow::parse_ensemble_config(cfg, defaults);
  EXPECT_EQ(config.solution, workflow::Solution::kLustre);
  EXPECT_EQ(config.pairs, 8u);
  EXPECT_EQ(config.nodes, 2u);
  EXPECT_EQ(config.workload.frames, 32u);
  EXPECT_EQ(config.repetitions, 5u);
  EXPECT_EQ(config.trace_path, "/tmp/t.json");
  EXPECT_TRUE(cfg.unknown_keys().empty());
}

TEST(ParseEnsembleConfigTest, XfsDefaultsToOneNodeAndModelResetsStride) {
  KeyValueConfig cfg;
  cfg.set("solution", "xfs");
  cfg.set("model", "STMV");
  workflow::EnsembleConfig defaults;
  defaults.nodes = 4;
  const auto config = workflow::parse_ensemble_config(cfg, defaults);
  EXPECT_EQ(config.nodes, 1u);
  EXPECT_EQ(config.workload.model.name, "STMV");
  EXPECT_EQ(config.workload.stride, config.workload.model.stride);
}

TEST(ParseEnsembleConfigTest, FaultsEnableRetryAndRejectUnknown) {
  KeyValueConfig cfg;
  cfg.set("faults", "broker-blip");
  const auto config = workflow::parse_ensemble_config(cfg, {});
  EXPECT_FALSE(config.testbed.faults.empty());
  EXPECT_TRUE(config.testbed.dyad.retry.enabled);

  KeyValueConfig bad;
  bad.set("solution", "nfs");
  EXPECT_THROW(workflow::parse_ensemble_config(bad, {}), ConfigError);
  KeyValueConfig bad2;
  bad2.set("faults", "meteor-strike");
  EXPECT_THROW(workflow::parse_ensemble_config(bad2, {}), ConfigError);
}

}  // namespace
}  // namespace mdwf
