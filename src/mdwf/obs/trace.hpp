// Deterministic event tracing (mdwf::obs).
//
// A `TraceSink` records the timeline of one simulated run: spans (region
// enter/exit, via perf::Recorder), counter samples (queue depths, active
// flows, cache state, sampled at the emitting resource's own event points),
// instant markers, and fault-window annotations.  Events carry virtual-time
// timestamps only, so two runs with the same seed produce byte-identical
// traces.
//
// The instrumentation surface is split into two phases:
//
//   Wiring time — emitters register their lanes and series once and keep the
//   returned handles:
//     track()          -> TrackId        (a pid/tid lane in the timeline)
//     span_id()        -> SpanId         (name + category on a lane)
//     counter_id()     -> CounterId      (a metric series on a lane)
//     instant_id()     -> InstantId      (a fixed-name marker)
//     instant_series() -> InstantId      (name = prefix + integer payload)
//   Interning here may allocate and dedupe; counter_id() additionally
//   rejects names that would collide under Chrome's pid+name counter keying.
//
//   Run time — the hot path appends one fixed-width binary record per event
//   into arena-backed chunks: a timestamp, a payload, and the interned
//   handle.  No allocation (amortized chunk refill aside), no string
//   formatting, no lookups.
//
// Export happens after the run: `chrome_json()` / `metrics_csv()` are
// materializers that replay the record log in timestamp order and render the
// same bytes the original string-based emitters produced.
//
// Tracks give each event a home in the timeline: a *process* per simulated
// node (or server group), a *thread* per rank or resource on it — the
// Chrome trace-event pid/tid mapping, so an exported trace opens directly
// in chrome://tracing or Perfetto with one lane per rank/resource.
//
// The sink depends only on mdwf::common; emitters pass timestamps in.  All
// instrumentation hooks are no-ops while no sink is attached (a null check),
// so tracing disabled costs nothing measurable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/common/time.hpp"

namespace mdwf::obs {

// A (process, thread) lane in the exported timeline.
struct TrackId {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

namespace detail {
inline constexpr std::uint32_t kInvalidHandle = 0xffffffffu;
}  // namespace detail

// Handles to interned event series.  Default-constructed handles are invalid
// and must not be emitted; emitters guard with `valid()` (or, more commonly,
// with their sink pointer being null).
struct SpanId {
  std::uint32_t v = detail::kInvalidHandle;
  bool valid() const { return v != detail::kInvalidHandle; }
};

struct CounterId {
  std::uint32_t v = detail::kInvalidHandle;
  bool valid() const { return v != detail::kInvalidHandle; }
};

struct InstantId {
  std::uint32_t v = detail::kInvalidHandle;
  bool valid() const { return v != detail::kInvalidHandle; }
};

class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // --- Wiring time ----------------------------------------------------------

  // Registers (or finds) the lane for `process`/`thread`.  Ids are assigned
  // in first-registration order, which is deterministic because testbed
  // construction is.
  TrackId track(std::string_view process, std::string_view thread);

  // Interns a span series: a region `name` with a short `category` tag
  // ("compute", "movement", "idle", "other", "fault") on lane `t`.
  // Idempotent: the same (lane, name, category) returns the same handle.
  SpanId span_id(TrackId t, std::string_view name, std::string_view category);

  // Interns a counter series on lane `t`.  Chrome keys counter series by
  // pid + name, so a name may live on only one lane per process: a second
  // registration on the same lane dedupes to the first handle, and one on a
  // *different* lane of the same process throws std::logic_error (the
  // exported series would silently interleave two resources' samples).
  CounterId counter_id(TrackId t, std::string_view name);

  // Interns a fixed-name instant marker on lane `t`.
  InstantId instant_id(TrackId t, std::string_view name);

  // Interns an instant *series*: emitted records carry an integer payload
  // and materialize with name `prefix` + decimal payload (e.g. prefix "f="
  // with payload 12 renders as "f=12").  The payload formats at export time,
  // so per-frame markers cost no string building on the hot path.
  InstantId instant_series(TrackId t, std::string_view prefix);

  // --- Run time (hot path) --------------------------------------------------

  // Completed region [start, start+duration) of an interned span series.
  void span(SpanId s, TimePoint start, Duration duration) {
    MDWF_ASSERT(s.valid());
    append(s.v, start.ns(), duration.ns());
    ++span_count_;
  }

  // Point event of an interned marker (payload: series suffix, 0 otherwise).
  void instant(InstantId i, TimePoint at, std::int64_t payload = 0) {
    MDWF_ASSERT(i.valid());
    append(i.v, at.ns(), payload);
  }

  // Sample of an interned counter series.
  void counter(CounterId c, TimePoint at, std::int64_t value) {
    MDWF_ASSERT(c.valid());
    append(c.v, at.ns(), value);
    ++counter_samples_;
  }

  std::size_t event_count() const { return records_; }
  std::size_t counter_samples() const { return counter_samples_; }
  std::size_t span_count() const { return span_count_; }

  // Interned-table sizes, reported in the metrics_csv() comment header.
  std::size_t interned_names() const { return names_.size(); }
  std::size_t interned_handles() const { return handles_.size(); }
  std::size_t interned_tracks() const;

  // --- Materializers --------------------------------------------------------

  // Chrome trace-event JSON; loadable by chrome://tracing and Perfetto.
  std::string chrome_json() const;

  // Every counter sample: ts_us,process,track,counter,value.  Preceded by a
  // single '#'-prefixed comment line reporting interned-table stats; byte
  // comparisons across trace implementations strip '#' lines.
  std::string metrics_csv() const;

  // Writes chrome_json() to `json_path` and metrics_csv() next to it (see
  // metrics_csv_path).  Throws std::runtime_error when a file cannot be
  // opened or written; the CSV is not opened once the JSON write failed.
  void write(const std::string& json_path) const;
  static std::string metrics_csv_path(const std::string& json_path);

 private:
  enum class Kind : std::uint8_t {
    kSpan,
    kInstant,
    kInstantSeries,
    kCounter,
  };

  // One interned event series (the wiring-time half of an event).
  struct Handle {
    Kind kind;
    TrackId track;
    std::uint32_t name;  // interned; instant-series: the prefix
    std::uint32_t cat;   // interned; spans only
  };

  // The fixed-width hot-path record: 24 bytes, no pointers, no strings.
  struct Record {
    std::int64_t ts_ns;
    std::int64_t payload;  // span: dur_ns; counter: value; series: suffix
    std::uint32_t handle;
    std::uint32_t pad_ = 0;
  };

  // Arena chunk.  Power-of-two record count so materializers can index the
  // log as a flat array with shift/mask.
  static constexpr std::uint32_t kChunkShift = 13;
  static constexpr std::uint32_t kChunkRecords = 1u << kChunkShift;  // 8192
  struct Chunk {
    Record recs[kChunkRecords];
  };

  void append(std::uint32_t handle, std::int64_t ts_ns, std::int64_t payload) {
    if (head_used_ == kChunkRecords) [[unlikely]] {
      grow();
    }
    Record& r = head_[head_used_++];
    r.ts_ns = ts_ns;
    r.payload = payload;
    r.handle = handle;
    ++records_;
  }
  void grow();

  const Record& record(std::size_t i) const {
    return chunks_[i >> kChunkShift]->recs[i & (kChunkRecords - 1)];
  }

  struct Process {
    std::string name;
    std::vector<std::string> threads;
    std::map<std::string, std::uint32_t, std::less<>> thread_index;
  };

  std::uint32_t intern(std::string_view s);
  std::uint32_t intern_handle(const Handle& h);
  // Indices into the record log, sorted by (ts, emission order).
  std::vector<std::uint32_t> sorted_order() const;

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_index_;
  std::vector<Process> processes_;
  std::map<std::string, std::uint32_t, std::less<>> process_index_;

  std::vector<Handle> handles_;
  // Dedupe: (kind, pid, tid, name, cat) -> handle index.
  std::map<std::tuple<std::uint8_t, std::uint32_t, std::uint32_t,
                      std::uint32_t, std::uint32_t>,
           std::uint32_t>
      handle_index_;
  // Chrome counter keying guard: (pid, name) -> handle index.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
      counter_key_index_;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  Record* head_ = nullptr;
  std::uint32_t head_used_ = kChunkRecords;  // forces grow() on first append
  std::size_t records_ = 0;
  std::size_t counter_samples_ = 0;
  std::size_t span_count_ = 0;
};

}  // namespace mdwf::obs
