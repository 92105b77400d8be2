#include "mdwf/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "mdwf/common/assert.hpp"

namespace mdwf::obs {
namespace {

// Forward decimal rendering into a caller buffer; returns one past the last
// digit.  The materializers format millions of integers, so this avoids the
// std::to_string temporary (and snprintf's locale machinery) per field.
char* write_u64(char* p, std::uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n != 0) *p++ = tmp[--n];
  return p;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, static_cast<std::size_t>(write_u64(buf, v) - buf));
}

void append_i64(std::string& out, std::int64_t v) {
  if (v < 0) {
    out += '-';
    append_u64(out, static_cast<std::uint64_t>(-(v + 1)) + 1u);
  } else {
    append_u64(out, static_cast<std::uint64_t>(v));
  }
}

// Integer nanoseconds rendered as microseconds with exactly three decimals:
// deterministic (no floating point) and lossless.
void append_us(std::string& out, std::int64_t ns) {
  MDWF_ASSERT(ns >= 0);
  char buf[26];
  char* p = write_u64(buf, static_cast<std::uint64_t>(ns) / 1000u);
  const auto frac = static_cast<std::uint32_t>(ns % 1000);
  *p++ = '.';
  *p++ = static_cast<char>('0' + frac / 100);
  *p++ = static_cast<char>('0' + (frac / 10) % 10);
  *p++ = static_cast<char>('0' + frac % 10);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Writes `text` to `path`, closing the file before reporting success: a full
// device accepts the open and fails only when the bytes are flushed.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    throw std::runtime_error("trace: cannot open '" + path + "' for writing");
  }
  f << text;
  f.close();
  if (!f) throw std::runtime_error("trace: cannot write '" + path + "'");
}

}  // namespace

TraceSink::TraceSink() = default;

std::uint32_t TraceSink::intern(std::string_view s) {
  const auto it = name_index_.find(s);
  if (it != name_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(s);
  name_index_.emplace(std::string(s), id);
  return id;
}

TrackId TraceSink::track(std::string_view process, std::string_view thread) {
  std::uint32_t pid;
  const auto pit = process_index_.find(process);
  if (pit != process_index_.end()) {
    pid = pit->second;
  } else {
    pid = static_cast<std::uint32_t>(processes_.size());
    processes_.push_back(Process{std::string(process), {}, {}});
    process_index_.emplace(std::string(process), pid);
  }
  Process& proc = processes_[pid];
  std::uint32_t tid;
  const auto tit = proc.thread_index.find(thread);
  if (tit != proc.thread_index.end()) {
    tid = tit->second;
  } else {
    tid = static_cast<std::uint32_t>(proc.threads.size());
    proc.threads.emplace_back(thread);
    proc.thread_index.emplace(std::string(thread), tid);
  }
  return TrackId{pid, tid};
}

std::uint32_t TraceSink::intern_handle(const Handle& h) {
  const auto key = std::make_tuple(static_cast<std::uint8_t>(h.kind),
                                   h.track.pid, h.track.tid, h.name, h.cat);
  const auto it = handle_index_.find(key);
  if (it != handle_index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(handles_.size());
  handles_.push_back(h);
  handle_index_.emplace(key, id);
  return id;
}

SpanId TraceSink::span_id(TrackId t, std::string_view name,
                          std::string_view category) {
  return SpanId{
      intern_handle(Handle{Kind::kSpan, t, intern(name), intern(category)})};
}

CounterId TraceSink::counter_id(TrackId t, std::string_view name) {
  const std::uint32_t name_id = intern(name);
  const auto key = std::make_pair(t.pid, name_id);
  const auto it = counter_key_index_.find(key);
  if (it != counter_key_index_.end()) {
    const Handle& prior = handles_[it->second];
    if (prior.track.tid != t.tid) {
      throw std::logic_error(
          "obs: counter '" + std::string(name) + "' already registered on " +
          processes_[t.pid].name + "/" +
          processes_[t.pid].threads[prior.track.tid] +
          "; Chrome keys counter series by pid+name, so a second lane in the "
          "same process would interleave samples");
    }
    return CounterId{it->second};
  }
  const std::uint32_t id =
      intern_handle(Handle{Kind::kCounter, t, name_id, 0});
  counter_key_index_.emplace(key, id);
  return CounterId{id};
}

InstantId TraceSink::instant_id(TrackId t, std::string_view name) {
  return InstantId{intern_handle(Handle{Kind::kInstant, t, intern(name), 0})};
}

InstantId TraceSink::instant_series(TrackId t, std::string_view prefix) {
  return InstantId{
      intern_handle(Handle{Kind::kInstantSeries, t, intern(prefix), 0})};
}

std::size_t TraceSink::interned_tracks() const {
  std::size_t n = 0;
  for (const Process& p : processes_) n += p.threads.size();
  return n;
}

void TraceSink::grow() {
  chunks_.push_back(std::make_unique<Chunk>());
  head_ = chunks_.back()->recs;
  head_used_ = 0;
}

std::vector<std::uint32_t> TraceSink::sorted_order() const {
  std::vector<std::uint32_t> order(records_);
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  // Stable: events at the same instant keep emission order (FIFO, like the
  // simulator's own event queue).  Counters and instants are appended in
  // clock order already; only spans (whose record carries the *start* time,
  // emitted at close) land out of order, so the log is nearly sorted and
  // the merge passes are cheap.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return record(a).ts_ns < record(b).ts_ns;
                   });
  return order;
}

std::string TraceSink::chrome_json() const {
  std::string out;
  out.reserve(128 + records_ * 96);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: name and sort order for every registered lane.
  for (std::uint32_t pid = 0; pid < processes_.size(); ++pid) {
    const Process& proc = processes_[pid];
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    append_u64(out, pid);
    out += ",\"tid\":0,\"args\":{\"name\":";
    append_json_string(out, proc.name);
    out += "}}";
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":";
    append_u64(out, pid);
    out += ",\"tid\":0,\"args\":{\"sort_index\":";
    append_u64(out, pid);
    out += "}}";
    for (std::uint32_t tid = 0; tid < proc.threads.size(); ++tid) {
      sep();
      out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
      append_u64(out, pid);
      out += ",\"tid\":";
      append_u64(out, tid);
      out += ",\"args\":{\"name\":";
      append_json_string(out, proc.threads[tid]);
      out += "}}";
      sep();
      out += "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":";
      append_u64(out, pid);
      out += ",\"tid\":";
      append_u64(out, tid);
      out += ",\"args\":{\"sort_index\":";
      append_u64(out, tid);
      out += "}}";
    }
  }

  // Per-handle constant fragments, computed once: each record then costs two
  // or three memcpys plus the integer fields.  `pre` runs through `"ts":`
  // (for instant series: through the escaped name prefix, with `mid` closing
  // the name and running through `"ts":`).
  struct Frag {
    std::string pre;
    std::string mid;
  };
  std::vector<Frag> frags(handles_.size());
  for (std::size_t h = 0; h < handles_.size(); ++h) {
    const Handle& hd = handles_[h];
    Frag& f = frags[h];
    auto pid_tid_ts = [&](std::string& s) {
      s += ",\"pid\":";
      append_u64(s, hd.track.pid);
      s += ",\"tid\":";
      append_u64(s, hd.track.tid);
      s += ",\"ts\":";
    };
    switch (hd.kind) {
      case Kind::kSpan:
        f.pre = "{\"ph\":\"X\",\"name\":";
        append_json_string(f.pre, names_[hd.name]);
        f.pre += ",\"cat\":";
        append_json_string(f.pre, names_[hd.cat]);
        pid_tid_ts(f.pre);
        break;
      case Kind::kInstant:
        f.pre = "{\"ph\":\"i\",\"name\":";
        append_json_string(f.pre, names_[hd.name]);
        pid_tid_ts(f.pre);
        break;
      case Kind::kInstantSeries: {
        // Name = escaped prefix + decimal payload; digits never need
        // escaping, so the quote closes in `mid`.
        std::string esc;
        append_json_string(esc, names_[hd.name]);
        esc.pop_back();  // drop the closing quote; payload digits follow
        f.pre = "{\"ph\":\"i\",\"name\":" + esc;
        f.mid = "\"";
        pid_tid_ts(f.mid);
        break;
      }
      case Kind::kCounter:
        f.pre = "{\"ph\":\"C\",\"name\":";
        append_json_string(f.pre, names_[hd.name]);
        pid_tid_ts(f.pre);
        break;
    }
  }

  for (const std::uint32_t i : sorted_order()) {
    const Record& r = record(i);
    const Handle& h = handles_[r.handle];
    const Frag& f = frags[r.handle];
    sep();
    switch (h.kind) {
      case Kind::kSpan:
        out += f.pre;
        append_us(out, r.ts_ns);
        out += ",\"dur\":";
        append_us(out, r.payload);
        out += "}";
        break;
      case Kind::kInstant:
        out += f.pre;
        append_us(out, r.ts_ns);
        out += ",\"s\":\"t\"}";
        break;
      case Kind::kInstantSeries:
        out += f.pre;
        append_i64(out, r.payload);
        out += f.mid;
        append_us(out, r.ts_ns);
        out += ",\"s\":\"t\"}";
        break;
      case Kind::kCounter:
        out += f.pre;
        append_us(out, r.ts_ns);
        out += ",\"args\":{\"value\":";
        append_i64(out, r.payload);
        out += "}}";
        break;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string TraceSink::metrics_csv() const {
  // Interned-table stats ride along as a strippable comment: consumers that
  // byte-compare across implementations filter '#' lines first.
  std::string out = "# interned names=";
  append_u64(out, names_.size());
  out += " tracks=";
  append_u64(out, interned_tracks());
  out += " handles=";
  append_u64(out, handles_.size());
  out += " records=";
  append_u64(out, records_);
  out += "\nts_us,process,track,counter,value\n";

  // Per-counter-handle constant middle: ",process,track,name,".
  std::vector<std::string> mids(handles_.size());
  for (std::size_t h = 0; h < handles_.size(); ++h) {
    const Handle& hd = handles_[h];
    if (hd.kind != Kind::kCounter) continue;
    std::string& m = mids[h];
    m += ',';
    m += processes_[hd.track.pid].name;
    m += ',';
    m += processes_[hd.track.pid].threads[hd.track.tid];
    m += ',';
    m += names_[hd.name];
    m += ',';
  }

  for (const std::uint32_t i : sorted_order()) {
    const Record& r = record(i);
    const Handle& h = handles_[r.handle];
    if (h.kind != Kind::kCounter) continue;
    append_us(out, r.ts_ns);
    out += mids[r.handle];
    append_i64(out, r.payload);
    out += '\n';
  }
  return out;
}

std::string TraceSink::metrics_csv_path(const std::string& json_path) {
  return json_path + ".metrics.csv";
}

void TraceSink::write(const std::string& json_path) const {
  write_file(json_path, chrome_json());
  write_file(metrics_csv_path(json_path), metrics_csv());
}

}  // namespace mdwf::obs
