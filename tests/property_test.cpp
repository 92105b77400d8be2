// Property-based tests: randomized stress against invariants and reference
// models, parameterized over seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <list>
#include <map>
#include <vector>

#include "mdwf/common/rng.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/fs/file_lock.hpp"
#include "mdwf/fs/lustre.hpp"
#include "mdwf/md/frame.hpp"
#include "mdwf/net/fair_share.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/perf/thicket.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/storage/page_cache.hpp"

namespace mdwf {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// --- Kernel stress: random agents contending on a semaphore -------------------

TEST_P(Seeded, KernelSurvivesRandomAgentSoup) {
  Simulation sim;
  Rng rng(GetParam());
  sim::Semaphore sem(sim, 3);
  int sem_holders = 0;
  int peak_holders = 0;
  int rounds_done = 0;

  // 4 agents doing random acquire/hold/release rounds on 3 permits.
  std::vector<Task<void>> tasks;
  for (int a = 0; a < 4; ++a) {
    tasks.push_back([](Simulation& s, Rng r, sim::Semaphore& sm, int& held,
                       int& peak, int& rounds) -> Task<void> {
      for (int round = 0; round < 20; ++round) {
        co_await s.delay(Duration::microseconds(
            static_cast<std::int64_t>(r.next_below(500))));
        co_await sm.acquire();
        ++held;
        peak = std::max(peak, held);
        co_await s.delay(Duration::microseconds(
            static_cast<std::int64_t>(1 + r.next_below(50))));
        --held;
        sm.release();
        ++rounds;
      }
    }(sim, rng.fork("agent" + std::to_string(a)), sem, sem_holders,
      peak_holders, rounds_done));
  }
  sim.spawn(all(sim, std::move(tasks)));
  ASSERT_NO_THROW(sim.run_to_quiescence());
  EXPECT_EQ(sem.available(), 3);
  EXPECT_LE(peak_holders, 3);
  EXPECT_EQ(rounds_done, 80);
}

// --- PageCache vs a reference LRU model ----------------------------------------

// An independent model of PageCache's policy: one LRU over (file, page) keys,
// hits counted on reads only, a bounded clean-first victim scan from the LRU
// end, write-back of every dirty page that is evicted or flushed, and nothing
// written back on drop or crash.
struct ReferenceLru {
  ReferenceLru(std::size_t pages, std::uint64_t page_bytes)
      : capacity(pages), page_size(page_bytes) {}

  std::size_t capacity;
  std::uint64_t page_size;
  std::list<std::uint64_t> order;  // front = MRU
  std::map<std::uint64_t, bool> dirty;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_dropped = 0;
  std::uint64_t written_pages = 0;  // evicted dirty + flushed
  std::uint64_t scan_limited = 0;   // scans that gave up on a clean victim

  static constexpr int kScanLimit = 128;

  static std::uint64_t key(std::uint64_t file, std::uint64_t page) {
    return (file << 32) | page;
  }

  // Pages lo..hi move to the MRU end one at a time, in page order.
  void access(std::uint64_t file, std::uint64_t offset, std::uint64_t len,
              bool is_write) {
    if (len == 0) return;
    const std::uint64_t hi = (offset + len - 1) / page_size;
    for (std::uint64_t p = offset / page_size; p <= hi; ++p) {
      touch(key(file, p), is_write);
    }
  }

  void touch(std::uint64_t k, bool is_write) {
    auto it = std::find(order.begin(), order.end(), k);
    if (it != order.end()) {
      if (!is_write) ++hits;
      order.erase(it);
      order.push_front(k);
      if (is_write) dirty[k] = true;
      return;
    }
    ++misses;
    if (order.size() >= capacity) evict();
    order.push_front(k);
    dirty[k] = is_write;
  }

  void evict() {
    auto victim = std::prev(order.end());
    int scanned = 0;
    for (auto it = std::prev(order.end());; --it) {
      if (!dirty[*it]) {
        victim = it;
        break;
      }
      if (it == order.begin()) break;
      if (++scanned >= kScanLimit) {
        ++scan_limited;
        break;
      }
    }
    if (dirty[*victim]) ++written_pages;
    ++evictions;
    dirty.erase(*victim);
    order.erase(victim);
  }

  void flush(std::uint64_t file) {
    for (auto& [k, d] : dirty) {
      if ((k >> 32) == file && d) {
        d = false;
        ++written_pages;
      }
    }
  }

  void drop(std::uint64_t file) {
    std::erase_if(order, [file](std::uint64_t k) { return (k >> 32) == file; });
    std::erase_if(dirty, [file](const auto& kv) {
      return (kv.first >> 32) == file;
    });
  }

  std::size_t crash() {
    const std::size_t lost = dirty_pages();
    dirty_dropped += lost;
    order.clear();
    dirty.clear();
    return lost;
  }

  std::size_t dirty_pages() const {
    return static_cast<std::size_t>(std::count_if(
        dirty.begin(), dirty.end(), [](const auto& kv) { return kv.second; }));
  }

  bool resident(std::uint64_t file, std::uint64_t offset,
                std::uint64_t len) const {
    if (len == 0) return true;
    const std::uint64_t hi = (offset + len - 1) / page_size;
    for (std::uint64_t p = offset / page_size; p <= hi; ++p) {
      if (!dirty.contains(key(file, p))) return false;
    }
    return true;
  }
};

// One random op stream: percentages of writes, reads, flushes and drops
// (crashes take the rest) over six files of `file_pages` pages each.
struct LruMix {
  std::size_t capacity_pages;
  std::uint64_t file_pages;
  int ops;
  std::uint64_t write_pct;
  std::uint64_t read_pct;
  std::uint64_t flush_pct;
  std::uint64_t drop_pct;
};

// Drives a PageCache and the reference with the same stream of multi-page
// and partial-page reads and writes, flushes, drops and crashes, and
// compares every counter after each op and the device's written bytes at
// quiescence.  Returns the reference model, so a caller can check which
// paths the stream reached.
ReferenceLru run_against_reference_lru(std::uint64_t seed, const LruMix& mix) {
  Simulation sim;
  storage::BlockDevice dev(sim, storage::BlockDeviceParams{}, "d");
  const Bytes page = Bytes::kib(256);
  storage::PageCacheParams pcp;
  pcp.capacity = page * mix.capacity_pages;
  pcp.page_size = page;
  storage::PageCache cache(sim, pcp, dev);
  ReferenceLru ref{mix.capacity_pages, page.count()};

  sim.spawn([](storage::PageCache& c, ReferenceLru& r, const LruMix& m,
               Rng rg) -> Task<void> {
    const std::uint64_t ps = r.page_size;
    for (int op = 0; op < m.ops; ++op) {
      const std::uint64_t file = 1 + rg.next_below(6);
      std::uint64_t offset = rg.next_below(m.file_pages * ps);
      std::uint64_t len = 1 + rg.next_below(4 * ps);
      if (rg.bernoulli(0.3)) {  // whole pages
        offset -= offset % ps;
        len = ps * (1 + rg.next_below(4));
      } else if (rg.bernoulli(0.05)) {
        len = 0;
      }
      const std::uint64_t kind = rg.next_below(100);
      if (kind < m.write_pct) {
        co_await c.write(file, Bytes(offset), Bytes(len));
        r.access(file, offset, len, true);
      } else if (kind < m.write_pct + m.read_pct) {
        co_await c.read(file, Bytes(offset), Bytes(len));
        r.access(file, offset, len, false);
      } else if (kind < m.write_pct + m.read_pct + m.flush_pct) {
        co_await c.flush(file);
        r.flush(file);
      } else if (kind < m.write_pct + m.read_pct + m.flush_pct + m.drop_pct) {
        c.drop(file);
        r.drop(file);
      } else {
        EXPECT_EQ(c.crash_drop_dirty(), r.crash()) << "op " << op;
      }
      EXPECT_EQ(c.resident(file, Bytes(offset), Bytes(len)),
                r.resident(file, offset, len))
          << "op " << op;
      EXPECT_EQ(c.hits(), r.hits) << "op " << op;
      EXPECT_EQ(c.misses(), r.misses) << "op " << op;
      EXPECT_EQ(c.evictions(), r.evictions) << "op " << op;
      EXPECT_EQ(c.dirty_pages(), r.dirty_pages()) << "op " << op;
      EXPECT_EQ(c.resident_pages(), r.order.size()) << "op " << op;
      EXPECT_EQ(c.dirty_dropped(), r.dirty_dropped) << "op " << op;
      if (::testing::Test::HasFailure()) break;
    }
  }(cache, ref, mix, Rng(seed)));
  sim.run_to_quiescence();
  EXPECT_EQ(dev.bytes_written(), page * ref.written_pages);
  EXPECT_EQ(cache.failed_writebacks(), 0u);
  return ref;
}

TEST_P(Seeded, PageCacheMatchesReferenceLru) {
  // A 16-page cache under a balanced mix: every op kind, many evictions.
  const ReferenceLru small = run_against_reference_lru(
      GetParam(), LruMix{16, 8, 600, 40, 40, 8, 8});
  EXPECT_GT(small.evictions, 0u);
  EXPECT_GT(small.dirty_dropped, 0u);
  // A cache larger than the victim scan, written far more than read and never
  // crashed, so the scan often runs out of pages before it finds a clean one.
  const ReferenceLru large = run_against_reference_lru(
      GetParam(), LruMix{192, 64, 1500, 88, 8, 2, 2});
  EXPECT_GT(large.scan_limited, 0u);
}

// --- FileLock: exclusion invariant + readers drain ------------------------------

// Writers never wait (DYAD's only exclusive lock is taken on a file it has
// just created), so they try the lock and skip the round when it is held.
TEST_P(Seeded, FileLockExclusionHoldsUnderRandomLoad) {
  Simulation sim;
  fs::FileLock lock(sim);
  Rng rng(GetParam());
  int readers = 0, writers = 0, writes = 0;
  bool violated = false;
  std::vector<Task<void>> tasks;
  for (int a = 0; a < 12; ++a) {
    const bool writer = a % 3 == 0;
    tasks.push_back([](Simulation& s, fs::FileLock& l, Rng r, bool w,
                       int& rd, int& wr, int& granted,
                       bool& bad) -> Task<void> {
      for (int i = 0; i < 15; ++i) {
        co_await s.delay(Duration::microseconds(
            static_cast<std::int64_t>(r.next_below(200))));
        if (w) {
          if (!l.try_lock_exclusive()) continue;
          ++wr;
          ++granted;
          if (rd != 0 || wr != 1) bad = true;
          co_await s.delay(Duration::microseconds(
              static_cast<std::int64_t>(1 + r.next_below(20))));
          --wr;
          l.unlock_exclusive();
        } else {
          co_await l.lock_shared();
          ++rd;
          if (wr != 0) bad = true;
          co_await s.delay(Duration::microseconds(
              static_cast<std::int64_t>(1 + r.next_below(20))));
          --rd;
          l.unlock_shared();
        }
      }
    }(sim, lock, rng.fork("locker" + std::to_string(a)), writer, readers,
      writers, writes, violated));
  }
  sim.spawn(all(sim, std::move(tasks)));
  ASSERT_NO_THROW(sim.run_to_quiescence());  // queued readers all drain
  EXPECT_FALSE(violated);
  EXPECT_GT(writes, 0);
  EXPECT_FALSE(lock.exclusive_held());
  EXPECT_EQ(lock.shared_holders(), 0u);
  EXPECT_EQ(lock.waiting(), 0u);
}

// --- FairShareChannel: lower bounds and conservation -------------------------------

TEST_P(Seeded, FairShareRespectsPhysicalBounds) {
  Simulation sim;
  const double capacity = 1.5e9;
  net::FairShareChannel ch(sim, capacity);
  Rng rng(GetParam());
  struct FlowLog {
    TimePoint start, end;
    std::uint64_t bytes;
  };
  auto logs = std::make_shared<std::vector<FlowLog>>();
  std::vector<Task<void>> tasks;
  std::uint64_t total = 0;
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t bytes = 100'000 + rng.next_below(30'000'000);
    const auto start_us = static_cast<std::int64_t>(rng.next_below(40'000));
    total += bytes;
    tasks.push_back([](Simulation& s, net::FairShareChannel& c,
                       std::shared_ptr<std::vector<FlowLog>> lg,
                       std::uint64_t n, std::int64_t at) -> Task<void> {
      co_await s.delay(Duration::microseconds(at));
      const TimePoint t0 = s.now();
      co_await c.transfer(Bytes(n));
      lg->push_back(FlowLog{t0, s.now(), n});
    }(sim, ch, logs, bytes, start_us));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  ASSERT_EQ(logs->size(), 24u);
  for (const auto& f : *logs) {
    // No flow can beat the raw capacity.
    const double min_secs = static_cast<double>(f.bytes) / capacity;
    EXPECT_GE((f.end - f.start).to_seconds(), min_secs - 1e-9);
  }
  // Aggregate work conservation.
  const double makespan = sim.now().to_seconds();
  EXPECT_GE(makespan, static_cast<double>(total) / capacity - 0.04);
  EXPECT_EQ(ch.total_completed(), Bytes(total));
}

// --- Lustre striping: byte placement matches the analytic layout -------------------

TEST_P(Seeded, StripingPlacesBytesPerLayout) {
  Simulation sim;
  net::NetworkParams np;
  np.latency = Duration::zero();
  net::Network network(sim, np, 8);
  Rng rng(GetParam());
  fs::LustreParams lp;
  lp.ost_count = 4;
  lp.stripe_count = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  lp.client_writeback = false;  // synchronous so counters settle per write
  fs::LustreServers servers(sim, lp, network, net::NodeId{3},
                            {net::NodeId{4}, net::NodeId{5}, net::NodeId{6},
                             net::NodeId{7}});
  const std::uint64_t len = 1 + rng.next_below(24'000'000);

  sim.spawn([](Simulation& s, fs::LustreServers& sv, std::uint64_t n,
               std::uint32_t stripes) -> Task<void> {
    fs::LustreClient client(s, sv, net::NodeId{0});
    auto h = co_await client.create("file");
    co_await client.write(h, Bytes::zero(), Bytes(n));
    // Reference layout: 1 MiB stripes round-robin over `stripes` OSTs
    // starting at the file's first assigned OST.
    std::vector<std::uint64_t> expect(sv.ost_count(), 0);
    const std::uint64_t stripe = 1024 * 1024;
    for (std::uint64_t pos = 0; pos < n;) {
      const std::uint64_t chunk = std::min(stripe - pos % stripe, n - pos);
      expect[(pos / stripe) % stripes] += chunk;
      pos += chunk;
    }
    for (std::uint32_t i = 0; i < sv.ost_count(); ++i) {
      // OST assignment for file 1 starts at OST 0 (round-robin from zero).
      EXPECT_EQ(sv.ost_device(i).bytes_written().count(),
                i < stripes ? expect[i] : 0u)
          << "ost " << i << " n=" << n << " stripes=" << stripes;
    }
  }(sim, servers, len, lp.stripe_count));
  sim.run_to_quiescence();
}

// --- Frame codec: arbitrary corruption never passes ---------------------------------

TEST_P(Seeded, FrameCodecRejectsRandomCorruption) {
  Rng rng(GetParam());
  md::Frame f = md::synthesize_frame("fuzz", 200 + rng.next_below(800),
                                     rng.next_below(50), GetParam());
  auto buf = f.serialize();
  for (int trial = 0; trial < 50; ++trial) {
    auto copy = buf;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t k = 0; k < flips; ++k) {
      copy[rng.next_below(copy.size())] ^=
          std::byte{static_cast<unsigned char>(1 + rng.next_below(255))};
    }
    if (copy == buf) continue;  // flips cancelled out
    EXPECT_THROW((void)md::Frame::deserialize(copy), md::FrameError);
  }
}

// --- Thicket aggregation is order-insensitive ----------------------------------------

TEST_P(Seeded, ThicketAggregationOrderInsensitive) {
  Rng rng(GetParam());
  std::vector<perf::CallTree> trees;
  for (int t = 0; t < 6; ++t) {
    Simulation sim;
    perf::Recorder rec(sim, "r");
    sim.spawn([](Simulation& s, perf::Recorder& r, Rng rg) -> Task<void> {
      perf::ScopedRegion outer(r, "consume");
      for (int i = 0; i < 3; ++i) {
        perf::ScopedRegion inner(r, "read", perf::Category::kMovement);
        co_await s.delay(Duration::microseconds(
            static_cast<std::int64_t>(1 + rg.next_below(5000))));
      }
    }(sim, rec, rng.fork("t" + std::to_string(t))));
    sim.run_to_quiescence();
    trees.push_back(rec.snapshot());
  }
  perf::Thicket fwd, rev;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    fwd.add({}, trees[i].clone());
    rev.add({}, trees[trees.size() - 1 - i].clone());
  }
  const auto fwd_agg = fwd.aggregate();
  const auto rev_agg = rev.aggregate();
  const auto* a = fwd_agg.find("consume/read");
  const auto* b = rev_agg.find("consume/read");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NEAR(a->inclusive_us.mean(), b->inclusive_us.mean(), 1e-9);
  EXPECT_NEAR(a->inclusive_us.stddev(), b->inclusive_us.stddev(), 1e-6);
  EXPECT_DOUBLE_EQ(a->max_single_us.max(), b->max_single_us.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(1, 7, 42, 123, 999, 31337));

}  // namespace
}  // namespace mdwf
