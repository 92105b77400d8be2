// Unit and property tests for the filesystem layer: file locks, the
// XFS-like local filesystem, and the Lustre model.
#include <gtest/gtest.h>

#include <new>
#include <vector>

#include "mdwf/common/rng.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/fs/file_lock.hpp"
#include "mdwf/fs/interference.hpp"
#include "mdwf/fs/local_fs.hpp"
#include "mdwf/fs/lustre.hpp"
#include "mdwf/sim/primitives.hpp"

namespace mdwf::fs {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

// --- FileLock -----------------------------------------------------------------

TEST(FileLockTest, SharedHoldersCoexist) {
  Simulation sim;
  FileLock lock(sim);
  int concurrent = 0, peak = 0;
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back([](Simulation& s, FileLock& l, int& c, int& p) -> Task<void> {
      co_await l.lock_shared();
      ++c;
      p = std::max(p, c);
      co_await s.delay(1_ms);
      --c;
      l.unlock_shared();
    }(sim, lock, concurrent, peak));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 1_ms);
}

TEST(FileLockTest, ExclusiveExcludesReaders) {
  Simulation sim;
  FileLock lock(sim);
  TimePoint reader_got;
  sim.spawn([](Simulation& s, FileLock& l) -> Task<void> {
    EXPECT_TRUE(l.try_lock_exclusive());
    co_await s.delay(5_ms);
    l.unlock_exclusive();
  }(sim, lock));
  sim.spawn([](Simulation& s, FileLock& l, TimePoint& t) -> Task<void> {
    co_await s.delay(1_ms);  // arrive while writer holds
    co_await l.lock_shared();
    t = s.now();
    l.unlock_shared();
  }(sim, lock, reader_got));
  sim.run_to_quiescence();
  EXPECT_EQ(reader_got, TimePoint::origin() + 5_ms);
}

TEST(FileLockTest, TryLockVariants) {
  Simulation sim;
  FileLock lock(sim);
  EXPECT_TRUE(lock.try_lock_exclusive());
  EXPECT_FALSE(lock.try_lock_shared());
  EXPECT_FALSE(lock.try_lock_exclusive());
  lock.unlock_exclusive();
  EXPECT_TRUE(lock.try_lock_shared());
  EXPECT_TRUE(lock.try_lock_shared());
  EXPECT_FALSE(lock.try_lock_exclusive());
  lock.unlock_shared();
  lock.unlock_shared();
  EXPECT_TRUE(lock.try_lock_exclusive());
}

// --- LocalFs -------------------------------------------------------------------

struct LocalFsFixture {
  Simulation sim;
  storage::BlockDevice device;
  storage::PageCache cache;
  LocalFs fs;

  LocalFsFixture()
      : device(sim,
               storage::BlockDeviceParams{.read_bandwidth_bps = 1e9,
                                          .write_bandwidth_bps = 1e9,
                                          .op_latency = 10_us,
                                          .queue_depth = 8,
                                          .capacity = Bytes::mib(64)},
               "nvme"),
        cache(sim,
              storage::PageCacheParams{.capacity = Bytes::mib(8),
                                       .page_size = Bytes::kib(256),
                                       .memcpy_bps = 8e9},
              device),
        fs(sim, LocalFsParams{}, device, cache) {}
};

TEST(LocalFsTest, CreateWriteReadRoundTrip) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const InodeId ino = co_await fx.fs.create("pair0/frame000");
    co_await fx.fs.write(ino, Bytes::zero(), Bytes::kib(644));
    EXPECT_EQ(fx.fs.size(ino), Bytes::kib(644));
    co_await fx.fs.read(ino, Bytes::zero(), Bytes::kib(644));
    EXPECT_TRUE(fx.fs.exists("pair0/frame000"));
    EXPECT_EQ(fx.fs.stat("pair0/frame000"), Bytes::kib(644));
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LocalFsTest, CreateDuplicateThrows) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    (void)co_await fx.fs.create("a");
    bool threw = false;
    try {
      (void)co_await fx.fs.create("a");
    } catch (const FsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LocalFsTest, OpenMissingThrows) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    bool threw = false;
    try {
      (void)co_await fx.fs.open("nope");
    } catch (const FsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LocalFsTest, ReadPastEofThrows) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const InodeId ino = co_await fx.fs.create("short");
    co_await fx.fs.write(ino, Bytes::zero(), Bytes(100));
    bool threw = false;
    try {
      co_await fx.fs.read(ino, Bytes(50), Bytes(100));
    } catch (const FsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LocalFsTest, UnlinkReleasesSpaceAndCache) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const Bytes before = fx.fs.free_bytes();
    const InodeId ino = co_await fx.fs.create("tmp");
    co_await fx.fs.write(ino, Bytes::zero(), Bytes::mib(1));
    EXPECT_LT(fx.fs.free_bytes(), before);
    co_await fx.fs.unlink("tmp");
    EXPECT_EQ(fx.fs.free_bytes(), before);
    EXPECT_FALSE(fx.fs.exists("tmp"));
    EXPECT_EQ(fx.cache.resident_pages(), 0u);
    // A growth past the free space is refused before anything changes.
    const InodeId big = co_await fx.fs.create("big");
    bool threw = false;
    try {
      co_await fx.fs.write(big, Bytes::zero(), before + Bytes(1));
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(fx.fs.free_bytes(), before);
    EXPECT_EQ(fx.fs.size(big), Bytes::zero());
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LocalFsTest, JournalCommitsOnMetadataOps) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const auto before = fx.fs.journal_commits();
    const InodeId ino = co_await fx.fs.create("j");      // +1
    co_await fx.fs.write(ino, Bytes::zero(), Bytes(10));  // +1 (extend)
    co_await fx.fs.write(ino, Bytes::zero(), Bytes(10));  // +0 (no extend)
    co_await fx.fs.unlink("j");                           // +1
    EXPECT_EQ(fx.fs.journal_commits() - before, 3u);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LocalFsTest, BufferedWriteFasterThanDeviceWrite) {
  LocalFsFixture f;
  Duration write_time;
  f.sim.spawn([](LocalFsFixture& fx, Duration& out) -> Task<void> {
    const InodeId ino = co_await fx.fs.create("fast");
    const TimePoint t0 = fx.sim.now();
    co_await fx.fs.write(ino, Bytes::zero(), Bytes::mib(1));
    out = fx.sim.now() - t0;
  }(f, write_time));
  f.sim.run_to_quiescence();
  // 1 MiB at 8 GB/s memcpy ~= 131 us (+ journal+alloc); raw device would be
  // ~1 ms.  Assert we are well under device speed.
  EXPECT_LT(write_time, 500_us);
  EXPECT_GT(write_time, 100_us);
}

TEST(LocalFsTest, FsyncFlushesDirtyPages) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const InodeId ino = co_await fx.fs.create("d");
    co_await fx.fs.write(ino, Bytes::zero(), Bytes::kib(512));
    const auto written_before = fx.device.bytes_written().count();
    co_await fx.fs.fsync(ino);
    EXPECT_GT(fx.device.bytes_written().count(), written_before);
    EXPECT_EQ(fx.cache.dirty_pages(), 0u);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LocalFsTest, PerFileLocksAreIndependent) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const InodeId a = co_await fx.fs.create("a");
    const InodeId b = co_await fx.fs.create("b");
    EXPECT_TRUE(fx.fs.lock(a).try_lock_exclusive());
    EXPECT_TRUE(fx.fs.lock(b).try_lock_exclusive());
    fx.fs.lock(a).unlock_exclusive();
    fx.fs.lock(b).unlock_exclusive();
  }(f));
  f.sim.run_to_quiescence();
}

// --- Lustre ---------------------------------------------------------------------

struct LustreFixture {
  Simulation sim;
  net::Network network;
  LustreServers servers;

  static net::NetworkParams net_params() {
    net::NetworkParams p;
    p.nic_bandwidth_bps = 3.2e9;
    p.latency = 2_us;
    return p;
  }
  static LustreParams lustre_params() {
    LustreParams p;
    p.ost_count = 4;
    return p;
  }
  // Nodes 0..1 compute, 2 MDS, 3..6 OSTs.
  LustreFixture()
      : network(sim, net_params(), 7),
        servers(sim, lustre_params(), network, net::NodeId{2},
                {net::NodeId{3}, net::NodeId{4}, net::NodeId{5},
                 net::NodeId{6}}) {}
};

TEST(LustreTest, CreateWriteReadAcrossNodes) {
  LustreFixture f;
  f.sim.spawn([](LustreFixture& fx) -> Task<void> {
    LustreClient writer(fx.sim, fx.servers, net::NodeId{0});
    LustreClient reader(fx.sim, fx.servers, net::NodeId{1});
    auto h = co_await writer.create("frames/f0");
    co_await writer.write(h, Bytes::zero(), Bytes::kib(644));
    co_await writer.close(h, /*wrote=*/true);
    auto h2 = co_await reader.open("frames/f0");
    co_await reader.read(h2, Bytes::zero(), Bytes::kib(644));
    const auto sz = co_await reader.stat("frames/f0");
    EXPECT_EQ(sz, Bytes::kib(644));
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LustreTest, WriteTouchesOstDevice) {
  // Client write-back caching defers the flush, but every byte must still
  // land on an OST device by quiescence.
  LustreFixture f;
  f.sim.spawn([](LustreFixture& fx) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    auto h = co_await c.create("x");
    co_await c.write(h, Bytes::zero(), Bytes::mib(2));
  }(f));
  f.sim.run_to_quiescence();
  Bytes total = Bytes::zero();
  for (std::uint32_t i = 0; i < f.servers.ost_count(); ++i) {
    total += f.servers.ost_device(i).bytes_written();
  }
  EXPECT_EQ(total, Bytes::mib(2));
}

TEST(LustreTest, BufferedWriteReturnsBeforeFlush) {
  LustreFixture f;
  Duration write_time;
  f.sim.spawn([](LustreFixture& fx, Duration& out) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    auto h = co_await c.create("wb");
    const TimePoint t0 = fx.sim.now();
    co_await c.write(h, Bytes::zero(), Bytes::mib(16));
    out = fx.sim.now() - t0;
  }(f, write_time));
  f.sim.run_to_quiescence();
  // 16 MiB at 5 GB/s client cache ~= 3.4 ms; a synchronous OST round-trip
  // would be far slower than the copy alone.
  EXPECT_LT(write_time, 4_ms);
}

TEST(LustreTest, WriteBeyondGrantIsSynchronous) {
  LustreFixture f;
  Duration write_time;
  f.sim.spawn([](LustreFixture& fx, Duration& out) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    auto h = co_await c.create("big");
    const TimePoint t0 = fx.sim.now();
    co_await c.write(h, Bytes::zero(), Bytes::mib(64));  // > 32 MiB grant
    out = fx.sim.now() - t0;
    // The OSTs saw the data before write returned.
    Bytes total = Bytes::zero();
    for (std::uint32_t i = 0; i < fx.servers.ost_count(); ++i) {
      total += fx.servers.ost_device(i).bytes_written();
    }
    EXPECT_EQ(total, Bytes::mib(64));
  }(f, write_time));
  f.sim.run_to_quiescence();
  EXPECT_GT(write_time, 20_ms);  // 64 MiB over ~3 GB/s paths
}

TEST(LustreTest, FilesDistributeRoundRobinAcrossOsts) {
  LustreFixture f;
  f.sim.spawn([](LustreFixture& fx) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    for (int i = 0; i < 8; ++i) {
      auto h = co_await c.create("f" + std::to_string(i));
      co_await c.write(h, Bytes::zero(), Bytes::mib(1));
    }
  }(f));
  f.sim.run_to_quiescence();
  // 8 single-stripe files over 4 OSTs -> 2 MiB each once flushed.
  for (std::uint32_t i = 0; i < f.servers.ost_count(); ++i) {
    EXPECT_EQ(f.servers.ost_device(i).bytes_written(), Bytes::mib(2));
  }
}

TEST(LustreTest, StripingSplitsLargeFileAcrossOsts) {
  Simulation sim;
  net::Network network(sim, LustreFixture::net_params(), 7);
  LustreParams striped = LustreFixture::lustre_params();
  striped.stripe_count = 4;
  LustreServers servers(sim, striped, network, net::NodeId{2},
                        {net::NodeId{3}, net::NodeId{4}, net::NodeId{5},
                         net::NodeId{6}});
  sim.spawn([](Simulation& s, LustreServers& sv) -> Task<void> {
    LustreClient c(s, sv, net::NodeId{0});
    auto h = co_await c.create("big");
    co_await c.write(h, Bytes::zero(), Bytes::mib(8));
  }(sim, servers));
  sim.run_to_quiescence();
  for (std::uint32_t i = 0; i < servers.ost_count(); ++i) {
    EXPECT_EQ(servers.ost_device(i).bytes_written(), Bytes::mib(2));
  }
}

TEST(LustreTest, ReadPastEofThrows) {
  LustreFixture f;
  f.sim.spawn([](LustreFixture& fx) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    auto h = co_await c.create("eof");
    co_await c.write(h, Bytes::zero(), Bytes(100));
    bool threw = false;
    try {
      co_await c.read(h, Bytes(50), Bytes(100));
    } catch (const FsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LustreTest, OpenMissingThrows) {
  LustreFixture f;
  f.sim.spawn([](LustreFixture& fx) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    bool threw = false;
    try {
      (void)co_await c.open("ghost");
    } catch (const FsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_FALSE(co_await c.exists("ghost"));
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LustreTest, PutIsSlowerThanLocalBufferedWrite) {
  // The core contrast of the paper: a Lustre frame put (create + write +
  // publishing close) pays MDS RPCs even when the data itself is buffered.
  LustreFixture f;
  Duration lustre_time;
  f.sim.spawn([](LustreFixture& fx, Duration& out) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    const TimePoint t0 = fx.sim.now();
    auto h = co_await c.create("slow");
    co_await c.write(h, Bytes::zero(), Bytes::kib(644));
    co_await c.close(h, true);
    out = fx.sim.now() - t0;
  }(f, lustre_time));
  f.sim.run_to_quiescence();
  EXPECT_GT(lustre_time, 500_us);  // local buffered write is ~100-200 us
}

TEST(LustreTest, UnlinkRemovesFile) {
  LustreFixture f;
  f.sim.spawn([](LustreFixture& fx) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    (void)co_await c.create("gone");
    co_await c.unlink("gone");
    EXPECT_FALSE(co_await c.exists("gone"));
  }(f));
  f.sim.run_to_quiescence();
}

TEST(LustreTest, MdsQueueingSerializesBeyondConcurrency) {
  Simulation sim;
  net::NetworkParams np;
  np.latency = Duration::zero();
  np.control_message_size = Bytes(0);
  net::Network network(sim, np, 10);
  LustreParams lp;
  lp.ost_count = 1;
  lp.mds_concurrency = 1;
  lp.mds_service = 1_ms;
  lp.client_rpc_cpu = Duration::zero();
  LustreServers servers(sim, lp, network, net::NodeId{8}, {net::NodeId{9}});
  std::vector<Task<void>> tasks;
  for (std::uint32_t i = 0; i < 4; ++i) {
    tasks.push_back([](Simulation& s, LustreServers& sv,
                       std::uint32_t node) -> Task<void> {
      LustreClient c(s, sv, net::NodeId{node});
      (void)co_await c.create("n" + std::to_string(node));
    }(sim, servers, i));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  // 4 creates, MDS concurrency 1, 1 ms service -> 4 ms.
  EXPECT_EQ(sim.now(), TimePoint::origin() + 4_ms);
  EXPECT_EQ(servers.mds_requests(), 4u);
}

// --- Interference ------------------------------------------------------------------

TEST(InterferenceTest, EpisodesApplyAndClearLoad) {
  LustreFixture f;
  InterferenceParams ip;
  ip.mean_interarrival = 10_ms;
  const TimePoint horizon = TimePoint::origin() + 1_s;
  f.sim.spawn(run_ost_interference(f.sim, f.servers, ip, Rng(42), horizon));
  f.sim.run_to_quiescence();
  // After the horizon all episodes eventually expire; devices return to
  // full speed.  Verify by timing a read.
  Duration t_read;
  f.sim.spawn([](LustreFixture& fx, Duration& out) -> Task<void> {
    LustreClient c(fx.sim, fx.servers, net::NodeId{0});
    auto h = co_await c.create("post");
    co_await c.write(h, Bytes::zero(), Bytes::mib(1));
    const TimePoint t0 = fx.sim.now();
    co_await c.read(h, Bytes::zero(), Bytes::mib(1));
    out = fx.sim.now() - t0;
  }(f, t_read));
  f.sim.run_to_quiescence();
  EXPECT_LT(t_read, 2_ms);
}

TEST(InterferenceTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    LustreFixture f;
    InterferenceParams ip;
    ip.mean_interarrival = 5_ms;
    f.sim.spawn(run_ost_interference(f.sim, f.servers, ip, Rng(7),
                                     TimePoint::origin() + 200_ms));
    Duration io_time;
    f.sim.spawn([](LustreFixture& fx, Duration& out) -> Task<void> {
      LustreClient c(fx.sim, fx.servers, net::NodeId{0});
      auto h = co_await c.create("f");
      const TimePoint t0 = fx.sim.now();
      for (int i = 0; i < 20; ++i) {
        co_await c.write(h, Bytes::mib(1) * static_cast<std::uint64_t>(i),
                         Bytes::mib(1));
      }
      out = fx.sim.now() - t0;
    }(f, io_time));
    f.sim.run_to_quiescence();
    return io_time;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mdwf::fs
