// PR-3 crash-consistency and end-to-end integrity tests: CRC32C
// known-answer vectors, the corruption ledger, power-loss semantics in the
// storage stack (page cache, LocalFs, Lustre), workflow checkpoints, the
// config bindings, and the acceptance scenario — a seeded ensemble with a
// mid-run node crash plus nonzero bit-flip rates must deliver the complete
// checksum-verified frame set for all three data-management solutions.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "mdwf/common/crc32c.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/common/time.hpp"
#include "mdwf/fault/injector.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/fs/local_fs.hpp"
#include "mdwf/fs/lustre.hpp"
#include "mdwf/integrity/ledger.hpp"
#include "mdwf/workflow/checkpoint.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "mdwf/workflow/testbed.hpp"

namespace mdwf {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

// --- CRC32C known-answer vectors (RFC 3720 Appendix B.4) --------------------

std::vector<std::byte> filled(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, std::byte{v});
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  EXPECT_EQ(crc32c(filled(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc32c(filled(32, 0xFF)), 0x62A8AB43u);

  std::vector<std::byte> ascending(32);
  for (std::size_t i = 0; i < 32; ++i) ascending[i] = std::byte(i);
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);

  std::vector<std::byte> descending(32);
  for (std::size_t i = 0; i < 32; ++i) descending[i] = std::byte(31 - i);
  EXPECT_EQ(crc32c(descending), 0x113FDB5Cu);
}

TEST(Crc32cTest, IncrementalChunkingMatchesOneShot) {
  // Chained seeds must compose: crc(a ++ b) == crc(b, crc(a)) at every
  // split point of every known-answer vector.
  std::vector<std::byte> data(32);
  for (std::size_t i = 0; i < 32; ++i) data[i] = std::byte(i);
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head =
        crc32c(std::span<const std::byte>(data.data(), split));
    const std::uint32_t full = crc32c(
        std::span<const std::byte>(data.data() + split, data.size() - split),
        head);
    EXPECT_EQ(full, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, ChunkedLargeBufferMatchesOneShot) {
  std::vector<std::byte> data(300 * 1024);
  std::uint8_t x = 7;
  for (auto& b : data) {
    x = static_cast<std::uint8_t>(x * 31 + 11);
    b = std::byte(x);
  }
  const std::uint32_t whole = crc32c(data);
  std::uint32_t chunked = 0;
  constexpr std::size_t kChunk = 64 * 1024;
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, data.size() - off);
    chunked = crc32c(std::span<const std::byte>(data.data() + off, n), chunked);
  }
  EXPECT_EQ(chunked, whole);
}

// --- Integrity ledger --------------------------------------------------------

TEST(LedgerTest, TagsAreDeterministicAndDistinctFromCorruptTags) {
  const auto t1 = integrity::Ledger::tag("pair0/frame1", Bytes::kib(644));
  const auto t2 = integrity::Ledger::tag("pair0/frame1", Bytes::kib(644));
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, integrity::Ledger::tag("pair0/frame2", Bytes::kib(644)));
  EXPECT_NE(t1, integrity::Ledger::tag("pair0/frame1", Bytes::kib(645)));
  EXPECT_NE(t1,
            integrity::Ledger::corrupt_tag("pair0/frame1", Bytes::kib(644)));
}

TEST(LedgerTest, DeviceRateOneCorruptsEveryStore) {
  Simulation sim;
  integrity::IntegrityParams p;
  p.enabled = true;
  p.device_flip_p = 1.0;
  integrity::Ledger ledger(sim, p);
  const std::string loc = integrity::Ledger::ssd_location(0);
  ledger.store("f", loc, 0);
  EXPECT_TRUE(ledger.corrupt("f", loc));
  // The copy on another node is a different replica.
  EXPECT_FALSE(ledger.corrupt("f", integrity::Ledger::ssd_location(1)));
  ledger.drop("f", loc);
  EXPECT_FALSE(ledger.corrupt("f", loc));
}

TEST(LedgerTest, RateZeroStaysCleanAndWindowsRaiseIt) {
  Simulation sim;
  integrity::IntegrityParams p;
  p.enabled = true;
  integrity::Ledger ledger(sim, p);
  const std::string loc = integrity::Ledger::ssd_location(3);
  for (int i = 0; i < 64; ++i) ledger.store("f" + std::to_string(i), loc, 3);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(ledger.corrupt("f" + std::to_string(i), loc));
  }
  EXPECT_FALSE(ledger.flip_link(0, 3));

  // A bit-flip window raises the effective rate to max(baseline, window).
  ledger.set_ssd_rate(3, 1.0);
  ledger.store("w", loc, 3);
  EXPECT_TRUE(ledger.corrupt("w", loc));
  ledger.set_ssd_rate(3, 0.0);
  ledger.store("x", loc, 3);
  EXPECT_FALSE(ledger.corrupt("x", loc));

  ledger.set_link_rate(0, 1.0);
  EXPECT_TRUE(ledger.flip_link(0, 3));   // either endpoint's window counts
  EXPECT_TRUE(ledger.flip_lustre_read(0));
}

TEST(LedgerTest, SameSeedSameCorruptionHistory) {
  integrity::IntegrityParams p;
  p.enabled = true;
  p.device_flip_p = 0.3;
  p.link_flip_p = 0.3;
  auto history = [&](std::uint64_t seed) {
    Simulation sim;
    integrity::IntegrityParams q = p;
    q.seed = seed;
    integrity::Ledger ledger(sim, q);
    std::string h;
    for (int i = 0; i < 200; ++i) {
      ledger.store("f" + std::to_string(i),
                   integrity::Ledger::ssd_location(0), 0);
      h += ledger.corrupt("f" + std::to_string(i),
                          integrity::Ledger::ssd_location(0))
               ? 'X'
               : '.';
      h += ledger.flip_link(0, 1) ? 'X' : '.';
    }
    return h;
  };
  EXPECT_EQ(history(5), history(5));
  EXPECT_NE(history(5), history(6));
}

// --- Power-loss semantics in the storage stack ------------------------------

struct LocalFsFixture {
  Simulation sim;
  storage::BlockDevice device;
  storage::PageCache cache;
  fs::LocalFs lfs;

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
        lfs(sim, fs::LocalFsParams{}, device, cache) {}
};

TEST(CrashConsistencyTest, PageCacheCrashDropsDirtyPages) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    co_await fx.cache.write(1, Bytes::zero(), Bytes::kib(512));
    EXPECT_GT(fx.cache.dirty_pages(), 0u);
    const std::size_t lost = fx.cache.crash_drop_dirty();
    EXPECT_GT(lost, 0u);
    EXPECT_EQ(fx.cache.dirty_pages(), 0u);
    EXPECT_EQ(fx.cache.resident_pages(), 0u);  // reboot starts cold
    EXPECT_EQ(fx.cache.dirty_dropped(), lost);
  }(f));
  f.sim.run_to_quiescence();
}

TEST(CrashConsistencyTest, UnsyncedWritesAreTornBackAtCrash) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const fs::InodeId ino = co_await fx.lfs.create("torn");
    co_await fx.lfs.write(ino, Bytes::zero(), Bytes::kib(512));
    EXPECT_EQ(fx.lfs.size(ino), Bytes::kib(512));
    EXPECT_EQ(fx.lfs.durable_size(ino), Bytes::zero());

    fx.cache.crash_drop_dirty();
    const std::size_t torn = fx.lfs.crash();
    EXPECT_EQ(torn, 1u);
    EXPECT_EQ(fx.lfs.torn_files(), 1u);
    // The file still exists (create was journaled) but the un-synced data
    // is gone.
    EXPECT_TRUE(fx.lfs.exists("torn"));
    EXPECT_EQ(fx.lfs.size(ino), Bytes::zero());
  }(f));
  f.sim.run_to_quiescence();
}

TEST(CrashConsistencyTest, FsyncMakesDataSurviveCrash) {
  LocalFsFixture f;
  f.sim.spawn([](LocalFsFixture& fx) -> Task<void> {
    const fs::InodeId ino = co_await fx.lfs.create("safe");
    co_await fx.lfs.write(ino, Bytes::zero(), Bytes::kib(512));
    co_await fx.lfs.fsync(ino);
    EXPECT_EQ(fx.lfs.durable_size(ino), Bytes::kib(512));

    // Post-fsync appends are volatile again.
    co_await fx.lfs.write(ino, Bytes::kib(512), Bytes::kib(256));
    fx.cache.crash_drop_dirty();
    EXPECT_EQ(fx.lfs.crash(), 1u);
    EXPECT_EQ(fx.lfs.size(ino), Bytes::kib(512));  // torn to the barrier
  }(f));
  f.sim.run_to_quiescence();
}

TEST(CrashConsistencyTest, LustreCloseAfterWriteIsDurableOpenIsNot) {
  workflow::TestbedParams tp;
  tp.compute_nodes = 1;
  workflow::Testbed tb(tp);
  auto& sim = tb.simulation();
  sim.spawn([](workflow::Testbed& t) -> Task<void> {
    fs::LustreClient client(t.simulation(), t.lustre(), net::NodeId{0});
    // Committed: create/write/close(wrote) journals the size on the MDS.
    const auto h1 = co_await client.create("committed");
    co_await client.write(h1, Bytes::zero(), Bytes::mib(2));
    co_await client.close(h1, /*wrote=*/true);
    // Torn: still open for write when the client dies.
    const auto h2 = co_await client.create("open");
    co_await client.write(h2, Bytes::zero(), Bytes::mib(2));

    const std::size_t torn = t.lustre().client_crash(net::NodeId{0});
    EXPECT_GE(torn, 1u);
    EXPECT_GE(t.lustre().torn_writes(), 1u);
    EXPECT_EQ(co_await client.stat("committed"), Bytes::mib(2));
    const auto open_size = co_await client.stat("open");
    EXPECT_TRUE(open_size.has_value());
    if (open_size.has_value()) {
      EXPECT_LT(*open_size, Bytes::mib(2));
    }
  }(tb));
  sim.run_to_quiescence();
}

// --- Checkpoint --------------------------------------------------------------

TEST(CheckpointTest, PersistsAtIntervalAndRestores) {
  LocalFsFixture f;
  workflow::CheckpointParams params;
  params.interval = 4;
  workflow::Checkpoint ckpt(f.sim, f.lfs, "ckpt/rank0", params);
  f.sim.spawn([](LocalFsFixture& fx, workflow::Checkpoint& c) -> Task<void> {
    co_await c.persist(1);  // off-interval: skipped
    EXPECT_EQ(c.durable(), 0u);
    co_await c.persist(4);
    EXPECT_EQ(c.durable(), 4u);
    co_await c.persist(8);
    EXPECT_EQ(c.durable(), 8u);
    EXPECT_EQ(c.persists(), 2u);
    EXPECT_TRUE(fx.lfs.exists("ckpt/rank0"));
    EXPECT_EQ(c.restore(), 8u);
    EXPECT_EQ(c.restores(), 1u);
  }(f, ckpt));
  f.sim.run_to_quiescence();
}

TEST(CheckpointTest, RecordRacingACrashIsLost) {
  LocalFsFixture f;
  fault::CrashMonitor monitor(f.sim);
  workflow::CheckpointParams params;
  // A big record makes each persist take several simulated milliseconds, so
  // the racing crash below deterministically lands inside the second one.
  params.record_size = Bytes::mib(4);
  workflow::Checkpoint ckpt(f.sim, f.lfs, "ckpt/rank0", params, &monitor, 0);
  f.sim.spawn([](workflow::Checkpoint& c) -> Task<void> {
    co_await c.persist(1);
    EXPECT_EQ(c.durable(), 1u);
    // Epoch bumps while this record's write+fsync barrier is in flight:
    // whatever the fsync claimed, the record is not counted.
    co_await c.persist(2);
  }(ckpt));
  f.sim.spawn([](Simulation& s, fault::CrashMonitor& m) -> Task<void> {
    co_await s.delay(Duration::milliseconds(6));
    m.begin_crash(0, /*power_loss=*/false);
    m.end_crash(0);
  }(f.sim, monitor));
  f.sim.run_to_quiescence();
  EXPECT_EQ(ckpt.durable(), 1u);
  EXPECT_EQ(ckpt.restore(), 1u);
}

TEST(CheckpointTest, ModeResolution) {
  workflow::CheckpointParams p;
  EXPECT_FALSE(p.resolve_enabled(false));  // auto, healthy plan
  EXPECT_TRUE(p.resolve_enabled(true));    // auto, crash windows
  p.mode = workflow::CheckpointParams::Mode::kOff;
  EXPECT_FALSE(p.resolve_enabled(true));
  p.mode = workflow::CheckpointParams::Mode::kOn;
  EXPECT_TRUE(p.resolve_enabled(false));
}

// --- Config bindings ---------------------------------------------------------

TEST(IntegrityConfigTest, CrashAndFlipScenariosEnableIntegrityByDefault) {
  for (const char* scenario : {"bit-flip", "node-crash", "crash-flip"}) {
    KeyValueConfig cfg;
    cfg.set("faults", scenario);
    const auto c = workflow::parse_ensemble_config(cfg);
    EXPECT_TRUE(c.testbed.integrity.enabled) << scenario;
  }
  KeyValueConfig healthy;
  EXPECT_FALSE(workflow::parse_ensemble_config(healthy)
                   .testbed.integrity.enabled);
  KeyValueConfig off;
  off.set("faults", "crash-flip");
  off.set("integrity", "0");
  EXPECT_FALSE(workflow::parse_ensemble_config(off).testbed.integrity.enabled);
  KeyValueConfig forced;
  forced.set("integrity", "1");
  EXPECT_TRUE(workflow::parse_ensemble_config(forced).testbed.integrity.enabled);
}

TEST(IntegrityConfigTest, CheckpointKeyBindsModeAndInterval) {
  KeyValueConfig def;
  EXPECT_EQ(workflow::parse_ensemble_config(def).checkpoint.mode,
            workflow::CheckpointParams::Mode::kAuto);
  KeyValueConfig off;
  off.set("checkpoint", "0");
  EXPECT_EQ(workflow::parse_ensemble_config(off).checkpoint.mode,
            workflow::CheckpointParams::Mode::kOff);
  KeyValueConfig every4;
  every4.set("checkpoint", "4");
  const auto c = workflow::parse_ensemble_config(every4);
  EXPECT_EQ(c.checkpoint.mode, workflow::CheckpointParams::Mode::kOn);
  EXPECT_EQ(c.checkpoint.interval, 4u);
}

// --- Acceptance: crash + bit-flip ensembles complete verified ---------------

workflow::EnsembleConfig crash_flip_config(workflow::Solution s,
                                           std::uint32_t nodes) {
  workflow::EnsembleConfig c;
  c.solution = s;
  c.pairs = 2;
  c.nodes = nodes;
  c.workload.frames = 24;
  c.repetitions = 1;
  c.base_seed = 11;
  fault::ScenarioShape shape;
  shape.compute_nodes = nodes;
  shape.ost_count = c.testbed.lustre.ost_count;
  shape.seed = c.base_seed;
  c.testbed.faults = fault::make_scenario("crash-flip", shape);
  c.testbed.integrity.enabled = true;
  c.testbed.dyad.retry.enabled = true;
  return c;
}

void expect_complete_and_verified(const workflow::EnsembleResult& r,
                                  const workflow::EnsembleConfig& c) {
  const std::uint64_t expected =
      static_cast<std::uint64_t>(c.pairs) * c.workload.frames * c.repetitions;
  EXPECT_EQ(r.counters.get("frames_consumed"), expected);
  EXPECT_EQ(r.counters.get("frames_produced"), expected);
  EXPECT_EQ(r.counters.get("integrity_unrecovered"), 0u);
  // The crash actually happened and was recovered from.
  EXPECT_GE(r.counters.get("crash_windows"), 1u);
  EXPECT_GE(r.counters.get("crash_recoveries"), 1u);
  EXPECT_GE(r.counters.get("checkpoint_persists"), 1u);
  EXPECT_GE(r.counters.get("checkpoint_restores"), 1u);
  // Every consumed frame was checksum-verified at least once.
  EXPECT_GE(r.counters.get("integrity_verified") + r.counters.get("integrity_failures"), expected);
}

TEST(CrashFlipAcceptanceTest, DyadCompletesVerified) {
  const auto cfg = crash_flip_config(workflow::Solution::kDyad, 2);
  expect_complete_and_verified(run_ensemble(cfg), cfg);
}

TEST(CrashFlipAcceptanceTest, XfsCompletesVerified) {
  const auto cfg = crash_flip_config(workflow::Solution::kXfs, 1);
  expect_complete_and_verified(run_ensemble(cfg), cfg);
}

TEST(CrashFlipAcceptanceTest, LustreCompletesVerified) {
  const auto cfg = crash_flip_config(workflow::Solution::kLustre, 2);
  expect_complete_and_verified(run_ensemble(cfg), cfg);
}

TEST(CrashFlipAcceptanceTest, RecoveredRunMatchesFaultFreeFrameSet) {
  // Same workload, healthy cluster: the recovered run must deliver exactly
  // the same (complete) frame set, only later.
  auto faulty = crash_flip_config(workflow::Solution::kDyad, 2);
  auto healthy = faulty;
  healthy.testbed.faults = {};
  healthy.testbed.integrity.enabled = false;
  const auto fr = run_ensemble(faulty);
  const auto hr = run_ensemble(healthy);
  EXPECT_EQ(fr.counters.get("frames_consumed"), hr.counters.get("frames_consumed"));
  EXPECT_GE(fr.makespan_s.mean(), hr.makespan_s.mean());
}

// --- Determinism under crash + corruption -----------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CrashDeterminismTest, SameSeedCrashRunIsByteIdentical) {
  auto cfg = crash_flip_config(workflow::Solution::kDyad, 2);
  cfg.workload.frames = 16;
  cfg.trace_path = "integrity_determinism_a.json";
  const auto a = run_ensemble(cfg);
  cfg.trace_path = "integrity_determinism_b.json";
  const auto b = run_ensemble(cfg);

  for (const auto& [name, value] : a.counters) {
    EXPECT_EQ(value, b.counters.get(name)) << "counter " << name;
  }
  EXPECT_EQ(a.makespan_s.mean(), b.makespan_s.mean());

  const std::string ta = slurp("integrity_determinism_a.json");
  const std::string tb = slurp("integrity_determinism_b.json");
  ASSERT_FALSE(ta.empty());
  EXPECT_EQ(ta, tb);  // byte-identical Chrome trace
  std::remove("integrity_determinism_a.json");
  std::remove("integrity_determinism_b.json");
  std::remove(
      obs::TraceSink::metrics_csv_path("integrity_determinism_a.json").c_str());
  std::remove(
      obs::TraceSink::metrics_csv_path("integrity_determinism_b.json").c_str());
}

}  // namespace
}  // namespace mdwf
