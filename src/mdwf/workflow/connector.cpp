#include "mdwf/workflow/connector.hpp"

#include "mdwf/common/assert.hpp"
#include "mdwf/fault/injector.hpp"
#include "mdwf/workflow/testbed.hpp"

namespace mdwf::workflow {

std::string_view to_string(Solution s) {
  switch (s) {
    case Solution::kDyad:
      return "DYAD";
    case Solution::kXfs:
      return "XFS";
    case Solution::kLustre:
      return "Lustre";
    case Solution::kStream:
      return "Stream";
  }
  return "?";
}

void ExplicitSync::announce(Mark& m, std::uint64_t frame) {
  if (frame + 1 <= m.high) return;  // idempotent re-announcement
  m.high = frame + 1;
  if (m.changed != nullptr) {
    // Wake every waiter; each re-checks its own frame against the mark.
    auto ev = std::move(m.changed);
    ev->trigger();
  }
}

sim::Task<void> ExplicitSync::await(Mark& m, std::uint64_t frame) {
  while (m.high <= frame) {
    if (m.changed == nullptr) {
      m.changed = std::make_shared<sim::Event>(*sim_);
    }
    auto ev = m.changed;  // events are one-shot; hold this generation
    co_await ev->wait();
  }
}

std::unique_ptr<Connector> make_connector(const ConnectorSpec& spec) {
  MDWF_ASSERT(spec.testbed != nullptr && spec.recorder != nullptr);
  Testbed& tb = *spec.testbed;
  integrity::Ledger* ledger = tb.integrity_ledger();
  const bool durable = tb.fault_injector() != nullptr &&
                       fault::has_crash_in_nodes(tb.fault_injector()->plan());
  switch (spec.solution) {
    case Solution::kDyad:
      return std::make_unique<DyadConnector>(*tb.node(spec.node).dyad,
                                             *spec.recorder);
    case Solution::kXfs:
      MDWF_ASSERT_MSG(spec.sync != nullptr, "XFS connector needs a sync");
      return std::make_unique<XfsConnector>(
          tb.simulation(), *tb.node(spec.node).local_fs, *spec.sync,
          *spec.recorder, spec.node, ledger, durable);
    case Solution::kLustre:
      MDWF_ASSERT_MSG(spec.sync != nullptr, "Lustre connector needs a sync");
      return std::make_unique<LustreConnector>(
          tb.simulation(), tb.lustre(), net::NodeId{spec.node}, *spec.sync,
          *spec.recorder, ledger, durable);
    case Solution::kStream:
      // The stream node carries its own ledger/durability wiring (set by
      // the testbed); like DYAD it needs no ExplicitSync.
      return std::make_unique<StreamConnector>(*tb.node(spec.node).stream,
                                               *spec.recorder);
  }
  return nullptr;
}

sim::Task<void> XfsConnector::put(const std::string& path, Bytes size,
                                  std::uint64_t frame) {
  perf::ScopedRegion write(*rec_, "write", perf::Category::kMovement);
  if (durable_ && fs_->exists(path)) {
    // Re-executed frame after a crash: replace the (possibly torn) copy.
    co_await fs_->unlink(path);
  }
  const fs::InodeId ino = co_await fs_->create(path);
  co_await fs_->write(ino, Bytes::zero(), size);
  if (durable_) {
    // Commit barrier: the frame is power-loss safe before it is announced.
    co_await fs_->fsync(ino);
  }
  if (ledger_ != nullptr) {
    co_await ledger_->charge(size);  // producer-side CRC32C tagging
    ledger_->store(path, integrity::Ledger::ssd_location(node_), node_);
  }
  write.close();
  sync_->signal_ready(frame);
}

sim::Task<void> XfsConnector::producer_sync(std::uint64_t frame) {
  perf::ScopedRegion wait(*rec_, "producer_sync", perf::Category::kIdle);
  co_await sync_->wait_done(frame);
}

sim::Task<void> XfsConnector::get(const std::string& path, Bytes size,
                                  std::uint64_t frame) {
  {
    perf::ScopedRegion sync(*rec_, "explicit_sync", perf::Category::kIdle);
    co_await sync_->wait_ready(frame);
  }
  {
    perf::ScopedRegion read(*rec_, "FilesystemReader::read_single_buf",
                            perf::Category::kMovement);
    const fs::InodeId ino = co_await fs_->open(path);
    co_await fs_->read(ino, Bytes::zero(), size);
  }
  if (ledger_ != nullptr) co_await verify(path, size);
}

sim::Task<void> XfsConnector::verify(const std::string& path, Bytes size) {
  const std::string loc = integrity::Ledger::ssd_location(node_);
  co_await ledger_->charge(size);  // consumer-side CRC32C compute
  bool bad = ledger_->corrupt(path, loc);
  ledger_->count_verify(!bad);
  if (!bad) co_return;
  // Recovery: the producer re-sends the frame from memory — rewrite the
  // shared node-local copy, re-tag, re-read — bounded rounds.
  perf::ScopedRegion repair(*rec_, "integrity_refetch",
                            perf::Category::kMovement);
  for (int round = 0; bad && round < 3; ++round) {
    ledger_->count_refetch();
    const fs::InodeId ino = co_await fs_->open(path);
    co_await fs_->write(ino, Bytes::zero(), size);
    if (durable_) co_await fs_->fsync(ino);
    co_await ledger_->charge(size);  // producer re-tag
    ledger_->store(path, loc, node_);
    const fs::InodeId rino = co_await fs_->open(path);
    co_await fs_->read(rino, Bytes::zero(), size);
    co_await ledger_->charge(size);  // re-verify
    bad = ledger_->corrupt(path, loc);
    ledger_->count_verify(!bad);
  }
  if (bad) ledger_->count_unrecovered();
}

sim::Task<void> LustreConnector::put(const std::string& path, Bytes size,
                                     std::uint64_t frame) {
  perf::ScopedRegion write(*rec_, "write", perf::Category::kMovement);
  if (durable_ && co_await client_.exists(path)) {
    // Re-executed frame after a crash: replace the torn replica.
    co_await client_.unlink(path);
  }
  if (ledger_ != nullptr) co_await ledger_->charge(size);  // producer tag
  const fs::LustreHandle h = co_await client_.create(path);
  co_await client_.write(h, Bytes::zero(), size);
  // close(wrote) commits the MDS write journal: the replica is durable from
  // here on (crash windows tear only files still open for write).
  co_await client_.close(h, /*wrote=*/true);
  if (ledger_ != nullptr) ledger_->store_lustre(path, node_);
  write.close();
  sync_->signal_ready(frame);
}

sim::Task<void> LustreConnector::producer_sync(std::uint64_t frame) {
  perf::ScopedRegion wait(*rec_, "producer_sync", perf::Category::kIdle);
  co_await sync_->wait_done(frame);
}

sim::Task<void> LustreConnector::get(const std::string& path, Bytes size,
                                     std::uint64_t frame) {
  {
    perf::ScopedRegion sync(*rec_, "explicit_sync", perf::Category::kIdle);
    co_await sync_->wait_ready(frame);
  }
  {
    perf::ScopedRegion read(*rec_, "FilesystemReader::read_single_buf",
                            perf::Category::kMovement);
    const fs::LustreHandle h = co_await client_.open(path);
    co_await client_.read(h, Bytes::zero(), size);
    co_await client_.close(h, /*wrote=*/false);
  }
  if (ledger_ != nullptr) co_await verify(path, size);
}

sim::Task<void> LustreConnector::verify(const std::string& path, Bytes size) {
  const std::string loc(integrity::Ledger::kLustreLocation);
  co_await ledger_->charge(size);  // consumer-side CRC32C compute
  bool bad = ledger_->corrupt(path, loc) || ledger_->flip_lustre_read(node_);
  ledger_->count_verify(!bad);
  if (!bad) co_return;
  // Recovery: a flipped read re-reads from the journal tail; a corrupt
  // replica is re-striped by a producer re-send before the re-read.
  perf::ScopedRegion repair(*rec_, "integrity_refetch",
                            perf::Category::kMovement);
  for (int round = 0; bad && round < 3; ++round) {
    ledger_->count_refetch();
    if (ledger_->corrupt(path, loc)) {
      // Model the producer re-striping the frame; the consumer's client is
      // the conduit for the re-send protocol.
      if (co_await client_.exists(path)) co_await client_.unlink(path);
      co_await ledger_->charge(size);  // producer re-tag
      const fs::LustreHandle h = co_await client_.create(path);
      co_await client_.write(h, Bytes::zero(), size);
      co_await client_.close(h, /*wrote=*/true);
      ledger_->store_lustre(path, node_);
    }
    const fs::LustreHandle h = co_await client_.open(path);
    co_await client_.read(h, Bytes::zero(), size);
    co_await client_.close(h, /*wrote=*/false);
    co_await ledger_->charge(size);  // re-verify
    bad = ledger_->corrupt(path, loc) || ledger_->flip_lustre_read(node_);
    ledger_->count_verify(!bad);
  }
  if (bad) ledger_->count_unrecovered();
}

}  // namespace mdwf::workflow
