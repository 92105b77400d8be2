#include "mdwf/dyad/dyad.hpp"

#include <charconv>

#include "mdwf/common/assert.hpp"

namespace mdwf::dyad {

std::string metadata_key(const std::string& path) { return "dyad/" + path; }

std::string DyadMetadata::encode() const {
  std::string s = std::to_string(owner.value) + ":" +
                  std::to_string(size.count()) + ":" + std::to_string(crc);
  // The epoch field is emitted only when nonzero so every healthy put keeps
  // the exact legacy byte format (daemons are born at incarnation 0).
  if (epoch != 0) s += ":" + std::to_string(epoch);
  return s;
}

DyadMetadata DyadMetadata::decode(const std::string& s) {
  const auto colon = s.find(':');
  MDWF_ASSERT_MSG(colon != std::string::npos, "malformed DYAD metadata");
  DyadMetadata m;
  std::uint32_t owner = 0;
  std::uint64_t size = 0;
  const auto colon2 = s.find(':', colon + 1);
  const char* size_end =
      s.data() + (colon2 == std::string::npos ? s.size() : colon2);
  auto r1 = std::from_chars(s.data(), s.data() + colon, owner);
  auto r2 = std::from_chars(s.data() + colon + 1, size_end, size);
  MDWF_ASSERT_MSG(r1.ec == std::errc{} && r2.ec == std::errc{},
                  "malformed DYAD metadata");
  if (colon2 != std::string::npos) {
    const auto colon3 = s.find(':', colon2 + 1);
    const char* crc_end =
        s.data() + (colon3 == std::string::npos ? s.size() : colon3);
    std::uint32_t crc = 0;
    auto r3 = std::from_chars(s.data() + colon2 + 1, crc_end, crc);
    MDWF_ASSERT_MSG(r3.ec == std::errc{}, "malformed DYAD metadata");
    m.crc = crc;
    if (colon3 != std::string::npos) {
      std::uint64_t epoch = 0;
      auto r4 =
          std::from_chars(s.data() + colon3 + 1, s.data() + s.size(), epoch);
      MDWF_ASSERT_MSG(r4.ec == std::errc{}, "malformed DYAD metadata");
      m.epoch = epoch;
    }
  }
  m.owner = net::NodeId{owner};
  m.size = Bytes(size);
  return m;
}

DyadNode::DyadNode(sim::Simulation& sim, const DyadParams& params,
                   DyadDomain& domain, net::NodeId node,
                   fs::LocalFs& local_fs, net::Network& network,
                   kvs::KvsServer& kvs_server,
                   fs::LustreServers& fallback_servers)
    : sim_(&sim),
      params_(params),
      domain_(&domain),
      node_(node),
      local_fs_(&local_fs),
      network_(&network),
      kvs_(sim, kvs_server, node),
      service_slots_(sim, params.broker_concurrency),
      health_(params.health) {
  domain.add(*this);
  if (params.retry.enabled) {
    fallback_client_ =
        std::make_unique<fs::LustreClient>(sim, fallback_servers, node);
    // Producer half of the recovery protocol: when the broker comes back
    // from an outage, replay exactly the metadata commits it lost.
    kvs_server.add_recovery_listener(
        [this](const std::vector<std::string>& lost) {
          for (const auto& key : lost) {
            const auto it = published_.find(key);
            if (it != published_.end()) {
              sim_->spawn(republish(it->first, it->second));
            }
          }
        });
  }
}

void DyadNode::note_published(const std::string& key, std::string value) {
  published_.insert_or_assign(key, std::move(value));
}

sim::Task<void> DyadNode::republish(std::string key, std::string value) {
  try {
    co_await sim_->delay(params_.mdm_cpu);
    co_await commit_guarded(std::move(key), std::move(value));
    ++republishes_;
    trace_total(trace_republishes_id_, republishes_);
  } catch (const net::NetError&) {
    // This node crashed mid-replay; the consumer's bounded watch + failover
    // protocol covers the still-missing key.
  } catch (const StaleEpochError&) {
    // This node was declared lost while the replay was in flight: the broker
    // fenced the commit.  The migrated incarnation republishes on its own.
  }
}

sim::Task<void> DyadNode::commit_guarded(std::string key, std::string value) {
  const health::HealthParams& hp = params_.health;
  if (!hp.enabled) {
    co_await kvs_.commit(std::move(key), std::move(value));
    co_return;
  }
  Duration backoff = hp.busy_retry_base;
  for (std::uint32_t attempt = 0;; ++attempt) {
    std::exception_ptr busy;
    try {
      co_await kvs_.commit(key, value);
      co_return;
    } catch (const health::ServerBusy&) {
      busy = std::current_exception();
    }
    if (attempt + 1 >= hp.busy_retry_limit) std::rethrow_exception(busy);
    ++health_.busy_retries;
    co_await sim_->delay(backoff);
    backoff = backoff * 2.0;
  }
}

void DyadNode::set_trace(obs::TraceSink* sink, obs::TrackId track) {
  trace_ = sink;
  trace_republishes_id_ = sink->counter_id(track, "dyad.republishes");
  trace_remote_reads_id_ = sink->counter_id(track, "dyad.remote_reads");
  trace_pushes_id_ = sink->counter_id(track, "dyad.pushes");
}

void DyadNode::trace_total(obs::CounterId id, std::uint64_t value) {
  if (trace_ == nullptr) return;
  trace_->counter(id, sim_->now(), static_cast<std::int64_t>(value));
}

sim::Task<void> DyadNode::write_through(std::string path, Bytes size) {
  auto* lc = fallback_client_.get();
  try {
    if (co_await lc->exists(path)) {
      // A previous attempt (torn by a crash, or a re-executed frame) left a
      // replica behind; replace it.
      co_await lc->unlink(path);
    }
    const fs::LustreHandle h = co_await lc->create(path);
    co_await lc->write(h, Bytes::zero(), size);
    co_await lc->close(h, /*wrote=*/true);
    if (ledger_ != nullptr) ledger_->store_lustre(path, node_.value);
  } catch (const net::NetError&) {
    ++lost_writethroughs_;
  } catch (const storage::IoError&) {
    ++lost_writethroughs_;
  } catch (const fs::FsError&) {
    // Raced another writer for the same replica; theirs is as good as ours.
    ++lost_writethroughs_;
  } catch (const StaleEpochError&) {
    // Fenced zombie: the MDS rejected this incarnation's replica commit.
    // The migrated incarnation's own write-through covers the frame.
    ++lost_writethroughs_;
  }
}

sim::Task<void> DyadNode::repair_local(const std::string& path, Bytes size) {
  const fs::InodeId ino = co_await local_fs_->open(path);
  co_await local_fs_->write(ino, Bytes::zero(), size);
  if (params_.durable_puts) co_await local_fs_->fsync(ino);
  if (ledger_ != nullptr) {
    co_await ledger_->charge(size);  // re-tag the rewritten replica
    ledger_->store(path, integrity::Ledger::ssd_location(node_.value),
                   node_.value);
  }
}

sim::Task<void> DyadNode::serve_remote_read(net::NodeId requester,
                                            const std::string& path,
                                            Bytes size) {
  co_await service_slots_.acquire();
  sim::SemaphoreGuard slot(service_slots_);
  co_await sim_->delay(params_.broker_request_cpu);
  // The broker reads from this node's local storage (page-cache hit for
  // freshly produced frames) and streams the payload to the requester.
  const fs::InodeId ino = co_await local_fs_->open(path);
  co_await local_fs_->read(ino, Bytes::zero(), size);
  co_await network_->transfer(node_, requester, size);
  ++remote_reads_;
  trace_total(trace_remote_reads_id_, remote_reads_);
}

sim::Task<void> DyadNode::push_to(net::NodeId dest, std::string path,
                                  Bytes size) {
  try {
    co_await service_slots_.acquire();
    {
      sim::SemaphoreGuard slot(service_slots_);
      co_await sim_->delay(params_.broker_request_cpu);
      const fs::InodeId ino = co_await local_fs_->open(path);
      co_await local_fs_->read(ino, Bytes::zero(), size);
      co_await network_->rdma_put(node_, dest, size);
    }
    DyadNode& peer = domain_->at(dest);
    const std::string staged = peer.params().staging_prefix + path;
    if (peer.local_fs().exists(staged)) co_return;  // consumer pulled it first
    try {
      const fs::InodeId staged_ino =
          co_await peer.local_fs().create(staged, /*exclusive_lock=*/true);
      co_await peer.local_fs().write(staged_ino, Bytes::zero(), size);
      peer.local_fs().lock(staged_ino).unlock_exclusive();
      if (ledger_ != nullptr) {
        const bool bad =
            ledger_->corrupt(path,
                             integrity::Ledger::ssd_location(node_.value)) ||
            ledger_->flip_link(node_.value, dest.value);
        const std::string dest_loc =
            integrity::Ledger::ssd_location(dest.value);
        if (bad) {
          ledger_->store_corrupt(path, dest_loc);
        } else {
          ledger_->store(path, dest_loc, dest.value);
        }
      }
      ++pushes_;
      trace_total(trace_pushes_id_, pushes_);
    } catch (const fs::FsError&) {
      // Lost the race against a concurrent pull-side store; harmless.
    }
  } catch (const net::NetError&) {
    // Push torn mid-stream (crashed endpoint): the consumer simply pulls.
  } catch (const storage::IoError&) {
    // Source read failed; same story.
  } catch (const fs::FsError&) {
    // Source file vanished (torn by a crash before the push ran).
  }
}

DyadProducer::DyadProducer(DyadNode& node, perf::Recorder& recorder)
    : node_(&node), rec_(&recorder) {}

sim::Task<void> DyadProducer::produce(const std::string& path, Bytes size) {
  perf::ScopedRegion produce(*rec_, "dyad_produce");
  auto& fs = node_->local_fs();
  integrity::Ledger* ledger = node_->integrity();
  {
    // Local burst-buffer write under an exclusive flock: consumers on this
    // node synchronize on the lock (warm path).
    perf::ScopedRegion write(*rec_, "dyad_prod_write",
                             perf::Category::kMovement);
    if (fs.exists(path)) {
      // Re-executed frame after a crash: replace the (possibly torn) copy.
      co_await fs.unlink(path);
    }
    const fs::InodeId ino =
        co_await fs.create(path, /*exclusive_lock=*/true);
    co_await node_->simulation().delay(node_->params().flock_cpu);
    co_await fs.write(ino, Bytes::zero(), size);
    if (node_->params().durable_puts) {
      // Commit barrier: the frame is power-loss safe before its metadata
      // becomes visible, so consumers never chase bytes a crash can undo.
      co_await fs.fsync(ino);
    }
    fs.lock(ino).unlock_exclusive();
    if (ledger != nullptr) {
      co_await ledger->charge(size);  // producer-side CRC32C tagging
      ledger->store(path, integrity::Ledger::ssd_location(node_->node().value),
                    node_->node().value);
    }
  }
  {
    // Global namespace management: publish {owner, size, crc} to the KVS.
    // This is DYAD's extra production cost relative to raw XFS.
    perf::ScopedRegion commit(*rec_, "dyad_commit", perf::Category::kMovement);
    co_await node_->simulation().delay(node_->params().mdm_cpu);
    DyadMetadata meta{node_->node(), size,
                      ledger != nullptr ? integrity::Ledger::tag(path, size)
                                        : 0};
    const std::string encoded = meta.encode();
    if (node_->params().retry.enabled) {
      node_->note_published(metadata_key(path), encoded);
    }
    co_await node_->commit_guarded(metadata_key(path), encoded);
  }
  if (node_->fallback_client() != nullptr) {
    // Keep a cold replica on the shared FS in the background; the consumer
    // failover path reads it when DYAD's own paths stay broken.
    node_->simulation().spawn(node_->write_through(path, size));
  }
  if (node_->params().push_mode) {
    // Dynamic routing: stream the file toward its subscriber in the
    // background; the producer's critical path ends here.
    const auto sub = node_->domain().subscriber_for(path);
    if (sub.has_value() && *sub != node_->node()) {
      node_->simulation().spawn(node_->push_to(*sub, path, size));
    }
  }
}

DyadConsumer::DyadConsumer(DyadNode& node, perf::Recorder& recorder)
    : node_(&node), rec_(&recorder) {}

sim::Task<std::optional<kvs::KvsValue>> DyadConsumer::observed_lookup(
    const std::string& key) {
  if (!node_->params().health.enabled) {
    co_return co_await node_->kvs().lookup(key);
  }
  auto& sim = node_->simulation();
  auto& h = node_->health_state();
  const TimePoint start = sim.now();
  std::optional<kvs::KvsValue> found;
  std::exception_ptr busy;
  try {
    found = co_await node_->kvs().lookup(key);
  } catch (const health::ServerBusy&) {
    busy = std::current_exception();
  }
  if (busy != nullptr) {
    // Shed by the bounded admission queue: a failure for the breaker, and
    // "not visible yet" for the caller, whose retry loop already backs off.
    ++h.busy_retries;
    h.breaker.record_failure(sim.now());
    co_return std::nullopt;
  }
  // Judge the RPC against the distribution learned so far, then fold it in
  // (feeding first would let a slow outlier soften its own verdict).
  const Duration elapsed = sim.now() - start;
  if (h.detector.suspect(elapsed)) {
    h.breaker.record_failure(sim.now());
  } else {
    h.breaker.record_success(sim.now());
  }
  h.detector.observe(elapsed);
  co_return found;
}

// Shared state of one hedged cold fetch.  The parent consume() awaits
// `done`; whichever branch delivers first settles the race and records its
// outcome; the loser checks `settled` at every checkpoint (always placed
// before a byte-moving stage) and stands down.  `failed` is set only when
// both branches exhausted their bounded attempts.
struct DyadConsumer::HedgeRace {
  explicit HedgeRace(sim::Simulation& sim) : done(sim) {}

  sim::Event done;
  bool settled = false;
  bool hedge_won = false;  // the Lustre-replica read delivered the frame
  bool failed = false;     // both branches gave up
  bool primary_gave_up = false;
  bool hedge_gave_up = false;
  // Primary-winner outcome (mirrors the unhedged cold path's locals).
  net::NodeId owner{0};
  bool have_local_copy = false;
  bool in_memory = false;

  void settle_primary(net::NodeId winner_owner, bool local_copy,
                      bool memory) {
    settled = true;
    owner = winner_owner;
    have_local_copy = local_copy;
    in_memory = memory;
    done.trigger();
  }
  void settle_hedge() {
    settled = true;
    hedge_won = true;
    done.trigger();
  }
  void maybe_fail() {
    if (primary_gave_up && hedge_gave_up && !settled) {
      settled = true;
      failed = true;
      done.trigger();
    }
  }
};

sim::Task<void> DyadConsumer::hedge_primary(std::shared_ptr<HedgeRace> race,
                                            std::string path, Bytes size) {
  auto& sim = node_->simulation();
  auto& local = node_->local_fs();
  const DyadRetryParams& retry = node_->params().retry;
  auto& h = node_->health_state();
  const std::string key = metadata_key(path);
  const std::string staged = node_->params().staging_prefix + path;
  try {
    // --- Synchronization: the unhedged cold path's KVS sync, region-free
    // and with cancellation checkpoints.  Gated by the breaker exactly like
    // the unhedged path, but when open there is no probe-and-fail-over
    // here: the replica read *is* the concurrent hedge branch.
    std::optional<kvs::KvsValue> found;
    bool denied = !h.breaker.allow(sim.now());
    if (denied) {
      ++h.breaker_fast_fails;
    } else {
      found = co_await observed_lookup(key);
    }
    std::uint32_t attempt = 0;
    Duration backoff = retry.backoff_base;
    while (!found.has_value() && !race->settled) {
      if (denied) {
        co_await sim.delay(retry.timeout);  // pace the open breaker
      } else {
        ++kvs_retries_;
        const bool visible = co_await node_->kvs().watch_for(key,
                                                             retry.timeout);
        if (race->settled) break;
        if (visible) {
          ++kvs_waits_;
        } else {
          ++recovery_retries_;
          if (++attempt >= retry.max_attempts) {
            race->primary_gave_up = true;
            race->maybe_fail();
            co_return;
          }
          co_await sim.delay(backoff);
          backoff = backoff * retry.backoff_factor;
        }
      }
      if (race->settled) break;
      denied = !h.breaker.allow(sim.now());
      if (denied) {
        ++h.breaker_fast_fails;
      } else {
        found = co_await observed_lookup(key);
      }
    }
    if (race->settled || !found.has_value()) co_return;  // lost the race

    const DyadMetadata meta = DyadMetadata::decode(found->data);
    MDWF_ASSERT_MSG(meta.size == size, "DYAD metadata size mismatch");
    const net::NodeId owner = meta.owner;
    if (node_->fencing() != nullptr &&
        node_->fencing()->stale(FenceToken{owner.value, meta.epoch})) {
      // Owner's incarnation was fenced (declared lost): the primary branch
      // cannot win — stand down and let the replica read deliver.
      race->primary_gave_up = true;
      race->maybe_fail();
      co_return;
    }
    if (owner == node_->node() && !node_->params().force_kvs_sync) {
      // Producer is co-located after all: flock the local file, done.
      co_await sim.delay(node_->params().flock_cpu);
      const fs::InodeId ino = co_await local.open(path);
      co_await local.lock(ino).lock_shared();
      local.lock(ino).unlock_shared();
      if (!race->settled) {
        race->settle_primary(owner, /*local_copy=*/true, /*memory=*/false);
      }
      co_return;
    }
    if (race->settled) co_return;

    // --- dyad_get_data: bounded retries, no failover — the hedge branch
    // owns the Lustre fallback.
    std::uint32_t get_attempt = 0;
    backoff = retry.backoff_base;
    for (;;) {
      std::exception_ptr failure;
      try {
        co_await node_->network().send_control(node_->node(), owner);
        co_await node_->domain().at(owner).serve_remote_read(node_->node(),
                                                             path, size);
      } catch (const net::NetError&) {
        failure = std::current_exception();
      } catch (const storage::IoError&) {
        failure = std::current_exception();
      } catch (const fs::FsError&) {
        failure = std::current_exception();
      }
      if (failure == nullptr) break;
      ++recovery_retries_;
      if (++get_attempt >= retry.max_attempts) {
        race->primary_gave_up = true;
        race->maybe_fail();
        co_return;
      }
      co_await sim.delay(backoff);
      backoff = backoff * retry.backoff_factor;
      if (race->settled) co_return;
    }
    if (race->settled) co_return;  // the hedge delivered while we streamed

    bool in_memory = false;
    if (node_->params().skip_consumer_staging) {
      in_memory = true;
    } else if (!local.exists(staged)) {
      // --- dyad_cons_store: stage into the consumer's node-local storage.
      const fs::InodeId ino = co_await local.create(staged);
      co_await local.write(ino, Bytes::zero(), size);
      if (auto* ledger = node_->integrity()) {
        const bool delivered_bad =
            ledger->corrupt(path,
                            integrity::Ledger::ssd_location(owner.value)) ||
            ledger->flip_link(owner.value, node_->node().value);
        const std::string here =
            integrity::Ledger::ssd_location(node_->node().value);
        if (delivered_bad) {
          ledger->store_corrupt(path, here);
        } else {
          ledger->store(path, here, node_->node().value);
        }
      }
    }
    if (!race->settled) {
      race->settle_primary(owner, /*local_copy=*/false, in_memory);
    }
  } catch (...) {
    // A fault tore something the bounded loops above don't cover (e.g. the
    // colocated flock path); the hedge or the rank-level retry recovers.
    race->primary_gave_up = true;
    race->maybe_fail();
  }
}

sim::Task<void> DyadConsumer::hedge_replica(std::shared_ptr<HedgeRace> race,
                                            std::string path, Bytes size) {
  auto& sim = node_->simulation();
  auto& h = node_->health_state();
  const DyadRetryParams& retry = node_->params().retry;
  // Wait out the hedge delay only while the breaker is closed.  Open means
  // the primary cannot make progress until the cool-down probe; half-open
  // means the primary IS the probe against a server just judged sick — in
  // both cases the replica is the expected winner, so launch immediately.
  // The breaker can also trip mid-delay (the primary's own slow lookups
  // feed the detector), so the wait is chopped into poll-sized slices that
  // re-check the state.  (state() is a pure read — no half-open probe is
  // consumed here.)
  {
    const health::HedgeParams& hedge = node_->params().health.hedge;
    Duration remaining = h.fetch_latency.hedge_delay(hedge);
    while (remaining > Duration::zero() && !race->settled &&
           h.breaker.state() == health::CircuitBreaker::State::kClosed) {
      const Duration step = std::min(remaining, hedge.availability_poll);
      co_await sim.delay(step);
      remaining = remaining - step;
    }
  }
  if (race->settled) {
    // The primary answered inside the hedge delay — the common healthy
    // case; the duplicate fetch never launches.
    ++h.hedge_cancels;
    co_return;
  }
  ++h.hedges;
  auto* lc = node_->fallback_client();
  std::uint32_t attempt = 0;
  try {
    for (;;) {
      // Wait for the producer's background write-through to land.  stat(),
      // not exists(): the replica is visible from create() but readable
      // only once the write has advanced its size — opening early would
      // burn the read-attempt budget on read-past-EOF errors while the
      // writer is mid-flight.  Each probe is metadata-only, so a hedge
      // cancelled here has moved no payload bytes.  Bounded: a replica
      // whose write-through died with its producer never lands, and an
      // unbounded poll would keep the event loop alive forever.
      std::uint32_t polls = 0;
      for (;;) {
        const std::optional<Bytes> replica_size = co_await lc->stat(path);
        if (replica_size.has_value() && *replica_size >= size) break;
        if (race->settled) {
          ++h.hedge_cancels;
          co_return;
        }
        if (++polls > 4096) {
          race->hedge_gave_up = true;
          race->maybe_fail();
          co_return;
        }
        co_await sim.delay(node_->params().health.hedge.availability_poll);
        if (race->settled) {
          ++h.hedge_cancels;
          co_return;
        }
      }
      if (race->settled) {
        ++h.hedge_cancels;
        co_return;
      }
      std::exception_ptr failure;
      try {
        const fs::LustreHandle handle = co_await lc->open(path);
        co_await lc->read(handle, Bytes::zero(), size);
        co_await lc->close(handle, /*wrote=*/false);
      } catch (const net::NetError&) {
        failure = std::current_exception();
      } catch (const storage::IoError&) {
        failure = std::current_exception();
      } catch (const fs::FsError&) {
        failure = std::current_exception();
      }
      if (failure == nullptr) break;
      if (++attempt >= retry.max_attempts) {
        race->hedge_gave_up = true;
        race->maybe_fail();
        co_return;
      }
      if (race->settled) co_return;  // read torn and race over: stand down
      co_await sim.delay(retry.backoff_base);
    }
    if (race->settled) co_return;  // the primary delivered during our read
    ++h.hedge_wins;
    race->settle_hedge();
  } catch (...) {
    race->hedge_gave_up = true;
    race->maybe_fail();
  }
}

sim::Task<void> DyadConsumer::consume(const std::string& path, Bytes size) {
  perf::ScopedRegion consume(*rec_, "dyad_consume");
  auto& sim = node_->simulation();
  auto& local = node_->local_fs();
  const DyadRetryParams& retry = node_->params().retry;
  const health::HealthParams& hp = node_->params().health;
  const bool can_fail_over = node_->fallback_client() != nullptr;
  // Breaker and hedge both reroute to the Lustre replica, so they gate
  // traffic only when that path exists; health without failover is
  // detection-only.
  const bool gated = hp.enabled && can_fail_over;

  // --- Synchronization: multi-protocol (flock warm path / KVS cold path).
  const std::string staged_path = node_->params().staging_prefix + path;
  net::NodeId owner = node_->node();
  bool have_local_copy = false;
  bool failed_over = false;  // DYAD paths exhausted; read the Lustre replica
  bool hedge_read_done = false;  // a winning hedge already read the replica
  bool in_memory = false;
  std::string local_copy_path = path;

  const bool produced_here =
      !node_->params().force_kvs_sync && local.exists(path);
  const bool pushed_here =
      !node_->params().force_kvs_sync && local.exists(staged_path);
  const bool hedged =
      gated && hp.hedge.enabled && !produced_here && !pushed_here;
  const TimePoint cold_start = sim.now();

  if (produced_here || pushed_here) {
    // Warm path: data already on this node's storage (produced locally,
    // or streamed here by push-mode routing); a shared flock (against the
    // writer's exclusive lock) is the only sync.
    perf::ScopedRegion fetch(*rec_, "dyad_fetch", perf::Category::kIdle);
    local_copy_path = produced_here ? path : staged_path;
    co_await sim.delay(node_->params().flock_cpu);
    const fs::InodeId ino = co_await local.open(local_copy_path);
    co_await local.lock(ino).lock_shared();
    local.lock(ino).unlock_shared();
    have_local_copy = true;
    ++warm_hits_;
  } else if (hedged) {
    // --- Hedged cold fetch: race the normal DYAD path (KVS sync + RDMA +
    // staging) against a Lustre-replica read launched after the adaptive
    // hedge delay; first response wins, the loser stands down at its next
    // checkpoint.  The branches are region-free (the per-rank recorder
    // nests regions strictly), so the whole race accounts here.
    perf::ScopedRegion fetch(*rec_, "dyad_hedged_fetch",
                             perf::Category::kMovement);
    auto race = std::make_shared<HedgeRace>(sim);
    sim.spawn(hedge_primary(race, path, size));
    sim.spawn(hedge_replica(race, path, size));
    co_await race->done.wait();
    if (race->failed) {
      throw net::NetError("dyad: hedged fetch exhausted every path");
    }
    if (race->hedge_won) {
      failed_over = true;
      hedge_read_done = true;
      in_memory = true;  // consumed straight from the Lustre stream
    } else {
      owner = race->owner;
      have_local_copy = race->have_local_copy;
      in_memory = race->in_memory;
    }
  } else {
    perf::ScopedRegion fetch(*rec_, "dyad_fetch", perf::Category::kIdle);
    auto& h = node_->health_state();
    std::optional<kvs::KvsValue> found;
    bool denied = gated && !h.breaker.allow(sim.now());
    if (denied) {
      ++h.breaker_fast_fails;
    } else {
      found = co_await observed_lookup(metadata_key(path));
    }
    std::uint32_t attempt = 0;
    std::uint32_t rounds = 0;
    Duration backoff = retry.backoff_base;
    while (!found.has_value() && !failed_over) {
      // Global bound on the sync loop: with the recovery protocol on, every
      // round arms fresh timers, so a frame whose producer is permanently
      // lost (and never migrated) would otherwise keep the event loop alive
      // forever and the run would neither finish nor reach the deadlock
      // reporter.  Give up loudly instead; the rank-level retry (or the
      // membership plane's migration) owns what happens next.
      if (++rounds > 4096) {
        throw net::NetError("dyad: metadata for '" + path +
                            "' never appeared (producer lost?)");
      }
      if (denied) {
        // Breaker open: route around the sick broker.  A replica on the
        // shared FS proves the frame was produced — fail over immediately;
        // none yet means the producer is merely behind, so pace a bounded
        // poll on the breaker instead of queueing at the broker.
        bool replica = false;
        {
          perf::ScopedRegion probe(*rec_, "dyad_failover_probe",
                                   perf::Category::kIdle);
          replica = co_await node_->fallback_client()->exists(path);
        }
        if (replica) {
          failed_over = true;
          break;
        }
        perf::ScopedRegion wait_retry(*rec_, "dyad_retry",
                                      perf::Category::kIdle);
        co_await sim.delay(retry.timeout);
      } else {
        ++kvs_retries_;
        if (!retry.enabled) {
          // Healthy-cluster protocol: watches are unbounded — the paper's
          // consumers trust the producer's metadata to arrive eventually.
          perf::ScopedRegion wait(*rec_, "dyad_watch_wait",
                                  perf::Category::kIdle);
          co_await node_->kvs().watch_until_visible(metadata_key(path));
          ++kvs_waits_;
        } else {
          // Recovery protocol: bound each watch, back off exponentially,
          // and after max_attempts fail over to the Lustre cold replica.
          bool visible = false;
          {
            perf::ScopedRegion wait(*rec_, "dyad_watch_wait",
                                    perf::Category::kIdle);
            visible = co_await node_->kvs().watch_for(metadata_key(path),
                                                      retry.timeout);
            if (visible) ++kvs_waits_;
          }
          if (!visible) {
            ++recovery_retries_;
            if (++attempt >= retry.max_attempts) {
              // The namespace stayed silent through a full backoff cycle.
              // A Lustre replica proves the frame was produced and DYAD's
              // paths are what failed: fail over.  No replica means the
              // producer is merely slow — restart the cycle, keep watching.
              if (can_fail_over) {
                bool replica = false;
                {
                  perf::ScopedRegion probe(*rec_, "dyad_failover_probe",
                                           perf::Category::kIdle);
                  replica = co_await node_->fallback_client()->exists(path);
                }
                if (replica) {
                  failed_over = true;
                  break;
                }
              }
              attempt = 0;
              backoff = retry.backoff_base;
            }
            perf::ScopedRegion wait_retry(*rec_, "dyad_retry",
                                          perf::Category::kIdle);
            co_await sim.delay(backoff);
            backoff = backoff * retry.backoff_factor;
          }
        }
      }
      denied = gated && !h.breaker.allow(sim.now());
      if (denied) {
        ++h.breaker_fast_fails;
      } else {
        found = co_await observed_lookup(metadata_key(path));
      }
    }
    if (found.has_value()) {
      const DyadMetadata meta = DyadMetadata::decode(found->data);
      MDWF_ASSERT_MSG(meta.size == size, "DYAD metadata size mismatch");
      owner = meta.owner;
      if (can_fail_over && node_->fencing() != nullptr &&
          node_->fencing()->stale(FenceToken{owner.value, meta.epoch})) {
        // The metadata was published under a since-fenced incarnation: the
        // membership controller declared the owner lost, so the RDMA pull
        // is doomed — go straight to the Lustre cold replica instead of
        // burning the retry budget against a dead broker.
        failed_over = true;
      } else if (owner == node_->node() && !node_->params().force_kvs_sync) {
        // Producer is co-located after all (single-node config): the file
        // is local once the metadata is visible.
        co_await sim.delay(node_->params().flock_cpu);
        const fs::InodeId ino = co_await local.open(path);
        co_await local.lock(ino).lock_shared();
        local.lock(ino).unlock_shared();
        have_local_copy = true;
      }
    }
  }

  const std::string& staged = staged_path;
  if (!hedged && !have_local_copy && !failed_over) {
    // --- dyad_get_data: RDMA the payload from the owner's node-local
    // storage (request to the owner broker, payload streams back).  Under
    // the recovery protocol, fail-fast errors (partitioned fabric, SSD I/O
    // errors on the owner) retry with backoff, then fail over.
    std::uint32_t attempt = 0;
    Duration backoff = retry.backoff_base;
    for (;;) {
      std::exception_ptr failure;
      try {
        perf::ScopedRegion get(*rec_, "dyad_get_data",
                               perf::Category::kMovement);
        co_await node_->network().send_control(node_->node(), owner);
        // The owner-side broker does the local read + streaming; its costs
        // (queueing, read, transfer) land in this region, matching how the
        // paper attributes dyad_get_data to the consumer.
        co_await node_->domain().at(owner).serve_remote_read(node_->node(),
                                                             path, size);
      } catch (const net::NetError&) {
        failure = std::current_exception();
      } catch (const storage::IoError&) {
        failure = std::current_exception();
      } catch (const fs::FsError&) {
        // Owner's replica was torn away by a crash (the file shrank or
        // vanished after the metadata was published).
        failure = std::current_exception();
      }
      if (!failure) break;
      if (!retry.enabled) std::rethrow_exception(failure);
      ++recovery_retries_;
      if (++attempt >= retry.max_attempts) {
        if (!can_fail_over) std::rethrow_exception(failure);
        failed_over = true;
        break;
      }
      {
        perf::ScopedRegion wait_retry(*rec_, "dyad_retry",
                                      perf::Category::kIdle);
        co_await sim.delay(backoff);
      }
      backoff = backoff * retry.backoff_factor;
    }
    if (failed_over) {
      // fall through to the failover read below
    } else if (node_->params().skip_consumer_staging) {
      // Ablation: consume the RDMA stream in place, no local copy.
      in_memory = true;
    } else if (local.exists(staged)) {
      // A push-mode stream landed while we were pulling; use it.
    } else {
      // --- dyad_cons_store: stage into the consumer's node-local storage.
      perf::ScopedRegion store(*rec_, "dyad_cons_store",
                               perf::Category::kMovement);
      const fs::InodeId ino = co_await local.create(staged);
      co_await local.write(ino, Bytes::zero(), size);
      if (auto* ledger = node_->integrity()) {
        // The staged copy inherits owner-replica corruption plus anything
        // the fabric flipped in flight, then draws its own SSD coin.
        const bool delivered_bad =
            ledger->corrupt(path,
                            integrity::Ledger::ssd_location(owner.value)) ||
            ledger->flip_link(owner.value, node_->node().value);
        // Replicas are keyed by the logical frame path + physical location
        // (matching push-mode staging), not by the staging-prefixed name.
        const std::string here =
            integrity::Ledger::ssd_location(node_->node().value);
        if (delivered_bad) {
          ledger->store_corrupt(path, here);
        } else {
          ledger->store(path, here, node_->node().value);
        }
      }
    }
  }

  if (failed_over && !hedge_read_done) {
    // --- dyad_failover_read: last-resort read of the producer's background
    // write-through replica on the shared parallel FS.
    perf::ScopedRegion fo(*rec_, "dyad_failover_read",
                          perf::Category::kMovement);
    auto* lc = node_->fallback_client();
    std::uint32_t polls = 0;
    while (!co_await lc->exists(path)) {
      // Metadata said the frame exists but the write-through is still in
      // flight; poll until the replica lands.  Bounded: the write-through
      // may have died with its producer (lost_writethroughs), in which case
      // only a migrated re-producer can supply the frame — fail loudly so
      // the rank-level retry re-resolves the owner.
      if (++polls > 256) {
        throw net::NetError("dyad: failover replica for '" + path +
                            "' never appeared (write-through lost)");
      }
      co_await sim.delay(retry.timeout);
    }
    const fs::LustreHandle h = co_await lc->open(path);
    co_await lc->read(h, Bytes::zero(), size);
    co_await lc->close(h, /*wrote=*/false);
    ++failovers_;
    in_memory = true;  // consumed straight from the Lustre stream
  }

  if (hp.enabled && !produced_here && !pushed_here) {
    // Every completed cold fetch (hedged or not, failed over or not) feeds
    // the adaptive hedge delay with what the consumer actually experienced.
    node_->health_state().fetch_latency.observe(sim.now() - cold_start);
  }

  // --- read_single_buf: the analytics-facing local read.
  {
    perf::ScopedRegion read(*rec_, "read_single_buf",
                            perf::Category::kMovement);
    co_await sim.delay(node_->params().posix_wrap_cpu);
    if (!in_memory) {
      const std::string& read_path =
          have_local_copy ? local_copy_path : staged;
      const fs::InodeId ino = co_await local.open(read_path);
      co_await local.read(ino, Bytes::zero(), size);
    }
  }

  if (auto* ledger = node_->integrity()) {
    // --- End-to-end verification: recompute the CRC32C over what was just
    // consumed and compare against the producer's tag carried in the KVS
    // metadata.  On mismatch, run a bounded re-fetch protocol (repair the
    // bad replica at its source, pull again) before giving up.
    const std::uint32_t me = node_->node().value;
    const std::string read_path = have_local_copy ? local_copy_path : staged;
    co_await ledger->charge(size);  // consumer-side CRC32C compute
    bool bad = false;
    if (failed_over) {
      bad = ledger->corrupt(path,
                            std::string(integrity::Ledger::kLustreLocation)) ||
            ledger->flip_lustre_read(me);
    } else if (in_memory) {
      bad = ledger->corrupt(path,
                            integrity::Ledger::ssd_location(owner.value)) ||
            ledger->flip_link(owner.value, me);
    } else {
      bad = ledger->corrupt(path, integrity::Ledger::ssd_location(me));
    }
    ledger->count_verify(!bad);
    if (bad) {
      perf::ScopedRegion repair(*rec_, "dyad_refetch",
                                perf::Category::kMovement);
      const std::uint32_t rounds = retry.enabled ? retry.max_attempts : 3;
      for (std::uint32_t i = 0; bad && i < rounds; ++i) {
        ledger->count_refetch();
        try {
          bad = co_await refetch(path, size, owner, failed_over, in_memory,
                                 read_path);
        } catch (const net::NetError&) {
          // Repair path itself hit a fault window; next round retries.
        } catch (const storage::IoError&) {
        } catch (const fs::FsError&) {
        }
        ledger->count_verify(!bad);
      }
      if (bad) ledger->count_unrecovered();
    }
  }
}

sim::Task<bool> DyadConsumer::refetch(const std::string& path, Bytes size,
                                      net::NodeId owner, bool failed_over,
                                      bool in_memory,
                                      const std::string& local_path) {
  auto& local = node_->local_fs();
  integrity::Ledger* ledger = node_->integrity();
  const std::uint32_t me = node_->node().value;

  if (failed_over) {
    // Journal-tail re-read from the shared FS.  If the striped replica is
    // itself corrupt, the owner re-stripes it from producer memory (a fresh
    // write-through) before we pull it again.
    auto* lc = node_->fallback_client();
    if (ledger->corrupt(path,
                        std::string(integrity::Ledger::kLustreLocation))) {
      co_await node_->domain().at(owner).write_through(path, size);
    }
    const fs::LustreHandle h = co_await lc->open(path);
    co_await lc->read(h, Bytes::zero(), size);
    co_await lc->close(h, /*wrote=*/false);
    co_await ledger->charge(size);
    co_return ledger->corrupt(
                  path, std::string(integrity::Ledger::kLustreLocation)) ||
        ledger->flip_lustre_read(me);
  }

  if (owner == node_->node() && local_path != path) {
    // Push-mode warm hit: the bad copy was staged here by a remote producer
    // and the warm path never consulted the KVS.  Learn the true owner so
    // the repair round can go back to the source.
    const auto found = co_await node_->kvs().lookup(metadata_key(path));
    if (found.has_value()) owner = DyadMetadata::decode(found->data).owner;
  }

  if (owner == node_->node()) {
    // Our own producer-local replica went bad: rewrite it from producer
    // memory (rewrite + re-tag), then re-read.
    co_await node_->repair_local(path, size);
    const fs::InodeId ino = co_await local.open(path);
    co_await local.read(ino, Bytes::zero(), size);
    co_await ledger->charge(size);
    co_return ledger->corrupt(path, integrity::Ledger::ssd_location(me));
  }

  // Remote frame: have the owner repair its replica if that is the bad copy,
  // then pull the payload again over RDMA and restage it here.
  DyadNode& owner_node = node_->domain().at(owner);
  const std::string owner_loc = integrity::Ledger::ssd_location(owner.value);
  if (ledger->corrupt(path, owner_loc)) {
    co_await owner_node.repair_local(path, size);
  }
  co_await node_->network().send_control(node_->node(), owner);
  co_await owner_node.serve_remote_read(node_->node(), path, size);
  const bool delivered_bad = ledger->corrupt(path, owner_loc) ||
                             ledger->flip_link(owner.value, me);
  if (in_memory) {
    co_await ledger->charge(size);
    co_return delivered_bad;
  }
  const fs::InodeId ino = co_await local.open(local_path);
  co_await local.write(ino, Bytes::zero(), size);
  const std::string here = integrity::Ledger::ssd_location(me);
  if (delivered_bad) {
    ledger->store_corrupt(path, here);
  } else {
    ledger->store(path, here, me);
  }
  const fs::InodeId rino = co_await local.open(local_path);
  co_await local.read(rino, Bytes::zero(), size);
  co_await ledger->charge(size);
  co_return ledger->corrupt(path, here);
}

}  // namespace mdwf::dyad
