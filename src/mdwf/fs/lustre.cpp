#include "mdwf/fs/lustre.hpp"

#include "mdwf/common/assert.hpp"

namespace mdwf::fs {

LustreServers::LustreServers(sim::Simulation& sim, const LustreParams& params,
                             net::Network& network, net::NodeId mds_node,
                             std::vector<net::NodeId> ost_nodes)
    : sim_(&sim), params_(params), network_(&network), mds_node_(mds_node) {
  MDWF_ASSERT(ost_nodes.size() == params.ost_count);
  MDWF_ASSERT(params.stripe_count >= 1 &&
              params.stripe_count <= params.ost_count);
  mds_slots_ = std::make_unique<sim::Semaphore>(sim, params.mds_concurrency);
  osts_.reserve(ost_nodes.size());
  for (std::size_t i = 0; i < ost_nodes.size(); ++i) {
    Ost ost;
    ost.node = ost_nodes[i];
    ost.device = std::make_unique<storage::BlockDevice>(
        sim, params.ost_device, "ost" + std::to_string(i));
    ost.service_slots =
        std::make_unique<sim::Semaphore>(sim, params.ost_concurrency);
    osts_.push_back(std::move(ost));
  }
}

storage::BlockDevice& LustreServers::ost_device(std::uint32_t idx) {
  MDWF_ASSERT(idx < osts_.size());
  return *osts_[idx].device;
}

sim::Task<void> LustreServers::mds_rpc(net::NodeId client) {
  ++mds_requests_;
  co_await network_->send_control(client, mds_node_);
  // Bounded admission: a full MDS queue bounces the request with a busy
  // reply; the client backs off exponentially and re-sends.  After the
  // attempt budget it queues regardless — progress over fairness.
  Duration backoff = busy_retry_base_;
  for (std::uint32_t attempt = 0; attempt < busy_retry_limit_; ++attempt) {
    // A tenant at its fair-share bound bounces even when the global queue
    // has room; the shed is charged to that tenant, not the server.
    const bool quota_blocked =
        quota_ != nullptr &&
        quota_->at_bound(health::QuotaResource::kMds, client);
    const bool global_blocked =
        mds_admission_limit_ > 0 &&
        mds_pending_ >= static_cast<std::int64_t>(mds_admission_limit_);
    if (!quota_blocked && !global_blocked) break;
    if (quota_blocked) quota_->count_shed(health::QuotaResource::kMds, client);
    ++sheds_;
    ++busy_retries_;
    co_await network_->send_control(mds_node_, client);
    co_await sim_->delay(backoff);
    backoff = backoff * 2.0;
    co_await network_->send_control(client, mds_node_);
  }
  {
    health::QuotaAdmission quota_slot(quota_, health::QuotaResource::kMds,
                                      client);
    trace_mds_pending(+1);
    co_await mds_slots_->acquire();
    {
      sim::SemaphoreGuard slot(*mds_slots_);
      co_await sim_->delay(params_.mds_service * dilation_);
    }
    trace_mds_pending(-1);
  }
  co_await network_->send_control(mds_node_, client);
}

void LustreServers::set_service_dilation(double factor) {
  dilation_ = factor < 1.0 ? 1.0 : factor;
}

void LustreServers::set_admission_limits(std::uint32_t mds_limit,
                                         std::uint32_t ost_limit,
                                         std::uint32_t retry_limit,
                                         Duration retry_base) {
  mds_admission_limit_ = mds_limit;
  ost_admission_limit_ = ost_limit;
  busy_retry_limit_ = retry_limit;
  busy_retry_base_ = retry_base;
}

void LustreServers::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  if (sink == nullptr) return;
  trace_mds_pending_id_ =
      sink->counter_id(sink->track("lustre", "mds"), "mds.pending");
  for (std::size_t i = 0; i < osts_.size(); ++i) {
    const std::string lane = "ost" + std::to_string(i);
    osts_[i].device->set_trace(sink, sink->track("lustre", lane), lane);
  }
}

std::size_t LustreServers::client_crash(net::NodeId node) {
  std::size_t torn = 0;
  for (auto& [path, fs] : files_) {
    if (fs.written_by == node && fs.size > fs.durable) {
      fs.size = fs.durable;
      ++torn;
    }
  }
  torn_writes_ += torn;
  return torn;
}

void LustreServers::trace_mds_pending(int delta) {
  mds_pending_ += delta;
  if (trace_ == nullptr) return;
  trace_->counter(trace_mds_pending_id_, sim_->now(), mds_pending_);
}

LustreClient::LustreClient(sim::Simulation& sim, LustreServers& servers,
                           net::NodeId node)
    : sim_(&sim),
      servers_(&servers),
      node_(node),
      rpcs_in_flight_(std::make_shared<sim::Semaphore>(
          sim, servers.params().max_rpcs_in_flight)) {}

sim::Task<LustreHandle> LustreClient::create(std::string path) {
  co_await sim_->delay(servers_->params_.client_rpc_cpu);
  co_await servers_->mds_rpc(node_);
  // Incarnation fence, checked only after the MDS round trip succeeds: a
  // zombie behind a one-way partition cannot learn of its declare until
  // traffic flows again.
  if (servers_->fences_ != nullptr &&
      servers_->fences_->stale(FenceToken{node_.value, 0})) {
    servers_->fences_->reject(FenceToken{node_.value, 0}, "lustre create");
  }
  if (servers_->files_.contains(path)) {
    throw FsError("lustre create: exists: " + path);
  }
  LustreServers::FileState fs;
  fs.id = servers_->next_file_id_++;
  // MDS assigns stripes round-robin across OSTs.
  for (std::uint32_t s = 0; s < servers_->params_.stripe_count; ++s) {
    fs.stripe_osts.push_back(servers_->next_ost_rr_);
    servers_->next_ost_rr_ =
        (servers_->next_ost_rr_ + 1) % servers_->params_.ost_count;
  }
  LustreHandle h{fs.id, path};
  servers_->files_.emplace(std::move(path), std::move(fs));
  co_return h;
}

sim::Task<LustreHandle> LustreClient::open(const std::string& path) {
  co_await sim_->delay(servers_->params_.client_rpc_cpu);
  co_await servers_->mds_rpc(node_);
  const auto it = servers_->files_.find(path);
  if (it == servers_->files_.end()) {
    throw FsError("lustre open: no such file: " + path);
  }
  co_return LustreHandle{it->second.id, path};
}

sim::Task<void> LustreClient::brw_rpc(sim::Simulation& sim,
                                      LustreServers& servers, net::NodeId node,
                                      sim::Semaphore& window,
                                      std::uint32_t ost_idx, Bytes chunk,
                                      bool is_write) {
  auto& ost = servers.osts_[ost_idx];
  co_await window.acquire();
  sim::SemaphoreGuard slot_in_window(window);
  co_await sim.delay(servers.params_.client_rpc_cpu);
  // Bounded OST admission: bulk-window pushback before the payload moves.
  // The client holds its RPC-window slot and backs off; after the attempt
  // budget it proceeds regardless so bulk I/O always completes.
  Duration backoff = servers.busy_retry_base_;
  for (std::uint32_t attempt = 0; attempt < servers.busy_retry_limit_;
       ++attempt) {
    const bool quota_blocked =
        servers.quota_ != nullptr &&
        servers.quota_->at_bound(health::QuotaResource::kOst, node);
    const bool global_blocked =
        servers.ost_admission_limit_ > 0 &&
        ost.pending >=
            static_cast<std::int64_t>(servers.ost_admission_limit_);
    if (!quota_blocked && !global_blocked) break;
    if (quota_blocked) {
      servers.quota_->count_shed(health::QuotaResource::kOst, node);
    }
    ++servers.sheds_;
    ++servers.busy_retries_;
    co_await sim.delay(backoff);
    backoff = backoff * 2.0;
  }
  health::QuotaAdmission quota_slot(servers.quota_,
                                    health::QuotaResource::kOst, node);
  const Duration ost_service = servers.params_.ost_service * servers.dilation_;
  // Decrements on every exit path (injected IoError must not leak a
  // pending slot, or the admission queue would wedge shut).
  struct PendingGuard {
    std::int64_t* count;
    ~PendingGuard() { --*count; }
  };
  if (is_write) {
    // Payload travels with the request; the OST commits it to its device.
    co_await servers.network_->transfer(node, ost.node, chunk);
    ++ost.pending;
    PendingGuard admitted{&ost.pending};
    co_await ost.service_slots->acquire();
    {
      sim::SemaphoreGuard slot(*ost.service_slots);
      co_await sim.delay(ost_service);
      co_await ost.device->write(chunk);
    }
    co_await servers.network_->send_control(ost.node, node);
  } else {
    co_await servers.network_->send_control(node, ost.node);
    ++ost.pending;
    PendingGuard admitted{&ost.pending};
    co_await ost.service_slots->acquire();
    {
      sim::SemaphoreGuard slot(*ost.service_slots);
      co_await sim.delay(ost_service);
      co_await ost.device->read(chunk);
    }
    co_await servers.network_->transfer(ost.node, node, chunk);
  }
}

sim::Task<void> LustreClient::bulk_io(sim::Simulation& sim,
                                      LustreServers& servers, net::NodeId node,
                                      std::shared_ptr<sim::Semaphore> window,
                                      std::vector<std::uint32_t> stripe_osts,
                                      Bytes offset, Bytes len, bool is_write) {
  const auto& p = servers.params_;
  // Walk stripe_size windows, binning bytes per OST, then emit RPCs of at
  // most max_rpc_size per OST bin.
  std::vector<sim::Task<void>> rpcs;
  std::vector<Bytes> pending(stripe_osts.size(), Bytes::zero());
  std::uint64_t pos = offset.count();
  std::uint64_t remaining = len.count();
  while (remaining > 0) {
    const std::uint64_t stripe_index = pos / p.stripe_size.count();
    const std::uint64_t within = pos % p.stripe_size.count();
    const std::uint64_t in_stripe =
        std::min(remaining, p.stripe_size.count() - within);
    const std::size_t bin = stripe_index % stripe_osts.size();
    pending[bin] += Bytes(in_stripe);
    while (pending[bin] >= p.max_rpc_size) {
      rpcs.push_back(brw_rpc(sim, servers, node, *window, stripe_osts[bin],
                             p.max_rpc_size, is_write));
      pending[bin] -= p.max_rpc_size;
    }
    pos += in_stripe;
    remaining -= in_stripe;
  }
  for (std::size_t bin = 0; bin < pending.size(); ++bin) {
    if (!pending[bin].is_zero()) {
      rpcs.push_back(brw_rpc(sim, servers, node, *window, stripe_osts[bin],
                             pending[bin], is_write));
    }
  }
  co_await sim::all(sim, std::move(rpcs));
}

sim::Task<void> LustreClient::write(const LustreHandle& h, Bytes offset,
                                    Bytes len) {
  auto it = servers_->files_.find(h.path);
  if (it == servers_->files_.end() || it->second.id != h.file_id) {
    throw FsError("lustre write: stale handle for " + h.path);
  }
  if (len.is_zero()) co_return;
  const auto& p = servers_->params_;
  if (p.client_writeback && len <= p.write_grant) {
    // Grant-based write-back: copy into the client cache now, flush to the
    // OSTs in the background.  The OSTs and fabric still see every byte.
    co_await sim_->delay(Duration::seconds(
        static_cast<double>(len.count()) / p.client_cache_bps));
    sim_->spawn(flush_guarded(*sim_, *servers_, node_, rpcs_in_flight_,
                              it->second.stripe_osts, offset, len));
  } else {
    co_await bulk_io(*sim_, *servers_, node_, rpcs_in_flight_,
                     it->second.stripe_osts, offset, len, /*is_write=*/true);
  }
  if (offset + len > it->second.size) it->second.size = offset + len;
  it->second.written_by = node_;
  it->second.coherent = false;
}

sim::Task<void> LustreClient::read(const LustreHandle& h, Bytes offset,
                                   Bytes len) {
  const auto it = servers_->files_.find(h.path);
  if (it == servers_->files_.end() || it->second.id != h.file_id) {
    throw FsError("lustre read: stale handle for " + h.path);
  }
  if (offset + len > it->second.size) {
    throw FsError("lustre read past EOF: " + h.path);
  }
  if (!it->second.coherent && it->second.written_by != node_) {
    // LDLM extent lock + revocation of the writer's cached grant: the first
    // cross-node read after a write pays the coherence round-trips.
    it->second.coherent = true;
    co_await servers_->mds_rpc(node_);
    co_await sim_->delay(servers_->params_.first_read_lock);
  }
  co_await bulk_io(*sim_, *servers_, node_, rpcs_in_flight_,
                   it->second.stripe_osts, offset, len, /*is_write=*/false);
}

sim::Task<void> LustreClient::flush_guarded(
    sim::Simulation& sim, LustreServers& servers, net::NodeId node,
    std::shared_ptr<sim::Semaphore> window,
    std::vector<std::uint32_t> stripe_osts, Bytes offset, Bytes len) {
  try {
    co_await bulk_io(sim, servers, node, std::move(window),
                     std::move(stripe_osts), offset, len, /*is_write=*/true);
  } catch (const net::NetError&) {
    ++servers.lost_flushes_;
  } catch (const storage::IoError&) {
    ++servers.lost_flushes_;
  }
}

sim::Task<void> LustreClient::close(const LustreHandle& h, bool wrote) {
  if (wrote) {
    co_await sim_->delay(servers_->params_.client_rpc_cpu);
    co_await servers_->mds_rpc(node_);
    if (servers_->fences_ != nullptr &&
        servers_->fences_->stale(FenceToken{node_.value, 0})) {
      servers_->fences_->reject(FenceToken{node_.value, 0},
                                "lustre close-commit");
    }
    // The size/attr update is the MDS journal commit: everything written so
    // far is now recoverable from the journal tail even if the writer dies.
    const auto it = servers_->files_.find(h.path);
    if (it != servers_->files_.end() && it->second.id == h.file_id) {
      if (it->second.size > it->second.durable) {
        it->second.durable = it->second.size;
      }
      ++servers_->journal_commits_;
    }
  }
}

sim::Task<void> LustreClient::unlink(const std::string& path) {
  co_await sim_->delay(servers_->params_.client_rpc_cpu);
  co_await servers_->mds_rpc(node_);
  if (servers_->fences_ != nullptr &&
      servers_->fences_->stale(FenceToken{node_.value, 0})) {
    servers_->fences_->reject(FenceToken{node_.value, 0}, "lustre unlink");
  }
  const auto it = servers_->files_.find(path);
  if (it == servers_->files_.end()) {
    throw FsError("lustre unlink: no such file: " + path);
  }
  servers_->files_.erase(it);
}

sim::Task<bool> LustreClient::exists(const std::string& path) {
  co_await servers_->mds_rpc(node_);
  co_return servers_->files_.contains(path);
}

sim::Task<std::optional<Bytes>> LustreClient::stat(const std::string& path) {
  co_await servers_->mds_rpc(node_);
  const auto it = servers_->files_.find(path);
  if (it == servers_->files_.end()) co_return std::nullopt;
  co_return it->second.size;
}

}  // namespace mdwf::fs
