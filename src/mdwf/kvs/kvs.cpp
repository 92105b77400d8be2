#include "mdwf/kvs/kvs.hpp"

#include "mdwf/common/assert.hpp"

namespace mdwf::kvs {

KvsServer::KvsServer(sim::Simulation& sim, const KvsParams& params,
                     net::Network& network, net::NodeId server_node)
    : sim_(&sim), params_(params), network_(&network), node_(server_node) {
  slots_ = std::make_unique<sim::Semaphore>(sim, params.server_concurrency);
}

sim::Task<void> KvsServer::serve(Duration service, net::NodeId client) {
  if (quota_ != nullptr &&
      quota_->at_bound(health::QuotaResource::kKvs, client)) {
    // The tenant already fills its fair share of the broker queue; shed its
    // request before it can crowd out other tenants.
    quota_->count_shed(health::QuotaResource::kKvs, client);
    ++sheds_;
    throw health::ServerBusy("kvs: tenant quota exceeded");
  }
  if (admission_limit_ > 0 &&
      pending_ >= static_cast<std::int64_t>(admission_limit_)) {
    ++sheds_;
    throw health::ServerBusy("kvs: admission queue full");
  }
  health::QuotaAdmission quota_slot(quota_, health::QuotaResource::kKvs,
                                    client);
  trace_pending(+1);
  while (stall_depth_ > 0) {
    // Keep a reference: the gate is replaced by the next stall window.
    auto gate = stall_gate_;
    co_await gate->wait();
  }
  co_await slots_->acquire();
  sim::SemaphoreGuard slot(*slots_);
  co_await sim_->delay(service * dilation_);
  trace_pending(-1);
}

void KvsServer::set_service_dilation(double factor) {
  dilation_ = factor < 1.0 ? 1.0 : factor;
}

void KvsServer::set_trace(obs::TraceSink* sink, obs::TrackId track) {
  trace_ = sink;
  trace_pending_id_ = sink->counter_id(track, "kvs.pending");
  trace_commits_id_ = sink->counter_id(track, "kvs.commits");
  trace_lookups_id_ = sink->counter_id(track, "kvs.lookups");
}

void KvsServer::trace_pending(int delta) {
  pending_ += delta;
  if (trace_ == nullptr) return;
  trace_->counter(trace_pending_id_, sim_->now(), pending_);
}

void KvsServer::trace_total(obs::CounterId id, std::uint64_t value) {
  if (trace_ == nullptr) return;
  trace_->counter(id, sim_->now(), static_cast<std::int64_t>(value));
}

void KvsServer::fault_stall_begin() {
  if (stall_depth_++ == 0) {
    stall_gate_ = std::make_shared<sim::Event>(*sim_);
  }
}

void KvsServer::fault_stall_end() {
  MDWF_ASSERT_MSG(stall_depth_ > 0, "stall end without begin");
  if (--stall_depth_ == 0) stall_gate_->trigger();
}

void KvsServer::fault_outage_begin() {
  fault_stall_begin();
  // The commit pipeline dies with the broker: entries applied but not yet
  // propagated to visibility are lost.  Their already-armed watch wake-ups
  // still fire, but the woken consumers find nothing — exactly the stale
  // namespace a restarted Flux broker presents.
  for (auto it = store_.begin(); it != store_.end();) {
    if (it->second.visible_at > sim_->now()) {
      lost_keys_.push_back(it->first);
      ++lost_commits_;
      it = store_.erase(it);
    } else {
      ++it;
    }
  }
}

void KvsServer::fault_outage_end() {
  auto lost = std::move(lost_keys_);
  lost_keys_.clear();
  fault_stall_end();
  for (const auto& fn : recovery_listeners_) fn(lost);
}

void KvsServer::add_recovery_listener(
    std::function<void(const std::vector<std::string>&)> fn) {
  recovery_listeners_.push_back(std::move(fn));
}

std::size_t KvsServer::visible_entries() const {
  std::size_t n = 0;
  for (const auto& [k, e] : store_) {
    if (e.visible_at <= sim_->now()) ++n;
  }
  return n;
}

void KvsServer::arm_watch_wakeup(const std::string& key, TimePoint when) {
  // Snapshot current watchers; they fire when the committed value becomes
  // visible.  Watchers registered later observe visibility directly.
  auto it = watchers_.find(key);
  if (it == watchers_.end()) return;
  auto pending = std::move(it->second);
  watchers_.erase(it);
  const Duration in = when - sim_->now();
  for (auto& ev : pending) {
    sim_->call_after(in.is_negative() ? Duration::zero() : in,
                     [ev] { ev->trigger(); });
  }
}

KvsClient::KvsClient(sim::Simulation& sim, KvsServer& server, net::NodeId node)
    : sim_(&sim), server_(&server), node_(node) {}

sim::Task<void> KvsClient::rpc_to_server() {
  co_await server_->network_->send_control(node_, server_->node_);
}

sim::Task<void> KvsClient::rpc_from_server() {
  co_await server_->network_->send_control(server_->node_, node_);
}

sim::Task<void> KvsClient::commit(std::string key, std::string value) {
  co_await rpc_to_server();
  std::exception_ptr busy;
  try {
    co_await server_->serve(server_->params_.commit_service, node_);
  } catch (const health::ServerBusy&) {
    busy = std::current_exception();
  }
  if (busy != nullptr) {
    co_await rpc_from_server();  // the busy reply still crosses the wire
    std::rethrow_exception(busy);
  }
  // Incarnation fence: the broker checks the committer's membership epoch
  // before applying.  A stale (declared-lost) incarnation gets its reject
  // reply over the wire and never touches the store.
  if (server_->fences_ != nullptr &&
      server_->fences_->stale(FenceToken{node_.value, 0})) {
    co_await rpc_from_server();
    server_->fences_->reject(FenceToken{node_.value, 0}, "kvs commit");
  }
  ++server_->commits_;
  server_->trace_total(server_->trace_commits_id_, server_->commits_);
  auto& entry = server_->store_[key];
  entry.value.data = std::move(value);
  entry.value.version += 1;
  entry.visible_at = sim_->now() + server_->params_.visibility_delay;
  server_->arm_watch_wakeup(key, entry.visible_at);
  co_await rpc_from_server();
}

sim::Task<std::optional<KvsValue>> KvsClient::lookup(const std::string& key) {
  co_await rpc_to_server();
  std::exception_ptr busy;
  try {
    co_await server_->serve(server_->params_.lookup_service, node_);
  } catch (const health::ServerBusy&) {
    busy = std::current_exception();
  }
  if (busy != nullptr) {
    co_await rpc_from_server();
    std::rethrow_exception(busy);
  }
  ++server_->lookups_;
  server_->trace_total(server_->trace_lookups_id_, server_->lookups_);
  std::optional<KvsValue> result;
  const auto it = server_->store_.find(key);
  if (it != server_->store_.end() && it->second.visible_at <= sim_->now()) {
    result = it->second.value;
  }
  co_await rpc_from_server();
  co_return result;
}

sim::Task<void> KvsClient::watch_until_visible(const std::string& key) {
  const auto it = server_->store_.find(key);
  if (it != server_->store_.end() && it->second.visible_at <= sim_->now()) {
    co_return;
  }
  auto ev = std::make_shared<sim::Event>(*sim_);
  server_->watchers_[key].push_back(ev);
  // A commit may already be in flight (applied but not yet visible); make
  // sure the wake-up for its visibility instant is armed.
  if (it != server_->store_.end()) {
    server_->arm_watch_wakeup(key, it->second.visible_at);
  }
  co_await ev->wait();
}

sim::Task<bool> KvsClient::watch_for(const std::string& key,
                                     Duration timeout) {
  const auto it = server_->store_.find(key);
  if (it != server_->store_.end() && it->second.visible_at <= sim_->now()) {
    co_return true;
  }
  auto ev = std::make_shared<sim::Event>(*sim_);
  server_->watchers_[key].push_back(ev);
  if (it != server_->store_.end()) {
    server_->arm_watch_wakeup(key, it->second.visible_at);
  }
  const sim::TimerId timer = sim_->call_after(timeout, [ev] { ev->trigger(); });
  co_await ev->wait();
  sim_->cancel(timer);
  const auto again = server_->store_.find(key);
  co_return again != server_->store_.end() &&
      again->second.visible_at <= sim_->now();
}

}  // namespace mdwf::kvs
