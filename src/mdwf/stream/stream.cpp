#include "mdwf/stream/stream.hpp"

#include <charconv>

#include "mdwf/common/assert.hpp"

namespace mdwf::stream {

namespace {

Duration copy_time(Bytes size, double bps) {
  return Duration::seconds(static_cast<double>(size.count()) / bps);
}

std::optional<net::NodeId> parse_node(const std::string& s) {
  std::uint32_t value = 0;
  const auto r = std::from_chars(s.data(), s.data() + s.size(), value);
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return net::NodeId{value};
}

}  // namespace

std::string sub_key(const std::string& prefix) {
  return "stream.sub/" + prefix;
}

std::string pub_key(const std::string& prefix) {
  return "stream.pub/" + prefix;
}

std::string path_prefix(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(0, slash + 1);
}

StreamNode::StreamNode(sim::Simulation& sim, const StreamParams& params,
                       StreamDomain& domain, net::NodeId node,
                       net::Network& network, kvs::KvsServer& kvs_server,
                       fs::LustreServers& lustre)
    : sim_(&sim),
      params_(params),
      domain_(&domain),
      node_(node),
      network_(&network),
      kvs_(sim, kvs_server, node),
      spill_client_(std::make_unique<fs::LustreClient>(sim, lustre, node)) {
  domain.add(*this);
}

void StreamNode::set_trace(obs::TraceSink* sink, obs::TrackId track) {
  trace_ = sink;
  trace_puts_id_ = sink->counter_id(track, "stream.puts");
  trace_hits_id_ = sink->counter_id(track, "stream.hits");
  trace_spills_id_ = sink->counter_id(track, "stream.spills");
  trace_spill_reads_id_ = sink->counter_id(track, "stream.spill_reads");
  trace_replays_id_ = sink->counter_id(track, "stream.replays");
  trace_crash_drops_id_ = sink->counter_id(track, "stream.crash_drops");
  trace_staged_bytes_id_ = sink->counter_id(track, "stream.staged_bytes");
}

std::string StreamNode::stage_location(std::uint32_t node) {
  return "stream" + std::to_string(node);
}

std::string StreamNode::spill_path(const std::string& path) const {
  return params_.spill_prefix + path;
}

void StreamNode::trace_total(obs::CounterId id, std::uint64_t value) {
  if (trace_ == nullptr) return;
  trace_->counter(id, sim_->now(), static_cast<std::int64_t>(value));
}

void StreamNode::trace_gauge() {
  if (trace_ == nullptr) return;
  trace_->counter(trace_staged_bytes_id_, sim_->now(),
                  static_cast<std::int64_t>(staged_bytes_.count()));
}

void StreamNode::count_put() {
  ++puts_;
  trace_total(trace_puts_id_, puts_);
}

void StreamNode::count_spill() {
  ++spills_;
  trace_total(trace_spills_id_, spills_);
}

void StreamNode::count_spill_read() {
  ++spill_reads_;
  trace_total(trace_spill_reads_id_, spill_reads_);
}

// --- Events and bounded waits ---------------------------------------------

StreamNode::CreditState& StreamNode::credit_state(const std::string& prefix) {
  const auto it = credits_.find(prefix);
  if (it != credits_.end()) return it->second;
  CreditState fresh;
  fresh.available = effective_credits();
  return credits_.emplace(prefix, std::move(fresh)).first->second;
}

std::int64_t StreamNode::effective_credits() const {
  const auto scaled = static_cast<std::int64_t>(
      static_cast<double>(params_.credits) * credit_scale_);
  return scaled < 1 ? 1 : scaled;
}

void StreamNode::set_credit_scale(double scale) {
  credit_scale_ = scale < 0.0 ? 0.0 : (scale > 1.0 ? 1.0 : scale);
  // Unspent credits above the shrunken window vanish now; credits attached
  // to in-flight frames are absorbed by the grant cap as they return.
  const std::int64_t cap = effective_credits();
  for (auto& [prefix, cs] : credits_) {
    if (cs.available > cap) cs.available = cap;
  }
}

std::shared_ptr<sim::Event> StreamNode::credit_event(
    const std::string& prefix) {
  CreditState& cs = credit_state(prefix);
  if (cs.changed == nullptr || cs.changed->triggered()) {
    cs.changed = std::make_shared<sim::Event>(*sim_);
  }
  return cs.changed;
}

std::shared_ptr<sim::Event> StreamNode::space_event() {
  if (space_changed_ == nullptr || space_changed_->triggered()) {
    space_changed_ = std::make_shared<sim::Event>(*sim_);
  }
  return space_changed_;
}

std::shared_ptr<sim::Event> StreamNode::arrival_event(
    const std::string& path) {
  auto& slot = arrivals_[path];
  if (slot == nullptr || slot->triggered()) {
    slot = std::make_shared<sim::Event>(*sim_);
  }
  return slot;
}

sim::Task<void> StreamNode::timed_wait(std::shared_ptr<sim::Event> ev,
                                       Duration timeout) {
  // The timer holds its own reference: the owning slot may be replaced
  // (or the whole map cleared by a power loss) while we are suspended.
  const sim::TimerId timer = sim_->call_after(timeout, [ev] {
    if (!ev->triggered()) ev->trigger();
  });
  co_await ev->wait();
  sim_->cancel(timer);
}

// --- Producer side ---------------------------------------------------------

void StreamNode::ensure_pub_announced(const std::string& prefix) {
  if (!announced_pubs_.insert(prefix).second) return;
  sim_->spawn(announce(pub_key(prefix), std::to_string(node_.value)),
              "stream.announce_pub");
}

void StreamNode::ensure_subscribed(const std::string& prefix) {
  if (!announced_subs_.insert(prefix).second) return;
  domain_->subscribe(prefix, node_);
  sim_->spawn(announce(sub_key(prefix), std::to_string(node_.value)),
              "stream.announce_sub");
}

sim::Task<void> StreamNode::announce(std::string key, std::string value) {
  // Off the critical path: ranks never block on the handshake commit.
  // ServerBusy derives from NetError, so one catch covers sheds, torn
  // links, and broker outages alike.
  Duration backoff = Duration::milliseconds(5);
  for (std::uint32_t attempt = 0; attempt < 16; ++attempt) {
    try {
      co_await kvs_.commit(key, value);
      co_return;
    } catch (const net::NetError&) {
    } catch (const StaleEpochError&) {
      // This daemon's node was declared lost: the broker fenced the
      // handshake commit.  The migrated rank re-announces from its new
      // home; retrying here would only be rejected again.
      co_return;
    }
    co_await sim_->delay(backoff);
    backoff = std::min(backoff * 2, Duration::milliseconds(40));
  }
}

sim::Task<std::optional<net::NodeId>> StreamNode::resolve_subscriber(
    const std::string& prefix) {
  if (const auto sub = domain_->subscriber_for(prefix); sub.has_value()) {
    co_return sub;
  }
  // Cold start: wait briefly for the subscriber's KVS announcement, then
  // cache the route in the domain so later puts skip the broker.
  try {
    if (co_await kvs_.watch_for(sub_key(prefix), params_.handshake_timeout)) {
      const auto v = co_await kvs_.lookup(sub_key(prefix));
      if (v.has_value()) {
        if (const auto sub = parse_node(v->data); sub.has_value()) {
          domain_->subscribe(prefix, *sub);
          co_return sub;
        }
      }
    }
  } catch (const net::NetError&) {
  }
  co_return std::nullopt;
}

sim::Task<std::optional<net::NodeId>> StreamNode::resolve_publisher(
    const std::string& prefix) {
  if (const auto it = pub_routes_.find(prefix); it != pub_routes_.end()) {
    co_return it->second;
  }
  try {
    const auto v = co_await kvs_.lookup(pub_key(prefix));
    if (v.has_value()) {
      if (const auto pub = parse_node(v->data); pub.has_value()) {
        pub_routes_.emplace(prefix, *pub);
        co_return pub;
      }
    }
  } catch (const net::NetError&) {
  }
  co_return std::nullopt;
}

sim::Task<bool> StreamNode::acquire_credit(const std::string& prefix) {
  if (credit_state(prefix).available > 0) {
    --credit_state(prefix).available;
    co_return true;
  }
  ++credit_waits_;
  const TimePoint deadline = sim_->now() + params_.backpressure_timeout;
  while (sim_->now() < deadline) {
    co_await timed_wait(credit_event(prefix), deadline - sim_->now());
    if (credit_state(prefix).available > 0) {
      --credit_state(prefix).available;
      co_return true;
    }
  }
  ++backpressure_stalls_;
  co_return false;
}

void StreamNode::grant_credit(const std::string& prefix) {
  CreditState& cs = credit_state(prefix);
  if (cs.available < effective_credits()) {
    ++cs.available;
  }
  if (cs.changed != nullptr && !cs.changed->triggered()) {
    cs.changed->trigger();
  }
  cs.changed = nullptr;
}

sim::Task<void> StreamNode::move_bytes(net::NodeId dest, Bytes size) {
  if (dest == node_) {
    // Same-node subscriber: a staging-memory copy, no fabric involved.
    co_await sim_->delay(copy_time(size, params_.buffer_bps));
  } else {
    co_await network_->rdma_put(node_, dest, size);
  }
}

void StreamNode::record_delivery(net::NodeId dest, const std::string& path) {
  if (ledger_ == nullptr) return;
  const bool bad =
      dest != node_ && ledger_->flip_link(node_.value, dest.value);
  const std::string loc = stage_location(dest.value);
  if (bad) {
    ledger_->store_corrupt(path, loc);
  } else {
    // A clean re-delivery also repairs a previously corrupt staged copy.
    ledger_->drop(path, loc);
  }
}

sim::Task<bool> StreamNode::deliver(net::NodeId dest, const std::string& path,
                                    Bytes size) {
  co_await move_bytes(dest, size);
  // Incarnation fence: the receiving daemon checks the sender's membership
  // epoch before accepting the frame.  Checked only after the payload
  // crossed the fabric — a zombie behind a one-way partition cannot learn
  // of its own declare until traffic flows again.
  if (fences_ != nullptr && fences_->stale(FenceToken{node_.value, 0})) {
    fences_->reject(FenceToken{node_.value, 0}, "stream direct put");
  }
  StreamNode& peer = domain_->at(dest);
  if (!peer.receive(path, size, node_)) co_return false;
  record_delivery(dest, path);
  co_return true;
}

sim::Task<void> StreamNode::spill_write(const std::string& path, Bytes size) {
  const std::string sp = spill_path(path);
  if (co_await spill_client_->exists(sp)) {
    // Torn leftovers of a crashed attempt, or a re-executed frame after a
    // rollback: replace the replica.
    co_await spill_client_->unlink(sp);
  }
  const fs::LustreHandle h = co_await spill_client_->create(sp);
  co_await spill_client_->write(h, Bytes::zero(), size);
  co_await spill_client_->close(h, /*wrote=*/true);
  if (ledger_ != nullptr) ledger_->store_lustre(sp, node_.value);
}

sim::Task<bool> StreamNode::respill(const std::string& path, Bytes size) {
  if (published_.find(path) == published_.end()) co_return false;
  co_await spill_write(path, size);
  co_return true;
}

sim::Task<bool> StreamNode::replay_to(net::NodeId requester,
                                      const std::string& path, Bytes size) {
  if (published_.find(path) == published_.end()) co_return false;
  co_await sim_->delay(params_.put_cpu);
  StreamNode& peer = domain_->at(requester);
  if (peer.staged(path)) {
    // Restage in place: same reservation, fresh payload (and a fresh
    // in-flight corruption draw).
    co_await move_bytes(requester, size);
    record_delivery(requester, path);
  } else if (peer.try_reserve(size)) {
    bool accepted = false;
    try {
      co_await move_bytes(requester, size);
      accepted = peer.receive(path, size, node_);
    } catch (...) {
      peer.unreserve(size);
      throw;
    }
    if (accepted) {
      record_delivery(requester, path);
    } else {
      peer.unreserve(size);
    }
  } else {
    // The subscriber's buffer is full: refresh the spill replica instead
    // and let its spill probe find the frame.
    co_await spill_write(path, size);
  }
  ++replays_;
  trace_total(trace_replays_id_, replays_);
  co_return true;
}

void StreamNode::note_published(const std::string& path, Bytes size) {
  published_.insert_or_assign(path, size);
}

void StreamNode::forget_routes_to(net::NodeId lost) {
  for (auto it = pub_routes_.begin(); it != pub_routes_.end();) {
    if (it->second == lost) {
      it = pub_routes_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- Consumer-side staging buffer ------------------------------------------

bool StreamNode::try_reserve(Bytes size) {
  if (staged_bytes_ + size > params_.buffer_capacity) return false;
  staged_bytes_ += size;
  trace_gauge();
  return true;
}

sim::Task<bool> StreamNode::reserve(Bytes size) {
  if (try_reserve(size)) co_return true;
  const TimePoint deadline = sim_->now() + params_.backpressure_timeout;
  while (sim_->now() < deadline) {
    co_await timed_wait(space_event(), deadline - sim_->now());
    if (try_reserve(size)) co_return true;
  }
  co_return false;
}

void StreamNode::unreserve(Bytes size) {
  MDWF_ASSERT_MSG(size <= staged_bytes_, "stream buffer accounting underflow");
  staged_bytes_ -= size;
  trace_gauge();
  if (space_changed_ != nullptr && !space_changed_->triggered()) {
    space_changed_->trigger();
  }
  space_changed_ = nullptr;
}

bool StreamNode::receive(const std::string& path, Bytes size,
                         net::NodeId origin) {
  if (consumed_.count(path) != 0 || staged_.count(path) != 0) {
    ++dup_drops_;
    return false;
  }
  staged_.emplace(path, StagedFrame{size, origin});
  const auto it = arrivals_.find(path);
  if (it != arrivals_.end()) {
    const std::shared_ptr<sim::Event> ev = std::move(it->second);
    arrivals_.erase(it);
    if (ev != nullptr && !ev->triggered()) ev->trigger();
  }
  return true;
}

std::optional<net::NodeId> StreamNode::staged_origin(
    const std::string& path) const {
  const auto it = staged_.find(path);
  if (it == staged_.end()) return std::nullopt;
  return it->second.origin;
}

void StreamNode::redeclare_interest(const std::string& path) {
  consumed_.erase(path);
}

sim::Task<void> StreamNode::wait_arrival(const std::string& path,
                                         Duration timeout) {
  if (staged_.count(path) != 0) co_return;
  co_await timed_wait(arrival_event(path), timeout);
}

sim::Task<void> StreamNode::return_credit(net::NodeId origin,
                                          std::string prefix) {
  try {
    if (origin != node_) {
      co_await network_->send_control(node_, origin);
    }
    domain_->at(origin).grant_credit(prefix);
  } catch (const net::NetError&) {
    // The credit is lost with the link; the producer degrades to the
    // spill path once the window drains, it does not deadlock.
  }
}

void StreamNode::consume(const std::string& path) {
  const auto it = staged_.find(path);
  MDWF_ASSERT_MSG(it != staged_.end(), "consuming a frame that is not staged");
  const StagedFrame frame = it->second;
  staged_.erase(it);
  consumed_.insert(path);
  unreserve(frame.size);
  ++hits_;
  trace_total(trace_hits_id_, hits_);
  sim_->spawn(return_credit(frame.origin, path_prefix(path)),
              "stream.credit_return");
}

void StreamNode::mark_consumed(const std::string& path) {
  const auto it = staged_.find(path);
  if (it != staged_.end()) {
    // A direct delivery landed while the spill read was in flight; free
    // it (and its credit) without counting a staged hit.
    const StagedFrame frame = it->second;
    staged_.erase(it);
    unreserve(frame.size);
    sim_->spawn(return_credit(frame.origin, path_prefix(path)),
                "stream.credit_return");
  }
  consumed_.insert(path);
}

// --- Fault hook -------------------------------------------------------------

void StreamNode::on_power_loss() {
  crash_drops_ += staged_.size();
  staged_.clear();
  staged_bytes_ = Bytes::zero();
  consumed_.clear();
  // Waiters hold their own event references and wake on their timers.
  arrivals_.clear();
  published_.clear();
  credits_.clear();
  announced_pubs_.clear();
  announced_subs_.clear();
  pub_routes_.clear();
  if (space_changed_ != nullptr && !space_changed_->triggered()) {
    space_changed_->trigger();
  }
  space_changed_ = nullptr;
  trace_gauge();
  trace_total(trace_crash_drops_id_, crash_drops_);
}

// --- StreamPublisher --------------------------------------------------------

StreamPublisher::StreamPublisher(StreamNode& node, perf::Recorder& recorder)
    : node_(&node), rec_(&recorder) {}

sim::Task<void> StreamPublisher::publish(const std::string& path,
                                         Bytes size) {
  StreamNode& n = *node_;
  auto& sim = n.simulation();
  const StreamParams& p = n.params();
  const std::string prefix = path_prefix(path);
  perf::ScopedRegion produce(*rec_, "stream_produce");
  n.ensure_pub_announced(prefix);
  {
    perf::ScopedRegion put(*rec_, "stream_put", perf::Category::kMovement);
    co_await sim.delay(p.put_cpu);
    if (auto* ledger = n.integrity()) {
      co_await ledger->charge(size);  // producer-side CRC32C tagging
    }
  }
  if (p.durable) {
    // Commit barrier: a power-loss-safe replica exists before any
    // consumer can observe the frame, so a crash can drop staged copies
    // but never the only copy.
    perf::ScopedRegion spill(*rec_, "stream_spill_write",
                             perf::Category::kMovement);
    co_await n.spill_write(path, size);
  }
  bool delivered = false;
  std::optional<net::NodeId> dest;
  {
    perf::ScopedRegion resolve(*rec_, "stream_resolve",
                               perf::Category::kIdle);
    dest = co_await n.resolve_subscriber(prefix);
  }
  if (dest.has_value()) {
    bool have_credit = false;
    bool reserved = false;
    {
      perf::ScopedRegion bp(*rec_, "stream_backpressure",
                            perf::Category::kIdle);
      have_credit = co_await n.acquire_credit(prefix);
      if (have_credit) {
        reserved = co_await n.domain().at(*dest).reserve(size);
        if (!reserved) n.count_backpressure_stall();
      }
    }
    if (have_credit && reserved) {
      std::exception_ptr torn;
      std::exception_ptr fenced;
      try {
        perf::ScopedRegion put(*rec_, "stream_put",
                               perf::Category::kMovement);
        delivered = co_await n.deliver(*dest, path, size);
      } catch (const net::NetError&) {
        torn = std::current_exception();
      } catch (const StaleEpochError&) {
        fenced = std::current_exception();
      }
      if (fenced != nullptr) {
        // The receiving daemon fenced this zombie's put.  Release the
        // peer reservation and the credit, then surface the rejection —
        // unlike a torn fabric this is permanent, so the rank-level
        // recovery (not the spill path) owns what happens next.
        n.domain().at(*dest).unreserve(size);
        n.refund_credit(prefix);
        std::rethrow_exception(fenced);
      }
      if (torn != nullptr) {
        // Torn mid-put (crashed endpoint, partition): fall through to the
        // spill so the consumer still finds the frame.
        n.domain().at(*dest).unreserve(size);
        n.refund_credit(prefix);
      } else if (!delivered) {
        // Duplicate (crash rollback re-executed the frame): nothing left
        // to move.
        n.domain().at(*dest).unreserve(size);
        n.refund_credit(prefix);
        delivered = true;
      }
    } else if (have_credit) {
      n.refund_credit(prefix);
    }
  }
  if (!delivered && !p.durable) {
    perf::ScopedRegion spill(*rec_, "stream_spill_write",
                             perf::Category::kMovement);
    co_await n.spill_write(path, size);
  }
  if (!delivered) n.count_spill();
  n.note_published(path, size);
  n.count_put();
}

// --- StreamSubscriber -------------------------------------------------------

StreamSubscriber::StreamSubscriber(StreamNode& node, perf::Recorder& recorder)
    : node_(&node), rec_(&recorder) {}

sim::Task<void> StreamSubscriber::request_replay(const std::string& path,
                                                 Bytes size) {
  StreamNode& n = *node_;
  perf::ScopedRegion replay(*rec_, "stream_replay",
                            perf::Category::kMovement);
  std::optional<net::NodeId> pub;
  try {
    pub = co_await n.resolve_publisher(path_prefix(path));
    if (!pub.has_value()) co_return;
    if (*pub != n.node()) {
      co_await n.network().send_control(n.node(), *pub);
    }
    co_await n.domain().at(*pub).replay_to(n.node(), path, size);
  } catch (const net::NetError&) {
    // Producer node down or redelivery torn; the next wait round retries
    // and the spill probe covers durable frames.
  } catch (const StaleEpochError&) {
    // The cached publisher is a fenced zombie: drop the route so the next
    // round resolves the migrated producer instead.
    if (pub.has_value()) n.forget_routes_to(*pub);
  }
}

sim::Task<bool> StreamSubscriber::try_spill_read(const std::string& path,
                                                 Bytes size) {
  StreamNode& n = *node_;
  const std::string sp = n.spill_path(path);
  const auto replica = co_await n.spill().stat(sp);
  // stat(), not exists(): a crash can leave a torn replica whose committed
  // size is short of the frame — readable only once a re-spill lands.
  if (!replica.has_value() || *replica < size) co_return false;
  perf::ScopedRegion read(*rec_, "stream_spill_read",
                          perf::Category::kMovement);
  auto& lc = n.spill();
  const fs::LustreHandle h = co_await lc.open(sp);
  co_await lc.read(h, Bytes::zero(), size);
  co_await lc.close(h, /*wrote=*/false);
  if (auto* ledger = n.integrity()) {
    const std::string lustre_loc{integrity::Ledger::kLustreLocation};
    co_await ledger->charge(size);
    bool bad = ledger->corrupt(sp, lustre_loc) ||
               ledger->flip_lustre_read(n.node().value);
    ledger->count_verify(!bad);
    for (std::uint32_t round = 0; bad && round < 3; ++round) {
      ledger->count_refetch();
      try {
        if (ledger->corrupt(sp, lustre_loc)) {
          // The replica itself is bad: the producer re-stripes it from
          // its replay ring before we pull again.
          const auto pub = co_await n.resolve_publisher(path_prefix(path));
          if (!pub.has_value()) break;
          if (*pub != n.node()) {
            co_await n.network().send_control(n.node(), *pub);
          }
          if (!co_await n.domain().at(*pub).respill(path, size)) break;
        }
        const fs::LustreHandle rh = co_await lc.open(sp);
        co_await lc.read(rh, Bytes::zero(), size);
        co_await lc.close(rh, /*wrote=*/false);
        co_await ledger->charge(size);
        bad = ledger->corrupt(sp, lustre_loc) ||
              ledger->flip_lustre_read(n.node().value);
      } catch (const net::NetError&) {
        // Repair round hit a fault window; the next round retries.
      } catch (const StaleEpochError&) {
        // The re-striping producer is a fenced zombie; its migrated
        // incarnation re-spills on its own.
      }
      ledger->count_verify(!bad);
    }
    if (bad) ledger->count_unrecovered();
  }
  n.mark_consumed(path);
  n.count_spill_read();
  co_return true;
}

sim::Task<void> StreamSubscriber::read_staged(const std::string& path,
                                              Bytes size) {
  StreamNode& n = *node_;
  auto& sim = n.simulation();
  perf::ScopedRegion read(*rec_, "stream_read", perf::Category::kMovement);
  co_await sim.delay(n.params().match_cpu);
  co_await sim.delay(copy_time(size, n.params().buffer_bps));
  if (auto* ledger = n.integrity()) {
    const std::string loc = StreamNode::stage_location(n.node().value);
    co_await ledger->charge(size);  // consumer-side CRC32C verify
    bool bad = ledger->corrupt(path, loc);
    ledger->count_verify(!bad);
    for (std::uint32_t round = 0; bad && round < 3; ++round) {
      ledger->count_refetch();
      bool redelivered = false;
      try {
        const auto origin = n.staged_origin(path);
        if (origin.has_value()) {
          if (*origin != n.node()) {
            co_await n.network().send_control(n.node(), *origin);
          }
          redelivered =
              co_await n.domain().at(*origin).replay_to(n.node(), path, size);
        }
      } catch (const net::NetError&) {
        // Replay torn; try the spill below, else the next round retries.
      } catch (const StaleEpochError&) {
        // Origin is a fenced zombie; fall through to the spill replica.
      }
      if (redelivered) {
        co_await sim.delay(copy_time(size, n.params().buffer_bps));
        co_await ledger->charge(size);
        bad = ledger->corrupt(path, loc);
      } else {
        // Origin lost its replay ring (power loss): the spill replica is
        // the remaining clean source.
        bool from_spill = false;
        try {
          from_spill = co_await try_spill_read(path, size);
        } catch (const net::NetError&) {
        }
        if (from_spill) co_return;  // mark_consumed freed the staged copy
      }
      ledger->count_verify(!bad);
    }
    if (bad) ledger->count_unrecovered();
  }
  n.consume(path);
}

sim::Task<void> StreamSubscriber::fetch(const std::string& path, Bytes size) {
  StreamNode& n = *node_;
  auto& sim = n.simulation();
  const StreamParams& p = n.params();
  perf::ScopedRegion fetch(*rec_, "stream_fetch");
  n.ensure_subscribed(path_prefix(path));
  n.redeclare_interest(path);
  const TimePoint start = sim.now();
  bool waited = false;
  bool hedge_pending = p.health.enabled && p.health.hedge.enabled;
  std::uint32_t rounds = 0;
  for (;;) {
    if (n.staged(path)) {
      co_await read_staged(path, size);
      break;
    }
    Duration wait = p.arrival_timeout;
    bool is_hedge = false;
    if (hedge_pending) {
      // Hedge the stalled subscription against the spill path: probe the
      // replica after the adaptive delay instead of waiting out the full
      // arrival timeout.
      const Duration hd = n.fetch_latency().hedge_delay(p.health.hedge);
      if (hd < wait) {
        wait = hd;
        is_hedge = true;
      }
    }
    {
      perf::ScopedRegion idle(*rec_, "stream_wait", perf::Category::kIdle);
      co_await n.wait_arrival(path, wait);
    }
    waited = true;
    if (n.staged(path)) continue;  // the arrival won the race
    if (is_hedge) {
      hedge_pending = false;
      n.count_hedge();
    }
    bool done = false;
    try {
      done = co_await try_spill_read(path, size);
    } catch (const net::NetError&) {
    }
    if (done) {
      if (is_hedge) n.count_hedge_win();
      break;
    }
    if (!is_hedge) {
      if (++rounds >= p.max_fetch_rounds) {
        // Producer gone and no spill replica after a full budget of wait
        // rounds: surface the starvation to the rank-level retry loop
        // instead of spinning the event queue forever.
        throw net::NetError("stream: subscription to '" + path +
                            "' starved");
      }
      // A full timeout with neither a staged copy nor a spill replica:
      // ask the producer to re-deliver from its replay ring (covers kill
      // rollbacks re-reading frames whose staged copy was already freed).
      co_await request_replay(path, size);
    }
  }
  if (waited && p.health.enabled) {
    n.fetch_latency().observe(sim.now() - start);
  }
}

}  // namespace mdwf::stream
