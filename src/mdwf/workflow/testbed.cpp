#include "mdwf/workflow/testbed.hpp"

#include <algorithm>

#include "mdwf/common/assert.hpp"

namespace mdwf::workflow {

Testbed::Testbed(const TestbedParams& params) : params_(params) {
  MDWF_ASSERT(params.compute_nodes >= 1);
  // Crash consistency: with power-loss windows in the plan, DYAD producers
  // must fsync before publishing or a crash tears frames consumers were
  // already told about.  Kill windows keep storage intact, so cheap
  // page-cache puts stay correct there.
  // A permanent node loss is a power loss that never ends: everything
  // volatile on the node is unreachable for good, so it forces the same
  // durable-put discipline.
  const bool power_loss_planned = std::any_of(
      params.faults.windows.begin(), params.faults.windows.end(),
      [](const fault::FaultWindow& w) {
        return (w.target == fault::FaultTarget::kNodeCrash ||
                w.target == fault::FaultTarget::kNodeLoss) &&
               w.mode == fault::FaultMode::kCrash;
      });
  if (power_loss_planned) {
    params_.dyad.durable_puts = true;
    // Stream staging buffers live in RAM: a power loss drops them, so the
    // publisher spills a durable Lustre replica before announcing.
    params_.stream.durable = true;
  }
  // Backpressure: health fills in default bounded-admission limits unless
  // the caller chose explicit ones (health off leaves every queue unbounded).
  params_.dyad.health = health::with_default_limits(params_.dyad.health);
  const std::uint32_t total_endpoints =
      params.compute_nodes + 1 /*kvs*/ + 1 /*mds*/ + params.lustre.ost_count;
  network_ = std::make_unique<net::Network>(sim_, params.network,
                                            total_endpoints);
  kvs_ = std::make_unique<kvs::KvsServer>(sim_, params.kvs, *network_,
                                          kvs_node());
  std::vector<net::NodeId> ost_nodes;
  for (std::uint32_t i = 0; i < params.lustre.ost_count; ++i) {
    ost_nodes.push_back(net::NodeId{params.compute_nodes + 2 + i});
  }
  lustre_ = std::make_unique<fs::LustreServers>(sim_, params.lustre, *network_,
                                                mds_node(), ost_nodes);
  if (params_.dyad.health.enabled) {
    const health::HealthParams& hp = params_.dyad.health;
    kvs_->set_admission_limit(hp.kvs_admission_limit);
    lustre_->set_admission_limits(hp.mds_admission_limit,
                                  hp.ost_admission_limit, hp.busy_retry_limit,
                                  hp.busy_retry_base);
  }

  nodes_.reserve(params.compute_nodes);
  for (std::uint32_t i = 0; i < params.compute_nodes; ++i) {
    NodeResources r;
    r.ssd = std::make_unique<storage::BlockDevice>(
        sim_, params.node_ssd, "node" + std::to_string(i) + ".nvme");
    r.cache = std::make_unique<storage::PageCache>(sim_, params.page_cache,
                                                   *r.ssd);
    r.local_fs = std::make_unique<fs::LocalFs>(sim_, params.local_fs, *r.ssd,
                                               *r.cache);
    r.dyad = std::make_unique<dyad::DyadNode>(sim_, params_.dyad, dyad_domain_,
                                              net::NodeId{i}, *r.local_fs,
                                              *network_, *kvs_, *lustre_);
    r.stream = std::make_unique<stream::StreamNode>(
        sim_, params_.stream, stream_domain_, net::NodeId{i}, *network_, *kvs_,
        *lustre_);
    nodes_.push_back(std::move(r));
  }

  if (params.integrity.enabled) {
    ledger_ = std::make_unique<integrity::Ledger>(sim_, params.integrity);
    for (auto& r : nodes_) {
      r.dyad->set_integrity(ledger_.get());
      r.stream->set_integrity(ledger_.get());
    }
  }

  if (params.trace != nullptr) attach_trace(*params.trace);

  if (!params.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(sim_, params.faults);
    for (std::uint32_t i = 0; i < params.compute_nodes; ++i) {
      injector_->attach_node_ssd(i, *nodes_[i].ssd);
      injector_->attach_node_fs(i, *nodes_[i].cache, *nodes_[i].local_fs);
      injector_->attach_stream(i, *nodes_[i].stream);
    }
    injector_->attach_network(*network_);
    injector_->attach_kvs(*kvs_);
    injector_->attach_lustre(*lustre_);
    if (ledger_ != nullptr) injector_->attach_integrity(*ledger_);
    injector_->set_trace(params.trace);
    injector_->arm();
  }

  if (params_.membership.enabled) {
    fences_ = std::make_unique<FenceRegistry>(params_.compute_nodes);
    membership_ = std::make_unique<membership::MembershipPlane>(
        sim_, params_.membership, *network_, kvs_node(),
        params_.compute_nodes,
        injector_ != nullptr ? &injector_->monitor() : nullptr, *fences_);
    // Incarnation fencing on every server-side path a zombie could reach:
    // KVS commits, Lustre namespace/commit RPCs, DYAD write-throughs,
    // stream direct puts and handshakes.
    kvs_->set_fencing(fences_.get());
    lustre_->set_fencing(fences_.get());
    for (auto& r : nodes_) {
      r.dyad->set_fencing(fences_.get());
      r.stream->set_fencing(fences_.get());
    }
    membership_->add_declare_listener([this](std::uint32_t lost) {
      // Routing state naming the dead node is poison: drop the stream
      // plane's subscriptions and learned routes to it before the migrated
      // rank re-subscribes from its new home.  DYAD push routes are kept:
      // a push is only a background prefetch ahead of the consumer's fetch.
      stream_domain_.invalidate_node(net::NodeId{lost});
      for (auto& r : nodes_) {
        r.stream->forget_routes_to(net::NodeId{lost});
      }
      // Rank loops of the dead incarnation may be parked inside local I/O
      // queued on the powered-off device.  Failing the device wakes them
      // with IoError, so the crash-epoch check routes them into migration
      // instead of waiting for a power-on that never comes.
      nodes_[lost].ssd->set_lost();
    });
  }
}

void Testbed::attach_trace(obs::TraceSink& sink) {
  sim_.set_trace(&sink, sink.track("sim", "kernel"));
  for (std::uint32_t i = 0; i < params_.compute_nodes; ++i) {
    const std::string process = "node" + std::to_string(i);
    NodeResources& r = nodes_[i];
    r.ssd->set_trace(&sink, sink.track(process, "nvme"), "nvme");
    r.cache->set_trace(&sink, sink.track(process, "pagecache"), "pagecache");
    r.dyad->set_trace(&sink, sink.track(process, "dyad"));
    r.stream->set_trace(&sink, sink.track(process, "stream"));
    network_->tx(net::NodeId{i})
        .set_trace(&sink, sink.counter_id(sink.track(process, "nic.tx"),
                                          "nic.tx.flows"));
    network_->rx(net::NodeId{i})
        .set_trace(&sink, sink.counter_id(sink.track(process, "nic.rx"),
                                          "nic.rx.flows"));
  }
  kvs_->set_trace(&sink, sink.track("kvs", "broker"));
  lustre_->set_trace(&sink);
}

NodeResources& Testbed::node(std::uint32_t i) {
  MDWF_ASSERT(i < nodes_.size());
  return nodes_[i];
}

}  // namespace mdwf::workflow
