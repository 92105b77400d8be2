#include "mdwf/fault/injector.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "mdwf/common/assert.hpp"

namespace mdwf::fault {

namespace {

// Trace lane (thread name) a fault window appears on: one per resource.
std::string trace_lane(const FaultWindow& w) {
  switch (w.target) {
    case FaultTarget::kNodeSsd:
      return "node" + std::to_string(w.index) + ".nvme";
    case FaultTarget::kNodeLink:
      return "node" + std::to_string(w.index) + ".nic";
    case FaultTarget::kKvsBroker:
      return "kvs";
    case FaultTarget::kLustreOst:
      return "ost" + std::to_string(w.index);
    case FaultTarget::kNodeCrash:
    case FaultTarget::kNodeLoss:
      return "node" + std::to_string(w.index);
    case FaultTarget::kSlowDevice:
      return "node" + std::to_string(w.index) + ".nvme";
    case FaultTarget::kLossyLink:
      return "node" + std::to_string(w.index) + ".nic";
    case FaultTarget::kSlowNode:
      return "node" + std::to_string(w.index) + ".cpu";
    case FaultTarget::kOverloadedServer:
      return w.index == 0 ? "kvs" : "lustre";
  }
  return "unknown";
}

std::string trace_name(const FaultWindow& w) {
  std::string name(to_string(w.mode));
  if (w.severity > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " s=%.2f", w.severity);
    name += buf;
  }
  return name;
}

// Combined capacity loss of overlapping degradations: each window removes
// its severity fraction of what the previous ones left.  Capped below 1 so
// fair-share channels keep a nonzero rate (an offline window is the way to
// model a total loss).
double combined_degrade(const std::vector<double>& severities) {
  double remaining = 1.0;
  for (const double s : severities) remaining *= (1.0 - s);
  return std::min(1.0 - remaining, 0.95);
}

// Overlapping fail-slow windows compose like degradations on the speed
// axis: each removes its severity fraction of the remaining speed.  Capped
// at 100x slow — gray failures stay live, they do not become outages.
double slowdown_factor(const std::vector<double>& severities) {
  double remaining = 1.0;
  for (const double s : severities) remaining *= (1.0 - s);
  return 1.0 / std::max(remaining, 0.01);
}

// Packet-loss probabilities of overlapping lossy windows compose like
// independent drop stages; capped so retransmission always converges.
double combined_loss(const std::vector<double>& severities) {
  double survive = 1.0;
  for (const double s : severities) survive *= (1.0 - s);
  return std::min(1.0 - survive, 0.9);
}

}  // namespace

std::uint64_t CrashMonitor::epoch(std::uint32_t node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.epoch;
}

bool CrashMonitor::down(std::uint32_t node) const {
  const auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.down_depth > 0;
}

sim::Task<void> CrashMonitor::wait_up(std::uint32_t node) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.down_depth == 0) co_return;
  // Hold a reference: the monitor swaps in a fresh event per down period.
  const std::shared_ptr<sim::Event> up = it->second.up;
  co_await up->wait();
}

void CrashMonitor::begin_crash(std::uint32_t node, bool power_loss) {
  NodeState& st = nodes_[node];
  ++st.epoch;
  ++crashes_;
  if (power_loss) {
    if (st.down_depth++ == 0) {
      st.up = std::make_shared<sim::Event>(*sim_);
    }
  }
}

void CrashMonitor::end_crash(std::uint32_t node) {
  NodeState& st = nodes_[node];
  if (st.down_depth > 0 && --st.down_depth == 0 && st.up) {
    st.up->trigger();
  }
}

FaultInjector::FaultInjector(sim::Simulation& sim, FaultPlan plan)
    : sim_(&sim),
      plan_(std::move(plan)),
      monitor_(std::make_unique<CrashMonitor>(sim)) {}

void FaultInjector::attach_node_ssd(std::uint32_t node,
                                    storage::BlockDevice& device) {
  node_ssds_[node] = &device;
  device.reseed_fault_rng(
      Rng(plan_.seed).fork("io-error/node" + std::to_string(node)));
}

void FaultInjector::attach_network(net::Network& network) {
  network_ = &network;
  // Retransmit draws of lossy-link windows are a function of the plan seed
  // alone, like the per-device I/O error streams.
  network.seed_loss(Rng(plan_.seed).fork("lossy-link"));
}

void FaultInjector::attach_kvs(kvs::KvsServer& server) { kvs_ = &server; }

void FaultInjector::attach_lustre(fs::LustreServers& servers) {
  lustre_ = &servers;
  for (std::uint32_t i = 0; i < servers.ost_count(); ++i) {
    servers.ost_device(i).reseed_fault_rng(
        Rng(plan_.seed).fork("io-error/ost" + std::to_string(i)));
  }
}

void FaultInjector::attach_node_fs(std::uint32_t node,
                                   storage::PageCache& cache,
                                   fs::LocalFs& fs) {
  node_fs_[node] = NodeFs{&cache, &fs};
}

void FaultInjector::attach_integrity(integrity::Ledger& ledger) {
  integrity_ = &ledger;
}

void FaultInjector::attach_stream(std::uint32_t node,
                                  stream::StreamNode& staging) {
  streams_[node] = &staging;
}

bool FaultInjector::node_lost(std::uint32_t node) const {
  for (const FaultWindow& w : plan_.windows) {
    if (w.target == FaultTarget::kNodeLoss && w.index == node) return true;
  }
  return false;
}

void FaultInjector::set_trace(obs::TraceSink* sink) {
  MDWF_ASSERT_MSG(!armed_, "set_trace after arm");
  trace_ = sink;
}

void FaultInjector::arm() {
  MDWF_ASSERT_MSG(!armed_, "fault injector armed twice");
  armed_ = true;
  began_.assign(plan_.windows.size(), false);
  ended_.assign(plan_.windows.size(), false);
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    const FaultWindow& w = plan_.windows[i];
    sim_->call_at(w.start, [this, i] {
      began_[i] = true;
      apply(plan_.windows[i], /*begin=*/true);
    });
    // Permanent loss has no end: the node never rejoins, so no recovery
    // callback is scheduled and finalize_trace() exports the open window.
    if (w.target == FaultTarget::kNodeLoss) continue;
    sim_->call_at(w.end(), [this, i] {
      ended_[i] = true;
      apply(plan_.windows[i], /*begin=*/false);
      // Annotate at close time, so a bounded run that stops mid-window can
      // still export the open remainder via finalize_trace().
      emit_span(plan_.windows[i], plan_.windows[i].duration, /*open=*/false);
    });
  }
}

void FaultInjector::emit_span(const FaultWindow& w, Duration duration,
                              bool open) {
  if (trace_ == nullptr) return;
  // Cold path: fault windows are few, so interning at emit time is the
  // wiring-time phase for this emitter.
  const obs::TrackId track = trace_->track("faults", trace_lane(w));
  std::string name = trace_name(w);
  if (open) name += " (open)";
  trace_->span(trace_->span_id(track, name, "fault"), w.start, duration);
}

void FaultInjector::finalize_trace() {
  if (trace_ == nullptr || trace_finalized_ || !armed_) return;
  trace_finalized_ = true;
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    if (began_[i] && !ended_[i]) {
      emit_span(plan_.windows[i], sim_->now() - plan_.windows[i].start,
                /*open=*/true);
    }
  }
}

double FaultInjector::cpu_dilation(std::uint32_t node) const {
  const auto it = cpu_dilation_.find(node);
  return it == cpu_dilation_.end() ? 1.0 : it->second;
}

storage::BlockDevice* FaultInjector::device_for(FaultTarget target,
                                                std::uint32_t index) {
  if (target == FaultTarget::kNodeSsd || target == FaultTarget::kSlowDevice) {
    const auto it = node_ssds_.find(index);
    return it == node_ssds_.end() ? nullptr : it->second;
  }
  if (target == FaultTarget::kLustreOst) {
    if (lustre_ == nullptr || index >= lustre_->ost_count()) return nullptr;
    return &lustre_->ost_device(index);
  }
  return nullptr;
}

void FaultInjector::refresh_device(storage::BlockDevice& device,
                                   const Active& a) {
  device.set_fault_degradation(combined_degrade(a.degrades));
  device.set_offline(a.offline_depth > 0);
  device.set_io_error_p(
      a.io_errors.empty()
          ? 0.0
          : *std::max_element(a.io_errors.begin(), a.io_errors.end()));
}

void FaultInjector::apply_bitflip(const FaultWindow& w, Active& a,
                                  bool begin) {
  if (integrity_ == nullptr) {
    ++skipped_;
    return;
  }
  if (begin) {
    a.bitflips.push_back(w.severity);
  } else {
    const auto it = std::find(a.bitflips.begin(), a.bitflips.end(),
                              w.severity);
    MDWF_ASSERT_MSG(it != a.bitflips.end(),
                    "bit-flip window ended but never began");
    a.bitflips.erase(it);
  }
  const double rate =
      a.bitflips.empty()
          ? 0.0
          : *std::max_element(a.bitflips.begin(), a.bitflips.end());
  switch (w.target) {
    case FaultTarget::kNodeSsd:
      integrity_->set_ssd_rate(w.index, rate);
      break;
    case FaultTarget::kNodeLink:
      integrity_->set_link_rate(w.index, rate);
      break;
    case FaultTarget::kLustreOst:
      integrity_->set_ost_rate(w.index, rate);
      break;
    default:
      MDWF_ASSERT_MSG(false, "unsupported bit-flip target");
  }
  if (begin) ++applied_;
}

void FaultInjector::apply_crash(const FaultWindow& w, bool begin) {
  if (w.mode == FaultMode::kKill) {
    // Instantaneous: the ranks restart from their checkpoints, storage and
    // page cache survive.  Nothing to undo at window end.
    if (begin) {
      monitor_->begin_crash(w.index, /*power_loss=*/false);
      ++applied_;
    }
    return;
  }
  MDWF_ASSERT_MSG(w.mode == FaultMode::kCrash,
                  "unsupported fault mode for a node crash");
  // The SSD-offline and link-down states share the depth counters of the
  // per-resource targets so an overlapping kNodeSsd/kNodeLink offline
  // window composes instead of fighting over the device flag.
  auto& ssd_a = active_[{static_cast<std::uint8_t>(FaultTarget::kNodeSsd),
                         w.index}];
  auto& link_a = active_[{static_cast<std::uint8_t>(FaultTarget::kNodeLink),
                          w.index}];
  if (begin) {
    monitor_->begin_crash(w.index, /*power_loss=*/true);
    // Volatile state dies first: dirty pages vanish, un-synced extents are
    // torn back to the last barrier on the local fs and in the Lustre
    // journal.
    const auto nf = node_fs_.find(w.index);
    if (nf != node_fs_.end()) {
      if (nf->second.cache != nullptr) nf->second.cache->crash_drop_dirty();
      if (nf->second.fs != nullptr) nf->second.fs->crash();
    }
    if (lustre_ != nullptr) lustre_->client_crash(net::NodeId{w.index});
    // Stream staging buffers are RAM too: staged frames and credit state
    // die with the power (kills above leave them intact).
    const auto st = streams_.find(w.index);
    if (st != streams_.end()) st->second->on_power_loss();
    // Then the node drops off the fabric, tearing in-flight flows, and its
    // SSD stops serving (ops queue until "reboot").
    if (network_ != nullptr) {
      ++link_a.offline_depth;
      network_->crash_node(net::NodeId{w.index});
    }
    const auto dev = node_ssds_.find(w.index);
    if (dev != node_ssds_.end()) {
      ++ssd_a.offline_depth;
      refresh_device(*dev->second, ssd_a);
    }
    ++applied_;
  } else {
    if (network_ != nullptr) {
      --link_a.offline_depth;
      network_->set_link_down(net::NodeId{w.index},
                              link_a.offline_depth > 0);
    }
    const auto dev = node_ssds_.find(w.index);
    if (dev != node_ssds_.end()) {
      --ssd_a.offline_depth;
      refresh_device(*dev->second, ssd_a);
    }
    monitor_->end_crash(w.index);
  }
}

void FaultInjector::apply(const FaultWindow& w, bool begin) {
  if (w.target == FaultTarget::kNodeCrash ||
      w.target == FaultTarget::kNodeLoss) {
    apply_crash(w, begin);
    return;
  }
  auto& a = active_[{static_cast<std::uint8_t>(w.target), w.index}];
  if (w.mode == FaultMode::kBitFlip) {
    apply_bitflip(w, a, begin);
    return;
  }
  auto toggle = [begin](std::vector<double>& v, double s) {
    if (begin) {
      v.push_back(s);
    } else {
      const auto it = std::find(v.begin(), v.end(), s);
      MDWF_ASSERT_MSG(it != v.end(), "fault window ended but never began");
      v.erase(it);
    }
  };

  switch (w.target) {
    case FaultTarget::kNodeSsd:
    case FaultTarget::kLustreOst: {
      storage::BlockDevice* device = device_for(w.target, w.index);
      if (device == nullptr) {
        ++skipped_;
        return;
      }
      switch (w.mode) {
        case FaultMode::kDegrade:
          toggle(a.degrades, w.severity);
          break;
        case FaultMode::kOffline:
          a.offline_depth += begin ? 1 : -1;
          break;
        case FaultMode::kIoError:
          toggle(a.io_errors, w.severity);
          break;
        default:
          MDWF_ASSERT_MSG(false, "unsupported fault mode for a block device");
      }
      refresh_device(*device, a);
      break;
    }
    case FaultTarget::kNodeLink: {
      if (network_ == nullptr) {
        ++skipped_;
        return;
      }
      switch (w.mode) {
        case FaultMode::kDegrade:
          toggle(a.degrades, w.severity);
          network_->set_link_degradation(net::NodeId{w.index},
                                         combined_degrade(a.degrades));
          break;
        case FaultMode::kOffline:
          a.offline_depth += begin ? 1 : -1;
          network_->set_link_down(net::NodeId{w.index}, a.offline_depth > 0);
          break;
        case FaultMode::kIsolate:
          network_->set_link_isolated(net::NodeId{w.index}, begin);
          break;
        default:
          MDWF_ASSERT_MSG(false, "unsupported fault mode for a network link");
      }
      break;
    }
    case FaultTarget::kKvsBroker: {
      if (kvs_ == nullptr) {
        ++skipped_;
        return;
      }
      switch (w.mode) {
        case FaultMode::kStall:
          begin ? kvs_->fault_stall_begin() : kvs_->fault_stall_end();
          break;
        case FaultMode::kOutage:
          begin ? kvs_->fault_outage_begin() : kvs_->fault_outage_end();
          break;
        default:
          MDWF_ASSERT_MSG(false, "unsupported fault mode for the KVS broker");
      }
      break;
    }
    case FaultTarget::kSlowDevice: {
      storage::BlockDevice* device = device_for(w.target, w.index);
      if (device == nullptr) {
        ++skipped_;
        return;
      }
      MDWF_ASSERT_MSG(w.mode == FaultMode::kFailSlow,
                      "unsupported fault mode for a fail-slow device");
      toggle(a.failslows, w.severity);
      device->set_fault_slowdown(slowdown_factor(a.failslows));
      break;
    }
    case FaultTarget::kLossyLink: {
      if (network_ == nullptr) {
        ++skipped_;
        return;
      }
      MDWF_ASSERT_MSG(w.mode == FaultMode::kLossy,
                      "unsupported fault mode for a lossy link");
      toggle(a.failslows, w.severity);
      network_->set_link_loss(net::NodeId{w.index},
                              combined_loss(a.failslows));
      break;
    }
    case FaultTarget::kSlowNode: {
      MDWF_ASSERT_MSG(w.mode == FaultMode::kFailSlow,
                      "unsupported fault mode for a slow node");
      toggle(a.failslows, w.severity);
      cpu_dilation_[w.index] = slowdown_factor(a.failslows);
      break;
    }
    case FaultTarget::kOverloadedServer: {
      MDWF_ASSERT_MSG(w.mode == FaultMode::kFailSlow,
                      "unsupported fault mode for an overloaded server");
      if ((w.index == 0 && kvs_ == nullptr) ||
          (w.index != 0 && lustre_ == nullptr)) {
        ++skipped_;
        return;
      }
      toggle(a.failslows, w.severity);
      const double factor = slowdown_factor(a.failslows);
      if (w.index == 0) {
        kvs_->set_service_dilation(factor);
      } else {
        lustre_->set_service_dilation(factor);
      }
      break;
    }
    case FaultTarget::kNodeCrash:
    case FaultTarget::kNodeLoss:
      break;  // handled above
  }
  if (begin) ++applied_;
}

}  // namespace mdwf::fault
