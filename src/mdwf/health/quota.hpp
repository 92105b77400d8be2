// Weighted fair-share admission quotas for co-tenant workloads.
//
// A multi-tenant run places several workflow ensembles on one testbed; the
// node-local resources (NVMe, page cache, local FS) are isolated by disjoint
// placement, but the KVS broker, the Lustre MDS, and the OSTs are shared.
// `TenantQuota` maps compute nodes to tenants and bounds each tenant's
// in-flight requests on every shared service to its weighted share of the
// service's queue budget.  A tenant at its bound sheds — or backs off — its
// *own* requests (`health::ServerBusy`), so one tenant's overload can no
// longer grow the shared queue underneath everyone else.
//
// Pure bookkeeping: no simulation dependencies, deterministic, and zero-cost
// when no quota is attached (servers check a null pointer).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/net/network.hpp"

namespace mdwf::health {

// Which shared service a quota bounds.
enum class QuotaResource : std::uint8_t { kKvs = 0, kMds = 1, kOst = 2 };
inline constexpr std::size_t kQuotaResources = 3;
std::string_view to_string(QuotaResource r);

struct QuotaParams {
  bool enabled = false;
  // Total bounded queue depth (queued + in service) each service budgets
  // across tenants; a tenant's own bound is its weighted share, never below
  // one slot so every tenant can always make progress.
  std::uint32_t kvs_queue = 24;
  std::uint32_t mds_queue = 16;
  std::uint32_t ost_queue = 48;
};

class TenantQuota {
 public:
  // Nodes not covered by any map_nodes() range (servers, unmapped clients)
  // resolve to kUnmapped and are never quota-limited.
  static constexpr std::uint32_t kUnmapped = 0xffffffffu;

  explicit TenantQuota(QuotaParams params = {}) : params_(params) {}

  const QuotaParams& params() const { return params_; }

  // Registers a tenant; returns its index.  Weights are relative shares.
  std::uint32_t add_tenant(std::string name, double weight);
  // Declares nodes [first, first + count) as owned by `tenant`.
  void map_nodes(std::uint32_t first, std::uint32_t count,
                 std::uint32_t tenant);

  std::uint32_t tenant_of(net::NodeId node) const;
  double weight(std::uint32_t t) const;
  // Effective fair-share weight: the configured weight scaled by the
  // fraction of the tenant's mapped nodes still alive.  Equal to weight()
  // until a node loss shrinks the slice.
  double effective_weight(std::uint32_t t) const;

  // Rebalance on a permanent node loss (membership declare): the lost node
  // stops contributing to its tenant's share, so the tenant's bounds shrink
  // proportionally and every survivor's grow.  Idempotent per node;
  // unmapped nodes (servers) are ignored.
  void on_node_lost(net::NodeId node);
  std::uint32_t nodes_lost(std::uint32_t t) const;

  // `tenant`'s bounded queue depth on `r`: its weighted share of the
  // resource's queue budget, floored at 1.
  std::uint32_t bound(QuotaResource r, std::uint32_t tenant) const;

  // True when admitting one more request from `node`'s tenant on `r` would
  // exceed the tenant's bound.  Unmapped nodes are never at bound.
  bool at_bound(QuotaResource r, net::NodeId node) const;
  // Unconditional in-flight bookkeeping; pair every admit with a release.
  void admit(QuotaResource r, net::NodeId node);
  void release(QuotaResource r, net::NodeId node);
  // Records one shed (or busy-bounce) charged to `node`'s tenant.
  void count_shed(QuotaResource r, net::NodeId node);

  // --- Accounting (conservation checks and per-tenant counters) -----------
  std::int64_t in_flight(QuotaResource r, std::uint32_t tenant) const;
  std::uint64_t admits(QuotaResource r, std::uint32_t tenant) const;
  std::uint64_t releases(QuotaResource r, std::uint32_t tenant) const;
  std::uint64_t sheds(QuotaResource r, std::uint32_t tenant) const;
  std::uint64_t admits_total(std::uint32_t tenant) const;

 private:
  struct PerTenant {
    std::string name;
    double weight = 1.0;
    std::uint32_t mapped_nodes = 0;
    std::uint32_t lost_nodes = 0;
    std::int64_t in_flight[kQuotaResources] = {};
    std::uint64_t admits[kQuotaResources] = {};
    std::uint64_t releases[kQuotaResources] = {};
    std::uint64_t sheds[kQuotaResources] = {};
  };

  std::uint32_t budget(QuotaResource r) const;

  QuotaParams params_;
  std::vector<PerTenant> tenants_;
  double total_weight_ = 0.0;
  std::vector<std::uint32_t> node_tenant_;  // indexed by node id
  std::vector<bool> node_lost_;             // parallel to node_tenant_
};

// RAII admit/release pairing usable inside coroutine frames; a null quota is
// a no-op, so servers construct it unconditionally.
class QuotaAdmission {
 public:
  QuotaAdmission(TenantQuota* quota, QuotaResource r, net::NodeId node)
      : quota_(quota), r_(r), node_(node) {
    if (quota_ != nullptr) quota_->admit(r_, node_);
  }
  QuotaAdmission(const QuotaAdmission&) = delete;
  QuotaAdmission& operator=(const QuotaAdmission&) = delete;
  ~QuotaAdmission() {
    if (quota_ != nullptr) quota_->release(r_, node_);
  }

 private:
  TenantQuota* quota_;
  QuotaResource r_;
  net::NodeId node_;
};

}  // namespace mdwf::health
