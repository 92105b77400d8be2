#include "mdwf/health/quota.hpp"

#include <algorithm>
#include <cmath>

#include "mdwf/common/assert.hpp"

namespace mdwf::health {

std::string_view to_string(QuotaResource r) {
  switch (r) {
    case QuotaResource::kKvs:
      return "kvs";
    case QuotaResource::kMds:
      return "mds";
    case QuotaResource::kOst:
      return "ost";
  }
  return "?";
}

std::uint32_t TenantQuota::add_tenant(std::string name, double weight) {
  MDWF_ASSERT_MSG(weight > 0.0, "tenant weight must be positive");
  PerTenant t;
  t.name = std::move(name);
  t.weight = weight;
  tenants_.push_back(std::move(t));
  total_weight_ += weight;
  return static_cast<std::uint32_t>(tenants_.size() - 1);
}

void TenantQuota::map_nodes(std::uint32_t first, std::uint32_t count,
                            std::uint32_t tenant) {
  MDWF_ASSERT(tenant < tenants_.size());
  if (node_tenant_.size() < first + count) {
    node_tenant_.resize(first + count, kUnmapped);
    node_lost_.resize(first + count, false);
  }
  for (std::uint32_t n = first; n < first + count; ++n) {
    // Disjoint placement is the node-local isolation guarantee; overlapping
    // ranges would silently merge two tenants' NVMe/page-cache accounting.
    MDWF_ASSERT_MSG(node_tenant_[n] == kUnmapped,
                    "node already mapped to a tenant");
    node_tenant_[n] = tenant;
  }
  tenants_[tenant].mapped_nodes += count;
}

std::uint32_t TenantQuota::tenant_of(net::NodeId node) const {
  if (node.value >= node_tenant_.size()) return kUnmapped;
  return node_tenant_[node.value];
}

double TenantQuota::weight(std::uint32_t t) const {
  MDWF_ASSERT(t < tenants_.size());
  return tenants_[t].weight;
}

double TenantQuota::effective_weight(std::uint32_t t) const {
  MDWF_ASSERT(t < tenants_.size());
  const PerTenant& pt = tenants_[t];
  if (pt.mapped_nodes == 0) return pt.weight;
  return pt.weight *
         static_cast<double>(pt.mapped_nodes - pt.lost_nodes) /
         static_cast<double>(pt.mapped_nodes);
}

void TenantQuota::on_node_lost(net::NodeId node) {
  const std::uint32_t t = tenant_of(node);
  if (t == kUnmapped) return;
  if (node_lost_[node.value]) return;  // a declare is terminal; count once
  node_lost_[node.value] = true;
  ++tenants_[t].lost_nodes;
}

std::uint32_t TenantQuota::nodes_lost(std::uint32_t t) const {
  MDWF_ASSERT(t < tenants_.size());
  return tenants_[t].lost_nodes;
}

std::uint32_t TenantQuota::budget(QuotaResource r) const {
  switch (r) {
    case QuotaResource::kKvs:
      return params_.kvs_queue;
    case QuotaResource::kMds:
      return params_.mds_queue;
    case QuotaResource::kOst:
      return params_.ost_queue;
  }
  return 0;
}

std::uint32_t TenantQuota::bound(QuotaResource r, std::uint32_t tenant) const {
  MDWF_ASSERT(tenant < tenants_.size());
  // Shares are over *effective* weights, so a tenant that lost nodes claims
  // proportionally less and the survivors' bounds grow to fill the budget.
  double total = 0.0;
  for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
    total += effective_weight(t);
  }
  if (total <= 0.0) return 1;
  const double share =
      static_cast<double>(budget(r)) * effective_weight(tenant) / total;
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::llround(share)));
}

bool TenantQuota::at_bound(QuotaResource r, net::NodeId node) const {
  const std::uint32_t t = tenant_of(node);
  if (t == kUnmapped) return false;
  const auto idx = static_cast<std::size_t>(r);
  return tenants_[t].in_flight[idx] >=
         static_cast<std::int64_t>(bound(r, t));
}

void TenantQuota::admit(QuotaResource r, net::NodeId node) {
  const std::uint32_t t = tenant_of(node);
  if (t == kUnmapped) return;
  const auto idx = static_cast<std::size_t>(r);
  ++tenants_[t].in_flight[idx];
  ++tenants_[t].admits[idx];
}

void TenantQuota::release(QuotaResource r, net::NodeId node) {
  const std::uint32_t t = tenant_of(node);
  if (t == kUnmapped) return;
  const auto idx = static_cast<std::size_t>(r);
  MDWF_ASSERT_MSG(tenants_[t].in_flight[idx] > 0,
                  "quota release without admit");
  --tenants_[t].in_flight[idx];
  ++tenants_[t].releases[idx];
}

void TenantQuota::count_shed(QuotaResource r, net::NodeId node) {
  const std::uint32_t t = tenant_of(node);
  if (t == kUnmapped) return;
  ++tenants_[t].sheds[static_cast<std::size_t>(r)];
}

std::int64_t TenantQuota::in_flight(QuotaResource r,
                                    std::uint32_t tenant) const {
  MDWF_ASSERT(tenant < tenants_.size());
  return tenants_[tenant].in_flight[static_cast<std::size_t>(r)];
}

std::uint64_t TenantQuota::admits(QuotaResource r,
                                  std::uint32_t tenant) const {
  MDWF_ASSERT(tenant < tenants_.size());
  return tenants_[tenant].admits[static_cast<std::size_t>(r)];
}

std::uint64_t TenantQuota::releases(QuotaResource r,
                                    std::uint32_t tenant) const {
  MDWF_ASSERT(tenant < tenants_.size());
  return tenants_[tenant].releases[static_cast<std::size_t>(r)];
}

std::uint64_t TenantQuota::sheds(QuotaResource r, std::uint32_t tenant) const {
  MDWF_ASSERT(tenant < tenants_.size());
  return tenants_[tenant].sheds[static_cast<std::size_t>(r)];
}

std::uint64_t TenantQuota::admits_total(std::uint32_t tenant) const {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < kQuotaResources; ++r) {
    total += tenants_[tenant].admits[r];
  }
  return total;
}

}  // namespace mdwf::health
