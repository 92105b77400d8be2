// A data plane's registry of its per-node daemons plus its routing table
// from path prefix to consumer node (DYAD push mode, stream subscriptions).
// `dyad::DyadDomain` and `stream::StreamDomain` are this template.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "mdwf/common/assert.hpp"
#include "mdwf/net/network.hpp"

namespace mdwf::net {

// `Node` is a per-node daemon with `NodeId node() const`.
template <class Node>
class NodeDirectory {
 public:
  void add(Node& node) {
    const bool inserted = nodes_.emplace(node.node().value, &node).second;
    MDWF_ASSERT_MSG(inserted, "duplicate node registration");
  }

  Node& at(NodeId node) const {
    const auto it = nodes_.find(node.value);
    MDWF_ASSERT_MSG(it != nodes_.end(), "unknown node");
    return *it->second;
  }

  std::size_t size() const { return nodes_.size(); }

  // Routing table: files whose path starts with `prefix` go to `node`.
  void subscribe(std::string prefix, NodeId node) {
    subscriptions_.insert_or_assign(std::move(prefix), node);
  }

  std::optional<NodeId> subscriber_for(const std::string& path) const {
    // Longest matching prefix wins; the table stays small (one entry per
    // consumer rank), so a linear scan is fine.
    std::optional<NodeId> best;
    std::size_t best_len = 0;
    for (const auto& [prefix, node] : subscriptions_) {
      if (path.compare(0, prefix.size(), prefix) == 0 &&
          prefix.size() >= best_len) {
        best = node;
        best_len = prefix.size();
      }
    }
    return best;
  }

  // Membership declared `node` lost: drop every routing entry pointing at
  // it so producers stop delivering into a buffer no rank will ever drain
  // (the migrated rank re-subscribes from its new home).
  void invalidate_node(NodeId node) {
    for (auto it = subscriptions_.begin(); it != subscriptions_.end();) {
      if (it->second == node) {
        it = subscriptions_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  std::map<std::uint32_t, Node*> nodes_;
  std::map<std::string, NodeId> subscriptions_;  // prefix -> node
};

}  // namespace mdwf::net
