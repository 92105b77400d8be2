// Hierarchical performance data (Caliper/Thicket-style call trees).
//
// A `CallTree` is the per-process record of annotated regions: each node
// carries the region name, a cost category (the paper decomposes every bar
// into *data movement* and *idle* time), a call count, and total inclusive
// virtual time.  Trees from many processes/runs are aggregated by the
// Thicket layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/time.hpp"

namespace mdwf::perf {

// Cost category of a region, mirroring the paper's measurement methodology:
// movement = time in data read/write paths; idle = time in synchronization
// (MPI_Barrier for XFS/Lustre, KVS wait/flock for DYAD); compute = emulated
// MD/analytics work; other = uncategorized bookkeeping.
enum class Category : std::uint8_t { kOther = 0, kCompute, kMovement, kIdle };

std::string_view to_string(Category c);

// Splits a '/'-separated path into its non-empty segments ("a//b/" -> a, b):
// the one splitter behind CallTree/StatTree lookups and Thicket queries.
std::vector<std::string_view> split_query(std::string_view path);

// What CallNode and StatNode share: a named, categorised node whose children
// keep their first-seen order.
template <class Node>
struct TreeNode {
  std::string name;
  Category category = Category::kOther;
  std::vector<std::unique_ptr<Node>> children;

  // Child lookup by name; creates on demand (stable first-seen order).
  Node& child(std::string_view n, Category c) {
    for (auto& ch : children) {
      if (ch->name == n) return *ch;
    }
    auto& ch = children.emplace_back(std::make_unique<Node>());
    ch->name = std::string(n);
    ch->category = c;
    return *ch;
  }

  const Node* find(std::string_view n) const {
    for (const auto& ch : children) {
      if (ch->name == n) return ch.get();
    }
    return nullptr;
  }
};

// Follows a '/'-separated path down from `root`; nullptr when absent.
template <class Node>
const Node* find_path(const Node& root, std::string_view path) {
  const Node* node = &root;
  for (const auto seg : split_query(path)) {
    node = node->find(seg);
    if (node == nullptr) return nullptr;
  }
  return node;
}

// Visits every node below `root` depth-first in first-seen order, with the
// names on its path from the root (its own name last).
template <class Node, class Visit>
void walk_paths(const Node& root, const Visit& visit) {
  std::vector<std::string_view> path;
  std::function<void(const Node&)> walk = [&](const Node& n) {
    for (const auto& c : n.children) {
      path.push_back(c->name);
      visit(std::span<const std::string_view>(path), *c);
      walk(*c);
      path.pop_back();
    }
  };
  walk(root);
}

// Sum of value(n) over the outermost nodes n of category `cat` in `node`'s
// subtree (see CallTree::category_time).
template <class Node, class Value>
auto category_sum(const Node& node, Category cat, const Value& value) {
  if (node.category == cat) return value(node);
  decltype(value(node)) sum{};
  for (const auto& c : node.children) sum += category_sum(*c, cat, value);
  return sum;
}

struct CallNode : TreeNode<CallNode> {
  std::uint64_t count = 0;
  Duration inclusive = Duration::zero();
  // Longest single invocation (separates cold-start outliers, e.g. the
  // first-frame KVS wait, from steady-state cost).
  Duration max_single = Duration::zero();
  // Recorder-managed cache of the interned obs span handle for this region,
  // kept as opaque ints so the tree does not depend on mdwf::obs.  The
  // category rides along so a later category upgrade re-interns.
  std::uint32_t trace_handle = 0xffffffffu;
  std::uint8_t trace_handle_cat = 0xffu;

  // Inclusive time minus the inclusive time of all children.
  Duration exclusive() const;

  std::unique_ptr<CallNode> clone() const;
};

class CallTree {
 public:
  CallTree();

  CallNode& root() { return *root_; }
  const CallNode& root() const { return *root_; }

  // Follows a '/'-separated path from the root; nullptr when absent.
  const CallNode* find(std::string_view path) const;

  // Sum of `inclusive` over every node in the subtree at `path` whose
  // category matches `cat` and whose ancestors within the subtree do not
  // already match (avoids double counting nested same-category regions).
  Duration category_time(std::string_view path, Category cat) const;

  CallTree clone() const;

  // Indented rendering in first-seen order, one node per line:
  //   name  [category]  count=N  inclusive  exclusive
  std::string render() const;

 private:
  std::unique_ptr<CallNode> root_;
};

}  // namespace mdwf::perf
