// Thicket-style multi-run performance analysis.
//
// A `Thicket` holds call trees from many (process, repetition, configuration)
// tuples, each tagged with string metadata.  It supports metadata filtering,
// cross-tree statistical aggregation (mean/std/min/max per call-tree node),
// and a Hatchet-style path query language:
//
//   "dyad_consume/dyad_fetch"   exact path from the root
//   "*"                          matches exactly one segment
//   "**"                         matches any number of segments (incl. zero)
//   "**/read_single_buf"        the node anywhere in the tree
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/stats.hpp"
#include "mdwf/perf/calltree.hpp"

namespace mdwf::perf {

using Metadata = std::map<std::string, std::string>;

struct TreeRecord {
  Metadata meta;
  CallTree tree;
};

// Statistical call tree: node-wise stats across a set of call trees.
struct StatNode : TreeNode<StatNode> {
  // Statistics over per-tree inclusive microseconds and call counts.
  RunningStats inclusive_us;
  RunningStats count;
  // Per-tree longest single invocation (cold-start outlier detection).
  RunningStats max_single_us;

  // Mean steady-state per-call microseconds: total time minus the single
  // largest call, divided by the remaining calls.
  double steady_per_call_us() const;
};

class StatTree {
 public:
  StatTree();

  StatNode& root() { return *root_; }
  const StatNode* find(std::string_view path) const;

  // Matching nodes for a query pattern, as (path, node) pairs in first-seen
  // order.
  std::vector<std::pair<std::string, const StatNode*>> query(
      std::string_view pattern) const;

  // Mean of the summed inclusive time (microseconds) of subtree nodes with
  // the given category, starting at `path` ("" = whole tree).
  double mean_category_us(std::string_view path, Category cat) const;

  // Rendering in the style of the paper's Thicket figures: indented tree
  // with mean +/- std.
  std::string render() const;

  // Machine-readable export, one row per node:
  //   path,category,mean_count,mean_inclusive_us,std_inclusive_us,
  //   max_single_us,n
  std::string to_csv() const;

 private:
  std::unique_ptr<StatNode> root_;
};

class Thicket {
 public:
  void add(Metadata meta, CallTree tree);
  std::size_t size() const { return records_.size(); }
  const std::vector<TreeRecord>& records() const { return records_; }

  // Moves every record of `other` onto the end of this thicket (record
  // order preserved; `other` is left empty).  Lets per-repetition thickets
  // computed independently be folded in canonical order.
  void append(Thicket&& other) {
    for (auto& r : other.records_) records_.push_back(std::move(r));
    other.records_.clear();
  }

  // Records whose metadata contains key == value.
  Thicket filter(std::string_view key, std::string_view value) const;

  // Node-wise statistics across every record in this thicket.
  StatTree aggregate() const;

 private:
  std::vector<TreeRecord> records_;
};

// Path-pattern matching shared by CallTree/StatTree queries.
bool path_matches(std::span<const std::string_view> pattern,
                  std::span<const std::string_view> path);

}  // namespace mdwf::perf
