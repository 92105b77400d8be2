// Hierarchical performance data (Caliper/Thicket-style call trees).
//
// A `CallTree` is the per-process record of annotated regions: each node
// carries the region name, a cost category (the paper decomposes every bar
// into *data movement* and *idle* time), a call count, and total inclusive
// virtual time.  Trees from many processes/runs are aggregated by the
// Thicket layer.
#pragma once

#include <cstdint>
#include <memory>
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

struct CallNode {
  std::string name;
  Category category = Category::kOther;
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
  std::vector<std::unique_ptr<CallNode>> children;

  CallNode() = default;
  CallNode(std::string n, Category c) : name(std::move(n)), category(c) {}

  // Child lookup by name; creates on demand (stable first-seen order).
  CallNode& child(std::string_view name, Category cat);
  const CallNode* find(std::string_view name) const;

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
