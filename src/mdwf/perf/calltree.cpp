#include "mdwf/perf/calltree.hpp"

#include "mdwf/common/format.hpp"

namespace mdwf::perf {

std::string_view to_string(Category c) {
  switch (c) {
    case Category::kOther:
      return "other";
    case Category::kCompute:
      return "compute";
    case Category::kMovement:
      return "movement";
    case Category::kIdle:
      return "idle";
  }
  return "?";
}

std::vector<std::string_view> split_query(std::string_view path) {
  std::vector<std::string_view> out;
  while (!path.empty()) {
    const auto pos = path.find('/');
    if (pos == std::string_view::npos) {
      out.push_back(path);
      break;
    }
    if (pos > 0) out.push_back(path.substr(0, pos));
    path.remove_prefix(pos + 1);
  }
  return out;
}

Duration CallNode::exclusive() const {
  Duration d = inclusive;
  for (const auto& c : children) d -= c->inclusive;
  return d;
}

std::unique_ptr<CallNode> CallNode::clone() const {
  auto n = std::make_unique<CallNode>();
  n->name = name;
  n->category = category;
  n->count = count;
  n->inclusive = inclusive;
  n->max_single = max_single;
  n->children.reserve(children.size());
  for (const auto& c : children) n->children.push_back(c->clone());
  return n;
}

CallTree::CallTree() : root_(std::make_unique<CallNode>()) {}

const CallNode* CallTree::find(std::string_view path) const {
  return find_path(*root_, path);
}

Duration CallTree::category_time(std::string_view path, Category cat) const {
  const CallNode* node = path.empty() ? root_.get() : find(path);
  if (node == nullptr) return Duration::zero();
  return category_sum(*node, cat,
                      [](const CallNode& n) { return n.inclusive; });
}

CallTree CallTree::clone() const {
  CallTree t;
  t.root_ = root_->clone();
  return t;
}

std::string CallTree::render() const {
  std::string out;
  walk_paths(*root_, [&out](std::span<const std::string_view> path,
                            const CallNode& n) {
    out.append((path.size() - 1) * 2, ' ');
    out += n.name;
    out += "  [";
    out += to_string(n.category);
    out += "]  count=";
    out += std::to_string(n.count);
    out += "  incl=";
    out += format_duration(n.inclusive);
    out += "  excl=";
    out += format_duration(n.exclusive());
    out += '\n';
  });
  return out;
}

}  // namespace mdwf::perf
