#include "mdwf/perf/calltree.hpp"

#include <functional>

#include "mdwf/common/assert.hpp"
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

CallNode& CallNode::child(std::string_view child_name, Category cat) {
  for (auto& c : children) {
    if (c->name == child_name) return *c;
  }
  children.push_back(std::make_unique<CallNode>(std::string(child_name), cat));
  return *children.back();
}

const CallNode* CallNode::find(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  return nullptr;
}

Duration CallNode::exclusive() const {
  Duration d = inclusive;
  for (const auto& c : children) d -= c->inclusive;
  return d;
}

std::unique_ptr<CallNode> CallNode::clone() const {
  auto n = std::make_unique<CallNode>(name, category);
  n->count = count;
  n->inclusive = inclusive;
  n->max_single = max_single;
  n->children.reserve(children.size());
  for (const auto& c : children) n->children.push_back(c->clone());
  return n;
}

CallTree::CallTree() : root_(std::make_unique<CallNode>("", Category::kOther)) {}

namespace {

// Splits "a/b/c" into segments on '/'.
std::vector<std::string_view> split_path(std::string_view path) {
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

Duration category_sum(const CallNode& node, Category cat) {
  if (node.category == cat) return node.inclusive;
  Duration d = Duration::zero();
  for (const auto& c : node.children) d += category_sum(*c, cat);
  return d;
}

}  // namespace

const CallNode* CallTree::find(std::string_view path) const {
  const CallNode* node = root_.get();
  for (const auto seg : split_path(path)) {
    node = node->find(seg);
    if (node == nullptr) return nullptr;
  }
  return node;
}

Duration CallTree::category_time(std::string_view path, Category cat) const {
  const CallNode* node = path.empty() ? root_.get() : find(path);
  if (node == nullptr) return Duration::zero();
  return category_sum(*node, cat);
}

CallTree CallTree::clone() const {
  CallTree t;
  t.root_ = root_->clone();
  return t;
}

std::string CallTree::render() const {
  std::string out;
  std::function<void(const CallNode&, int)> walk = [&](const CallNode& n,
                                                       int depth) {
    if (depth >= 0) {  // skip the synthetic root
      out.append(static_cast<std::size_t>(depth) * 2, ' ');
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
    }
    for (const auto& c : n.children) walk(*c, depth + 1);
  };
  walk(*root_, -1);
  return out;
}

}  // namespace mdwf::perf
