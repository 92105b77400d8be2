#include "mdwf/perf/thicket.hpp"

#include <functional>

#include "mdwf/common/assert.hpp"
#include "mdwf/common/format.hpp"

namespace mdwf::perf {

StatNode& StatNode::child(std::string_view n, Category c) {
  for (auto& ch : children) {
    if (ch->name == n) return *ch;
  }
  children.push_back(std::make_unique<StatNode>());
  children.back()->name = std::string(n);
  children.back()->category = c;
  return *children.back();
}

const StatNode* StatNode::find(std::string_view n) const {
  for (const auto& ch : children) {
    if (ch->name == n) return ch.get();
  }
  return nullptr;
}

double StatNode::steady_per_call_us() const {
  const double calls = count.mean();
  if (calls <= 1.0) return inclusive_us.mean();
  return (inclusive_us.mean() - max_single_us.mean()) / (calls - 1.0);
}

StatTree::StatTree() : root_(std::make_unique<StatNode>()) {}

namespace {

std::vector<std::string_view> split_on_slash(std::string_view s) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const auto pos = s.find('/');
    if (pos == std::string_view::npos) {
      out.push_back(s);
      break;
    }
    if (pos > 0) out.push_back(s.substr(0, pos));
    s.remove_prefix(pos + 1);
  }
  return out;
}

void accumulate(StatNode& dst, const CallNode& src) {
  if (dst.category == Category::kOther) dst.category = src.category;
  dst.inclusive_us.add(src.inclusive.to_micros());
  dst.count.add(static_cast<double>(src.count));
  dst.max_single_us.add(src.max_single.to_micros());
  for (const auto& sc : src.children) {
    accumulate(dst.child(sc->name, sc->category), *sc);
  }
}

double category_sum_us(const StatNode& node, Category cat) {
  if (node.category == cat) return node.inclusive_us.mean();
  double d = 0.0;
  for (const auto& c : node.children) d += category_sum_us(*c, cat);
  return d;
}

}  // namespace

std::vector<std::string_view> split_query(std::string_view pattern) {
  return split_on_slash(pattern);
}

bool path_matches(std::span<const std::string_view> pattern,
                  std::span<const std::string_view> path) {
  // Classic wildcard matching; '**' may absorb zero or more segments.
  if (pattern.empty()) return path.empty();
  const std::string_view head = pattern.front();
  if (head == "**") {
    // Try absorbing 0..path.size() segments.
    for (std::size_t k = 0; k <= path.size(); ++k) {
      if (path_matches(pattern.subspan(1), path.subspan(k))) return true;
    }
    return false;
  }
  if (path.empty()) return false;
  if (head != "*" && head != path.front()) return false;
  return path_matches(pattern.subspan(1), path.subspan(1));
}

const StatNode* StatTree::find(std::string_view path) const {
  const StatNode* node = root_.get();
  for (const auto seg : split_on_slash(path)) {
    node = node->find(seg);
    if (node == nullptr) return nullptr;
  }
  return node;
}

std::vector<std::pair<std::string, const StatNode*>> StatTree::query(
    std::string_view pattern) const {
  const auto pat = split_on_slash(pattern);
  std::vector<std::pair<std::string, const StatNode*>> out;
  std::vector<std::string_view> path;
  std::function<void(const StatNode&)> walk = [&](const StatNode& n) {
    if (path_matches(pat, path)) {
      std::string joined;
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (i) joined += '/';
        joined += path[i];
      }
      out.emplace_back(std::move(joined), &n);
    }
    for (const auto& c : n.children) {
      path.push_back(c->name);
      walk(*c);
      path.pop_back();
    }
  };
  // The root has an empty path and never matches a non-empty pattern.
  for (const auto& c : root_->children) {
    path.push_back(c->name);
    walk(*c);
    path.pop_back();
  }
  return out;
}

double StatTree::mean_category_us(std::string_view path, Category cat) const {
  const StatNode* node = path.empty() ? root_.get() : find(path);
  if (node == nullptr) return 0.0;
  return category_sum_us(*node, cat);
}

std::string StatTree::render() const {
  std::string out;
  std::function<void(const StatNode&, int)> walk = [&](const StatNode& n,
                                                       int depth) {
    if (depth >= 0) {
      out.append(static_cast<std::size_t>(depth) * 2, ' ');
      out += n.name;
      out += "  [";
      out += to_string(n.category);
      out += "]  ";
      out += format_double(n.inclusive_us.mean(), 1);
      out += " +/- ";
      out += format_double(n.inclusive_us.stddev(), 1);
      out += " us  (n=";
      out += std::to_string(n.inclusive_us.count());
      out += ")\n";
    }
    for (const auto& c : n.children) walk(*c, depth + 1);
  };
  walk(*root_, -1);
  return out;
}

std::string StatTree::to_csv() const {
  std::string out =
      "path,category,mean_count,mean_inclusive_us,std_inclusive_us,"
      "max_single_us,n\n";
  std::vector<std::string> path;
  std::function<void(const StatNode&)> walk = [&](const StatNode& n) {
    std::string joined;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i) joined += '/';
      joined += path[i];
    }
    out += joined;
    out += ',';
    out += to_string(n.category);
    out += ',';
    out += format_double(n.count.mean(), 2);
    out += ',';
    out += format_double(n.inclusive_us.mean(), 3);
    out += ',';
    out += format_double(n.inclusive_us.stddev(), 3);
    out += ',';
    out += format_double(n.max_single_us.mean(), 3);
    out += ',';
    out += std::to_string(n.inclusive_us.count());
    out += '\n';
    for (const auto& c : n.children) {
      path.push_back(c->name);
      walk(*c);
      path.pop_back();
    }
  };
  for (const auto& c : root_->children) {
    path.push_back(c->name);
    walk(*c);
    path.pop_back();
  }
  return out;
}

void Thicket::add(Metadata meta, CallTree tree) {
  records_.push_back(TreeRecord{std::move(meta), std::move(tree)});
}

Thicket Thicket::filter(std::string_view key, std::string_view value) const {
  Thicket t;
  for (const auto& r : records_) {
    const auto it = r.meta.find(std::string(key));
    if (it != r.meta.end() && it->second == value) {
      t.add(r.meta, r.tree.clone());
    }
  }
  return t;
}

StatTree Thicket::aggregate() const {
  StatTree t;
  for (const auto& r : records_) {
    // The synthetic roots align; accumulate children.
    for (const auto& c : r.tree.root().children) {
      accumulate(t.root().child(c->name, c->category), *c);
    }
  }
  return t;
}

}  // namespace mdwf::perf
