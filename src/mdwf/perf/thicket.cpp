#include "mdwf/perf/thicket.hpp"

#include "mdwf/common/format.hpp"

namespace mdwf::perf {

double StatNode::steady_per_call_us() const {
  const double calls = count.mean();
  if (calls <= 1.0) return inclusive_us.mean();
  return (inclusive_us.mean() - max_single_us.mean()) / (calls - 1.0);
}

StatTree::StatTree() : root_(std::make_unique<StatNode>()) {}

namespace {

void accumulate(StatNode& dst, const CallNode& src) {
  if (dst.category == Category::kOther) dst.category = src.category;
  dst.inclusive_us.add(src.inclusive.to_micros());
  dst.count.add(static_cast<double>(src.count));
  dst.max_single_us.add(src.max_single.to_micros());
  for (const auto& sc : src.children) {
    accumulate(dst.child(sc->name, sc->category), *sc);
  }
}

std::string join_path(std::span<const std::string_view> path) {
  std::string joined;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) joined += '/';
    joined += path[i];
  }
  return joined;
}

}  // namespace

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
  return find_path(*root_, path);
}

std::vector<std::pair<std::string, const StatNode*>> StatTree::query(
    std::string_view pattern) const {
  const auto pat = split_query(pattern);
  std::vector<std::pair<std::string, const StatNode*>> out;
  // The root has an empty path and never matches a non-empty pattern.
  walk_paths(*root_, [&](std::span<const std::string_view> path,
                         const StatNode& n) {
    if (path_matches(pat, path)) out.emplace_back(join_path(path), &n);
  });
  return out;
}

double StatTree::mean_category_us(std::string_view path, Category cat) const {
  const StatNode* node = path.empty() ? root_.get() : find(path);
  if (node == nullptr) return 0.0;
  return category_sum(*node, cat,
                      [](const StatNode& n) { return n.inclusive_us.mean(); });
}

std::string StatTree::render() const {
  std::string out;
  walk_paths(*root_, [&out](std::span<const std::string_view> path,
                            const StatNode& n) {
    out.append((path.size() - 1) * 2, ' ');
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
  });
  return out;
}

std::string StatTree::to_csv() const {
  std::string out =
      "path,category,mean_count,mean_inclusive_us,std_inclusive_us,"
      "max_single_us,n\n";
  walk_paths(*root_, [&out](std::span<const std::string_view> path,
                            const StatNode& n) {
    out += join_path(path);
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
  });
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
