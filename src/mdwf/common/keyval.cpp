#include "mdwf/common/keyval.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

#include "mdwf/common/suggest.hpp"

namespace mdwf {
namespace {

std::string trim(std::string_view s) {
  const auto notspace = [](unsigned char c) { return !std::isspace(c); };
  const auto begin = std::find_if(s.begin(), s.end(), notspace);
  const auto end = std::find_if(s.rbegin(), s.rend(), notspace).base();
  return begin < end ? std::string(begin, end) : std::string();
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::vector<std::string> KeyValueConfig::parse_args(int argc,
                                                    const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string_view tok = argv[i];
    if (tok.substr(0, 2) == "--") tok.remove_prefix(2);
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos) {
      positional.emplace_back(tok);
      continue;
    }
    std::string key = trim(tok.substr(0, eq));
    if (key.empty()) {
      throw ConfigError("empty key in argument '" + std::string(argv[i]) +
                        "'");
    }
    set(std::move(key), trim(tok.substr(eq + 1)));
  }
  return positional;
}

void KeyValueConfig::parse_stream(std::istream& in) {
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string t = trim(line);
    if (t.empty()) continue;
    const auto eq = t.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("line " + std::to_string(lineno) +
                        ": expected key = value, got '" + t + "'");
    }
    const std::string key = trim(std::string_view(t).substr(0, eq));
    const std::string value = trim(std::string_view(t).substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("line " + std::to_string(lineno) + ": empty key");
    }
    set(key, value);
  }
}

void KeyValueConfig::set(std::string key, std::string value) {
  values_.insert_or_assign(std::move(key), std::move(value));
}

bool KeyValueConfig::has(std::string_view key) const {
  return values_.contains(std::string(key));
}

std::vector<std::string> KeyValueConfig::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::optional<std::string> KeyValueConfig::find(std::string_view key) const {
  note_known(key);
  const auto it = values_.find(std::string(key));
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string KeyValueConfig::get_string(std::string_view key,
                                       std::string_view fallback) const {
  const auto v = find(key);
  return v.has_value() ? *v : std::string(fallback);
}

std::int64_t KeyValueConfig::get_int(std::string_view key,
                                     std::int64_t fallback) const {
  const auto v = find(key);
  if (!v.has_value()) return fallback;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec != std::errc{} || ptr != v->data() + v->size()) {
    throw ConfigError("key '" + std::string(key) + "': '" + *v +
                      "' is not an integer");
  }
  return out;
}

std::uint64_t KeyValueConfig::get_uint(std::string_view key,
                                       std::uint64_t fallback) const {
  const std::int64_t v =
      get_int(key, static_cast<std::int64_t>(fallback));
  if (v < 0) {
    throw ConfigError("key '" + std::string(key) + "' must be non-negative");
  }
  return static_cast<std::uint64_t>(v);
}

std::uint32_t KeyValueConfig::get_u32(std::string_view key,
                                      std::uint32_t fallback) const {
  const std::uint64_t v = get_uint(key, fallback);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError(std::string(key) + " must be at most 4294967295, got " +
                      std::to_string(v));
  }
  return static_cast<std::uint32_t>(v);
}

double KeyValueConfig::get_double(std::string_view key,
                                  double fallback) const {
  const auto v = find(key);
  if (!v.has_value()) return fallback;
  double out = 0.0;
  try {
    std::size_t pos = 0;
    out = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw ConfigError("key '" + std::string(key) + "': '" + *v +
                      "' is not a number");
  }
  // std::stod accepts nan and inf, which slip past every range check
  // downstream (any comparison with NaN is false).
  if (!std::isfinite(out)) {
    throw ConfigError("key '" + std::string(key) + "': '" + *v +
                      "' is not a finite number");
  }
  return out;
}

bool KeyValueConfig::get_bool(std::string_view key, bool fallback) const {
  const auto v = find(key);
  if (!v.has_value()) return fallback;
  const std::string s = lower(*v);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw ConfigError("key '" + std::string(key) + "': '" + *v +
                    "' is not a boolean");
}

void KeyValueConfig::note_known(std::string_view key) const {
  known_[std::string(key)] = true;
}

std::vector<std::string> KeyValueConfig::unknown_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (!known_.contains(k)) out.push_back(k);
  }
  return out;
}

void KeyValueConfig::reject_unknown_keys(
    std::span<const std::string_view> candidates) const {
  const auto unknown = unknown_keys();
  if (unknown.empty()) return;
  const std::vector<std::string_view> names(candidates.begin(),
                                            candidates.end());
  std::string msg = "unknown key(s):";
  for (const auto& k : unknown) msg += " " + k + did_you_mean(k, names);
  throw ConfigError(msg);
}

}  // namespace mdwf
