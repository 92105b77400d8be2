// Minimal key=value configuration, for the CLI driver and config files.
//
// Accepts `key=value` tokens (command-line arguments, with an optional
// leading `--`) and config files with one `key = value` pair per line
// (# comments, blank lines allowed).  Later assignments override earlier
// ones.  Typed getters validate on access.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mdwf {

class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

class KeyValueConfig {
 public:
  // Parses argv[1..]; returns positional (non key=value) tokens in order.
  // Throws ConfigError on an argument with an empty key ("=3").
  std::vector<std::string> parse_args(int argc, const char* const* argv);

  // Parses a config file stream; throws ConfigError with the line number
  // on malformed input.
  void parse_stream(std::istream& in);

  void set(std::string key, std::string value);

  bool has(std::string_view key) const;
  std::vector<std::string> keys() const;

  std::string get_string(std::string_view key,
                         std::string_view fallback) const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  std::uint64_t get_uint(std::string_view key, std::uint64_t fallback) const;
  // get_uint for a count bound to a uint32 field: a wider value is a
  // ConfigError naming the key, never a silent wrap.
  std::uint32_t get_u32(std::string_view key, std::uint32_t fallback) const;
  double get_double(std::string_view key, double fallback) const;
  // Accepts 1/0, true/false, yes/no, on/off.
  bool get_bool(std::string_view key, bool fallback) const;

  // Marks keys as recognized; `unknown_keys` reports the rest (catches
  // typos in experiment configs).
  void note_known(std::string_view key) const;
  std::vector<std::string> unknown_keys() const;

  // Throws ConfigError "unknown key(s): k (did you mean 'x'?) ..." naming
  // every unknown key on one line; `candidates` (the caller's full key set)
  // feed the common/suggest hints.
  void reject_unknown_keys(std::span<const std::string_view> candidates) const;

 private:
  std::optional<std::string> find(std::string_view key) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> known_;
};

}  // namespace mdwf
