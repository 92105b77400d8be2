// "Did you mean ...?" suggestions for unknown names.
//
// One Levenshtein implementation shared by every fail-fast name check
// (experiment config keys, fault scenario names, figure names, workload
// keys) instead of per-module copies.  A suggestion is offered only when the
// best candidate is within 2 edits — beyond that the hint is noise.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mdwf {

// Levenshtein edit distance (insert / delete / substitute, unit cost).
std::size_t edit_distance(std::string_view a, std::string_view b);

// " (did you mean 'x'?)" for the closest candidate within 2 edits, else "".
std::string did_you_mean(std::string_view given,
                         const std::vector<std::string_view>& candidates);
std::string did_you_mean(std::string_view given,
                         const std::vector<std::string>& candidates);

template <std::size_t N>
std::string did_you_mean(std::string_view given,
                         const std::string_view (&candidates)[N]) {
  return did_you_mean(
      given, std::vector<std::string_view>(candidates, candidates + N));
}

}  // namespace mdwf
