// A named metric with its unit, and the spread of the samples behind it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "mdwf/common/stats.hpp"

namespace mdwf::bench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  // Quartiles and sample count when `value` is a median of samples.
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Metric single(std::string name, std::string unit, double value) {
  return {std::move(name), std::move(unit), value, value, value, 1};
}

inline Metric median_of(std::string name, std::string unit,
                        const std::vector<double>& xs) {
  Samples s;
  for (double x : xs) s.add(x);
  return {std::move(name), std::move(unit), s.median(), s.quantile(0.25),
          s.quantile(0.75), xs.size()};
}

// The smallest sample, with the quartiles beside it.  For host time on a
// shared machine: interference only ever adds time.
inline Metric fastest_of(std::string name, std::string unit,
                         const std::vector<double>& xs) {
  Metric m = median_of(std::move(name), std::move(unit), xs);
  m.value = *std::min_element(xs.begin(), xs.end());
  return m;
}

}  // namespace mdwf::bench
