// Virtual-time types for the discrete-event simulator.
//
// All simulated time is kept in signed 64-bit nanoseconds.  Integer
// nanoseconds make event ordering exact and runs bit-reproducible; the range
// (+/- ~292 years) is far beyond any simulated workflow.  `Duration` is a
// span, `TimePoint` an absolute instant since simulation start.
#pragma once

#include <cmath>
#include <compare>
#include <concepts>
#include <cstdint>
#include <limits>

#include "mdwf/common/assert.hpp"

namespace mdwf {

class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}

  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration max() {
    return Duration(std::numeric_limits<std::int64_t>::max());
  }
  static constexpr Duration nanoseconds(std::int64_t v) { return Duration(v); }
  static constexpr Duration microseconds(std::int64_t v) {
    return Duration(v * 1000);
  }
  static constexpr Duration milliseconds(std::int64_t v) {
    return Duration(v * 1'000'000);
  }
  static constexpr Duration seconds_i(std::int64_t v) {
    return Duration(v * 1'000'000'000);
  }
  // Rounds to the nearest nanosecond.
  static Duration seconds(double v) {
    MDWF_ASSERT_MSG(std::isfinite(v), "duration from non-finite seconds");
    return Duration(static_cast<std::int64_t>(std::llround(v * 1e9)));
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double to_micros() const { return static_cast<double>(ns_) * 1e-3; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration(a.ns_ + b.ns_);
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration(a.ns_ - b.ns_);
  }
  template <std::integral I>
  friend constexpr Duration operator*(Duration a, I k) {
    return Duration(a.ns_ * static_cast<std::int64_t>(k));
  }
  template <std::integral I>
  friend constexpr Duration operator*(I k, Duration a) {
    return a * k;
  }
  template <std::floating_point F>
  friend Duration operator*(Duration a, F k) {
    return Duration(static_cast<std::int64_t>(
        std::llround(static_cast<double>(a.ns_) * static_cast<double>(k))));
  }
  friend constexpr std::int64_t operator/(Duration a, Duration b) {
    return a.ns_ / b.ns_;
  }
  friend constexpr Duration operator/(Duration a, std::int64_t k) {
    return Duration(a.ns_ / k);
  }
  constexpr Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }
  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  std::int64_t ns_ = 0;
};

class TimePoint {
 public:
  constexpr TimePoint() = default;
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}

  static constexpr TimePoint origin() { return TimePoint(0); }
  static constexpr TimePoint max() {
    return TimePoint(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint(t.ns_ + d.ns());
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint(t.ns_ - d.ns());
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration(a.ns_ - b.ns_);
  }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

 private:
  std::int64_t ns_ = 0;
};

namespace literals {

constexpr Duration operator""_ns(unsigned long long v) {
  return Duration(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::microseconds(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::milliseconds(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_s(unsigned long long v) {
  return Duration::seconds_i(static_cast<std::int64_t>(v));
}

}  // namespace literals

}  // namespace mdwf
