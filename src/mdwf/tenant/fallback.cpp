#include "mdwf/tenant/fallback.hpp"

#include "mdwf/common/assert.hpp"

namespace mdwf::tenant {

workflow::ExplicitSync& RouteBook::decided_sync(std::uint32_t pair) {
  MDWF_ASSERT(sim_ != nullptr && pair < state_.size());
  auto& s = state_[pair];
  if (s.decided == nullptr) {
    s.decided = std::make_unique<workflow::ExplicitSync>(*sim_);
  }
  return *s.decided;
}

workflow::ExplicitSync& RouteBook::data_sync(std::uint32_t pair) {
  MDWF_ASSERT(sim_ != nullptr && pair < state_.size());
  auto& s = state_[pair];
  if (s.sync == nullptr) {
    s.sync = std::make_unique<workflow::ExplicitSync>(*sim_);
  }
  return *s.sync;
}

bool RouteBook::decide(std::uint32_t pair, std::uint64_t frame,
                       bool fallback) {
  auto& s = state_[pair];
  if (frame < s.plane.size()) {
    // Re-executed frame after a crash: replay the original route so the
    // consumer (which may already have resolved it) stays coherent.
    return s.plane[frame] != 0;
  }
  // Producers move frame-by-frame; a first decision for frame f implies
  // every earlier frame was decided.
  MDWF_ASSERT_MSG(frame == s.plane.size(),
                  "route decisions must arrive in frame order");
  s.plane.push_back(fallback ? 1 : 0);
  if (fallback) ++fallback_frames_;
  decided_sync(pair).signal_ready(frame);
  return fallback;
}

sim::Task<bool> RouteBook::wait_decision(std::uint32_t pair,
                                         std::uint64_t frame) {
  co_await decided_sync(pair).wait_ready(frame);
  co_return state_[pair].plane[frame] != 0;
}

bool RouteBook::is_fallback(std::uint32_t pair, std::uint64_t frame) const {
  const auto& s = state_[pair];
  MDWF_ASSERT(frame < s.plane.size());
  return s.plane[frame] != 0;
}

sim::Task<void> FallbackConnector::put(const std::string& path, Bytes size,
                                       std::uint64_t frame) {
  if (book_->decide(pair_, frame, guard_->fallback_engaged())) {
    co_await fallback_->put(path, size, frame);
  } else {
    co_await primary_->put(path, size, frame);
  }
}

sim::Task<void> FallbackConnector::producer_sync(std::uint64_t frame) {
  if (book_->is_fallback(pair_, frame)) {
    // The Lustre plane keeps the paper's coarse-grained sync: degraded
    // frames serialize producer and consumer — that is the cost the guard
    // traded for predictable latency.
    co_await fallback_->producer_sync(frame);
  } else {
    co_await primary_->producer_sync(frame);
  }
}

sim::Task<void> FallbackConnector::get(const std::string& path, Bytes size,
                                       std::uint64_t frame) {
  // Awaited outside the `if`: GCC 12 miscompiles this coroutine (SIGILL on
  // resume) when the co_await is the condition itself.
  const bool fallback = co_await book_->wait_decision(pair_, frame);
  if (fallback) {
    co_await fallback_->get(path, size, frame);
  } else {
    co_await primary_->get(path, size, frame);
  }
}

void FallbackConnector::acknowledge(std::uint64_t frame) {
  // Acknowledge on both planes: the primary's ack is a no-op, and keeping
  // the Lustre plane's done mark current means a later fallback frame's
  // producer_sync never waits on acks that predate the fallback.
  primary_->acknowledge(frame);
  fallback_->acknowledge(frame);
}

}  // namespace mdwf::tenant
