// Gray-failure mitigation primitives (mdwf::health).
//
// Gray failures — fail-slow devices, lossy links, overloaded servers — do
// not trip the crash-oriented recovery machinery of mdwf::fault: every RPC
// still *succeeds*, just slowly.  This module supplies the client- and
// server-side machinery that turns "silently slow" into "detected and
// routed around":
//
//   * `FailureDetector` — a phi-accrual-style suspicion level computed from
//     an online latency distribution (EWMA mean/variance).  phi is the
//     negative log of the probability that a healthy server would exhibit
//     the observed latency, so thresholds compose: phi >= 8 means "one in
//     10^8 under the learned distribution".
//   * `CircuitBreaker` — the classic closed / open / half-open state
//     machine.  Consecutive suspected-or-failed RPCs trip it; while open,
//     callers fail over immediately instead of queueing behind a sick
//     server; after a cool-down a single half-open probe decides whether to
//     close it again.
//   * `LatencyTracker` — a bounded sample window with percentile lookup,
//     used to derive the adaptive hedging delay (launch a duplicate fetch
//     only once the primary has exceeded e.g. its own P99).
//   * `ServerBusy` — the retryable reply a bounded admission queue sheds
//     under backpressure.  It derives from net::NetError so every existing
//     recovery path (DYAD retry loop, Lustre flush guard, rank fault
//     retries) already treats it as a transient, retryable condition.
//
// All classes are pure state machines over (TimePoint, Duration): no
// simulation dependency, no hidden randomness, so identical call sequences
// give identical decisions — the determinism contract of the testbed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdwf/common/time.hpp"
#include "mdwf/net/network.hpp"

namespace mdwf::health {

// Retryable busy reply from a bounded admission queue (server-side
// backpressure).  Derives from net::NetError so fault-aware callers retry
// it with their existing exponential backoff.
class ServerBusy : public net::NetError {
 public:
  explicit ServerBusy(const std::string& what) : net::NetError(what) {}
};

// --- Failure detection ------------------------------------------------------

struct DetectorParams {
  // EWMA weight of the newest sample in the latency mean/variance.
  double ewma_alpha = 0.1;
  // Variance floor: avoids a phi explosion when the learned distribution
  // is near-degenerate (all samples identical in virtual time).
  Duration min_stddev = Duration::microseconds(50);
  // Samples required before phi is considered meaningful.
  std::uint32_t min_samples = 8;
  // Suspicion threshold for `suspect()`.
  double phi_threshold = 6.0;
  // Latencies below this are never suspect regardless of phi (guards the
  // warm-up phase where the learned mean is tiny).
  Duration suspect_floor = Duration::milliseconds(2);
  // Latencies at or above this are always suspect, even before warm-up.
  // phi measures deviation from the *learned* baseline, so a server that is
  // gray from the very first RPC teaches the detector its sickness as
  // normal; the ceiling is the absolute SLO bound that catches that case.
  // 0 disables.  The default sits well above any healthy KVS round trip
  // (sub-millisecond) and below the paper's overload regimes (tens of ms).
  Duration suspect_ceiling = Duration::milliseconds(10);
};

// Phi-accrual failure detector over per-RPC latency samples.  `observe`
// feeds a completed RPC's latency; `phi(x)` is the suspicion level of an
// RPC that took (or has so far taken) `x`.
class FailureDetector {
 public:
  explicit FailureDetector(DetectorParams params = {}) : params_(params) {}

  void observe(Duration latency);

  // -log10 P(latency >= x) under Normal(mean, stddev) of observed samples.
  // Monotonically non-decreasing in x.
  double phi(Duration x) const;

  // True once warmed up and phi(x) >= phi_threshold and x >= suspect_floor.
  bool suspect(Duration x) const;

  std::uint32_t samples() const { return count_; }
  Duration mean() const {
    return Duration::nanoseconds(static_cast<std::int64_t>(mean_ns_));
  }

 private:
  DetectorParams params_;
  double mean_ns_ = 0.0;
  double var_ns2_ = 0.0;
  std::uint32_t count_ = 0;
};

// --- Declare-dead policy ----------------------------------------------------

struct DeclareParams {
  // Sustained suspicion required before a declare: the phi detector must
  // keep the node suspect for this long without an intervening heartbeat
  // resetting it.  Guards against one late heartbeat killing a node.
  Duration confirm_window = Duration::milliseconds(60);
  // Absolute ceiling: silence at or past this declares the node regardless
  // of what the detector learned (covers the pre-warm-up phase and a
  // detector taught sickness as normal).
  Duration silence_ceiling = Duration::milliseconds(250);
  // Detector over heartbeat inter-arrival gaps.  The floor sits at several
  // heartbeat periods (default period 10 ms) so jitter is never suspect;
  // the per-sample ceiling is disabled — silence_ceiling above is the
  // absolute bound for declares.
  DetectorParams detector{
      .min_stddev = Duration::microseconds(500),
      .suspect_floor = Duration::milliseconds(30),
      .suspect_ceiling = Duration::zero(),
  };
};

// Promotes the phi-accrual detector from a hedging hint into a declare-dead
// policy: the membership controller feeds it one node's heartbeat arrivals
// and polls `should_declare`.  A declare is terminal for the node — the
// caller fences the old incarnation and migrates its ranks; this class only
// decides *when*.  Pure state machine over (TimePoint), like the rest of
// mdwf::health.
class DeclarePolicy {
 public:
  explicit DeclarePolicy(DeclareParams params = {})
      : params_(params), detector_(params.detector) {}

  void observe_heartbeat(TimePoint now);

  // True once the node has been suspect for confirm_window, or silent for
  // silence_ceiling.  Never true before the first heartbeat: a node that
  // has not joined yet cannot be declared.
  bool should_declare(TimePoint now);

  bool heard() const { return heard_; }
  TimePoint last_heartbeat() const { return last_; }

 private:
  DeclareParams params_;
  FailureDetector detector_;
  TimePoint last_ = TimePoint::origin();
  bool heard_ = false;
  bool suspected_ = false;
  TimePoint suspect_since_ = TimePoint::origin();
};

// --- Circuit breaking -------------------------------------------------------

struct BreakerParams {
  // Consecutive failures (or suspected-slow successes) that trip the
  // breaker open.
  std::uint32_t failure_threshold = 3;
  // Cool-down before an open breaker admits a half-open probe.
  Duration open_for = Duration::seconds_i(2);
  // Probe successes required to close again from half-open.
  std::uint32_t close_threshold = 1;
};

// Closed / open / half-open circuit breaker.  Pure state machine: callers
// pass the current virtual time to every transition.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerParams params = {}) : params_(params) {}

  // Whether a request may proceed now.  Closed always admits; open admits
  // nothing until the cool-down expires, then transitions to half-open and
  // admits a single in-flight probe; half-open admits one probe at a time.
  bool allow(TimePoint now);

  void record_success(TimePoint now);
  void record_failure(TimePoint now);

  State state() const { return state_; }
  // Transitions into kOpen (both initial trips and failed half-open probes).
  std::uint64_t trips() const { return trips_; }

 private:
  void open(TimePoint now);

  BreakerParams params_;
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  std::uint32_t probe_successes_ = 0;
  bool probe_inflight_ = false;
  TimePoint opened_at_ = TimePoint::origin();
  std::uint64_t trips_ = 0;
};

// --- Hedging ----------------------------------------------------------------

struct HedgeParams {
  bool enabled = false;
  // Launch the duplicate fetch once the primary exceeds this percentile of
  // recently observed fetch latencies.
  double percentile = 0.95;
  // Samples required before the adaptive delay is trusted; below this the
  // (conservative) initial_delay applies.
  std::uint32_t min_samples = 8;
  Duration initial_delay = Duration::milliseconds(10);
  // Lower bound on the adaptive delay so healthy jitter does not spawn
  // hedges on every fetch.
  Duration min_delay = Duration::milliseconds(1);
  // Upper bound on the adaptive delay.  The tracker window records whole
  // cold-fetch wall times, which in a closed-loop workflow include waits
  // for frames that were not produced yet; a few such waits would push the
  // P95 to seconds and effectively disable hedging right when a gray
  // server makes every fetch slow.
  Duration max_delay = Duration::milliseconds(50);
  // Pacing of the hedge's replica-availability probes (cheap metadata-only
  // exists() calls).  Much finer than the client retry timeout: a launched
  // hedge is already the losing-time path, so quantizing its wait for the
  // producer's write-through at 40 ms would hand the tail right back.
  Duration availability_poll = Duration::milliseconds(2);
};

// Bounded window of latency samples with percentile lookup; feeds the
// adaptive hedge delay.
class LatencyTracker {
 public:
  explicit LatencyTracker(std::size_t capacity = 128);

  void observe(Duration d);
  std::size_t samples() const { return size_; }

  // Linear-interpolated quantile over the retained window (q in [0,1]).
  Duration percentile(double q) const;

  // The hedge launch delay under `params`: percentile-based once warmed
  // up, initial_delay before, never below min_delay.
  Duration hedge_delay(const HedgeParams& params) const;

 private:
  std::vector<std::int64_t> ring_;  // nanoseconds
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
};

// --- Aggregate configuration ------------------------------------------------

struct HealthParams {
  // Master switch: detector + breaker on the DYAD KVS path and server-side
  // admission limits.
  bool enabled = false;
  DetectorParams detector{};
  BreakerParams breaker{};
  HedgeParams hedge{};
  // Server-side bounded admission queues (queued + in-service requests
  // beyond the limit are shed with ServerBusy; 0 = unbounded, i.e. off).
  std::uint32_t kvs_admission_limit = 0;
  std::uint32_t mds_admission_limit = 0;
  std::uint32_t ost_admission_limit = 0;
  // Client-side busy-retry loop (exponential backoff, doubling).
  std::uint32_t busy_retry_limit = 24;
  Duration busy_retry_base = Duration::microseconds(200);
};

// Default admission limits applied when health is enabled but no explicit
// limits were configured.  Sized well above healthy steady-state queue
// depths (service concurrency is 4-8) so they only engage under overload.
HealthParams with_default_limits(HealthParams params);

}  // namespace mdwf::health
