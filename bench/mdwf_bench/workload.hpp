// The benchmark's pinned workloads and the ways one is run.
//
// A workload is an mdwf_run key string plus a seed (seed= sets base_seed).
// It runs through the same public entry points mdwf_run uses — a one-point
// sweep::run_sweep(grid, 1), or tenant::run_multi_tenant with threads=1 —
// or repetition by repetition through the building blocks those entry
// points are made of (run_repetition / fold_repetition), which lets the
// per-layer run time the fold and trace repetition 0.  Both paths must give
// the same sim_digest; the benchmark checks that they do.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "mdwf/common/keyval.hpp"
#include "mdwf/obs/counters.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "host.hpp"

namespace mdwf::bench {

class PcSampler;

struct WorkloadDef {
  std::string_view name;
  std::string_view keys;  // mdwf_run key=value syntax
};

// The pinned workloads, in the order README.md explains them.
std::span<const WorkloadDef> workload_defs();

// Throws mdwf::ConfigError naming the closest workload on a typo.
const WorkloadDef& find_workload(std::string_view name);

// One finished run of a workload, reduced to what the metrics read.
struct RunResult {
  // The workflow the simulated metrics describe: the single ensemble, or the
  // first workflow tenant of a co-tenant run.
  workflow::EnsembleResult primary;
  // Counters of every tenant and of the shared services, merged.
  obs::CounterMap counters;
  std::uint64_t frames_expected = 0;
  // CRC32C over the run's CSV, counters, fetch samples and aggregated
  // call tree (see README.md).
  std::uint32_t digest = 0;
  // Host seconds spent in perf::Thicket::aggregate() while digesting.
  double aggregate_s = 0.0;

  std::uint64_t events() const { return counters.get("sim_events"); }
  // Frames that did not arrive checksum-clean.
  std::uint64_t frames_failed() const;
};

// Optional observers of Workload::run_reps.
struct RepHooks {
  obs::TraceSink* rep0_trace = nullptr;  // traces repetition 0 when set
  PcSampler* sampler = nullptr;  // armed while repetitions run and fold
  // Out: host seconds running and folding (digest excluded), of which
  // folding; allocations made in that window.
  double run_s = 0.0;
  double fold_s = 0.0;
  AllocCount allocs;
};

class Workload {
 public:
  // Parses the workload's keys with `seed`; `reps` > 0 overrides its
  // repetition count.  Throws mdwf::ConfigError.
  Workload(const WorkloadDef& def, std::uint64_t seed, std::uint32_t reps = 0);

  const WorkloadDef& def() const { return *def_; }
  std::uint64_t seed() const { return seed_; }
  std::uint32_t reps() const;

  // All repetitions through the public entry point.
  RunResult run() const;

  // Repetitions [0, reps) through run_repetition + fold_repetition.
  RunResult run_reps(std::uint32_t reps, RepHooks* hooks = nullptr) const;

  // Host seconds of repetition 0 alone, traced into `trace` when non-null.
  double time_rep0(obs::TraceSink* trace) const;

  // A classic workload through the library's serial workflow::run_ensemble:
  // the reference the sweep path must reproduce.
  RunResult run_serial() const;

  // Host seconds of one set-up: parsing the keys (with DAG generation and
  // plan), then repetition 0's Testbed and rank-set construction — all the
  // work done before the first event fires.
  double time_setup() const;

 private:
  KeyValueConfig key_config(std::uint32_t reps) const;
  bool cotenant() const { return tenants_.has_value(); }
  // Frames one repetition must deliver (edge-frames for a DAG, the sum
  // over workflow tenants for a co-tenant run).
  std::uint64_t frames_per_rep() const;

  const WorkloadDef* def_;
  std::uint64_t seed_;
  std::uint32_t reps_override_;
  std::optional<workflow::EnsembleConfig> ensemble_;
  std::optional<tenant::MultiTenantConfig> tenants_;
};

}  // namespace mdwf::bench
