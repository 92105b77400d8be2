// key=value -> EnsembleConfig binding, shared by the CLI driver and the
// benchmark binaries.
//
// `parse_ensemble_config` reads the experiment keys (solution, pairs, nodes,
// model, stride, frames, reps, seed, interference, push, jitter, compress,
// colocate, faults, retry, integrity, checkpoint, trace) from a
// KeyValueConfig on top of a caller-provided defaults object, applies the
// cross-key rules (XFS defaults to one node; injected faults turn the DYAD
// recovery protocol on; bit-flip/crash scenarios turn end-to-end checksums
// on; crash windows turn per-rank checkpointing on; fault scenarios are
// materialized against the configured cluster shape; DAG workloads reject
// the membership plane and the node-loss scenarios that need it), and
// returns the bound config.  Unknown keys fail fast with a one-line
// did-you-mean diagnostic; callers with driver-only keys (output, tree, ...)
// read them before parsing so they are already marked known on `cfg`.
#pragma once

#include <span>
#include <string_view>

#include "mdwf/common/keyval.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::workflow {

// The key=value spelling of a solution ("dyad", "xfs", "lustre", "stream"):
// the one name table behind solution=, mdwf_advise's solutions= and the
// tenants= grammar.  workflow::to_string gives the display name instead.
std::string_view solution_key(Solution s);

// Inverse of solution_key.  Throws mdwf::ConfigError "unknown solution
// '<name>'" with a did-you-mean hint when a name is within two edits.
Solution parse_solution(std::string_view name);

// The defaults a run's fault plans imply; an explicit retry=/integrity= key
// wins over both.  `scenario_set`: some fault scenario is named (its plan
// may still hold no window); `windows`: every window of every plan in the
// run, all tenants' in a co-tenant run.
struct FaultDefaults {
  // The DYAD recovery protocol, on under any scenario: a retry-less
  // consumer deadlocks through a broker outage.
  bool retry = false;
  // End-to-end checksums, on when a window flips bits or crashes a node:
  // unchecked runs would count corrupt or torn frames as delivered.
  bool integrity = false;
};
FaultDefaults fault_defaults(bool scenario_set,
                             std::span<const fault::FaultWindow> windows);

// Throws mdwf::ConfigError on an unknown solution, model, fault scenario,
// or leftover (unconsumed, unrecognized) key — with a did-you-mean hint
// when a known token is within two edits.
EnsembleConfig parse_ensemble_config(const KeyValueConfig& cfg,
                                     const EnsembleConfig& defaults = {});

}  // namespace mdwf::workflow
