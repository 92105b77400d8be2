// DAG workload import and generation (WfCommons / WorkflowHub).
//
// The simulator's classic workload is the paper's fixed producer→consumer
// MD pipeline.  This module widens the input surface to arbitrary task
// graphs: `parse_wfcommons` reads a WfCommons/WorkflowHub JSON instance
// (tasks, parents, per-task runtime and output bytes) into a validated
// `Dag`, `generate_synthetic` builds seeded chain / fork-join /
// montage-like topologies, and `load_workload` resolves the
// `workload=wfcommons:<file>` / `workload=synth:<topology>` config
// syntax.  Execution lives in workflow/dag_run.cpp: each DAG edge moves
// through the configured Connector, so every data-movement solution and
// fault plane applies to imported graphs unchanged.
//
// Validation is all-or-nothing: any structural problem (cycle, dangling
// parent, duplicate id, malformed JSON, unknown task field) throws
// mdwf::ConfigError — with a did-you-mean suggestion where a close known
// name exists — and leaves no partial Dag behind.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mdwf/common/bytes.hpp"
#include "mdwf/common/time.hpp"

namespace mdwf::wload {

// One workflow task: a unit of compute that consumes every parent's output
// and publishes `output_bytes` of its own.
struct TaskSpec {
  std::string id;            // unique within the Dag
  Duration runtime{};        // sequential compute time
  Bytes output_bytes{};      // bytes each child must fetch
  std::vector<std::uint32_t> parents;   // indices into Dag::tasks
  std::vector<std::uint32_t> children;  // derived, sorted ascending
};

// A directed acyclic task graph in topological order: every task's parents
// have smaller indices (validate() canonicalizes imported instances into
// this order, so executors can iterate tasks front-to-back).
struct Dag {
  std::string name;
  std::vector<TaskSpec> tasks;

  std::size_t edge_count() const {
    std::size_t n = 0;
    for (const TaskSpec& t : tasks) n += t.parents.size();
    return n;
  }
  // Tasks with no parents / no children.
  std::size_t source_count() const;
  std::size_t sink_count() const;
  // Longest path length in tasks (chain depth); 0 for an empty Dag.
  std::size_t critical_path_tasks() const;
};

// Structural validation + canonicalization shared by the importer and the
// generator: rejects duplicate ids, out-of-range or self parents, cycles
// (naming a task on the cycle), negative runtimes, and zero-byte outputs
// feeding children; sorts tasks topologically (stable: original order
// breaks ties) and fills `children`.  `context` prefixes diagnostics.
Dag validate(Dag dag, std::string_view context);

// --- WfCommons / WorkflowHub import ---------------------------------------

// Parses a WfCommons JSON instance (the `workflow.tasks[]` schema, with
// `workflow.specification.tasks[]` accepted for wfformat >= 1.4 splits).
// Unknown keys inside a task object are rejected with a did-you-mean
// against the known task fields — silently ignoring a misspelled
// `sizeInBytes` would import a zero-byte workflow.
Dag parse_wfcommons(std::string_view json_text, std::string_view context);

// Reads and parses an instance file; throws ConfigError if unreadable.
Dag load_wfcommons_file(const std::string& path);

// --- Seeded synthetic generator -------------------------------------------

enum class Topology {
  kChain,      // T0 -> T1 -> ... -> Tn-1
  kForkJoin,   // source -> `width` parallel tasks -> sink, repeated
  kMontage,    // montage-like diamond: wide project layer, pairwise
               // overlap layer, concentrating aggregate, final layers
};

// Known topology names for `synth:<topology>` (index-matched to Topology).
inline constexpr std::string_view kTopologyNames[] = {"chain", "fork-join",
                                                      "montage"};

Topology parse_topology(std::string_view name);
std::string_view topology_name(Topology t);

struct SynthSpec {
  Topology topology = Topology::kChain;
  std::uint32_t tasks = 8;       // total task budget (>= topology minimum)
  std::uint32_t width = 4;       // parallel width (fork-join, montage)
  std::uint64_t seed = 1;        // all size/runtime draws derive from this
  // Log-normal runtime distribution: median seconds and sigma of the
  // underlying normal (sigma 0 = every task exactly the median).
  double runtime_median_s = 2.0;
  double runtime_sigma = 0.3;
  // Log-normal output size distribution, median bytes.
  double output_median_bytes = 64.0 * 1024 * 1024;
  double output_sigma = 0.4;
};

// Deterministic: equal specs generate byte-identical Dags; draws fork from
// `seed` per task, so the graph shape never perturbs the size stream.
Dag generate_synthetic(const SynthSpec& spec);

// --- Config-surface resolution --------------------------------------------

// Defaults a `workload=` reference is resolved against (the dag_* keys).
struct WorkloadDefaults {
  std::uint32_t synth_tasks = 8;
  std::uint32_t synth_width = 4;
  std::uint64_t synth_seed = 1;
  double synth_runtime_s = 2.0;      // runtime median
  double synth_output_bytes = 64.0 * 1024 * 1024;  // output median
};

// Resolves `wfcommons:<file>` / `synth:<topology>` workload references.
// Unknown schemes and topologies fail fast with did-you-mean.
Dag load_workload(std::string_view reference, const WorkloadDefaults& defaults);

}  // namespace mdwf::wload
