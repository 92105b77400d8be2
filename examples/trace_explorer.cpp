// Trace explorer: run a workflow, then interrogate the collected Thicket
// with the path query language — the Caliper/Thicket/Hatchet methodology
// the paper uses for Figs. 9 and 10.
//
//   build/examples/trace_explorer [query]
//   default query: "**/dyad_fetch"
#include <cstdio>

#include "mdwf/workflow/ensemble.hpp"

int main(int argc, char** argv) {
  using namespace mdwf;
  const std::string query = argc > 1 ? argv[1] : "**/dyad_fetch";

  workflow::EnsembleConfig config;
  config.solution = workflow::Solution::kDyad;
  config.pairs = 4;
  config.nodes = 2;
  config.workload.model = md::kApoA1;
  config.workload.stride = md::kApoA1.stride;
  config.workload.frames = 16;
  config.repetitions = 3;

  std::printf("collecting traces: 4 DYAD pairs, ApoA1, 16 frames, 3 reps...\n");
  const auto result = workflow::run_ensemble(config);
  std::printf("collected %zu call trees\n\n", result.thicket.size());

  // 1. Aggregate across every rank and repetition.
  perf::StatTree all = result.thicket.aggregate();
  std::printf("aggregate tree over all ranks:\n%s\n", all.render().c_str());

  // 2. Slice by metadata, as Thicket's filter does.
  const auto consumers = result.thicket.filter("role", "consumer");
  std::printf("consumer-only records: %zu\n", consumers.size());

  // 3. Path query (Hatchet-style): '*' one segment, '**' any depth.
  const perf::StatTree agg = consumers.aggregate();
  const auto hits = agg.query(query);
  std::printf("\nquery '%s' -> %zu match(es):\n", query.c_str(), hits.size());
  for (const auto& [path, node] : hits) {
    std::printf("  %-50s %10.1f +/- %.1f us  (steady per call: %.1f us)\n",
                path.c_str(), node->inclusive_us.mean(),
                node->inclusive_us.stddev(), node->steady_per_call_us());
  }
  if (hits.empty()) {
    std::printf("  (no matches; try \"**\" to list every path)\n");
  }
  return 0;
}
