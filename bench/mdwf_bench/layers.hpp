// Per-layer metrics: host share from the PC sampler, and the simulated
// busy/wait time and work counts each layer already records (Thicket
// regions, trace counter series, run counters).
#pragma once

#include <string_view>
#include <vector>

#include "mdwf/obs/counters.hpp"
#include "mdwf/perf/thicket.hpp"
#include "report.hpp"
#include "sampler.hpp"

namespace mdwf::bench {

// <module>.host_pct per module, <module>.<file>.host_pct for the files an
// optimisation is likely to touch, layers.samples, layers.attributed_frac.
void add_host_shares(const PcSampler::Attribution& a, std::vector<Metric>& out);

// Simulated microseconds per call of the layers' Thicket regions.
void add_sim_per_call(const perf::Thicket& thicket, std::vector<Metric>& out);

// Time-weighted occupancy of the resources' trace counter series, from a
// traced repetition's TraceSink::metrics_csv().
void add_occupancy(std::string_view metrics_csv, std::vector<Metric>& out);

// Work counts and hit ratios from a run's counters.
void add_counts(const obs::CounterMap& c, std::vector<Metric>& out);

}  // namespace mdwf::bench
