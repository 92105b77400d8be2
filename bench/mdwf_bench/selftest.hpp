#pragma once

namespace mdwf::bench {

// mdwf_bench selftest=1: checks the benchmark itself (every workload runs
// and passes its correctness checks at reduced repetitions, the pinned
// event count, the sweep path against the serial library fold, sampler
// attribution, the allocation counter, argument errors).  Prints one line
// per check; returns 0 when all pass, 1 otherwise.
int run_selftest();

}  // namespace mdwf::bench
