#include "selftest.hpp"

#include <cstdio>
#include <string>

#include "host.hpp"
#include "sampler.hpp"
#include "workload.hpp"

namespace mdwf::bench {
namespace {

// Simulation events of paper-dyad at reps=5, seed 1: a count the
// repository's earlier measurements pin, so it must not move.
constexpr std::uint64_t kPaperDyadEvents = 124'854;

}  // namespace

int run_selftest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok) ++failures;
  };

  for (const WorkloadDef& def : workload_defs()) {
    const std::string name(def.name);
    const bool paper = name == "paper-dyad";
    const std::uint32_t reps = paper ? 5 : 1;
    const Workload w(def, 1, reps);
    const RunResult pub = w.run();
    obs::TraceSink sink;
    RepHooks hooks;
    hooks.rep0_trace = &sink;
    const RunResult traced = w.run_reps(reps, &hooks);
    expect(pub.frames_expected > 0 && pub.frames_failed() == 0,
           name + ": every frame delivered");
    expect(traced.digest == pub.digest,
           name + ": repetition-by-repetition digest with repetition 0 "
                  "traced equals the public entry point's");
    if (paper) {
      expect(pub.events() == kPaperDyadEvents,
             "paper-dyad reps=5 fires " + std::to_string(kPaperDyadEvents) +
                 " events (got " + std::to_string(pub.events()) + ")");
      expect(w.run_serial().digest == pub.digest,
             "paper-dyad: run_sweep digest equals the serial "
             "workflow::run_ensemble fold");
    }
  }

  {
    const Workload w(find_workload("paper-dyad"), 1, 100);
    PcSampler sampler(100'000, 1000);
    RepHooks hooks;
    hooks.sampler = &sampler;
    (void)w.run_reps(w.reps(), &hooks);
    const PcSampler::Attribution a = sampler.attribute();
    const double frac = a.samples > 0 ? static_cast<double>(a.attributed) /
                                            static_cast<double>(a.samples)
                                      : 0.0;
    expect(a.samples >= 100 && frac >= 0.9,
           "sampler attributes >= 90% of samples (" +
               std::to_string(a.attributed) + " of " +
               std::to_string(a.samples) + ")");
    expect(hooks.allocs.calls > 0 && hooks.allocs.bytes > 0,
           "allocation counter counts operator new");
  }

  const std::string self = self_exe();
  const Captured typo = spawn_capture({self, "workload=paper-dyda"}, true);
  expect(typo.exit_code == 2 &&
             typo.output.find("did you mean 'paper-dyad'") != std::string::npos,
         "workload=paper-dyda exits 2 with a did-you-mean hint");
  const Captured unknown =
      spawn_capture({self, "workload=paper-dyad", "sedd=2"}, true);
  expect(unknown.exit_code == 2 &&
             unknown.output.find("unknown key 'sedd'") != std::string::npos,
         "an unknown key exits 2");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace mdwf::bench
