// The chaos-fuzz core: the one schedule/report driver and shrinker behind
// every chaos_fuzz mode.  A mode supplies only what differs — how schedule
// `index` is drawn from the master seed, the invariants one run checks, the
// determinism replay, the printout, and what its shrinker drops and halves.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mdwf/sweep/sweep.hpp"

namespace mdwf::fuzz {

// The first violated invariant's description, or nullopt when all hold.
using Verdict = std::optional<std::string>;

template <class S>
struct Mode {
  std::string command;      // reproduce-line prefix, e.g. "chaos_fuzz dag=1"
  std::string file_prefix;  // reproducer file prefix, e.g. "chaos_repro_dag_"
  std::string summary;      // "chaos_fuzz: <n> <summary> [seed=<seed>]"
  std::function<S(std::uint64_t seed, std::uint32_t index)> draw;
  std::function<Verdict(const S&)> check;   // one run vs the invariants
  std::function<Verdict(const S&)> replay;  // the determinism check
  std::function<std::string(const S&)> describe;
  std::function<S(S)> shrink;  // a minimal schedule that still fails
};

struct Options {
  std::uint32_t schedules = 60;
  std::uint64_t seed = 20260806;
  // Check (and replay) just this index, whatever `schedules` says: a
  // schedule depends only on (seed, index), so the printed reproducer
  // replays it as printed.
  std::optional<std::uint32_t> only;
  bool verbose = false;
  std::uint32_t threads = 1;
};

// The verdict of `check` on `s`, where a check that throws is a violation
// ("exception: <what>"), never a pass: the run it checks did not complete.
// A one-task run_tasks runs the check inline and captures its failure.
template <class S, class Check>
Verdict guarded(const Check& check, const S& s) {
  Verdict v;
  if (auto err = sweep::run_tasks({[&] { v = check(s); }}, 1).front()) {
    v = "exception: " + *err;
  }
  return v;
}

// Greedy ddmin step: removes one element of `items(s)` at a time (from
// index `first` on), keeps the first removal under which `check` still
// fails, and restarts, until no single removal fails.
template <class S, class Items, class Check>
void drop_one(S& s, Items items, const Check& check, std::size_t first = 0) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = first; i < items(s).size(); ++i) {
      S candidate = s;
      auto& seq = items(candidate);
      seq.erase(seq.begin() + static_cast<long>(i));
      if (guarded(check, candidate).has_value()) {
        s = std::move(candidate);
        progressed = true;
        break;
      }
    }
  }
}

// Halves a size while `check` still fails, stopping at the first size that
// passes; `halve` returns false once the size is at its floor.
template <class S, class Halve, class Check>
void halve_while_failing(S& s, Halve halve, const Check& check) {
  while (true) {
    S candidate = s;
    if (!halve(candidate) || !guarded(check, candidate).has_value()) return;
    s = std::move(candidate);
  }
}

// Checks schedules [0, schedules), or just `only` — every 8th (and an only=
// one) also replayed for determinism — across the sweep pool.  Outcomes
// land in per-index slots and are reported in index order, so output and
// exit code match the serial run: 0 when all hold; else the lowest-index
// violation is shrunk and its reproducer printed and written to
// <file_prefix><i>.txt, returning 1.  A schedule whose draw, check or
// replay throws is a violation, as in guarded().
template <class S>
int run(const Mode<S>& mode, const Options& opt) {
  struct Outcome {
    std::uint32_t index = 0;
    S s;
    Verdict bad;
  };
  std::vector<Outcome> outcomes(opt.only ? 1 : opt.schedules);
  for (std::uint32_t k = 0; k < outcomes.size(); ++k) {
    outcomes[k].index = opt.only.value_or(k);
  }
  std::vector<std::function<void()>> checks;
  for (Outcome& o : outcomes) {
    checks.push_back([&o, &mode, &opt] {
      o.s = mode.draw(opt.seed, o.index);
      if (o.index % 8 == 0 || opt.only) o.bad = mode.replay(o.s);
      if (!o.bad.has_value()) o.bad = mode.check(o.s);
    });
  }
  const auto failures = sweep::run_tasks(std::move(checks), opt.threads);
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    if (failures[k]) outcomes[k].bad = "exception: " + *failures[k];
  }

  for (const Outcome& o : outcomes) {
    const std::uint32_t i = o.index;
    if (opt.verbose) std::printf("%s\n", mode.describe(o.s).c_str());
    if (!o.bad.has_value()) continue;

    std::printf("FAILED %s\n  %s\nshrinking...\n", mode.describe(o.s).c_str(),
                o.bad->c_str());
    // Shrinking replays candidate schedules serially: it is a fix-up path,
    // and a deterministic reproducer matters more than its wall-clock.
    const std::string minimal = mode.describe(mode.shrink(o.s));
    const std::string repro = mode.command + " seed=" +
                              std::to_string(opt.seed) +
                              " only=" + std::to_string(i);
    std::printf("minimal %s\n  reproduce: %s\n", minimal.c_str(),
                repro.c_str());
    const std::string path = mode.file_prefix + std::to_string(i) + ".txt";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "violation: %s\nreproduce: %s\nminimal %s\n",
                   o.bad->c_str(), repro.c_str(), minimal.c_str());
      std::fclose(f);
      std::printf("reproducer written to %s\n", path.c_str());
    }
    return 1;
  }
  std::printf("chaos_fuzz: %zu %s [seed=%llu]\n", outcomes.size(),
              mode.summary.c_str(),
              static_cast<unsigned long long>(opt.seed));
  return 0;
}

}  // namespace mdwf::fuzz
