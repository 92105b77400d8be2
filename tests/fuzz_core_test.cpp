// The chaos-fuzz core (bench/fuzz_core.hpp) driven by a fake mode: the
// shrinker's drop-one and halving steps, the canonically-first report at
// any thread count, the reproducer file, and the exit codes.  chaos_fuzz
// itself reaches the shrink path only after a real violation, so this is
// the path's only direct coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_core.hpp"

namespace mdwf::fuzz {
namespace {

// A schedule with a droppable sequence and a halvable size.
struct Fake {
  std::uint32_t index = 0;
  std::vector<int> windows;
  std::uint64_t frames = 16;
};

bool has(const Fake& f, int w) {
  return std::find(f.windows.begin(), f.windows.end(), w) != f.windows.end();
}

// Fails only while windows 2 and 5 are both present and frames >= 3.
Verdict needs_2_5(const Fake& f) {
  if (has(f, 2) && has(f, 5) && f.frames >= 3) {
    return "needs windows {2,5} and frames >= 3";
  }
  return std::nullopt;
}

Fake draw(std::uint64_t /*seed*/, std::uint32_t index) {
  return Fake{index, {0, 1, 2, 3, 4, 5, 6, 7}, 16};
}

std::string describe(const Fake& f) {
  std::string ws;
  for (const int w : f.windows) {
    ws += (ws.empty() ? "" : ",") + std::to_string(w);
  }
  return "fake " + std::to_string(f.index) + ": windows=" + ws +
         " frames=" + std::to_string(f.frames);
}

Fake shrink(Fake f) {
  drop_one(f, [](Fake& c) -> auto& { return c.windows; }, needs_2_5);
  halve_while_failing(
      f,
      [](Fake& c) {
        if (c.frames <= 1) return false;
        c.frames /= 2;
        return true;
      },
      needs_2_5);
  return f;
}

// A fake mode whose schedules 3 and 6 violate; `replays` counts the
// determinism re-runs the driver asks for.
Mode<Fake> fake_mode(std::atomic<int>* replays) {
  return {"fake_fuzz", "fuzz_core_test_repro_",
          "fake schedules held every invariant",
          draw,
          [](const Fake& f) -> Verdict {
            return f.index == 3 || f.index == 6 ? needs_2_5(f) : std::nullopt;
          },
          [replays](const Fake&) -> Verdict {
            ++*replays;
            return std::nullopt;
          },
          describe,
          shrink};
}

struct Captured {
  int code = 0;
  std::string out;
};

Captured run_captured(const Mode<Fake>& mode, const Options& opt) {
  testing::internal::CaptureStdout();
  Captured r;
  r.code = run(mode, opt);
  r.out = testing::internal::GetCapturedStdout();
  return r;
}

TEST(FuzzCore, ShrinkDropsToTheNeededWindowsAndHalvesToTheFirstPassingSize) {
  const Fake minimal = shrink(draw(1, 0));
  EXPECT_EQ(minimal.windows, (std::vector<int>{2, 5}));
  // 16 -> 8 -> 4 still fail; 2 passes, so halving stops at 4.
  EXPECT_EQ(minimal.frames, 4u);
}

TEST(FuzzCore, DropOneKeepsElementsBeforeFirst) {
  Fake f = draw(1, 0);
  drop_one(
      f, [](Fake& c) -> auto& { return c.windows; },
      [](const Fake& c) -> Verdict {
        return has(c, 5) ? Verdict("fails") : std::nullopt;
      },
      /*first=*/1);
  EXPECT_EQ(f.windows, (std::vector<int>{0, 5}));
}

TEST(FuzzCore, ReportsTheCanonicallyFirstViolationAtAnyThreadCount) {
  std::atomic<int> replays{0};
  const Mode<Fake> mode = fake_mode(&replays);
  Options opt;
  opt.schedules = 10;
  opt.seed = 7;
  opt.verbose = true;

  opt.threads = 1;
  const Captured serial = run_captured(mode, opt);
  opt.threads = 4;
  const Captured pooled = run_captured(mode, opt);

  EXPECT_EQ(serial.code, 1);
  EXPECT_EQ(pooled.code, 1);
  EXPECT_EQ(serial.out, pooled.out);
  const std::string expected =
      "fake 0: windows=0,1,2,3,4,5,6,7 frames=16\n"
      "fake 1: windows=0,1,2,3,4,5,6,7 frames=16\n"
      "fake 2: windows=0,1,2,3,4,5,6,7 frames=16\n"
      "fake 3: windows=0,1,2,3,4,5,6,7 frames=16\n"
      "FAILED fake 3: windows=0,1,2,3,4,5,6,7 frames=16\n"
      "  needs windows {2,5} and frames >= 3\n"
      "shrinking...\n"
      "minimal fake 3: windows=2,5 frames=4\n"
      "  reproduce: fake_fuzz seed=7 only=3\n"
      "reproducer written to fuzz_core_test_repro_3.txt\n";
  EXPECT_EQ(serial.out, expected);

  std::ifstream file("fuzz_core_test_repro_3.txt");
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(),
            "violation: needs windows {2,5} and frames >= 3\n"
            "reproduce: fake_fuzz seed=7 only=3\n"
            "minimal fake 3: windows=2,5 frames=4\n");
  file.close();
  std::remove("fuzz_core_test_repro_3.txt");
}

// A check whose run throws (schedule 3 while windows 2 and 5 and frames >= 3
// remain) reports a violation with the exception as its verdict, at any
// thread count, and the shrinker treats a throw as still failing.
Verdict throws_on_3(const Fake& f) {
  if (f.index == 3 && needs_2_5(f).has_value()) {
    throw std::runtime_error("read past EOF");
  }
  return std::nullopt;
}

TEST(FuzzCore, AThrowingRunIsAReportedShrunkViolation) {
  const Mode<Fake> mode{
      "fake_fuzz", "fuzz_core_test_throw_repro_",
      "fake schedules held every invariant", draw, throws_on_3,
      [](const Fake&) -> Verdict { return std::nullopt; }, describe,
      [](Fake f) {
        drop_one(f, [](Fake& c) -> auto& { return c.windows; }, throws_on_3);
        halve_while_failing(
            f,
            [](Fake& c) {
              if (c.frames <= 1) return false;
              c.frames /= 2;
              return true;
            },
            throws_on_3);
        return f;
      }};
  Options opt;
  opt.schedules = 5;
  opt.seed = 7;
  for (const std::uint32_t threads : {1u, 2u}) {
    opt.threads = threads;
    const Captured r = run_captured(mode, opt);
    EXPECT_EQ(r.code, 1) << threads;
    EXPECT_EQ(r.out,
              "FAILED fake 3: windows=0,1,2,3,4,5,6,7 frames=16\n"
              "  exception: read past EOF\n"
              "shrinking...\n"
              "minimal fake 3: windows=2,5 frames=4\n"
              "  reproduce: fake_fuzz seed=7 only=3\n"
              "reproducer written to fuzz_core_test_throw_repro_3.txt\n")
        << threads;
    std::ifstream file("fuzz_core_test_throw_repro_3.txt");
    ASSERT_TRUE(file.good()) << threads;
    std::stringstream contents;
    contents << file.rdbuf();
    EXPECT_EQ(contents.str(),
              "violation: exception: read past EOF\n"
              "reproduce: fake_fuzz seed=7 only=3\n"
              "minimal fake 3: windows=2,5 frames=4\n");
    file.close();
    std::remove("fuzz_core_test_throw_repro_3.txt");
  }
}

TEST(FuzzCore, ReplaysEveryEighthScheduleAndSummarizesAPass) {
  std::atomic<int> replays{0};
  const Mode<Fake> mode = fake_mode(&replays);
  Options opt;
  opt.schedules = 3;  // schedules 0-2 all hold
  opt.seed = 7;
  opt.threads = 2;
  Captured r = run_captured(mode, opt);
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out,
            "chaos_fuzz: 3 fake schedules held every invariant [seed=7]\n");
  EXPECT_EQ(replays.load(), 1);  // schedule 0 only

  // only= checks (and replays) just the requested schedule.
  replays = 0;
  opt.schedules = 20;
  opt.only = 9;
  r = run_captured(mode, opt);
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out,
            "chaos_fuzz: 1 fake schedules held every invariant [seed=7]\n");
  EXPECT_EQ(replays.load(), 1);

  // ...even past schedules=, so a printed reproducer replays as printed.
  replays = 0;
  opt.schedules = 3;
  r = run_captured(mode, opt);
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out,
            "chaos_fuzz: 1 fake schedules held every invariant [seed=7]\n");
  EXPECT_EQ(replays.load(), 1);
}

}  // namespace
}  // namespace mdwf::fuzz
