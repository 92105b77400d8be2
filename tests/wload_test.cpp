// Loader suite for the DAG workload importer (mdwf::wload): JSON reader
// units, every WfCommons negative path (malformed documents, cycles,
// dangling parents, unknown fields, zero-byte producing tasks — each a
// ConfigError with a did-you-mean where a close name exists), the seeded
// synthetic generator's shape and determinism contracts, and the
// workload= / dag_* config-surface registration in parse_ensemble_config.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mdwf/common/keyval.hpp"
#include "mdwf/wload/json.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf {
namespace {

// Runs `fn`, returning the ConfigError message it must throw ("" = none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

#define EXPECT_ERROR_HAS(msg, needle)                                       \
  do {                                                                      \
    const std::string m = (msg);                                            \
    EXPECT_NE(m.find(needle), std::string::npos)                            \
        << "message: \"" << m << "\"\nexpected substring: \"" << (needle)   \
        << "\"";                                                            \
  } while (0)

// --- JSON reader -----------------------------------------------------------

TEST(WloadJson, ParsesScalarsArraysAndObjects) {
  const auto doc = wload::parse_json(
      R"({"s": "aAb", "n": -2.5e1, "t": true, "z": null,
          "a": [1, 2, 3], "o": {"k": "v"}})",
      "test");
  const auto& root = doc.as_object("root");
  EXPECT_EQ(doc.find("s")->as_string("s"), "aAb");
  EXPECT_DOUBLE_EQ(doc.find("n")->as_number("n"), -25.0);
  EXPECT_TRUE(doc.find("t")->as_bool("t"));
  EXPECT_TRUE(doc.find("z")->is_null());
  EXPECT_EQ(doc.find("a")->as_array("a").size(), 3u);
  EXPECT_EQ(doc.find("o")->find("k")->as_string("k"), "v");
  EXPECT_EQ(root.size(), 6u);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(WloadJson, ErrorsCarryContextAndPosition) {
  const std::string msg =
      error_of([] { wload::parse_json("{\n  \"a\": 1,\n  }", "inst.json"); });
  EXPECT_ERROR_HAS(msg, "inst.json");
  EXPECT_ERROR_HAS(msg, "line 3");
}

TEST(WloadJson, RejectsTrailingContent) {
  EXPECT_ERROR_HAS(error_of([] { wload::parse_json("{} tail", "t"); }),
                   "trailing");
}

TEST(WloadJson, RejectsDuplicateKeys) {
  EXPECT_ERROR_HAS(
      error_of([] { wload::parse_json(R"({"a":1,"a":2})", "t"); }),
      "duplicate");
}

TEST(WloadJson, RejectsUnterminatedString) {
  EXPECT_NE(error_of([] { wload::parse_json(R"({"a": "oops})", "t"); }), "");
}

TEST(WloadJson, RejectsDeepNesting) {
  // The descent recurses once per level; unbounded, these overflow the
  // stack.
  const std::string arrays(100'000, '[');
  EXPECT_ERROR_HAS(error_of([&] { wload::parse_json(arrays, "deep.json"); }),
                   "deep.json: nesting deeper than 256 levels at line 1 "
                   "column 257");
  std::string objects;
  for (int i = 0; i < 30'000; ++i) objects += R"({"a":)";
  EXPECT_ERROR_HAS(error_of([&] { wload::parse_json(objects, "deep.json"); }),
                   "nesting deeper than 256 levels at line 1 column 1281");
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(error_of([&] { wload::parse_json(nested(256), "t"); }), "");
  EXPECT_ERROR_HAS(error_of([&] { wload::parse_json(nested(257), "t"); }),
                   "nesting deeper than 256 levels");
}

TEST(WloadJson, AccessorMismatchNamesTheField) {
  const auto doc = wload::parse_json(R"({"runtime": "fast"})", "t");
  EXPECT_ERROR_HAS(
      error_of([&] { doc.find("runtime")->as_number("tasks[0].runtime"); }),
      "tasks[0].runtime");
}

// --- WfCommons import: positives -------------------------------------------

// A small diamond in the classic v1.3 schema, declared out of topological
// order to exercise the canonicalizing sort.
const char kDiamond[] = R"({
  "name": "diamond",
  "workflow": {
    "jobs": [
      {"name": "report", "runtime": 1.0, "parents": ["left", "right"],
       "files": [{"link": "output", "name": "r", "sizeInBytes": 100}]},
      {"name": "left", "runtime": 2.0, "parents": ["src"],
       "files": [{"link": "input", "name": "x", "sizeInBytes": 7},
                 {"link": "output", "name": "l", "sizeInBytes": 300}]},
      {"name": "src", "runtime": 1.5, "parents": [],
       "files": [{"link": "output", "name": "a", "sizeInBytes": 1000},
                 {"link": "output", "name": "b", "sizeInBytes": 24}]},
      {"name": "right", "runtime": 2.0, "parents": ["src"],
       "bytesWritten": 400}
    ]
  }
})";

TEST(WloadImport, ParsesAndCanonicalizesDiamond) {
  const wload::Dag dag = wload::parse_wfcommons(kDiamond, "diamond.json");
  EXPECT_EQ(dag.name, "diamond");
  ASSERT_EQ(dag.tasks.size(), 4u);
  // Topological: src first, report last; left/right keep imported order.
  EXPECT_EQ(dag.tasks[0].id, "src");
  EXPECT_EQ(dag.tasks[1].id, "left");
  EXPECT_EQ(dag.tasks[2].id, "right");
  EXPECT_EQ(dag.tasks[3].id, "report");
  for (std::size_t i = 0; i < dag.tasks.size(); ++i) {
    for (const std::uint32_t p : dag.tasks[i].parents) {
      EXPECT_LT(p, i) << "parents must precede task " << dag.tasks[i].id;
    }
  }
  // Output bytes: sum of link=="output" files only; bytesWritten fallback.
  EXPECT_EQ(dag.tasks[0].output_bytes.count(), 1024u);
  EXPECT_EQ(dag.tasks[3].output_bytes.count(), 100u);
  EXPECT_EQ(dag.edge_count(), 4u);
  EXPECT_EQ(dag.source_count(), 1u);
  EXPECT_EQ(dag.sink_count(), 1u);
  EXPECT_EQ(dag.critical_path_tasks(), 3u);
  // children derived: src feeds both middles.
  ASSERT_EQ(dag.tasks[0].children.size(), 2u);
}

TEST(WloadImport, ParsesSpecificationExecutionSplit) {
  // wfformat >= 1.4: sizes live in a file table, runtimes in `execution`.
  const wload::Dag dag = wload::parse_wfcommons(R"({
    "name": "spec-form",
    "workflow": {
      "specification": {
        "tasks": [
          {"id": "a", "parents": [], "outputFiles": ["f1", "f2"]},
          {"id": "b", "parents": ["a"], "outputFiles": []}
        ],
        "files": [
          {"id": "f1", "sizeInBytes": 640},
          {"id": "f2", "sizeInBytes": 360}
        ]
      },
      "execution": {
        "tasks": [
          {"id": "a", "runtimeInSeconds": 2.0},
          {"id": "b", "runtimeInSeconds": 4.0}
        ]
      }
    }
  })",
                                                "spec.json");
  ASSERT_EQ(dag.tasks.size(), 2u);
  EXPECT_EQ(dag.tasks[0].output_bytes.count(), 1000u);
  EXPECT_DOUBLE_EQ(dag.tasks[0].runtime.to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(dag.tasks[1].runtime.to_seconds(), 4.0);
}

// --- WfCommons import: negative paths --------------------------------------

TEST(WloadImport, MalformedJsonNamesTheContext) {
  const std::string msg = error_of(
      [] { wload::parse_wfcommons("{\"name\": }", "broken.json"); });
  EXPECT_ERROR_HAS(msg, "broken.json");
}

TEST(WloadImport, MissingWorkflowObjectSuggestsClosestKey) {
  const std::string msg = error_of([] {
    wload::parse_wfcommons(R"({"name": "x", "workflaw": {"jobs": []}})",
                           "t.json");
  });
  EXPECT_ERROR_HAS(msg, "no 'workflow' object");
  EXPECT_ERROR_HAS(msg, "did you mean 'workflaw'");
}

TEST(WloadImport, MissingTaskArray) {
  EXPECT_ERROR_HAS(error_of([] {
                     wload::parse_wfcommons(
                         R"({"name": "x", "workflow": {}})", "t.json");
                   }),
                   "no tasks array");
}

TEST(WloadImport, EmptyTaskArray) {
  EXPECT_ERROR_HAS(
      error_of([] {
        wload::parse_wfcommons(
            R"({"name": "x", "workflow": {"jobs": []}})", "t.json");
      }),
      "no tasks");
}

TEST(WloadImport, UnknownTaskFieldGetsDidYouMean) {
  const std::string msg = error_of([] {
    wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "a", "runtme": 1.0, "parents": [], "bytesWritten": 10}
      ]}
    })",
                           "typo.json");
  });
  EXPECT_ERROR_HAS(msg, "unknown field 'runtme'");
  EXPECT_ERROR_HAS(msg, "did you mean 'runtime'");
}

TEST(WloadImport, UnknownFileFieldGetsDidYouMean) {
  const std::string msg = error_of([] {
    wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "a", "runtime": 1.0, "parents": [],
         "files": [{"link": "output", "name": "f", "sizeInByte": 10}]}
      ]}
    })",
                           "typo.json");
  });
  EXPECT_ERROR_HAS(msg, "unknown field 'sizeInByte'");
  EXPECT_ERROR_HAS(msg, "did you mean 'sizeInBytes'");
}

TEST(WloadImport, MissingParentGetsDidYouMean) {
  const std::string msg = error_of([] {
    wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "produce", "runtime": 1.0, "parents": [],
         "bytesWritten": 64},
        {"name": "consume", "runtime": 1.0, "parents": ["prodce"]}
      ]}
    })",
                           "t.json");
  });
  EXPECT_ERROR_HAS(msg, "missing parent 'prodce'");
  EXPECT_ERROR_HAS(msg, "did you mean 'produce'");
}

TEST(WloadImport, CycleNamesATaskOnTheCycle) {
  const std::string msg = error_of([] {
    wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "a", "runtime": 1.0, "parents": ["c"], "bytesWritten": 1},
        {"name": "b", "runtime": 1.0, "parents": ["a"], "bytesWritten": 1},
        {"name": "c", "runtime": 1.0, "parents": ["b"], "bytesWritten": 1}
      ]}
    })",
                           "cycle.json");
  });
  EXPECT_ERROR_HAS(msg, "cycle");
  EXPECT_ERROR_HAS(msg, "task 'a'");
}

TEST(WloadImport, SelfParentRejected) {
  EXPECT_ERROR_HAS(error_of([] {
                     wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "a", "runtime": 1.0, "parents": ["a"], "bytesWritten": 1}
      ]}
    })",
                                            "t.json");
                   }),
                   "itself");
}

TEST(WloadImport, DuplicateTaskIdRejected) {
  EXPECT_ERROR_HAS(error_of([] {
                     wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "a", "runtime": 1.0, "parents": [], "bytesWritten": 1},
        {"name": "a", "runtime": 2.0, "parents": [], "bytesWritten": 1}
      ]}
    })",
                                            "t.json");
                   }),
                   "duplicate task id 'a'");
}

TEST(WloadImport, NegativeRuntimeRejected) {
  EXPECT_ERROR_HAS(error_of([] {
                     wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "a", "runtime": -1.0, "parents": [], "bytesWritten": 1}
      ]}
    })",
                                            "t.json");
                   }),
                   "negative or non-finite runtime");
}

TEST(WloadImport, ZeroByteProducerRejectedWithHint) {
  // A task with children but no output bytes cannot move a frame; the
  // diagnostic points at the two fields people actually misspell.
  const std::string msg = error_of([] {
    wload::parse_wfcommons(R"({
      "workflow": {"jobs": [
        {"name": "a", "runtime": 1.0, "parents": []},
        {"name": "b", "runtime": 1.0, "parents": ["a"]}
      ]}
    })",
                           "t.json");
  });
  EXPECT_ERROR_HAS(msg, "task 'a' has children but zero output bytes");
  EXPECT_ERROR_HAS(msg, "sizeInBytes");
}

TEST(WloadImport, TaskWithoutNameOrIdRejected) {
  EXPECT_ERROR_HAS(error_of([] {
                     wload::parse_wfcommons(R"({
      "workflow": {"jobs": [{"runtime": 1.0, "parents": []}]}
    })",
                                            "t.json");
                   }),
                   "neither 'name' nor 'id'");
}

TEST(WloadImport, SpecOutputFileMustExistInFileTable) {
  const std::string msg = error_of([] {
    wload::parse_wfcommons(R"({
      "workflow": {
        "specification": {
          "tasks": [{"id": "a", "parents": [], "outputFiles": ["trajj"]}],
          "files": [{"id": "traj", "sizeInBytes": 64}]
        }
      }
    })",
                           "t.json");
  });
  EXPECT_ERROR_HAS(msg, "unknown file 'trajj'");
  EXPECT_ERROR_HAS(msg, "did you mean 'traj'");
}

TEST(WloadImport, UnreadableFileRejected) {
  EXPECT_ERROR_HAS(
      error_of([] { wload::load_wfcommons_file("/no/such/instance.json"); }),
      "cannot read");
}

// --- Synthetic generator ----------------------------------------------------

TEST(WloadSynth, ChainShape) {
  wload::SynthSpec spec;
  spec.topology = wload::Topology::kChain;
  spec.tasks = 5;
  const wload::Dag dag = wload::generate_synthetic(spec);
  ASSERT_EQ(dag.tasks.size(), 5u);
  EXPECT_EQ(dag.source_count(), 1u);
  EXPECT_EQ(dag.sink_count(), 1u);
  EXPECT_EQ(dag.edge_count(), 4u);
  EXPECT_EQ(dag.critical_path_tasks(), 5u);
}

TEST(WloadSynth, ForkJoinAndMontageValidateWithinBudget) {
  for (const auto topo :
       {wload::Topology::kForkJoin, wload::Topology::kMontage}) {
    wload::SynthSpec spec;
    spec.topology = topo;
    spec.tasks = 12;
    spec.width = 3;
    const wload::Dag dag = wload::generate_synthetic(spec);
    EXPECT_LE(dag.tasks.size(), 12u);
    EXPECT_GE(dag.edge_count(), dag.tasks.size() - 1);
    for (std::size_t i = 0; i < dag.tasks.size(); ++i) {
      for (const std::uint32_t p : dag.tasks[i].parents) EXPECT_LT(p, i);
    }
  }
}

TEST(WloadSynth, DeterministicPerSeedAndStablePerTask) {
  wload::SynthSpec spec;
  spec.topology = wload::Topology::kForkJoin;
  spec.tasks = 10;
  const wload::Dag a = wload::generate_synthetic(spec);
  const wload::Dag b = wload::generate_synthetic(spec);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].id, b.tasks[i].id);
    EXPECT_EQ(a.tasks[i].runtime.to_micros(), b.tasks[i].runtime.to_micros());
    EXPECT_EQ(a.tasks[i].output_bytes.count(), b.tasks[i].output_bytes.count());
  }
  // Draws fork per task id: another seed moves every size, but equal ids
  // across topologies with shared prefixes keep their draws.
  spec.seed = 2;
  const wload::Dag c = wload::generate_synthetic(spec);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    any_differs |= a.tasks[i].output_bytes.count() !=
                   c.tasks[i].output_bytes.count();
  }
  EXPECT_TRUE(any_differs);
}

TEST(WloadSynth, RejectsDegenerateSpecs) {
  wload::SynthSpec spec;
  spec.tasks = 0;
  EXPECT_ERROR_HAS(error_of([&] { wload::generate_synthetic(spec); }),
                   "at least one task");
  spec.tasks = 4;
  spec.width = 0;
  EXPECT_ERROR_HAS(error_of([&] { wload::generate_synthetic(spec); }),
                   "width");
}

// --- Workload reference resolution ------------------------------------------

TEST(WloadReference, UnknownSchemeGetsDidYouMean) {
  const std::string msg = error_of(
      [] { wload::load_workload("wfcommon:x.json", wload::WorkloadDefaults{}); });
  EXPECT_ERROR_HAS(msg, "unknown scheme 'wfcommon'");
  EXPECT_ERROR_HAS(msg, "did you mean 'wfcommons'");
}

TEST(WloadReference, UnknownTopologyGetsDidYouMean) {
  const std::string msg = error_of(
      [] { wload::load_workload("synth:chian", wload::WorkloadDefaults{}); });
  EXPECT_ERROR_HAS(msg, "unknown synthetic topology 'chian'");
  EXPECT_ERROR_HAS(msg, "did you mean 'chain'");
}

TEST(WloadReference, MissingSchemeRejected) {
  EXPECT_ERROR_HAS(
      error_of([] { wload::load_workload("chain", wload::WorkloadDefaults{}); }),
      "<scheme>:<arg>");
}

TEST(WloadReference, SynthHonorsDefaults) {
  wload::WorkloadDefaults wd;
  wd.synth_tasks = 6;
  wd.synth_runtime_s = 1.0;
  const wload::Dag dag = wload::load_workload("synth:chain", wd);
  EXPECT_EQ(dag.tasks.size(), 6u);
  EXPECT_EQ(dag.name, "synth-chain");
}

// --- Config-surface registration (parse_ensemble_config) --------------------

using KeyValues = std::vector<std::pair<std::string, std::string>>;

workflow::EnsembleConfig parse_cfg(const KeyValues& kvs) {
  KeyValueConfig cfg;
  for (const auto& [k, v] : kvs) cfg.set(k, v);
  return workflow::parse_ensemble_config(cfg, workflow::EnsembleConfig{});
}

TEST(WloadConfig, WorkloadKeyBindsADag) {
  const auto config = parse_cfg({{"workload", "synth:chain"},
                                 {"dag_tasks", "5"},
                                 {"dag_chunk", "1048576"},
                                 {"dag_scale", "2.0"}});
  ASSERT_NE(config.dag, nullptr);
  EXPECT_EQ(config.dag->tasks.size(), 5u);
  EXPECT_EQ(config.dag_chunk.count(), 1048576u);
  EXPECT_DOUBLE_EQ(config.dag_runtime_scale, 2.0);
}

TEST(WloadConfig, ClassicRunsBindNoDag) {
  EXPECT_EQ(parse_cfg({{"frames", "4"}}).dag, nullptr);
}

TEST(WloadConfig, FramesConflictsWithWorkload) {
  EXPECT_ERROR_HAS(error_of([] {
                     parse_cfg({{"workload", "synth:chain"},
                                {"frames", "8"}});
                   }),
                   "frames is derived from the DAG workload");
}

TEST(WloadConfig, CheckpointConflictsWithWorkload) {
  EXPECT_ERROR_HAS(error_of([] {
                     parse_cfg({{"workload", "synth:chain"},
                                {"checkpoint", "1"}});
                   }),
                   "checkpoint");
}

// Each of these once changed nothing in a DAG run: the CSV was identical
// with or without the key.
TEST(WloadConfig, PipelineKeysConflictWithWorkload) {
  const struct {
    const char* key;
    const char* value;
  } kCases[] = {{"pairs", "2"},    {"model", "STMV"},   {"stride", "100"},
                {"colocate", "1"}, {"compress", "1"}, {"interference", "1"}};
  for (const auto& c : kCases) {
    EXPECT_ERROR_HAS(error_of([&] {
                       parse_cfg({{"workload", "synth:chain"},
                                  {c.key, c.value}});
                     }),
                     std::string(c.key) +
                         " does not apply to DAG workloads; drop " + c.key +
                         "= when workload= is set");
  }
}

TEST(WloadConfig, MembershipConflictsWithWorkload) {
  EXPECT_ERROR_HAS(error_of([] {
                     parse_cfg({{"workload", "synth:chain"},
                                {"membership", "1"}});
                   }),
                   "membership");
  // Scenarios that need the membership plane, which DAG runs lack: a
  // permanent loss would end in the deadlock reporter.
  for (const char* faults :
       {"node-loss", "loss-after-publish", "heal-after-declare"}) {
    EXPECT_ERROR_HAS(error_of([&] {
                       parse_cfg({{"workload", "synth:chain"},
                                  {"faults", faults}});
                     }),
                     std::string("scenario '") + faults +
                         "' needs the membership plane");
  }
}

TEST(WloadConfig, DagKeysRequireAWorkload) {
  EXPECT_ERROR_HAS(error_of([] { parse_cfg({{"dag_tasks", "5"}}); }),
                   "dag_tasks requires a DAG workload");
}

TEST(WloadConfig, DagKeyTypoGetsDidYouMean) {
  const std::string msg = error_of([] {
    parse_cfg({{"workload", "synth:chain"}, {"dag_taskz", "5"}});
  });
  EXPECT_ERROR_HAS(msg, "unknown key(s): dag_taskz");
  EXPECT_ERROR_HAS(msg, "did you mean 'dag_tasks'");
}

TEST(WloadConfig, DagChunkMustBePositive) {
  EXPECT_ERROR_HAS(error_of([] {
                     parse_cfg({{"workload", "synth:chain"},
                                {"dag_chunk", "0"}});
                   }),
                   "dag_chunk must be a positive byte count");
}

TEST(WloadConfig, OutOfRangeCountsNameTheKey) {
  // Each row once aborted on an assertion, printed -nan/zero rows, or
  // wrapped through the uint32 cast; every one must be a ConfigError.
  const struct {
    KeyValues kvs;
    const char* needle;
  } kCases[] = {
      {{{"pairs", "0"}}, "pairs must be >= 1"},
      {{{"nodes", "0"}}, "nodes must be >= 1"},
      {{{"frames", "0"}}, "frames must be >= 1"},
      {{{"reps", "0"}}, "reps must be >= 1"},
      {{{"reps", "4294967296"}}, "reps must be at most 4294967295"},
      {{{"pairs", "4294967297"}}, "pairs must be at most 4294967295"},
      {{{"nodes", "4294967296"}}, "nodes must be at most 4294967295"},
      {{{"threads", "4294967296"}}, "threads must be at most 4294967295"},
      {{{"workload", "synth:fork-join"}, {"dag_width", "4294967297"}},
       "dag_width must be at most 4294967295"},
      // Once wrapped through a 32-bit cast: 2^32 + 1 ran a one-task chain
      // and 2^32 failed as "needs at least one task".
      {{{"workload", "synth:chain"}, {"dag_tasks", "4294967296"}},
       "dag_tasks must be at most 4294967295"},
      {{{"workload", "synth:chain"}, {"dag_tasks", "4294967297"}},
       "dag_tasks must be at most 4294967295"},
      {{{"nodes", "3"}, {"pairs", "2"}}, "nodes=3: a split placement"},
      {{{"solution", "xfs"}, {"nodes", "2"}}, "nodes=2: XFS cannot move"},
      {{{"workload", "synth:chain"}, {"nodes", "0"}}, "nodes must be >= 1"},
      {{{"workload", "synth:chain"}, {"solution", "xfs"}, {"nodes", "2"}},
       "nodes=2: XFS cannot move"},
      {{{"stride", "0"}}, "stride must be >= 1"},
      {{{"analytics", "nan"}}, "key 'analytics': 'nan' is not a finite"},
      {{{"workload", "synth:chain"}, {"dag_scale", "nan"}},
       "key 'dag_scale': 'nan' is not a finite"},
      // Finite but huge: each once overflowed simulated time and aborted
      // on a negative delay (or blamed a "negative runtime").
      {{{"jitter", "1e300"}}, "jitter must be in [0, 1]"},
      {{{"jitter", "-0.5"}}, "jitter must be in [0, 1]"},
      {{{"analytics", "1e300"}}, "analytics=1e+300: one frame's analytics"},
      {{{"stride", "99999999999999999"}},
       "stride=99999999999999999: one frame's MD"},
      {{{"workload", "synth:chain"}, {"dag_tasks", "3"},
        {"dag_scale", "1e300"}},
       "dag_scale=1e+300: task 't0000'"},
      {{{"workload", "synth:chain"}, {"dag_tasks", "3"},
        {"dag_runtime", "1e300"}},
       "dag_runtime=1e+300: the median synthetic task"},
  };
  for (const auto& c : kCases) {
    EXPECT_ERROR_HAS(error_of([&] { parse_cfg(c.kvs); }), c.needle);
  }
}

TEST(WloadConfig, PlacementRulesAcceptValidLayouts) {
  EXPECT_EQ(parse_cfg({{"nodes", "3"}, {"colocate", "1"}}).nodes, 3u);
  EXPECT_EQ(parse_cfg({{"solution", "xfs"}, {"nodes", "2"}, {"colocate", "1"}})
                .nodes,
            2u);
  // DAG tasks are placed round-robin: any node count works.
  EXPECT_EQ(parse_cfg({{"workload", "synth:chain"}, {"nodes", "3"}}).nodes,
            3u);
  EXPECT_EQ(parse_cfg({{"threads", "0"}}).threads, 0u);
}

TEST(WloadConfig, DagScaleMustBePositive) {
  EXPECT_ERROR_HAS(error_of([] {
                     parse_cfg({{"workload", "synth:chain"},
                                {"dag_scale", "0"}});
                   }),
                   "dag_scale must be > 0");
}

}  // namespace
}  // namespace mdwf
