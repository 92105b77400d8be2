#include "workload.hpp"

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mdwf/common/crc32c.hpp"
#include "mdwf/common/suggest.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/testbed.hpp"
#include "sampler.hpp"

namespace mdwf::bench {
namespace {

// Why each point was chosen is in README.md; the keys are pinned here and
// change only in a benchmark change, never in one that claims a gain.
constexpr WorkloadDef kWorkloads[] = {
    {"paper-dyad", "solution=dyad model=JAC pairs=4 nodes=2 frames=64 reps=50"},
    {"corona-dyad",
     "solution=dyad model=STMV pairs=64 nodes=120 frames=32 reps=1"},
    {"corona-lustre",
     "solution=lustre model=STMV pairs=64 nodes=120 frames=16 reps=2"},
    {"dag-stream",
     "workload=synth:montage dag_tasks=64 nodes=4 solution=stream reps=1"},
    {"cotenant-storm", "tenants=victim@dyad/2/2,noise/13 frames=1 reps=1"},
};

// mdwf_run's defaults under the keys, so the keys mean what they mean there.
workflow::EnsembleConfig mdwf_run_defaults() {
  workflow::EnsembleConfig d;
  d.pairs = 4;
  d.nodes = 2;
  d.workload.frames = 64;
  d.repetitions = 5;
  return d;
}

std::uint32_t crc_of(std::string_view s, std::uint32_t crc) {
  return crc32c(s.data(), s.size(), crc);
}

// Counters, every fetch sample and the aggregated call tree of one ensemble.
std::uint32_t digest_ensemble(const workflow::EnsembleResult& r,
                              std::uint32_t crc, double& aggregate_s) {
  crc = crc_of(r.counters.to_csv(), crc);
  const std::vector<double>& fetches = r.cons_fetch_us.values();
  crc = crc32c(fetches.data(), fetches.size() * sizeof(double), crc);
  const auto t0 = Clock::now();
  const perf::StatTree tree = r.thicket.aggregate();
  aggregate_s += seconds_since(t0);
  return crc_of(tree.to_csv(), crc);
}

RunResult finish(sweep::SweepResult sweep, std::uint64_t frames_expected) {
  if (sweep.errors != 0) throw std::runtime_error(sweep.points[0].error_text);
  RunResult out;
  out.frames_expected = frames_expected;
  out.digest = crc_of(sweep.to_csv(), 0);
  out.digest =
      digest_ensemble(sweep.points[0].result, out.digest, out.aggregate_s);
  out.primary = std::move(sweep.points[0].result);
  out.counters = out.primary.counters;
  return out;
}

RunResult finish(tenant::MultiTenantResult r, std::uint64_t frames_expected) {
  RunResult out;
  out.frames_expected = frames_expected;
  out.digest = crc_of(r.to_csv(), 0);
  for (const tenant::TenantResult& t : r.tenants) {
    out.digest = digest_ensemble(t.result, out.digest, out.aggregate_s);
    out.counters.merge(t.result.counters);
  }
  out.digest = crc_of(r.shared.to_csv(), out.digest);
  out.counters.merge(r.shared);
  for (tenant::TenantResult& t : r.tenants) {
    if (t.spec.kind != tenant::TenantKind::kWorkflow) continue;
    out.primary = std::move(t.result);
    break;
  }
  return out;
}

}  // namespace

std::span<const WorkloadDef> workload_defs() { return kWorkloads; }

const WorkloadDef& find_workload(std::string_view name) {
  std::vector<std::string_view> names;
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == name) return w;
    names.push_back(w.name);
  }
  throw ConfigError("unknown workload '" + std::string(name) + "'" +
                    did_you_mean(name, names));
}

std::uint64_t RunResult::frames_failed() const {
  const std::uint64_t consumed = counters.get("frames_consumed");
  const std::uint64_t missing =
      consumed < frames_expected ? frames_expected - consumed : 0;
  return missing + counters.get("integrity_unrecovered");
}

Workload::Workload(const WorkloadDef& def, std::uint64_t seed,
                   std::uint32_t reps)
    : def_(&def), seed_(seed), reps_override_(reps) {
  const KeyValueConfig cfg = key_config(reps);
  if (cfg.has("tenants")) {
    tenants_ = tenant::parse_multi_tenant(cfg, mdwf_run_defaults());
    tenants_->threads = 1;
  } else {
    ensemble_ = workflow::parse_ensemble_config(cfg, mdwf_run_defaults());
    ensemble_->threads = 1;
  }
}

KeyValueConfig Workload::key_config(std::uint32_t reps) const {
  KeyValueConfig cfg;
  std::string_view rest = def_->keys;
  while (!rest.empty()) {
    const std::size_t end = rest.find(' ');
    const std::string_view token = rest.substr(0, end);
    const std::size_t eq = token.find('=');
    cfg.set(std::string(token.substr(0, eq)),
            std::string(token.substr(eq + 1)));
    rest = end == std::string_view::npos ? "" : rest.substr(end + 1);
  }
  cfg.set("seed", std::to_string(seed_));
  if (reps > 0) cfg.set("reps", std::to_string(reps));
  return cfg;
}

std::uint32_t Workload::reps() const {
  return cotenant() ? tenants_->repetitions : ensemble_->repetitions;
}

std::uint64_t Workload::frames_per_rep() const {
  if (cotenant()) {
    std::uint64_t frames = 0;
    for (const tenant::TenantSpec& t : tenants_->tenants) {
      if (t.kind == tenant::TenantKind::kWorkflow) {
        frames += static_cast<std::uint64_t>(t.pairs) * t.workload.frames;
      }
    }
    return frames;
  }
  const workflow::EnsembleConfig& c = *ensemble_;
  if (c.dag != nullptr) {
    return workflow::plan_dag(*c.dag, c.dag_chunk, c.nodes).total_edge_frames;
  }
  return static_cast<std::uint64_t>(c.pairs) * c.workload.frames;
}

RunResult Workload::run() const {
  const std::uint64_t frames = frames_per_rep() * reps();
  if (cotenant()) return finish(tenant::run_multi_tenant(*tenants_), frames);
  std::vector<sweep::SweepPoint> grid{{std::string(def_->name), *ensemble_}};
  return finish(sweep::run_sweep(std::move(grid), 1), frames);
}

RunResult Workload::run_reps(std::uint32_t reps, RepHooks* hooks) const {
  RepHooks none;
  RepHooks& h = hooks != nullptr ? *hooks : none;
  const std::uint64_t frames = frames_per_rep() * reps;
  double folding = 0.0;
  auto fold_timed = [&folding](auto&& fold) {
    const auto t0 = Clock::now();
    fold();
    folding += seconds_since(t0);
  };
  const AllocCount a0 = alloc_count();
  const auto t0 = Clock::now();
  if (h.sampler != nullptr) h.sampler->start();

  std::optional<tenant::MultiTenantResult> cotenant_result;
  std::optional<sweep::SweepResult> sweep_result;
  if (cotenant()) {
    // The fold of tenant::run_multi_tenant, repetition by repetition.
    const tenant::MultiTenantConfig& mc = *tenants_;
    tenant::MultiTenantResult& r = cotenant_result.emplace();
    for (const tenant::TenantSpec& spec : mc.tenants) {
      tenant::TenantResult tr;
      tr.spec = spec;
      tr.result = workflow::make_ensemble_result();
      tenant::register_tenant_counters(tr.result.counters);
      r.tenants.push_back(std::move(tr));
    }
    workflow::register_ensemble_counters(r.shared);
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      tenant::TenantRepOutcome o = tenant::run_tenant_repetition(
          mc, rep, rep == 0 ? h.rep0_trace : nullptr);
      fold_timed([&] {
        for (std::size_t i = 0; i < r.tenants.size(); ++i) {
          workflow::fold_repetition(r.tenants[i].result,
                                    std::move(o.tenants[i]));
        }
        r.shared.merge(o.shared);
      });
    }
  } else {
    // The fold of sweep::run_sweep for one grid point.
    const workflow::EnsembleConfig& c = *ensemble_;
    workflow::EnsembleResult folded = workflow::make_ensemble_result();
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      workflow::RepOutcome o =
          workflow::run_repetition(c, rep, rep == 0 ? h.rep0_trace : nullptr);
      fold_timed([&] { workflow::fold_repetition(folded, std::move(o)); });
    }
    sweep::PointResult& p = sweep_result.emplace().points.emplace_back();
    p.label = std::string(def_->name);
    p.config = c;
    p.sim_events = folded.counters.get("sim_events");
    p.result = std::move(folded);
  }

  if (h.sampler != nullptr) h.sampler->stop();
  h.run_s = seconds_since(t0);
  h.fold_s = folding;
  const AllocCount a1 = alloc_count();
  h.allocs = {a1.calls - a0.calls, a1.bytes - a0.bytes};
  return cotenant_result ? finish(std::move(*cotenant_result), frames)
                         : finish(std::move(*sweep_result), frames);
}

// The timed functions below return before their locals are destroyed:
// freeing an outcome or a testbed is not part of what they time.
double Workload::time_rep0(obs::TraceSink* trace) const {
  const auto t0 = Clock::now();
  if (cotenant()) {
    const tenant::TenantRepOutcome o =
        tenant::run_tenant_repetition(*tenants_, 0, trace);
    return seconds_since(t0);
  }
  const workflow::RepOutcome o = workflow::run_repetition(*ensemble_, 0, trace);
  return seconds_since(t0);
}

RunResult Workload::run_serial() const {
  if (cotenant()) throw std::logic_error("run_serial needs a classic workload");
  sweep::SweepResult s;
  sweep::PointResult& p = s.points.emplace_back();
  p.label = std::string(def_->name);
  p.config = *ensemble_;
  p.result = workflow::run_ensemble(*ensemble_);
  p.sim_events = p.result.counters.get("sim_events");
  return finish(std::move(s), frames_per_rep() * reps());
}

double Workload::time_setup() const {
  const auto t0 = Clock::now();
  const KeyValueConfig cfg = key_config(reps_override_);
  if (cotenant()) {
    const tenant::MultiTenantConfig mc =
        tenant::parse_multi_tenant(cfg, mdwf_run_defaults());
    workflow::TestbedParams tp = mc.testbed;
    tp.compute_nodes = tenant::total_nodes(mc);
    tp.integrity.seed = mc.base_seed;
    // As run_tenant_repetition arms it for quotas.
    if (mc.quota && mc.tenants.size() > 1) {
      tp.dyad.health.enabled = true;
      tp.stream.health.enabled = true;
    }
    const workflow::Testbed tb(tp);
    return seconds_since(t0);
  }
  const workflow::EnsembleConfig c =
      workflow::parse_ensemble_config(cfg, mdwf_run_defaults());
  workflow::TestbedParams tp = c.testbed;
  tp.compute_nodes = c.nodes;
  tp.integrity.seed = c.base_seed;
  if (c.dag != nullptr) {
    // The DAG executor wires its ranks internally; the plan and the testbed
    // are the public part of its set-up.
    [[maybe_unused]] const workflow::DagPlan plan =
        workflow::plan_dag(*c.dag, c.dag_chunk, c.nodes);
    const workflow::Testbed tb(tp);
    return seconds_since(t0);
  }
  // Declared before the testbed, as in run_repetition.
  workflow::RankSetAssets assets;
  Samples fetches;
  workflow::Testbed tb(tp);
  workflow::RankSetSpec spec;
  spec.solution = c.solution;
  spec.pairs = c.pairs;
  spec.nodes = c.nodes;
  spec.placement = c.placement;
  spec.workload = c.workload;
  spec.checkpoint = c.checkpoint;
  workflow::build_rank_set(tb, spec, Rng(c.base_seed), nullptr, &fetches,
                           assets);
  return seconds_since(t0);
}

}  // namespace mdwf::bench
