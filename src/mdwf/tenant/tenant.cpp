#include "mdwf/tenant/tenant.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/fs/interference.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/tenant/fallback.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/rank_loop.hpp"

namespace mdwf::tenant {

namespace {

using workflow::Placement;
using workflow::Solution;
using workflow::Testbed;
using workflow::TestbedParams;

// Per-tenant counters on top of the standard ensemble set; registration
// order = stable CSV column order.
constexpr const char* kTenantCounterNames[] = {
    "slo_escalations",     "slo_deescalations", "slo_staggered_frames",
    "slo_fallback_frames", "quota_kvs_sheds",   "quota_mds_sheds",
    "quota_ost_sheds",     "quota_admits",      "quota_releases",
    "noise_ops",           "noise_sheds"};

bool has_faults(const TenantSpec& spec) {
  return spec.kind == TenantKind::kWorkflow && !spec.faults.empty() &&
         spec.faults != "none";
}

// A tenant's fault plan, authored against its own node count [0, nodes).
// The seed mixes the tenant index so co-tenant plans draw independent
// windows; like the classic path the plan is identical across repetitions
// (per-rep variation comes from the workload and integrity seeds).
fault::FaultPlan tenant_fault_plan(const TenantSpec& spec, std::size_t index,
                                   std::uint64_t base_seed,
                                   std::uint32_t ost_count) {
  fault::ScenarioShape shape;
  shape.compute_nodes = spec.nodes;
  shape.ost_count = ost_count;
  shape.seed = base_seed + 101 * (static_cast<std::uint64_t>(index) + 1);
  fault::FaultPlan plan;
  try {
    plan = fault::make_scenario(spec.faults, shape);
  } catch (const std::invalid_argument& e) {
    throw ConfigError("tenant '" + spec.name + "': " + e.what());
  }
  // Isolation invariant: a tenant's plan may only strike its own nodes
  // (shared-service windows are allowed — they hit everyone by design).
  for (const auto& w : plan.windows) {
    if (fault::targets_node(w.target) && w.index >= spec.nodes) {
      throw ConfigError("tenant '" + spec.name + "': scenario '" +
                        spec.faults + "' targets node " +
                        std::to_string(w.index) + " outside the tenant's " +
                        std::to_string(spec.nodes) + " node(s)");
    }
  }
  return plan;
}

Duration tenant_frame_span(const TenantSpec& spec) {
  return spec.workload.frame_compute() + spec.workload.analytics_time();
}

}  // namespace

void register_tenant_counters(obs::CounterMap& counters) {
  for (const char* name : kTenantCounterNames) counters.add(name, 0);
}

std::uint32_t total_nodes(const MultiTenantConfig& config) {
  std::uint32_t total = 0;
  for (const auto& spec : config.tenants) total += spec.nodes;
  return total;
}

TenantRepOutcome run_tenant_repetition(const MultiTenantConfig& config,
                                       std::uint32_t rep,
                                       obs::TraceSink* trace) {
  MDWF_ASSERT_MSG(!config.tenants.empty(), "need at least one tenant");
  const std::size_t nt = config.tenants.size();
  const bool multi = nt > 1;

  // Disjoint node slices, in spec order.
  std::vector<std::uint32_t> base(nt, 0);
  std::uint32_t nodes_total = 0;
  for (std::size_t i = 0; i < nt; ++i) {
    MDWF_ASSERT_MSG(config.tenants[i].nodes >= 1,
                    "every tenant needs at least one node");
    base[i] = nodes_total;
    nodes_total += config.tenants[i].nodes;
  }

  TenantRepOutcome out;
  out.tenants.reserve(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    workflow::RepOutcome o;
    workflow::register_ensemble_counters(o.counters);
    register_tenant_counters(o.counters);
    out.tenants.push_back(std::move(o));
  }
  workflow::register_ensemble_counters(out.shared);

  TestbedParams tp = workflow::repetition_testbed(
      config.testbed, nodes_total, config.base_seed, rep, trace);

  // Merge the per-tenant fault plans (authored against tenant-local node
  // indices) onto the shared testbed's plan, shifted onto each slice.
  for (std::size_t i = 0; i < nt; ++i) {
    if (!has_faults(config.tenants[i])) continue;
    fault::FaultPlan plan = tenant_fault_plan(
        config.tenants[i], i, config.base_seed, tp.lustre.ost_count);
    fault::shift_node_targets(plan, base[i]);
    tp.faults.windows.insert(tp.faults.windows.end(), plan.windows.begin(),
                             plan.windows.end());
  }
  tp.faults.seed = config.base_seed;

  // Quotas ride the bounded-admission machinery, so arm it (the limits are
  // filled in by the testbed's with_default_limits wiring).
  const bool quota_on = config.quota && multi;
  if (quota_on) {
    tp.dyad.health.enabled = true;
    tp.stream.health.enabled = true;
  }

  // Declaration order is the unwind-order contract of the classic runner:
  // if a repetition throws, the testbed (and with it every coroutine frame)
  // must be destroyed before the assets, guards, and quota those frames
  // point into.
  std::unique_ptr<health::TenantQuota> quota;
  if (quota_on) {
    health::QuotaParams qp = config.quota_params;
    qp.enabled = true;
    quota = std::make_unique<health::TenantQuota>(qp);
    for (std::size_t i = 0; i < nt; ++i) {
      const std::uint32_t t =
          quota->add_tenant(config.tenants[i].name, config.tenants[i].weight);
      quota->map_nodes(base[i], config.tenants[i].nodes, t);
    }
  }
  std::vector<workflow::RankSetAssets> assets(nt);
  std::vector<std::unique_ptr<SloGuard>> guards(nt);
  std::vector<std::unique_ptr<RouteBook>> books(nt);
  std::vector<NoiseStats> noise_stats(nt);
  std::vector<TimePoint> ends(nt, TimePoint::origin());
  std::vector<workflow::RankSetSpec> specs(nt);

  Testbed tb(tp);
  auto& sim = tb.simulation();
  if (quota != nullptr) {
    tb.kvs().set_quota(quota.get());
    tb.lustre().set_quota(quota.get());
    if (auto* plane = tb.membership()) {
      // A declared-lost node shrinks its tenant's fair share: the dead
      // slice must not keep reserving admission slots the survivors could
      // use (isolation follows capacity, not the original placement).
      health::TenantQuota* q = quota.get();
      plane->add_declare_listener([q](std::uint32_t lost) {
        q->on_node_lost(net::NodeId{lost});
      });
    }
  }
  fault::FaultInjector* injector = tb.fault_injector();
  const Rng rep_rng(config.base_seed + rep);

  // Noise storms outlive the victims a little, never the whole run: twice
  // the longest tenant's serialized span plus slack.
  Duration longest = Duration::zero();
  for (std::size_t i = 0; i < nt; ++i) {
    const TenantSpec& spec = config.tenants[i];
    if (spec.kind != TenantKind::kWorkflow) continue;
    const Duration span = tenant_frame_span(spec) *
                          static_cast<std::int64_t>(spec.workload.frames);
    if (span > longest) longest = span;
  }
  const TimePoint noise_horizon = TimePoint::origin() + longest * 2 +
                                  Duration::seconds_i(10);

  for (std::size_t i = 0; i < nt; ++i) {
    const TenantSpec& spec = config.tenants[i];
    if (spec.kind == TenantKind::kNoise) {
      sim.spawn(run_kvs_noise(sim, tb.kvs(), net::NodeId{base[i]}, spec.noise,
                              rep_rng.fork(spec.name + "/noise"),
                              noise_horizon, noise_stats[i]));
      continue;
    }

    workflow::RankSetSpec& rs = specs[i];
    rs.solution = spec.solution;
    rs.pairs = spec.pairs;
    rs.node_base = base[i];
    rs.nodes = spec.nodes;
    rs.placement = spec.placement;
    rs.workload = spec.workload;
    rs.checkpoint = spec.checkpoint;
    // Only the tenants whose own slice crashes, is lost or is isolated run
    // crash-aware: a healthy neighbor's ranks never retry or restart.
    fault::CrashMonitor* crash = nullptr;
    if (injector != nullptr &&
        fault::has_crash_in_nodes(tp.faults, base[i], spec.nodes)) {
      crash = &injector->monitor();
    }
    if (multi) {
      // A solo tenant keeps all three empty and reproduces the classic
      // runner bit-for-bit (same paths, same seed stream, same lanes).
      rs.ns = spec.name + "/";
      rs.rng_scope = spec.name + "/";
      rs.trace_process = spec.name;
    }

    if (spec.slo) {
      SloParams sp = spec.slo_params;
      sp.enabled = true;
      // Solutions without a separate primary plane have nothing to fall
      // back from (and no credits to shrink): their ladder ends at stagger.
      if (spec.solution == Solution::kXfs ||
          spec.solution == Solution::kLustre) {
        if (sp.max_level > SloLevel::kStagger) {
          sp.max_level = SloLevel::kStagger;
        }
      }
      guards[i] = std::make_unique<SloGuard>(
          sim, sp, spec.workload.frame_compute(), spec.pairs);
      if (spec.solution == Solution::kStream) {
        guards[i]->set_credit_sink(
            [&tb, first = base[i], count = spec.nodes](double scale) {
              for (std::uint32_t n = first; n < first + count; ++n) {
                tb.node(n).stream->set_credit_scale(scale);
              }
            });
      }
      if (trace != nullptr) {
        guards[i]->set_trace(
            trace, trace->track(multi ? spec.name : std::string("slo"),
                                "slo_guard"));
      }
      rs.pacing = guards[i].get();
      if (sp.max_level >= SloLevel::kFallback) {
        books[i] = std::make_unique<RouteBook>(spec.pairs);
        books[i]->attach(sim);
        RouteBook* book = books[i].get();
        SloGuard* guard = guards[i].get();
        Testbed* tbp = &tb;
        integrity::Ledger* ledger = tb.integrity_ledger();
        const bool durable = injector != nullptr &&
                             fault::has_crash_in_nodes(injector->plan());
        rs.connectors = [book, guard, tbp, ledger, durable](
                            const workflow::ConnectorSpec& cs,
                            std::uint32_t pair, bool consumer)
            -> std::unique_ptr<workflow::Connector> {
          (void)consumer;
          auto fallback = std::make_unique<workflow::LustreConnector>(
              tbp->simulation(), tbp->lustre(), net::NodeId{cs.node},
              book->data_sync(pair), *cs.recorder, ledger, durable);
          return std::make_unique<FallbackConnector>(
              workflow::make_connector(cs), std::move(fallback), *book,
              *guard, pair);
        };
      }
    }

    workflow::build_rank_set(tb, rs, rep_rng, crash,
                             &out.tenants[i].cons_fetch_us, assets[i]);
    sim.spawn(workflow::run_all_and_mark(sim, std::move(assets[i].tasks),
                                         ends[i]));
  }

  if (config.lustre_interference) {
    config.interference.validate();
    // Horizon generously beyond the serialized makespan, as in the classic
    // runner's interference spawn.
    const TimePoint horizon =
        TimePoint::origin() + longest * 3 + Duration::seconds_i(30);
    sim.spawn(fs::run_ost_interference(sim, tb.lustre(), config.interference,
                                       rep_rng.fork("interference"),
                                       horizon));
  }

  const std::uint64_t events_fired = sim.run_to_quiescence();
  if (injector != nullptr) injector->finalize_trace();

  for (std::size_t i = 0; i < nt; ++i) {
    const TenantSpec& spec = config.tenants[i];
    workflow::RepOutcome& o = out.tenants[i];
    if (spec.kind == TenantKind::kWorkflow) {
      perf::Metadata extra;
      if (multi) extra["tenant"] = spec.name;
      workflow::collect_rank_set(tb, specs[i], assets[i], rep, extra, o);
      o.makespan_s = (ends[i] - TimePoint::origin()).to_seconds();
      if (guards[i] != nullptr) {
        o.counters.add("slo_escalations", guards[i]->escalations());
        o.counters.add("slo_deescalations", guards[i]->deescalations());
        o.counters.add("slo_staggered_frames", guards[i]->staggered_frames());
      }
      if (books[i] != nullptr) {
        o.counters.add("slo_fallback_frames", books[i]->fallback_frames());
      }
    } else {
      o.counters.add("noise_ops", noise_stats[i].ops);
      o.counters.add("noise_sheds", noise_stats[i].sheds);
    }
    if (quota != nullptr) {
      const auto t = static_cast<std::uint32_t>(i);
      using health::QuotaResource;
      o.counters.add("quota_kvs_sheds",
                     quota->sheds(QuotaResource::kKvs, t));
      o.counters.add("quota_mds_sheds",
                     quota->sheds(QuotaResource::kMds, t));
      o.counters.add("quota_ost_sheds",
                     quota->sheds(QuotaResource::kOst, t));
      o.counters.add("quota_admits", quota->admits_total(t));
      std::uint64_t releases = 0;
      for (std::size_t r = 0; r < health::kQuotaResources; ++r) {
        const auto res = static_cast<QuotaResource>(r);
        releases += quota->releases(res, t);
        // Conservation: at quiescence every admitted request has released
        // its slot — a leak here would starve the tenant forever after.
        MDWF_ASSERT_MSG(quota->in_flight(res, t) == 0,
                        "quota admission leaked in-flight slots");
      }
      o.counters.add("quota_releases", releases);
    }
  }

  {
    workflow::RepOutcome scratch;
    workflow::collect_shared(tb, events_fired, scratch);
    out.shared.merge(scratch.counters);
  }
  return out;
}

MultiTenantResult run_multi_tenant(const MultiTenantConfig& config) {
  MDWF_ASSERT_MSG(!config.tenants.empty(), "need at least one tenant");
  const std::size_t nt = config.tenants.size();

  // Validate every tenant's fault plan up front: a scenario targeting a
  // node beyond its tenant's slice must surface as a ConfigError, not as a
  // wrapped repetition failure N reps deep.
  for (std::size_t i = 0; i < nt; ++i) {
    if (!has_faults(config.tenants[i])) continue;
    (void)tenant_fault_plan(config.tenants[i], i, config.base_seed,
                            config.testbed.lustre.ost_count);
  }

  MultiTenantResult result;
  result.tenants.reserve(nt);
  for (const TenantSpec& spec : config.tenants) {
    TenantResult tr;
    tr.spec = spec;
    tr.result = workflow::make_ensemble_result();
    register_tenant_counters(tr.result.counters);
    result.tenants.push_back(std::move(tr));
  }
  workflow::register_ensemble_counters(result.shared);

  // Only repetition 0 is traced, as in run_ensemble: every rep is an
  // independent simulation starting at t=0.
  obs::TraceSink trace_sink;
  const bool tracing = !config.trace_path.empty();

  const std::uint32_t reps = config.repetitions;
  std::vector<TenantRepOutcome> slots(reps);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(reps);
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    tasks.push_back([&config, &slots, &trace_sink, tracing, rep] {
      slots[rep] = run_tenant_repetition(
          config, rep, (tracing && rep == 0) ? &trace_sink : nullptr);
    });
  }
  const auto failures = sweep::run_tasks(std::move(tasks), config.threads);

  // Rethrow the canonically-first failure, as the serial loop would.
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    if (failures[rep]) {
      throw std::runtime_error("repetition " + std::to_string(rep) + ": " +
                               *failures[rep]);
    }
  }
  // Fold in repetition order: byte-identical for every thread count.
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < nt; ++i) {
      workflow::fold_repetition(result.tenants[i].result,
                                std::move(slots[rep].tenants[i]));
    }
    result.shared.merge(slots[rep].shared);
  }
  if (tracing) {
    result.shared.set("trace_events", trace_sink.event_count());
    trace_sink.write(config.trace_path);
  }
  return result;
}

std::string MultiTenantResult::to_csv() const {
  MDWF_ASSERT(!tenants.empty());
  std::string out =
      "tenant,solution,pairs,nodes,weight,prod_movement_us,prod_idle_us,"
      "cons_movement_us,cons_idle_us,makespan_s,fetch_p99_us";
  for (const auto& [name, value] : tenants.front().result.counters) {
    (void)value;
    out += ",";
    out += name;
  }
  out += "\n";
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    out += buf;
  };
  for (const TenantResult& t : tenants) {
    const bool noise = t.spec.kind == TenantKind::kNoise;
    out += t.spec.name;
    out += ",";
    out += noise ? "noise" : std::string(workflow::to_string(t.spec.solution));
    out += "," + std::to_string(noise ? 0 : t.spec.pairs);
    out += "," + std::to_string(t.spec.nodes);
    out += ",";
    num(t.spec.weight);
    out += ",";
    num(t.result.prod_movement_us.mean());
    out += ",";
    num(t.result.prod_idle_us.mean());
    out += ",";
    num(t.result.cons_movement_us.mean());
    out += ",";
    num(t.result.cons_idle_us.mean());
    out += ",";
    num(t.result.makespan_s.mean());
    out += ",";
    num(t.result.cons_fetch_us.quantile(0.99));
    for (const auto& [name, value] : t.result.counters) {
      (void)name;
      out += "," + std::to_string(value);
    }
    out += "\n";
  }
  // Shared-service totals, counted once (not attributable to one tenant).
  out += "_shared,-,0,0";
  for (int i = 0; i < 7; ++i) {
    out += ",";
    num(0.0);
  }
  for (const auto& [name, value] : tenants.front().result.counters) {
    (void)value;
    out += "," + std::to_string(shared.get(name));
  }
  out += "\n";
  return out;
}

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      fields.push_back(s.substr(start));
      return fields;
    }
    fields.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

ConfigError bad_descriptor(const std::string& desc, const std::string& why) {
  return ConfigError("bad tenant descriptor '" + desc + "': " + why);
}

Solution parse_solution_token(const std::string& tok,
                              const std::string& desc) {
  try {
    return workflow::parse_solution(tok);
  } catch (const ConfigError& e) {
    throw bad_descriptor(desc, e.what());
  }
}

// A count field bound to a uint32: `what` names it in the diagnostic, and
// values below `min` or above 4294967295 are rejected rather than wrapped.
std::uint32_t parse_u32_token(const std::string& tok, const std::string& desc,
                              const char* what, std::uint64_t min) {
  std::uint64_t v = 0;
  try {
    std::size_t used = 0;
    v = std::stoull(tok, &used);
    if (used != tok.size()) throw std::invalid_argument(tok);
  } catch (const std::exception&) {
    throw bad_descriptor(desc, "'" + tok + "' is not a number");
  }
  if (v < min) {
    throw bad_descriptor(desc, std::string(what) + " must be >= " +
                                   std::to_string(min) + ", got " +
                                   std::to_string(v));
  }
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw bad_descriptor(desc, std::string(what) +
                                   " must be at most 4294967295, got " +
                                   std::to_string(v));
  }
  return static_cast<std::uint32_t>(v);
}

// A fair-share weight: finite and > 0.
double parse_weight_token(const std::string& tok, const std::string& desc) {
  double v = 0.0;
  try {
    std::size_t used = 0;
    v = std::stod(tok, &used);
    if (used != tok.size()) throw std::invalid_argument(tok);
  } catch (const std::exception&) {
    throw bad_descriptor(desc, "'" + tok + "' is not a number");
  }
  if (!std::isfinite(v)) {
    throw bad_descriptor(desc, "weight '" + tok + "' is not a finite number");
  }
  if (v <= 0.0) throw bad_descriptor(desc, "weight must be > 0");
  return v;
}

}  // namespace

MultiTenantConfig parse_multi_tenant(const KeyValueConfig& cfg,
                                     const workflow::EnsembleConfig& defaults) {
  // Read the co-tenant keys before the base parse so its leftover-key check
  // does not trip over them.
  const std::string tenants_text = cfg.get_string("tenants", "");
  const bool slo = cfg.get_bool("slo", false);
  const double slo_target =
      cfg.get_double("slo_target_us", SloParams{}.fetch_p99_target_us);
  if (slo_target <= 0.0) {
    throw ConfigError("slo_target_us must be > 0, got " +
                      cfg.get_string("slo_target_us", ""));
  }
  const bool quota = cfg.get_bool("quota", true);

  // Classic experiment keys (model, frames, reps, seed, threads, health,
  // hedge, push, ...) become the per-tenant defaults and the shared testbed.
  const workflow::EnsembleConfig base =
      workflow::parse_ensemble_config(cfg, defaults);
  if (!base.testbed.faults.empty()) {
    throw ConfigError(
        "faults= is global; in co-tenant runs give each tenant its own "
        "scenario inside tenants= (e.g. dyad/4/2/crash:0)");
  }
  if (tenants_text.empty()) {
    throw ConfigError("tenants= needs at least one descriptor");
  }

  MultiTenantConfig mc;
  mc.repetitions = base.repetitions;
  mc.base_seed = base.base_seed;
  mc.threads = base.threads;
  mc.quota = quota;
  mc.lustre_interference = base.lustre_interference;
  mc.interference = base.interference;
  mc.testbed = base.testbed;
  mc.trace_path = base.trace_path;

  SloParams sp;
  sp.enabled = slo;
  sp.fetch_p99_target_us = slo_target;

  std::size_t index = 0;
  for (const std::string& desc : split(tenants_text, ',')) {
    if (desc.empty()) {
      throw ConfigError("tenants= contains an empty descriptor");
    }
    TenantSpec t;
    t.workload = base.workload;
    t.checkpoint = base.checkpoint;
    t.placement = base.placement;
    std::string body = desc;
    if (const std::size_t at = body.find('@'); at != std::string::npos) {
      t.name = body.substr(0, at);
      body = body.substr(at + 1);
      if (t.name.empty()) {
        throw bad_descriptor(desc, "empty name before '@'");
      }
    }
    const std::vector<std::string> fields = split(body, '/');
    if (fields.front().empty()) {
      throw bad_descriptor(desc, "missing solution");
    }
    if (fields.front() == "noise") {
      t.kind = TenantKind::kNoise;
      t.nodes = 1;
      if (fields.size() > 3) {
        throw bad_descriptor(desc,
                             "noise takes at most [intensity[/weight]]");
      }
      if (fields.size() >= 2) {
        t.noise.intensity = parse_u32_token(fields[1], desc, "intensity", 0);
      }
      if (fields.size() >= 3) t.weight = parse_weight_token(fields[2], desc);
    } else {
      t.solution = parse_solution_token(fields.front(), desc);
      t.pairs = base.pairs;
      t.nodes = t.solution == Solution::kXfs ? 1 : base.nodes;
      if (fields.size() > 5) {
        throw bad_descriptor(
            desc, "expected solution[/pairs[/nodes[/faults[/weight]]]]");
      }
      if (fields.size() >= 2) {
        t.pairs = parse_u32_token(fields[1], desc, "pairs", 1);
      }
      if (fields.size() >= 3) {
        t.nodes = parse_u32_token(fields[2], desc, "nodes", 1);
      }
      if (fields.size() >= 4 && !fields[3].empty()) t.faults = fields[3];
      if (fields.size() >= 5) t.weight = parse_weight_token(fields[4], desc);
      // XFS cannot move data between nodes: colocated by construction.
      if (t.solution == Solution::kXfs) t.placement = Placement::kColocated;
      // The classic binding's placement rule (a single node is colocated).
      if (t.placement == Placement::kSplit && t.nodes % 2 != 0 &&
          t.nodes != 1) {
        throw bad_descriptor(
            desc, "nodes=" + std::to_string(t.nodes) +
                      ": a split placement needs an even node count; use "
                      "colocate=1 to place each pair on one node");
      }
      t.slo = slo;
      t.slo_params = sp;
    }
    if (t.name.empty()) t.name = "t" + std::to_string(index);
    mc.tenants.push_back(std::move(t));
    ++index;
  }
  for (std::size_t i = 0; i < mc.tenants.size(); ++i) {
    for (std::size_t j = i + 1; j < mc.tenants.size(); ++j) {
      if (mc.tenants[i].name == mc.tenants[j].name) {
        throw ConfigError("duplicate tenant name '" + mc.tenants[i].name +
                          "'");
      }
    }
  }

  // The classic fault defaults, driven by the *per-tenant* scenarios.
  bool any_faults = false;
  std::vector<fault::FaultWindow> windows;
  for (std::size_t i = 0; i < mc.tenants.size(); ++i) {
    const TenantSpec& t = mc.tenants[i];
    if (!has_faults(t)) continue;
    any_faults = true;
    const fault::FaultPlan plan = tenant_fault_plan(
        t, i, mc.base_seed, mc.testbed.lustre.ost_count);
    windows.insert(windows.end(), plan.windows.begin(), plan.windows.end());
  }
  const workflow::FaultDefaults implied =
      workflow::fault_defaults(any_faults, windows);
  mc.testbed.dyad.retry.enabled =
      cfg.get_bool("retry", implied.retry || mc.testbed.dyad.retry.enabled);
  mc.testbed.integrity.enabled = cfg.get_bool(
      "integrity", implied.integrity || mc.testbed.integrity.enabled);
  return mc;
}

}  // namespace mdwf::tenant
