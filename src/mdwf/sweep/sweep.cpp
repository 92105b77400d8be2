#include "mdwf/sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mdwf::sweep {
namespace {

// CSV field hygiene: the summary is one record per line, comma-separated.
std::string csv_safe(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

unsigned resolve_threads(std::uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<std::optional<std::string>> run_tasks(
    std::vector<std::function<void()>> tasks, std::uint32_t threads) {
  std::vector<std::optional<std::string>> failures(tasks.size());
  const auto run = [&tasks, &failures](std::size_t i) {
    try {
      tasks[i]();
    } catch (const std::exception& e) {
      failures[i] = e.what();
    } catch (...) {
      failures[i] = "unknown error";
    }
  };
  const std::size_t workers =
      std::min<std::size_t>(resolve_threads(threads), tasks.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) run(i);
    return failures;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&tasks, &next, &run] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) run(i);
    });
  }
  pool.clear();  // joins every worker before `failures` is handed back
  return failures;
}

SweepResult run_sweep(std::vector<SweepPoint> grid, std::uint32_t threads) {
  const auto start = std::chrono::steady_clock::now();

  // One landing slot per (point, repetition) task, in task order, plus a
  // per-point trace sink (rep 0 of each point may trace; distinct points
  // never share a sink, so point-level parallelism stays race-free).
  std::deque<std::optional<workflow::RepOutcome>> outs;
  std::deque<obs::TraceSink> sinks(grid.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const workflow::EnsembleConfig& config = grid[p].config;
    for (std::uint32_t rep = 0; rep < config.repetitions; ++rep) {
      obs::TraceSink* trace =
          (rep == 0 && !config.trace_path.empty()) ? &sinks[p] : nullptr;
      tasks.push_back([&config, rep, trace, &out = outs.emplace_back()] {
        out = workflow::run_repetition(config, rep, trace);
      });
    }
  }
  const auto failures = run_tasks(std::move(tasks), threads);

  SweepResult sweep;
  sweep.points.reserve(grid.size());
  std::size_t first_task = 0;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    PointResult point;
    point.label = std::move(grid[p].label);
    point.config = std::move(grid[p].config);
    workflow::EnsembleResult folded = workflow::make_ensemble_result();
    const std::size_t end_task = first_task + point.config.repetitions;
    for (std::size_t t = first_task; t < end_task; ++t) {
      if (failures[t]) {
        // Canonical first failure; later repetitions of a poisoned point
        // are dropped (the serial loop would not have run them).
        point.error_text = *failures[t];
        break;
      }
      fold_repetition(folded, std::move(*outs[t]));
    }
    first_task = end_task;
    if (!point.failed()) {
      if (!point.config.trace_path.empty()) {
        folded.counters.set("trace_events", sinks[p].event_count());
        sinks[p].write(point.config.trace_path);
      }
      point.sim_events = folded.counters.get("sim_events");
      point.result = std::move(folded);
    }
    sweep.errors += point.failed() ? 1 : 0;
    sweep.total_sim_events += point.sim_events;
    sweep.points.push_back(std::move(point));
  }
  sweep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sweep;
}

workflow::EnsembleResult run_ensemble(const workflow::EnsembleConfig& config) {
  SweepResult sweep = run_sweep({{"", config}}, config.threads);
  PointResult& point = sweep.points.front();
  if (point.failed()) throw std::runtime_error(point.error_text);
  return std::move(point.result);
}

std::string SweepResult::to_csv() const {
  std::string csv =
      "label,solution,model,pairs,nodes,frames,reps,"
      "prod_movement_us,prod_idle_us,cons_movement_us,cons_idle_us,"
      "fetch_p99_us,makespan_s,sim_events,error\n";
  for (const PointResult& point : points) {
    const workflow::EnsembleConfig& c = point.config;
    csv += csv_safe(point.label);
    csv += ',';
    csv += to_string(c.solution);
    csv += ',';
    csv += csv_safe(std::string(c.workload.model.name));
    csv += ',' + std::to_string(c.pairs);
    csv += ',' + std::to_string(c.nodes);
    csv += ',' + std::to_string(c.workload.frames);
    csv += ',' + std::to_string(c.repetitions);
    const workflow::EnsembleResult& r = point.result;
    csv += ',' + fmt(point.failed() ? 0.0 : r.prod_movement_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.prod_idle_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.cons_movement_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.cons_idle_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.cons_fetch_us.quantile(0.99));
    csv += ',' + fmt(point.failed() ? 0.0 : r.makespan_s.mean());
    csv += ',' + std::to_string(point.sim_events);
    csv += ',' + csv_safe(point.error_text);
    csv += '\n';
  }
  return csv;
}

}  // namespace mdwf::sweep
