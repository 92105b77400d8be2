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

// One repetition's landing slot: exactly one of `out`/`err` is set after the
// task ran.
struct RepSlot {
  std::optional<workflow::RepOutcome> out;
  std::exception_ptr err;
};

std::function<void()> make_rep_task(const workflow::EnsembleConfig& config,
                                    std::uint32_t rep, obs::TraceSink* trace,
                                    RepSlot& slot) {
  return [&config, rep, trace, &slot] {
    try {
      slot.out = workflow::run_repetition(config, rep, trace);
    } catch (...) {
      slot.err = std::current_exception();
    }
  };
}

std::string error_message(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

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

void run_tasks(std::vector<std::function<void()>> tasks,
               std::uint32_t threads) {
  const std::size_t workers =
      std::min<std::size_t>(resolve_threads(threads), tasks.size());
  if (workers <= 1) {
    for (auto& t : tasks) t();
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> pool;  // joins every worker on scope exit
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&tasks, &next] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
    });
  }
}

SweepResult run_sweep(std::vector<SweepPoint> grid, std::uint32_t threads) {
  const auto start = std::chrono::steady_clock::now();

  // Per-point repetition slots plus a per-point trace sink (rep 0 of each
  // point may trace; distinct points never share a sink, so point-level
  // parallelism stays race-free).
  std::vector<std::vector<RepSlot>> slots(grid.size());
  std::deque<obs::TraceSink> sinks(grid.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const workflow::EnsembleConfig& config = grid[p].config;
    slots[p].resize(config.repetitions);
    const bool tracing = !config.trace_path.empty();
    for (std::uint32_t rep = 0; rep < config.repetitions; ++rep) {
      tasks.push_back(make_rep_task(
          config, rep, (tracing && rep == 0) ? &sinks[p] : nullptr,
          slots[p][rep]));
    }
  }
  run_tasks(std::move(tasks), threads);

  SweepResult sweep;
  sweep.points.reserve(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    PointResult point;
    point.label = std::move(grid[p].label);
    point.config = std::move(grid[p].config);
    workflow::EnsembleResult folded = workflow::make_ensemble_result();
    for (RepSlot& slot : slots[p]) {
      if (slot.err) {
        // Canonical first failure; later repetitions of a poisoned point
        // are dropped (the serial loop would not have run them).
        point.error_text = error_message(slot.err);
        break;
      }
      fold_repetition(folded, std::move(*slot.out));
    }
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
