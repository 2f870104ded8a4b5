#include "runtime/runner.h"

#include <string_view>

#include "ckpt/ckpt.h"
#include "common/error.h"
#include "common/log.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "serve/world.h"

namespace ilps::runtime {

std::string RunResult::output() const {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

bool RunResult::contains(const std::string& needle) const {
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

double RunResult::time_of(const std::string& needle) const {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find(needle) != std::string::npos) {
      return i < line_times.size() ? line_times[i] : -1.0;
    }
  }
  return -1.0;
}

namespace {

// Publishes every layer's stat structs into the process-wide metrics
// registry under "<kMetricPrefix><field>" (set, not add: the registry
// reflects the most recent run; only histograms accumulate).
void publish_metrics(const RunResult& r) {
  obs::Metrics& m = obs::metrics();
  auto publish = [&m](const auto& stats) {
    const std::string prefix(stats.kMetricPrefix);
    stats.for_each([&](std::string_view name, uint64_t v) {
      m.counter(prefix + std::string(name)).set(v);
    });
  };
  publish(r.server_stats);
  publish(r.cache_stats);
  publish(r.pipeline_stats);
  publish(r.engine_stats);
  publish(r.worker_stats);
  publish(r.tcl_stats);
  publish(r.traffic);
  m.counter("engine.stuck_rules").set(r.stuck.size());
  m.counter("tcl.units_cached").set(r.tcl_units_cached);
  m.counter("run.attempts").set(static_cast<uint64_t>(r.ft.attempts));
  m.counter("run.dead_ranks").set(r.ft.dead_ranks.size());
  m.counter("run.unfired_rules").set(r.unfired_rules);
  m.gauge("run.elapsed_seconds").set(r.elapsed_seconds);
}

// End-of-run aggregation: fill the registry and, when ILPS_TRACE asked
// for files, write trace.json / metrics.json into obs::output_dir().
void finish_observability(const Config& cfg, const RunResult& result) {
  if (obs::metrics_enabled()) publish_metrics(result);
  if (obs::export_requested() && !result.trace.empty()) {
    obs::write_reports(result.trace, role_names(cfg), obs::metrics(), obs::output_dir());
  }
}

// The quiescence check's teeth: a deadlocked program fails with a typed,
// readable report instead of returning a silently useless result.
void throw_if_stuck(const Config& cfg, const RunResult& result) {
  if (cfg.deadlock_error && result.unfired_rules > 0) {
    throw DeadlockError(turbine::stuck_message("program", result.unfired_rules, result.stuck));
  }
}

}  // namespace

std::vector<std::string> role_names(const Config& cfg) {
  std::vector<std::string> roles;
  roles.reserve(static_cast<size_t>(cfg.total_ranks()));
  for (int i = 0; i < cfg.engines; ++i) roles.emplace_back("engine");
  for (int i = 0; i < cfg.workers; ++i) roles.emplace_back("worker");
  for (int i = 0; i < cfg.servers; ++i) roles.emplace_back("server");
  return roles;
}

RunResult run_program(const Config& cfg, const std::string& program) {
  RunResult result = serve::Service::run_batch(cfg, program);
  finish_observability(cfg, result);
  throw_if_stuck(cfg, result);
  return result;
}

RunResult run_with_faults(const Config& cfg, const std::string& program) {
  if (cfg.ckpt_interval > 0 && cfg.servers != 1) {
    throw Error("runtime: checkpointing requires exactly one server rank");
  }
  if (cfg.ckpt_interval > 0 && cfg.ckpt_dir.empty()) {
    throw Error("runtime: ckpt_interval is set but ckpt_dir is empty");
  }
  mpi::FaultPlan remaining = cfg.fault_plan;
  std::vector<int> all_dead;
  std::vector<obs::Event> prior_trace;  // events of failed attempts
  int attempts = 0;
  serve::WorldPlan plan;
  plan.program = &program;
  plan.ft = true;
  serve::check_roles(cfg);
  while (true) {
    ++attempts;
    mpi::World world(serve::world_size(cfg, plan));
    world.set_fault_plan(remaining);
    std::optional<ckpt::Snapshot> snap;
    if (!cfg.ckpt_dir.empty()) snap = ckpt::load_latest(cfg.ckpt_dir);
    plan.restore = snap ? &*snap : nullptr;
    try {
      RunResult result = serve::run_world(world, cfg, plan);
      for (int r : world.dead_ranks()) all_dead.push_back(r);
      result.ft.attempts = attempts;
      result.ft.dead_ranks = std::move(all_dead);
      if (!prior_trace.empty()) {
        // Attempts run sequentially on one wtime() epoch, so prepending
        // keeps the merged trace time-ordered.
        prior_trace.insert(prior_trace.end(), result.trace.begin(), result.trace.end());
        result.trace = std::move(prior_trace);
      }
      finish_observability(cfg, result);
      throw_if_stuck(cfg, result);
      return result;
    } catch (const RestartError& e) {
      for (int r : world.dead_ranks()) all_dead.push_back(r);
      // run_world rethrows after World::run joined every rank thread, so
      // the failed attempt's buffers are safe to harvest.
      if (const obs::Session* session = world.obs_session()) {
        std::vector<obs::Event> events = session->merged();
        prior_trace.insert(prior_trace.end(), events.begin(), events.end());
      }
      if (attempts > cfg.max_restarts) throw;
      // The next attempt re-enters the rank loops, which re-resolve (or
      // cache) the same registered histograms. Reset their samples in
      // place — without this, the aborted attempt's task timings pollute
      // the final attempt's task.seconds / ckpt histograms. Counters are
      // published by set() at end of run, so only histograms accumulate.
      if (obs::metrics_enabled()) obs::metrics().reset_histograms();
      // Consumed fault actions must not re-fire on the next attempt.
      const std::vector<bool> fired = world.fault_fired();
      mpi::FaultPlan next;
      for (size_t i = 0; i < remaining.actions.size(); ++i) {
        if (i >= fired.size() || !fired[i]) next.actions.push_back(remaining.actions[i]);
      }
      remaining = std::move(next);
      log::info("runtime: restarting after failure (attempt ", attempts + 1, "): ", e.what());
    }
  }
}

}  // namespace ilps::runtime
