#include "serve/world.h"

#include <cstdio>
#include <optional>

#include "adlb/server.h"
#include "common/error.h"
#include "common/sync.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "turbine/context.h"

namespace ilps::serve {

void check_roles(const runtime::Config& cfg) {
  if (cfg.engines < 1) throw Error("runtime: at least one engine rank is required");
  if (cfg.workers < 1) throw Error("runtime: at least one worker rank is required");
  if (cfg.servers < 1) throw Error("runtime: at least one server rank is required");
}

int world_size(const runtime::Config& cfg, const WorldPlan& plan) {
  return cfg.total_ranks() + (plan.ingress ? 1 : 0);
}

runtime::RunResult run_world(mpi::World& world, const runtime::Config& cfg,
                             const WorldPlan& plan) {
  check_roles(cfg);
  if (world.size() != world_size(cfg, plan)) {
    throw Error("runtime: world has " + std::to_string(world.size()) + " ranks, the plan needs " +
                std::to_string(world_size(cfg, plan)));
  }
  // The swift:main convention (see runner.h): load everywhere, run once.
  const bool has_main =
      plan.program != nullptr && plan.program->find("proc swift:main") != std::string::npos;
  const int ingress_rank = plan.ingress ? cfg.engines + cfg.workers : -1;
  adlb::Config acfg = cfg.adlb();
  acfg.ft = plan.ft;

  runtime::RunResult result;
  ilps::Mutex mu;  // guards result + lines across rank threads
  LineSplitter lines;
  Timer timer;

  turbine::ContextConfig ccfg;
  ccfg.policy = cfg.policy;
  ccfg.restricted_os = cfg.restricted_os;
  ccfg.setup_interp = cfg.setup_interp;
  ccfg.setup_bindings = cfg.setup_bindings;
  ccfg.serve_complete = plan.complete;
  ccfg.output = plan.output;
  if (!ccfg.output) {
    ccfg.output = [&](int64_t, int, const std::string& text) {
      ilps::LockGuard lock(mu);
      if (cfg.echo_output) std::fwrite(text.data(), 1, text.size(), stdout);
      lines.feed(text, timer.elapsed(), result);
    };
  }

  auto body = [&](mpi::Comm& comm) {
    if (adlb::is_server(comm.rank(), comm.size(), acfg)) {
      adlb::Server server(comm, acfg, plan.restore);
      server.serve();
      ilps::LockGuard lock(mu);
      result.server_stats += server.stats();
      return;
    }
    adlb::Client client(comm, acfg);
    if (comm.rank() == ingress_rank) {
      plan.ingress(client);
      ilps::LockGuard lock(mu);
      result.cache_stats += client.cache_stats();
      result.pipeline_stats += client.pipeline_stats();
      return;
    }
    std::optional<turbine::Engine> engine;
    if (comm.rank() < cfg.engines) engine.emplace(client);
    turbine::Context ctx(client, engine ? &*engine : nullptr, ccfg);
    if (has_main) ctx.interp().eval(*plan.program);
    size_t unfired = 0;
    std::vector<turbine::StuckRule> stuck;
    if (engine) {
      std::string to_run;
      if (comm.rank() == 0 && plan.program != nullptr) {
        to_run = has_main ? "swift:main" : *plan.program;
      }
      unfired = ctx.run_engine(to_run);
      if (unfired > 0) {
        stuck = engine->stuck_report();
        for (const auto& rule : stuck) {
          obs::instant(obs::EventKind::kRuleStuck, rule.id,
                       static_cast<int64_t>(rule.waiting.size()));
        }
      }
    } else {
      ctx.run_worker();
    }
    ilps::LockGuard lock(mu);
    result.unfired_rules += unfired;
    for (auto& rule : stuck) result.stuck.push_back(std::move(rule));
    if (engine) result.engine_stats += engine->stats();
    result.worker_stats += ctx.stats();
    result.cache_stats += client.cache_stats();
    result.pipeline_stats += client.pipeline_stats();
    result.tcl_stats += ctx.interp().compile_stats();
    result.tcl_units_cached += ctx.units_cached();
  };
  try {
    world.run(body);
  } catch (const CommError& e) {
    // Servers signal unrecoverable conditions by aborting the world with
    // a marker; classify the resulting CommError into the typed errors
    // the recovery driver keys off.
    const std::string msg = e.what();
    if (msg.find("ilps-ft-restart:") != std::string::npos) throw RestartError(msg);
    if (msg.find("ilps-task-failed:") != std::string::npos) throw TaskError(msg);
    throw;
  }
  result.elapsed_seconds = timer.elapsed();
  result.traffic = world.stats();
  // A resident world's events are captured per request (serve::Hub).
  const obs::Session* session = plan.ingress ? nullptr : world.obs_session();
  if (session != nullptr) result.trace = session->merged();
  lines.flush(result.elapsed_seconds, result);
  return result;
}

}  // namespace ilps::serve
