// The ILPS runtime: assembles a World with the Fig. 2 role layout
// (engines, ADLB servers, workers), runs a Turbine program, and collects
// output and statistics. At run time an ILPS program is a message-passing
// program, exactly as a Swift/T program is an MPI program.
//
// The rank bodies themselves live in one driver, serve::run_world
// (src/serve/world.h), shared with the resident service: run_program and
// run_with_faults differ from it only in the plan they pass (fault-tolerant
// protocol and checkpoint restore for the latter).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "adlb/client.h"
#include "adlb/server.h"
#include "mpi/comm.h"
#include "obs/trace.h"
#include "turbine/context.h"

namespace ilps::runtime {

struct Config {
  int engines = 1;
  int workers = 2;
  int servers = 1;
  turbine::InterpPolicy policy = turbine::InterpPolicy::kRetain;
  bool restricted_os = false;
  // Hook run on every rank's interpreter before execution (register
  // packages, static-package loaders, extra commands, ...).
  std::function<void(tcl::Interp&)> setup_interp;
  // Like setup_interp but also receives the rank's blob registry (for
  // BindGen bindings whose pointer arguments are blob handles).
  std::function<void(tcl::Interp&, blob::Registry&)> setup_bindings;
  // If set, output lines stream here as well as into the result.
  bool echo_output = false;

  // Throw DeadlockError (with the engines' stuck-future report) when the
  // program terminates with rules still pending. Off lets callers inspect
  // RunResult::unfired_rules / RunResult::stuck themselves.
  bool deadlock_error = true;

  // ADLB policy knobs (see adlb::Config; ablated in bench_ablation).
  bool steal_half = true;
  bool priority_notifications = true;
  int data_cache_mb = -1;  // client datum cache budget; 0 disables, -1 = env

  // ---- fault tolerance (run_with_faults; see src/ckpt) ----
  // Scripted failures injected into the World (kill/hang a rank,
  // drop/delay a message). Consumed actions are not re-fired on restart.
  mpi::FaultPlan fault_plan;
  int max_task_retries = 2;      // requeue budget per leaf task
  int retry_backoff_ms = 2;      // requeue delay, doubled per attempt; 0 = off
  int heartbeat_timeout_ms = 0;  // hung-worker detection; 0 = off. Must
                                 // exceed the longest legitimate leaf task.
  int ckpt_interval = 0;         // checkpoint every K completed leaf tasks
                                 // (requires servers == 1); 0 = off
  std::string ckpt_dir;          // checkpoint directory
  int max_restarts = 3;          // restart-from-checkpoint budget

  int total_ranks() const { return engines + workers + servers; }
  adlb::Config adlb() const {
    adlb::Config cfg;
    cfg.nservers = servers;
    cfg.steal_half = steal_half;
    cfg.priority_notifications = priority_notifications;
    cfg.data_cache_mb = data_cache_mb;
    // The ft knobs below are inert until the run turns adlb::Config::ft on.
    cfg.nengines = engines;
    cfg.max_task_retries = max_task_retries;
    cfg.retry_backoff_ms = retry_backoff_ms;
    cfg.heartbeat_timeout_ms = heartbeat_timeout_ms;
    cfg.ckpt_interval = ckpt_interval;
    cfg.ckpt_dir = ckpt_dir;
    return cfg;
  }
};

// Recovery accounting for run_with_faults (per-event counters live in
// ServerStats: requeues, task_failures, heartbeat_deaths, checkpoints,
// replay_skips).
struct FtStats {
  int attempts = 1;             // program attempts (1 = no restart needed)
  std::vector<int> dead_ranks;  // ranks that died, across all attempts
};

struct RunResult {
  std::vector<std::string> lines;  // every output line, arrival order
  std::vector<double> line_times;  // arrival time of each line (s since start)
  size_t unfired_rules = 0;        // > 0 means the program deadlocked
  // Stuck-future report, merged across engines: each pending rule with
  // the unset datums (and their source names, via the compiler's symbol
  // map) it was waiting on. Populated whenever unfired_rules > 0.
  std::vector<turbine::StuckRule> stuck;
  turbine::EngineStats engine_stats;
  turbine::WorkerStats worker_stats;
  adlb::ServerStats server_stats;
  adlb::DataCacheStats cache_stats;  // summed across all client ranks
  adlb::DataPipelineStats pipeline_stats;  // summed across all client ranks
  // MiniTcl bytecode layer (tcl.compile_* metrics): unit reuses, compiles,
  // and raw-source tail bailouts, summed across all client ranks.
  tcl::Interp::CompileStats tcl_stats;
  uint64_t tcl_units_cached = 0;  // live action-cache entries at teardown
  mpi::TrafficStats traffic;
  FtStats ft;
  double elapsed_seconds = 0;

  // Merged per-rank event trace (src/obs), time-ordered. Empty unless
  // tracing was enabled (ILPS_TRACE=1 or obs::set_trace_enabled). Under
  // run_with_faults this spans every attempt, so e.g. a killed rank's
  // rank_dead instant survives the restart.
  std::vector<obs::Event> trace;

  // All output joined back together (convenience for tests).
  std::string output() const;
  bool contains(const std::string& needle) const;
  // Arrival time of the first line containing `needle` (-1 if absent).
  double time_of(const std::string& needle) const;
};

// Runs a Turbine (MiniTcl) program.
//
// Two program shapes, as in Swift/T:
//  - If the program defines `proc swift:main`, the whole program text is
//    evaluated on EVERY client rank (so procs exist wherever shipped task
//    fragments may run) and then `swift:main` is invoked on engine rank 0.
//    This is what the STC compiler emits.
//  - Otherwise the program runs on engine rank 0 only; task payloads must
//    be self-contained scripts.
// Throws on script or configuration errors.
RunResult run_program(const Config& cfg, const std::string& program);

// Fault-tolerant driver around run_program: injects cfg.fault_plan,
// requeues dead/hung workers' leaf tasks (bounded by max_task_retries),
// and on an unrecoverable failure (engine death, all workers dead)
// restarts the program from the latest checkpoint in cfg.ckpt_dir,
// skipping leaf tasks that already completed. Throws TaskError when a
// task exhausts its retries and RestartError when the restart budget
// runs out.
RunResult run_with_faults(const Config& cfg, const std::string& program);

// "engine" / "worker" / "server" per rank, following the role layout
// (labels the utilization table and the Chrome trace's thread names).
std::vector<std::string> role_names(const Config& cfg);

}  // namespace ilps::runtime
