// The one rank body behind every ILPS run. Batch runs (run_program),
// fault-tolerant attempts (run_with_faults) and the resident service world
// all lay ranks out as in Fig. 2 of the paper — engines, then workers,
// then ADLB servers — and differ only in a small plan: which program the
// engines start with, whether the ADLB protocol runs fault-tolerant (and
// from which checkpoint), whether one extra client rank runs an ingress
// loop, and where output and request completions go.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "adlb/client.h"
#include "ckpt/snapshot.h"
#include "mpi/comm.h"
#include "runtime/runner.h"
#include "turbine/engine.h"

namespace ilps::serve {

struct WorldPlan {
  // Program text every engine starts from (see runtime::run_program for
  // the swift:main convention). Null for the resident world, whose
  // engines start idle and take their programs from requests.
  const std::string* program = nullptr;
  // Run the fault-tolerant ADLB protocol (adlb::Config::ft); `restore`,
  // when set, preloads the server from a checkpoint.
  bool ft = false;
  const ckpt::Snapshot* restore = nullptr;
  // When set, one extra client rank after the workers runs this loop in
  // place of a Turbine context (the resident service's ingress rank).
  std::function<void(adlb::Client&)> ingress;
  // Output sink for every client rank. Unset, output lines are collected
  // into RunResult::lines (and echoed under Config::echo_output).
  std::function<void(int64_t req, int rank, const std::string& text)> output;
  // Request completion hook for engine ranks (ContextConfig::serve_complete).
  std::function<void(turbine::RequestOutcome&&)> complete;
};

// Throws unless the layout has at least one engine, worker and server.
void check_roles(const runtime::Config& cfg);

// Ranks `plan` needs: the Fig. 2 layout plus the ingress rank, if any.
int world_size(const runtime::Config& cfg, const WorldPlan& plan);

// Runs the plan's rank bodies on `world` (world_size(cfg, plan) ranks)
// until it terminates and returns the run's aggregate: every rank's stats
// summed, the merged stuck-future report, output lines (unless
// plan.output takes them), traffic, elapsed time and, without an ingress
// rank, the merged trace.
// A server abort carrying an ft marker is rethrown as RestartError or
// TaskError.
runtime::RunResult run_world(mpi::World& world, const runtime::Config& cfg,
                             const WorldPlan& plan);

// Splits output fragments into lines and appends each finished line, with
// its arrival time, to out.lines / out.line_times. Callers serialize.
struct LineSplitter {
  std::string partial;

  template <typename Result>
  void feed(std::string_view text, double now, Result& out) {
    partial += text;
    size_t pos;
    while ((pos = partial.find('\n')) != std::string::npos) {
      out.lines.push_back(partial.substr(0, pos));
      out.line_times.push_back(now);
      partial.erase(0, pos + 1);
    }
  }

  // Emits an unterminated last line, if any.
  template <typename Result>
  void flush(double now, Result& out) {
    if (partial.empty()) return;
    out.lines.push_back(std::move(partial));
    out.line_times.push_back(now);
    partial.clear();
  }
};

}  // namespace ilps::serve
