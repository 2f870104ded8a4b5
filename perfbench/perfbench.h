// The ILPS benchmark: shared types for the workloads (workloads.cc), the
// per-layer probes (probes.cc) and the entry point (main.cc).
//
// A workload is a fixed set of inputs generated from a seed. Each one
// knows how to set itself up, run one *pass* (a whole round of the same
// operations: one batch program, or one window of served requests),
// check every output of that pass against results computed separately in
// C++, and describe its inputs to the layer probes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runner.h"

namespace perfbench {

// Timing helpers on the process's monotonic clock.
double now_s();
double median(std::vector<double> v);
// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double peak_rss_mb();
// The host's steal time so far, summed over all CPUs (/proc/stat), in
// seconds: time this VM's vCPUs were runnable but not running.
double steal_s();
// Bytes currently allocated from the main malloc arena (glibc mallinfo2).
// The probes that run on the main thread measure retention with it.
double heap_in_use_bytes();

// SplitMix64: the one seeded generator every input derives from.
class Seq {
 public:
  explicit Seq(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t s_;
};

// What one pass did. `latencies` holds one submit-to-completion time per
// item that produced a result (seconds).
struct PassResult {
  double wall_s = 0;
  uint64_t items = 0;
  uint64_t failed = 0;  // items whose output did not check out
  std::vector<std::string> errors;
  std::vector<double> latencies;
  double steal = 0;  // host steal time during the pass (CPU-seconds)
};

// Per-layer readings gathered around one untraced and one traced pass.
// Negative values mean "not observed" and are never reported.
struct LayerReadings {
  double msgs_per_item = -1, bytes_per_item = -1;
  double ops_per_item = -1;
  double server_busy = -1, engine_busy = -1, worker_busy = -1, worker_get_wait = -1;
  double cache_hit_ratio = -1, unit_hit_ratio = -1;
  double rules_per_item = -1;
  double submit_us = -1, queue_ms = -1, exec_ms = -1, msgs_per_req = -1;
  double checkpoints = -1, replay_skips = -1, restore_ms = -1;
  double trace_overhead = -1;
  // The rounds layers() ran, checked like any pass.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

// Inputs the layer probes time, taken from the workload itself.
struct ProbeInputs {
  ilps::runtime::Config cfg;            // the workload's rank layout
  std::string tcl_leaf;                 // one leaf fragment, substituted
  std::vector<std::string> py_snippets; // MiniPy codes (expr "out")
  std::vector<std::string> r_snippets;  // MiniR codes (expr "out")
  std::string bind_header;              // prototype of the native kernel
  std::vector<std::string> bind_calls;  // Tcl commands invoking it
  std::vector<std::string> swift_sources;  // programs the workload compiles
  size_t message_bytes = 64;            // typical datum / message size
  size_t store_datums = 0;              // datums one pass creates
  size_t datum_bytes = 16;              // typical datum value size
  // Serve probe: programs submitted as requests (one item each) and the
  // expected lines of each, for batch workloads whose items are not
  // requests already.
  std::vector<std::string> serve_programs;
  std::vector<std::vector<std::string>> serve_expected;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Time to get the workload ready to measure, once (seconds): compiling
  // its programs and warming the runtime. Called several times per run;
  // main.cc reports the median.
  virtual double setup() = 0;
  // One whole round of the workload's operations, checked.
  virtual PassResult pass() = 0;
  // One untraced and one traced round with the layer counters read out.
  virtual LayerReadings layers() = 0;
  virtual ProbeInputs probe_inputs() const = 0;
};

// The native kernels the workloads bind through BindGen (package
// "kernels" 1.0): `gen::series rec n` returns n seeded values as
// comma-separated text, `sq::square i` returns i*i.
std::string series_text(int64_t rec, int n);
void install_kernels(ilps::tcl::Interp& interp, ilps::blob::Registry& blobs);

// `scratch` is a directory inside the benchmark's build tree for the
// files a workload writes (checkpoints).
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed,
                                        const std::string& scratch);
std::vector<std::string> workload_names();

// The per-layer probes (probes.cc). Each appends name -> value pairs.
struct NamedValue {
  std::string name;
  std::string unit;
  double value;
};
std::vector<NamedValue> run_probes(const ProbeInputs& in, const std::string& scratch);

}  // namespace perfbench
