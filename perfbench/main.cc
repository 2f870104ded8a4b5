// ilps_perfbench — runs one workload of the ILPS benchmark and prints one
// JSON result line on stdout:
//
//   ilps_perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// --trace 0 prints the end-to-end metrics from untraced passes; --trace 1
// prints the per-layer metrics from the layer probes plus paired untraced
// and traced passes. Progress and errors go to stderr. `--stamp` prints the
// host shape (nproc, build type) instead. See README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double steal_s() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                            &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / 100.0 : 0;
}

double heap_in_use_bytes() { return static_cast<double>(mallinfo2().uordblks); }

namespace {

// Set-up repetitions per --trace 0 run; setup_s is their median.
constexpr int kSetupReps = 9;
// Unmeasured passes before the window opens (2 to 6 seconds of load):
// the first seconds of load after an idle spell run measurably faster on
// a shared host than the sustained state later passes run in.
constexpr int kWarmPasses = 12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".";
  bool stamp = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ilps_perfbench: %s\nusage: ilps_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--stamp") {
      a.stamp = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      usage("unknown option " + k);
    }
  }
  return a;
}

std::string num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Output {
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<NamedValue> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      correct = false;
      value = 0;
    }
    metrics.push_back({name, unit, value});
  }
  void note_errors(const std::vector<std::string>& errors) {
    for (size_t i = 0; i < errors.size() && i < 5; ++i) {
      std::fprintf(stderr, "check failed: %s\n", errors[i].c_str());
    }
  }
  void print() const {
    std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) s += ", ";
      s += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
  }
};

// --trace 0: kWarmPasses unmeasured passes, kSetupReps set-ups, then
// whole passes until the measuring window is spent.
//
// The vCPUs of a shared host are preempted by other tenants for a varying
// share of each run (the host's steal time), and a preempted vCPU stalls a
// whole dataflow chain. The half of the passes that saw the least steal is
// taken as the run's steady state: items_per_s is the median rate of those
// passes, and each latency percentile the median of the same percentile
// within each of them. Peak memory is read after the warm-up, so it always
// covers the same work however fast the run goes.
Output end_to_end(Workload& w, double seconds) {
  Output out;
  auto run_pass = [&] {
    const double steal0 = steal_s();
    PassResult p = w.pass();
    p.steal = steal_s() - steal0;
    out.attempted += p.items;
    out.failed += p.failed;
    out.note_errors(p.errors);
    std::fprintf(stderr, "pass: %.1f items/s, steal %.3f cpu-s/s\n",
                 static_cast<double>(p.items) / p.wall_s, p.steal / p.wall_s);
    return p;
  };
  for (int i = 0; i < kWarmPasses; ++i) run_pass();
  const double peak_mb = peak_rss_mb();
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(w.setup());
  std::vector<PassResult> passes;
  const double deadline = now_s() + seconds;
  do {
    passes.push_back(run_pass());
  } while (now_s() < deadline);
  std::stable_sort(passes.begin(), passes.end(), [](const PassResult& a, const PassResult& b) {
    return a.steal / a.wall_s < b.steal / b.wall_s;
  });
  passes.resize((passes.size() + 1) / 2);
  std::vector<double> rates, p50, p99;
  for (const PassResult& p : passes) {
    rates.push_back(static_cast<double>(p.items) / p.wall_s);
    p50.push_back(percentile(p.latencies, 50));
    p99.push_back(percentile(p.latencies, 99));
  }
  std::fprintf(stderr, "%zu clean passes (steal <= %.3f cpu-s/s)\n", passes.size(),
               passes.back().steal / passes.back().wall_s);
  out.correct = out.failed == 0;
  out.add("items_per_s", "1/s", median(rates));
  out.add("latency_p50_s", "s", median(p50));
  out.add("latency_p99_s", "s", median(p99));
  out.add("setup_s", "s", median(setups));
  out.add("peak_rss_mb", "MB", peak_mb);
  return out;
}

// --trace 1: the layer probes, then paired untraced/traced rounds until
// the window is spent; each reading is the median over the rounds.
Output per_layer(Workload& w, double seconds, const std::string& scratch) {
  Output out;
  const double t0 = now_s();
  w.setup();
  std::map<std::string, NamedValue> probes;
  for (NamedValue& v : run_probes(w.probe_inputs(), scratch)) probes[v.name] = v;
  std::vector<LayerReadings> rounds;
  do {
    rounds.push_back(w.layers());
    const LayerReadings& lr = rounds.back();
    out.attempted += lr.attempted;
    out.failed += lr.failed;
    out.note_errors(lr.errors);
  } while (now_s() - t0 < seconds);
  std::fprintf(stderr, "%zu layer rounds\n", rounds.size());
  auto med = [&](double LayerReadings::*field) {
    std::vector<double> v;
    for (const LayerReadings& lr : rounds) {
      if (lr.*field >= 0) v.push_back(lr.*field);
    }
    return v.empty() ? -1.0 : median(v);
  };
  auto probe = [&](const char* name) { return probes.at(name).value; };
  // Prefer a reading from the workload's own run over the probe's.
  auto either = [&](double LayerReadings::*field, const char* name) {
    const double v = med(field);
    return v >= 0 ? v : probe(name);
  };
  auto reading = [&](double LayerReadings::*field, const char* name) {
    const double v = med(field);
    if (v < 0) {
      std::fprintf(stderr, "no reading for %s\n", name);
      out.correct = false;
    }
    return v;
  };
  out.correct = out.failed == 0;
  using L = LayerReadings;
  out.add("mpi.roundtrip_us", "us", probe("mpi.roundtrip_us"));
  out.add("mpi.msgs_per_item", "count", reading(&L::msgs_per_item, "mpi.msgs_per_item"));
  out.add("mpi.bytes_per_item", "B", reading(&L::bytes_per_item, "mpi.bytes_per_item"));
  out.add("adlb.task_op_us", "us", probe("adlb.task_op_us"));
  out.add("adlb.data_op_us", "us", probe("adlb.data_op_us"));
  out.add("adlb.ops_per_item", "count", reading(&L::ops_per_item, "adlb.ops_per_item"));
  out.add("adlb.server_busy_frac", "ratio", reading(&L::server_busy, "adlb.server_busy_frac"));
  out.add("adlb.worker_get_wait_frac", "ratio",
          reading(&L::worker_get_wait, "adlb.worker_get_wait_frac"));
  out.add("adlb.cache_hit_ratio", "ratio", reading(&L::cache_hit_ratio, "adlb.cache_hit_ratio"));
  out.add("turbine.fire_us", "us", probe("turbine.fire_us"));
  out.add("turbine.rules_per_item", "count", reading(&L::rules_per_item, "turbine.rules_per_item"));
  out.add("turbine.engine_busy_frac", "ratio",
          reading(&L::engine_busy, "turbine.engine_busy_frac"));
  out.add("turbine.worker_busy_frac", "ratio",
          reading(&L::worker_busy, "turbine.worker_busy_frac"));
  out.add("tcl.action_us", "us", probe("tcl.action_us"));
  out.add("tcl.unit_hit_ratio", "ratio", reading(&L::unit_hit_ratio, "tcl.unit_hit_ratio"));
  out.add("swift.compile_ms", "ms", probe("swift.compile_ms"));
  out.add("serve.submit_us", "us", reading(&L::submit_us, "serve.submit_us"));
  out.add("serve.queue_ms", "ms", reading(&L::queue_ms, "serve.queue_ms"));
  out.add("serve.exec_ms", "ms", reading(&L::exec_ms, "serve.exec_ms"));
  out.add("serve.msgs_per_req", "count", reading(&L::msgs_per_req, "serve.msgs_per_req"));
  out.add("python.eval_us", "us", probe("python.eval_us"));
  out.add("rlang.eval_us", "us", probe("rlang.eval_us"));
  out.add("bind.call_us", "us", probe("bind.call_us"));
  out.add("python.retained_kb_per_eval", "KB", probe("python.retained_kb_per_eval"));
  out.add("rlang.retained_kb_per_eval", "KB", probe("rlang.retained_kb_per_eval"));
  out.add("ckpt.write_ms", "ms", probe("ckpt.write_ms"));
  out.add("ckpt.checkpoints", "count", reading(&L::checkpoints, "ckpt.checkpoints"));
  out.add("ckpt.replay_skips", "count", reading(&L::replay_skips, "ckpt.replay_skips"));
  out.add("ckpt.restore_ms", "ms", either(&L::restore_ms, "ckpt.restore_ms"));
  out.add("runtime.world_start_ms", "ms", probe("runtime.world_start_ms"));
  out.add("obs.trace_overhead", "ratio", reading(&L::trace_overhead, "obs.trace_overhead"));
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  if (args.stamp) {
    std::printf("{\"nproc\": %u, \"build_type\": \"%s\"}\n", std::thread::hardware_concurrency(),
                ILPS_BENCH_BUILD_TYPE);
    return 0;
  }
  const std::vector<std::string> names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.trace != 0 && args.trace != 1) usage("--trace takes 0 or 1");
  if (!(args.seconds > 0)) usage("--seconds must be positive");

  // Tracing is switched on from code, in memory only: nothing the
  // environment asks for may write files outside the scratch directory.
  for (const char* var : {"ILPS_TRACE", "ILPS_TRACE_DIR", "ILPS_METRICS", "ILPS_TELEMETRY_DIR"}) {
    unsetenv(var);
  }
  // Room for a whole traced pass on every rank.
  setenv("ILPS_TRACE_BUF", "262144", 1);
  ilps::obs::set_trace_enabled(false);
  std::filesystem::create_directories(args.scratch);

  try {
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, args.scratch);
    const Output out = args.trace == 0 ? end_to_end(*w, args.seconds)
                                       : per_layer(*w, args.seconds, args.scratch);
    out.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ilps_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
