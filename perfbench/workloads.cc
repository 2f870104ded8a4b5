// The four workloads. Each generates its inputs from the seed, runs them
// only through ILPS's public entry points (swift::compile,
// runtime::run_program, runtime::run_with_faults, serve::Service), and
// checks every output against a result computed here, in C++.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <set>

#include "bind/bindgen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "serve/serve.h"
#include "swift/compiler.h"
#include "tcl/interp.h"

namespace fs = std::filesystem;
using namespace ilps;

namespace perfbench {

// ---------------------------------------------------------------- kernels

std::string series_text(int64_t rec, int n) {
  uint64_t x = static_cast<uint64_t>(rec) * 2654435761u + 12345u;
  std::string out;
  char buf[32];
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::snprintf(buf, sizeof buf, "%s%.1f", i > 0 ? "," : "",
                  static_cast<double>((x >> 33) % 1000) / 10.0);
    out += buf;
  }
  return out;
}

namespace {
int64_t square(int64_t i) { return i * i; }
}  // namespace

void install_kernels(tcl::Interp& interp, blob::Registry& blobs) {
  bind::NativeLibrary lib;
  lib.add_raw("series", [](std::vector<bind::NativeValue>& args) {
    return bind::NativeValue(series_text(std::get<int64_t>(args.at(0)),
                                         static_cast<int>(std::get<int64_t>(args.at(1)))));
  });
  lib.add("square", &square);
  bind::bind_to_tcl(interp, "gen",
                    bind::parse_header("const char* series(int rec, int n);"), lib, blobs);
  bind::bind_to_tcl(interp, "sq", bind::parse_header("int square(int i);"), lib, blobs);
  interp.package_provide("kernels", "1.0");
}

namespace {

// ---------------------------------------------------------------- helpers

constexpr const char* kLeafDecls = R"SWIFT(
(int o) f (int i) [ "set <<o>> [ expr <<i>> * <<i>> ]" ];
(int o) g (int t) [ "set <<o>> [ expr <<t>> % 3 ]" ];
)SWIFT";

// The paper's Fig. 1 loop over [lo, lo+n).
std::string fig1_source(int64_t lo, int64_t n) {
  return std::string(kLeafDecls) + "foreach i in [" + std::to_string(lo) + ":" +
         std::to_string(lo + n - 1) +
         "] {\n  int t = f(i);\n  int gt = g(t);\n"
         "  if (gt == 0) { printf(\"g(%d) == 0\", t); }\n}\n";
}

// What Fig. 1 must print over [lo, lo+n): one line per i with i*i % 3 == 0.
std::vector<std::string> fig1_expected(int64_t lo, int64_t n) {
  std::vector<std::string> out;
  for (int64_t i = lo; i < lo + n; ++i) {
    if ((i * i) % 3 == 0) out.push_back("g(" + std::to_string(i * i) + ") == 0");
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Counts expected lines missing from `got` (a multiset comparison), plus
// surplus lines. Zero means the outputs agree exactly.
uint64_t line_mismatches(std::vector<std::string> got, const std::vector<std::string>& sorted_want) {
  std::sort(got.begin(), got.end());
  std::vector<std::string> missing, extra;
  std::set_difference(sorted_want.begin(), sorted_want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), sorted_want.begin(), sorted_want.end(),
                      std::back_inserter(extra));
  return missing.size() + extra.size();
}

// Reads the per-rank busy-seconds gauges the rank loops publish while
// metrics are on (tracing turns them on).
std::map<int, double> busy_gauges() {
  std::map<int, double> out;
  for (const auto& [name, value] : obs::metrics().gauges()) {
    const std::string prefix = "rank.busy_seconds.r";
    if (name.rfind(prefix, 0) == 0) out[std::stoi(name.substr(prefix.size()))] = value;
  }
  return out;
}

// Summed durations of `kind` spans on the given ranks.
double span_seconds(const std::vector<obs::Event>& trace, obs::EventKind kind,
                    const std::set<int>& ranks) {
  std::map<int, std::vector<double>> open;
  double total = 0;
  for (const obs::Event& e : trace) {
    if (e.kind != kind || ranks.count(e.rank) == 0) continue;
    auto& stack = open[e.rank];
    if (e.ph == obs::Phase::kBegin) {
      stack.push_back(e.t);
    } else if (e.ph == obs::Phase::kEnd && !stack.empty()) {
      total += e.t - stack.back();
      stack.pop_back();
    }
  }
  return total;
}

// ADLB operations as the clients issue them: messages sent to a server
// rank (one RPC, or one batch of buffered puts or datum ops).
uint64_t server_sends(const std::vector<obs::Event>& trace, int first_server) {
  uint64_t n = 0;
  for (const obs::Event& e : trace) {
    n += e.kind == obs::EventKind::kMpiSend && e.rank < first_server && e.a >= first_server;
  }
  return n;
}

double ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

void note(LayerReadings& lr, const PassResult& p) {
  lr.attempted += p.items;
  lr.failed += p.failed;
  lr.errors.insert(lr.errors.end(), p.errors.begin(), p.errors.end());
}

// Turns tracing on for one scope; the trace stays in memory (no export:
// the file writer only runs when ILPS_TRACE is set in the environment).
class TraceOn {
 public:
  TraceOn() {
    obs::metrics().clear();
    obs::set_trace_enabled(true);
  }
  ~TraceOn() { obs::set_trace_enabled(false); }
  TraceOn(const TraceOn&) = delete;
  TraceOn& operator=(const TraceOn&) = delete;
};

runtime::Config layout(int engines, int workers, int servers) {
  runtime::Config cfg;
  cfg.engines = engines;
  cfg.workers = workers;
  cfg.servers = servers;
  cfg.deadlock_error = false;  // the checks report unfired rules themselves
  return cfg;
}

// ---------------------------------------------------------------- serve

// A resident world's layout: one engine, one worker, one server and the
// ingress rank the service adds, so four rank threads.
serve::ServeConfig serve_config(const runtime::Config& layout) {
  serve::ServeConfig cfg;
  cfg.runtime = layout;
  cfg.runtime.engines = cfg.runtime.workers = cfg.runtime.servers = 1;
  cfg.max_inflight = 256;
  cfg.admission = serve::AdmissionPolicy::kBlock;
  cfg.telemetry = obs::TelemetryFlusher::Config{};
  cfg.trace_sample_every = 1;
  return cfg;
}

// Submits every program once and waits: the compile-once warm-up.
void warm(serve::Service& svc, const std::vector<std::string>& programs) {
  std::vector<serve::RequestHandle> hs;
  for (const std::string& p : programs) hs.push_back(svc.submit(p));
  for (auto& h : hs) h.wait();
}

// A closed loop: `window` outstanding requests, each slot submitting its
// next request when its reply has come back. Programs are drawn from
// `mix`; every reply is checked against the expected lines.
struct Stream {
  PassResult pass;
  double submit_us = 0;  // mean time spent inside Service::submit
  double world_s = 0;    // enter() to shutdown() of the service, when owned
};

Stream closed_loop(serve::Service& svc, const std::vector<std::string>& programs,
                   const std::vector<std::vector<std::string>>& expected, uint64_t requests,
                   size_t window_size, Seq mix, std::vector<serve::RequestResult>* keep) {
  Stream out;
  PassResult& p = out.pass;
  p.items = requests;
  std::deque<std::pair<size_t, serve::RequestHandle>> window;
  double submit_total = 0;
  auto complete = [&] {
    const auto& [v, h] = window.front();
    serve::RequestResult r = h.wait();
    if (!r.ok() || line_mismatches(r.lines, expected[v]) != 0) {
      ++p.failed;
      if (p.errors.size() < 3) {
        p.errors.push_back("request program " + std::to_string(v) + ": " +
                           (r.ok() ? std::string("wrong output") : r.error));
      }
    }
    p.latencies.push_back(r.latency_seconds);
    if (keep != nullptr) keep->push_back(std::move(r));
    window.pop_front();
  };
  const double t0 = now_s();
  for (uint64_t i = 0; i < requests; ++i) {
    if (window.size() == window_size) complete();
    const size_t v = static_cast<size_t>(mix.below(programs.size()));
    const double s0 = now_s();
    serve::RequestHandle h = svc.submit(programs[v]);
    submit_total += now_s() - s0;
    window.emplace_back(v, std::move(h));
  }
  while (!window.empty()) complete();
  p.wall_s = now_s() - t0;
  out.submit_us = submit_total / static_cast<double>(requests) * 1e6;
  return out;
}

// Serve-layer readings for a request stream: one untraced and one traced
// closed loop of the same length, each on its own resident service
// (request traces and busy gauges are armed when the world starts).
LayerReadings serve_layers(const serve::ServeConfig& cfg, const std::vector<std::string>& programs,
                           const std::vector<std::vector<std::string>>& expected,
                           uint64_t requests, size_t window, uint64_t seed) {
  LayerReadings lr;
  auto run = [&](std::vector<serve::RequestResult>* keep, serve::ServiceStats* stats) {
    const double t0 = now_s();
    serve::Service svc(cfg);
    svc.enter();
    warm(svc, programs);
    Stream s = closed_loop(svc, programs, expected, requests, window, Seq(seed), keep);
    svc.shutdown();
    s.world_s = now_s() - t0;
    if (stats != nullptr) *stats = svc.stats();
    return s;
  };
  const Stream su = run(nullptr, nullptr);
  std::vector<serve::RequestResult> traced;
  serve::ServiceStats stats;
  Stream st;
  std::map<int, double> busy;
  {
    TraceOn on;
    st = run(&traced, &stats);
    busy = busy_gauges();
  }
  note(lr, su.pass);
  note(lr, st.pass);
  lr.unit_hit_ratio = ratio(stats.tcl_compile_hits, stats.tcl_compile_misses);
  lr.submit_us = su.submit_us;
  std::vector<double> queue, exec;
  double msgs = 0, bytes = 0, rules = 0, ops = 0;
  for (const serve::RequestResult& r : traced) {
    queue.push_back(r.trace_summary.queue_seconds);
    exec.push_back(r.trace_summary.exec_seconds);
    msgs += static_cast<double>(r.trace_summary.mpi_messages);
    bytes += static_cast<double>(r.trace_summary.mpi_bytes);
    rules += static_cast<double>(r.trace_summary.rule_fires);
    ops += static_cast<double>(server_sends(r.trace, /*first_server=*/3));
  }
  const double n = traced.empty() ? 1.0 : static_cast<double>(traced.size());
  lr.queue_ms = median(queue) * 1e3;
  lr.exec_ms = median(exec) * 1e3;
  lr.msgs_per_req = msgs / n;
  lr.bytes_per_item = bytes / n;
  lr.rules_per_item = rules / n;
  lr.ops_per_item = ops / n;
  // Ranks: engine 0, worker 1, ingress 2, server 3. The gauges count
  // from enter(), which the warm-up pass also falls in.
  auto frac = [&](int rank) { return busy[rank] / st.world_s; };
  lr.engine_busy = frac(0);
  lr.worker_busy = frac(1);
  lr.server_busy = frac(3);
  // A resident worker is either running a task or waiting in Get.
  lr.worker_get_wait = 1.0 - lr.worker_busy;
  lr.trace_overhead = st.pass.wall_s / su.pass.wall_s;
  return lr;
}

// ---------------------------------------------------------------- batch

// A workload whose pass is one batch program: Fig. 1, the polyglot sweep
// and the fault-restart run share this class and differ in program,
// rank layout, runner and checks.
class BatchWorkload : public Workload {
 public:
  static constexpr uint64_t kServeProbeRequests = 400;

  double setup() override {
    const double t0 = now_s();
    program_ = swift::compile(source_);
    runtime::run_program(cfg_, swift::compile(warm_source_));
    return now_s() - t0;
  }

  PassResult pass() override {
    runtime::RunResult r;
    return run_checked(&r);
  }

  LayerReadings layers() override {
    LayerReadings lr;
    runtime::RunResult ru, rt;
    const PassResult pu = run_checked(&ru);
    PassResult pt;
    {
      TraceOn on;
      pt = run_checked(&rt);
    }
    note(lr, pu);
    note(lr, pt);
    const double items = static_cast<double>(items_);
    lr.msgs_per_item = static_cast<double>(ru.traffic.messages) / items;
    lr.bytes_per_item = static_cast<double>(ru.traffic.bytes) / items;
    lr.rules_per_item = static_cast<double>(ru.engine_stats.rules_created) / items;
    lr.cache_hit_ratio = ratio(ru.cache_stats.hits, ru.cache_stats.misses);
    lr.unit_hit_ratio = ratio(ru.tcl_stats.hits, ru.tcl_stats.misses);
    lr.checkpoints = static_cast<double>(ru.server_stats.checkpoints);
    lr.replay_skips = static_cast<double>(ru.server_stats.replay_skips);
    lr.ops_per_item =
        static_cast<double>(server_sends(rt.trace, cfg_.total_ranks() - cfg_.servers)) / items;
    const std::vector<std::string> roles = runtime::role_names(cfg_);
    std::set<int> workers;
    for (size_t r = 0; r < roles.size(); ++r) {
      if (roles[r] == "worker") workers.insert(static_cast<int>(r));
    }
    // The rank loops' busy gauges cover the final attempt's world, whose
    // wall time is rt.elapsed_seconds.
    const std::map<int, double> busy = busy_gauges();
    auto mean_busy = [&](const char* role) {
      double sum = 0;
      int n = 0;
      for (size_t r = 0; r < roles.size(); ++r) {
        if (roles[r] != role) continue;
        auto it = busy.find(static_cast<int>(r));
        sum += it == busy.end() ? 0.0 : it->second;
        ++n;
      }
      return n == 0 ? 0.0 : sum / n / rt.elapsed_seconds;
    };
    lr.engine_busy = mean_busy("engine");
    lr.worker_busy = mean_busy("worker");
    lr.server_busy = mean_busy("server");
    lr.worker_get_wait = span_seconds(rt.trace, obs::EventKind::kAdlbGetWait, workers) /
                         static_cast<double>(workers.size()) / rt.elapsed_seconds;
    const double restore = span_seconds(rt.trace, obs::EventKind::kCkptRestore,
                                        {static_cast<int>(roles.size()) - 1});
    if (restore > 0) lr.restore_ms = restore * 1e3;
    lr.trace_overhead = pt.wall_s / pu.wall_s;
    // The serve layer, probed with this workload's items as requests.
    const ProbeInputs in = probe_inputs();
    const LayerReadings sr = serve_layers(serve_config(cfg_), in.serve_programs,
                                          in.serve_expected, kServeProbeRequests, 8, 1);
    lr.attempted += sr.attempted;
    lr.failed += sr.failed;
    lr.errors.insert(lr.errors.end(), sr.errors.begin(), sr.errors.end());
    lr.submit_us = sr.submit_us;
    lr.queue_ms = sr.queue_ms;
    lr.exec_ms = sr.exec_ms;
    lr.msgs_per_req = sr.msgs_per_req;
    return lr;
  }

 protected:
  virtual runtime::RunResult run(const std::string& program) {
    return runtime::run_program(cfg_, program);
  }
  // Extra checks beyond the output lines; returns failed items.
  virtual uint64_t check_more(const runtime::RunResult& r, std::vector<std::string>& errors) {
    (void)r;
    (void)errors;
    return 0;
  }
  // Checks the printed lines; returns failed items.
  virtual uint64_t check_lines(const runtime::RunResult& r, std::vector<std::string>& errors) {
    const uint64_t bad = line_mismatches(r.lines, expected_);
    if (bad > 0) errors.push_back("output differs from the C++ expectation in " +
                                  std::to_string(bad) + " line(s)");
    return bad;
  }

  PassResult run_checked(runtime::RunResult* out) {
    if (program_.empty()) program_ = swift::compile(source_);
    PassResult p;
    p.items = items_;
    const double t0 = now_s();
    try {
      *out = run(program_);
    } catch (const std::exception& e) {
      p.wall_s = now_s() - t0;
      p.failed = items_;
      p.errors.push_back(e.what());
      return p;
    }
    p.wall_s = now_s() - t0;
    const runtime::RunResult& r = *out;
    uint64_t bad = check_lines(r, p.errors) + check_more(r, p.errors);
    if (r.unfired_rules > 0) {
      p.errors.push_back(std::to_string(r.unfired_rules) + " rule(s) never fired");
      bad = items_;
    }
    p.failed = std::min<uint64_t>(bad, items_);
    // An item's result arrives with its output line; the runner stamps
    // line times from the start of the (final) attempt's world.
    const double offset = p.wall_s - r.elapsed_seconds;
    for (double t : r.line_times) p.latencies.push_back(offset + t);
    return p;
  }

  runtime::Config cfg_;
  std::string source_, warm_source_, program_;
  std::vector<std::string> expected_;  // sorted
  uint64_t items_ = 0;
};

// fig1_dataflow: the control plane under many tiny leaf tasks.
class Fig1Workload : public BatchWorkload {
 public:
  static constexpr int64_t kItems = 1000;

  explicit Fig1Workload(uint64_t seed) {
    Seq seq(seed);
    // lo is a multiple of 3 in a fixed-width range, so every seed prints
    // the same number of lines with the same number of digits.
    lo_ = 3 * static_cast<int64_t>(100000 + seq.below(200000));
    cfg_ = layout(1, 2, 1);
    items_ = kItems;
    source_ = fig1_source(lo_, kItems);
    warm_source_ = fig1_source(lo_, 64);
    expected_ = fig1_expected(lo_, kItems);
  }

  ProbeInputs probe_inputs() const override { return fig1_probe_inputs(cfg_, lo_, items_); }

  static ProbeInputs fig1_probe_inputs(const runtime::Config& cfg, int64_t lo, uint64_t items) {
    ProbeInputs in;
    in.cfg = cfg;
    in.tcl_leaf = "set o [ expr " + std::to_string(lo) + " * " + std::to_string(lo) + " ]";
    for (int64_t k = 0; k < 2000; ++k) {
      const std::string i = std::to_string(lo + k);
      in.py_snippets.push_back("out = " + i + " * " + i);
      in.r_snippets.push_back("out <- " + i + " * " + i);
      if (k < 500) in.bind_calls.push_back("sq::square " + i);
    }
    in.bind_header = "int square(int i);";
    in.swift_sources = {fig1_source(lo, static_cast<int64_t>(items))};
    in.message_bytes = 64;
    in.store_datums = 4 * items;  // i, t, gt and the condition per pipeline
    in.datum_bytes = 12;
    for (int64_t k = 0; k < 8; ++k) {
      in.serve_programs.push_back(fig1_source(lo + k, 1));
      in.serve_expected.push_back(fig1_expected(lo + k, 1));
    }
    return in;
  }

 private:
  int64_t lo_ = 0;
};

// polyglot_sweep: leaf interpreters and multi-KB string datums.
class PolyglotWorkload : public BatchWorkload {
 public:
  static constexpr int kPoints = 200;
  static constexpr int kValues = 300;

  explicit PolyglotWorkload(uint64_t seed) {
    Seq seq(seed);
    base_ = static_cast<int64_t>(1000 + seq.below(1000000));
    cfg_ = layout(1, 2, 1);
    cfg_.setup_bindings = install_kernels;
    items_ = kPoints;
    source_ = source(base_, kPoints);
    warm_source_ = source(base_, 4);
    for (int k = 0; k < kPoints; ++k) want_.push_back(expected_stats(base_ + k));
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.cfg = cfg_;
    in.tcl_leaf = "set line [ format {p%d %s} 7 {26.125000 14.250000} ]";
    for (int k = 0; k < 200; ++k) {
      const std::string series = series_text(base_ + k, kValues);
      in.py_snippets.push_back(py_code(series));
      in.r_snippets.push_back(r_code(transformed(series)) +
                              "\nout <- sprintf(\"%.6f %.6f\", mean(v), sd(v))");
      in.bind_calls.push_back("gen::series " + std::to_string(base_ + k) + " " +
                              std::to_string(kValues));
    }
    in.bind_header = "const char* series(int rec, int n);";
    in.swift_sources = {source_};
    in.message_bytes = series_text(base_, kValues).size();
    in.store_datums = 8 * items_;
    in.datum_bytes = in.message_bytes;
    for (int k = 0; k < 8; ++k) {
      in.serve_programs.push_back(source(base_ + k, 1));
      in.serve_expected.push_back({line_for(0, want_[static_cast<size_t>(k)])});
    }
    return in;
  }

 protected:
  // Matches each point's mean and sample sd within print precision (the
  // program prints %.6f), and requires exactly one MiniPy and one MiniR
  // evaluation per point.
  uint64_t check_lines(const runtime::RunResult& r, std::vector<std::string>& errors) override {
    uint64_t bad = 0;
    std::vector<bool> seen(static_cast<size_t>(kPoints), false);
    for (const std::string& line : r.lines) {
      int k = -1;
      double mean = 0, sd = 0;
      if (std::sscanf(line.c_str(), "p%d %lf %lf", &k, &mean, &sd) != 3 || k < 0 ||
          k >= kPoints || seen[static_cast<size_t>(k)]) {
        ++bad;
        continue;
      }
      seen[static_cast<size_t>(k)] = true;
      const Stats& w = want_[static_cast<size_t>(k)];
      if (std::fabs(mean - w.mean) > 1.5e-6 || std::fabs(sd - w.sd) > 1.5e-6) ++bad;
    }
    bad += static_cast<uint64_t>(std::count(seen.begin(), seen.end(), false));
    if (bad > 0) errors.push_back("sweep statistics differ from C++ in " + std::to_string(bad) +
                                  " point(s)");
    if (r.worker_stats.python_evals != static_cast<uint64_t>(kPoints) ||
        r.worker_stats.r_evals != static_cast<uint64_t>(kPoints)) {
      errors.push_back("expected one MiniPy and one MiniR eval per point, got " +
                       std::to_string(r.worker_stats.python_evals) + " and " +
                       std::to_string(r.worker_stats.r_evals));
      bad = items_;
    }
    return bad;
  }

 private:
  struct Stats {
    double mean = 0, sd = 0;
  };

  static std::string py_code(const std::string& series) {
    return "vals = [float(x) for x in \"" + series +
           "\".split(',')]\nout = ','.join(['%.4f' % (v * 0.5 + 1.25) for v in vals])";
  }
  static std::string r_code(const std::string& transformed) {
    return "v <- as.numeric(strsplit(\"" + transformed + "\", \",\")[[1]])";
  }

  // The MiniPy step, recomputed: parse, scale, print with %.4f.
  static std::string transformed(const std::string& series) {
    std::string out;
    char buf[64];
    size_t pos = 0;
    while (pos <= series.size()) {
      size_t comma = series.find(',', pos);
      if (comma == std::string::npos) comma = series.size();
      const double v = std::strtod(series.substr(pos, comma - pos).c_str(), nullptr);
      std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : ",", v * 0.5 + 1.25);
      out += buf;
      pos = comma + 1;
    }
    return out;
  }

  // The MiniR step, recomputed: mean and sample standard deviation.
  static Stats expected_stats(int64_t rec) {
    const std::string t = transformed(series_text(rec, kValues));
    std::vector<double> v;
    size_t pos = 0;
    while (pos <= t.size()) {
      size_t comma = t.find(',', pos);
      if (comma == std::string::npos) comma = t.size();
      v.push_back(std::strtod(t.substr(pos, comma - pos).c_str(), nullptr));
      pos = comma + 1;
    }
    Stats s;
    for (double x : v) s.mean += x;
    s.mean /= static_cast<double>(v.size());
    double ss = 0;
    for (double x : v) ss += (x - s.mean) * (x - s.mean);
    s.sd = std::sqrt(ss / static_cast<double>(v.size() - 1));
    return s;
  }

  static std::string line_for(int k, const Stats& s) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%d %.6f %.6f", k, s.mean, s.sd);
    return buf;
  }

  static std::string source(int64_t base, int points) {
    return std::string(R"SWIFT(
(string s) gen_series (int rec, int n) "kernels" "1.0" [
  "set <<s>> [ gen::series <<rec>> <<n>> ]"
];
(string line) report (int k, string stats) [
  "set <<line>> [ format {p%d %s} <<k>> <<stats>> ]"
];
foreach k in [0:)SWIFT") +
           std::to_string(points - 1) + "] {\n  string s = gen_series(" + std::to_string(base) +
           " + k, " + std::to_string(kValues) + R"SWIFT();
  string NL = "\n";
  string pcode = strcat("vals = [float(x) for x in \"", s, "\".split(',')]", NL,
                        "out = ','.join(['%.4f' % (v * 0.5 + 1.25) for v in vals])");
  string t = python(pcode, "out");
  string rcode = strcat("v <- as.numeric(strsplit(\"", t, "\", \",\")[[1]])");
  string stats = r(rcode, "sprintf(\"%.6f %.6f\", mean(v), sd(v))");
  string line = report(k, stats);
  printf("%s", line);
}
)SWIFT";
  }

  int64_t base_ = 0;
  std::vector<Stats> want_;
};

// ft_restart: checkpoints every kCkptInterval leaf tasks and one engine
// kill at a fixed message count, so every pass restarts exactly once and
// skips the replay of completed tasks.
class FtWorkload : public BatchWorkload {
 public:
  static constexpr int64_t kItems = 600;
  static constexpr int kCkptInterval = 16;
  static constexpr uint64_t kKillAtMessage = 1500;

  FtWorkload(uint64_t seed, const std::string& scratch) : scratch_(scratch) {
    Seq seq(seed);
    lo_ = 3 * static_cast<int64_t>(100000 + seq.below(200000));
    cfg_ = layout(1, 2, 1);
    cfg_.ckpt_interval = kCkptInterval;
    items_ = kItems;
    source_ = fig1_source(lo_, kItems);
    warm_source_ = fig1_source(lo_, 64);
    expected_ = fig1_expected(lo_, kItems);
  }

  ProbeInputs probe_inputs() const override {
    return Fig1Workload::fig1_probe_inputs(layout(1, 2, 1), lo_, items_);
  }

 protected:
  runtime::RunResult run(const std::string& program) override {
    // A fresh directory per pass: a completed run's checkpoints would
    // turn the next pass into a pure restore.
    const fs::path dir = fs::path(scratch_) / ("ckpt-" + std::to_string(++runs_));
    fs::remove_all(dir);
    runtime::Config cfg = cfg_;
    cfg.ckpt_dir = dir.string();
    cfg.fault_plan.kill_rank(/*rank=*/0, kKillAtMessage);
    runtime::RunResult r = runtime::run_with_faults(cfg, program);
    fs::remove_all(dir);
    return r;
  }

  uint64_t check_more(const runtime::RunResult& r, std::vector<std::string>& errors) override {
    if (r.ft.attempts == 2 && r.server_stats.checkpoints >= 1 && r.server_stats.replay_skips >= 1) {
      return 0;
    }
    errors.push_back("expected one restart with checkpoints and replay skips, got attempts=" +
                     std::to_string(r.ft.attempts) +
                     " checkpoints=" + std::to_string(r.server_stats.checkpoints) +
                     " replay_skips=" + std::to_string(r.server_stats.replay_skips));
    return items_;
  }

 private:
  std::string scratch_;
  int64_t lo_ = 0;
  int runs_ = 0;
};

// ---------------------------------------------------------------- serve_stream

// serve_stream: a resident service fed as a closed loop by a fixed window
// of outstanding requests, each a small fan-out program drawn from a
// seeded mix of kVariants distinct programs.
class ServeWorkload : public Workload {
 public:
  static constexpr int kVariants = 32;
  static constexpr size_t kWindow = 8;
  static constexpr uint64_t kRequests = 200;  // per pass

  explicit ServeWorkload(uint64_t seed) : seed_(seed), cfg_(serve_config(layout(1, 1, 1))) {
    Seq seq(seed);
    for (int v = 0; v < kVariants; ++v) {
      // Fan-out 2..6 and the residue of lo mod 3 depend only on v, so
      // every seed asks for the same amount of work.
      const int64_t lo = 3 * static_cast<int64_t>(100000 + seq.below(200000)) + v % 3;
      const int64_t n = 2 + v % 5;
      programs_.push_back(fig1_source(lo, n));
      expected_.push_back(fig1_expected(lo, n));
      if (v == 0) lo0_ = lo;
    }
  }

  double setup() override {
    live_.reset();  // never two resident worlds at once
    const double t0 = now_s();
    serve::Service svc(cfg_);
    svc.enter();
    warm(svc, programs_);
    const double s = now_s() - t0;
    svc.shutdown();
    return s;
  }

  PassResult pass() override {
    if (!live_) {
      live_ = std::make_unique<serve::Service>(cfg_);
      live_->enter();
      warm(*live_, programs_);
    }
    return closed_loop(*live_, programs_, expected_, kRequests, kWindow,
                       Seq(seed_ * 1000003u + ++passes_), nullptr)
        .pass;
  }

  LayerReadings layers() override {
    live_.reset();
    LayerReadings lr = serve_layers(cfg_, programs_, expected_, kRequests, kWindow, seed_);
    // Items are requests here.
    lr.msgs_per_item = lr.msgs_per_req;
    // The resident world keeps its client datum-cache counters to itself
    // (ServiceStats has none), so the ratio is not observable here.
    lr.cache_hit_ratio = 0;
    lr.checkpoints = lr.replay_skips = 0;
    return lr;
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in = Fig1Workload::fig1_probe_inputs(cfg_.runtime, lo0_, 4);
    in.swift_sources = programs_;
    in.store_datums = 4 * 4 * kWindow;  // the datums of a window of requests
    in.serve_programs.clear();
    in.serve_expected.clear();
    return in;
  }

 private:
  uint64_t seed_;
  serve::ServeConfig cfg_;
  std::vector<std::string> programs_;
  std::vector<std::vector<std::string>> expected_;
  int64_t lo0_ = 0;
  std::unique_ptr<serve::Service> live_;
  uint64_t passes_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"fig1_dataflow", "polyglot_sweep", "serve_stream", "ft_restart"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed,
                                        const std::string& scratch) {
  if (name == "fig1_dataflow") return std::make_unique<Fig1Workload>(seed);
  if (name == "polyglot_sweep") return std::make_unique<PolyglotWorkload>(seed);
  if (name == "serve_stream") return std::make_unique<ServeWorkload>(seed);
  if (name == "ft_restart") return std::make_unique<FtWorkload>(seed, scratch);
  return nullptr;
}

}  // namespace perfbench
