// Layer probes: each times one public call of one ILPS layer with the
// workload's own inputs, away from the rest of the stack, so a change to
// that layer shows here before (or without) showing end to end.
#include <filesystem>

#include "adlb/client.h"
#include "adlb/server.h"
#include "ckpt/ckpt.h"
#include "mpi/comm.h"
#include "perfbench.h"
#include "python/interp.h"
#include "rlang/interp.h"
#include "swift/compiler.h"
#include "tcl/interp.h"

namespace fs = std::filesystem;
using namespace ilps;

namespace perfbench {
namespace {

// Median of `reps` timings of fn(), each divided by `per`.
template <typename Fn>
double timed(int reps, double per, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back((now_s() - t0) / per);
  }
  return median(t);
}

double tcl_action_us(const std::string& leaf) {
  tcl::Interp interp;
  constexpr int kEvals = 5000;
  return timed(3, kEvals, [&] {
           for (int i = 0; i < kEvals; ++i) interp.eval(leaf);
         }) * 1e6;
}

// Per-eval time and heap retained per eval on one fresh interpreter, over
// every snippet once (each is a distinct text, as each leaf task's is).
template <typename Interp>
std::pair<double, double> leaf_eval(const std::vector<std::string>& snippets) {
  Interp interp;
  const double heap0 = heap_in_use_bytes();
  const double t0 = now_s();
  for (const std::string& code : snippets) interp.eval(code, "out");
  const double per_s = (now_s() - t0) / static_cast<double>(snippets.size());
  const double kb = (heap_in_use_bytes() - heap0) / 1024.0 / static_cast<double>(snippets.size());
  return {per_s * 1e6, kb};
}

double bind_call_us(const std::vector<std::string>& calls) {
  tcl::Interp interp;
  blob::Registry blobs;
  install_kernels(interp, blobs);
  return timed(3, static_cast<double>(calls.size()), [&] {
           for (const std::string& c : calls) interp.eval(c);
         }) * 1e6;
}

// Ping-pong of a message of the workload's size between two ranks.
double mpi_roundtrip_us(size_t bytes) {
  constexpr int kRounds = 10000;
  std::vector<double> per;
  for (int rep = 0; rep < 3; ++rep) {
    mpi::World world(2);
    double elapsed = 0;
    world.run([&](mpi::Comm& comm) {
      std::vector<std::byte> payload(bytes, std::byte{7});
      if (comm.rank() == 0) {
        const double t0 = now_s();
        for (int i = 0; i < kRounds; ++i) {
          comm.send(1, 1, std::span<const std::byte>(payload));
          comm.recycle(comm.recv(1, 1));
        }
        elapsed = now_s() - t0;
      } else {
        for (int i = 0; i < kRounds; ++i) {
          mpi::Message m = comm.recv(0, 1);
          comm.send(0, 1, std::move(m.data));
        }
      }
    });
    per.push_back(elapsed / kRounds * 1e6);
  }
  return median(per);
}

// Task ops (put + get) and data ops (create + store + retrieve) of one
// client against one server.
std::pair<double, double> adlb_ops_us(const std::string& payload, size_t datum_bytes) {
  constexpr int kRounds = 5000;
  const std::string value(datum_bytes, 'v');
  std::vector<double> task, data;
  for (int rep = 0; rep < 3; ++rep) {
    adlb::Config cfg;
    mpi::World world(2);
    world.run([&](mpi::Comm& comm) {
      if (adlb::is_server(comm.rank(), comm.size(), cfg)) {
        adlb::Server server(comm, cfg);
        server.serve();
        return;
      }
      adlb::Client client(comm, cfg);
      double t0 = now_s();
      for (int i = 0; i < kRounds; ++i) {
        client.put({adlb::kTypeWork, 0, adlb::kAnyRank, adlb::kAnyRank, payload});
        if (!client.get(adlb::kTypeWork)) throw Error("probe: lost a work unit");
      }
      task.push_back((now_s() - t0) / (2.0 * kRounds) * 1e6);
      t0 = now_s();
      for (int i = 0; i < kRounds; ++i) {
        const int64_t id = client.unique();
        client.create(id, adlb::DataType::kString);
        client.store(id, value);
        if (client.retrieve(id).size() != value.size()) throw Error("probe: datum damaged");
      }
      data.push_back((now_s() - t0) / (3.0 * kRounds) * 1e6);
      if (client.get(adlb::kTypeWork)) throw Error("probe: unexpected work unit");
    });
  }
  return {median(task), median(data)};
}

double world_start_ms(const runtime::Config& cfg) {
  return timed(10, 1, [&] { runtime::run_program(cfg, "set x 0"); }) * 1e3;
}

// LOCAL rules with the leaf as action, on one engine; the world's start
// and stop are subtracted.
double fire_us(const runtime::Config& layout, const std::string& leaf, double start_ms) {
  constexpr int kRules = 20000;
  runtime::Config cfg = layout;
  cfg.workers = 1;
  const std::string program = "for {set i 0} {$i < " + std::to_string(kRules) +
                              "} {incr i} {\n  turbine::rule {} {" + leaf +
                              "} type LOCAL\n}\n";
  const double s = timed(3, 1, [&] { runtime::run_program(cfg, program); });
  return (s - start_ms / 1e3) / kRules * 1e6;
}

double compile_ms(const std::vector<std::string>& sources) {
  double total = 0;
  for (const std::string& src : sources) total += timed(5, 1, [&] { swift::compile(src); });
  return total / static_cast<double>(sources.size()) * 1e3;
}

// Checkpoint write and load of a snapshot sized like the workload's store.
std::pair<double, double> ckpt_ms(size_t datums, size_t bytes, const std::string& scratch) {
  ckpt::Snapshot s;
  s.tasks_completed = static_cast<int64_t>(datums);
  for (size_t i = 0; i < datums; ++i) {
    ckpt::DatumRecord d;
    d.id = static_cast<int64_t>(i + 1);
    d.type = 3;  // string
    d.closed = d.has_value = true;
    d.value.assign(bytes, static_cast<char>('a' + i % 26));
    s.done_tasks.push_back(ckpt::fingerprint(d.value));
    s.data.push_back(std::move(d));
  }
  const fs::path dir = fs::path(scratch) / "ckpt-probe";
  fs::remove_all(dir);
  uint64_t seq = 0;
  const double write = timed(5, 1, [&] {
    s.seq = ++seq;
    ckpt::write_checkpoint(dir.string(), s);
  });
  const double load = timed(5, 1, [&] {
    if (!ckpt::load_latest(dir.string())) throw Error("probe: checkpoint did not load");
  });
  fs::remove_all(dir);
  return {write * 1e3, load * 1e3};
}

}  // namespace

std::vector<NamedValue> run_probes(const ProbeInputs& in, const std::string& scratch) {
  std::vector<NamedValue> out;
  out.push_back({"tcl.action_us", "us", tcl_action_us(in.tcl_leaf)});
  const auto [py_us, py_kb] = leaf_eval<py::Interpreter>(in.py_snippets);
  const auto [r_us, r_kb] = leaf_eval<r::Interpreter>(in.r_snippets);
  out.push_back({"python.eval_us", "us", py_us});
  out.push_back({"python.retained_kb_per_eval", "KB", py_kb});
  out.push_back({"rlang.eval_us", "us", r_us});
  out.push_back({"rlang.retained_kb_per_eval", "KB", r_kb});
  out.push_back({"bind.call_us", "us", bind_call_us(in.bind_calls)});
  out.push_back({"mpi.roundtrip_us", "us", mpi_roundtrip_us(in.message_bytes)});
  const auto [task_us, data_us] = adlb_ops_us(in.tcl_leaf, in.datum_bytes);
  out.push_back({"adlb.task_op_us", "us", task_us});
  out.push_back({"adlb.data_op_us", "us", data_us});
  const double start_ms = world_start_ms(in.cfg);
  out.push_back({"runtime.world_start_ms", "ms", start_ms});
  out.push_back({"turbine.fire_us", "us", fire_us(in.cfg, in.tcl_leaf, start_ms)});
  out.push_back({"swift.compile_ms", "ms", compile_ms(in.swift_sources)});
  const auto [write_ms, load_ms] = ckpt_ms(in.store_datums, in.datum_bytes, scratch);
  out.push_back({"ckpt.write_ms", "ms", write_ms});
  out.push_back({"ckpt.restore_ms", "ms", load_ms});
  return out;
}

}  // namespace perfbench
