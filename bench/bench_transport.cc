// Transport microbenchmark: raw ilps::mpi message rates, isolated from the
// ADLB/Turbine layers above. Each case targets one mechanism introduced by
// the tag-indexed mailbox rewrite:
//  - pingpong: request/reply latency over pooled buffers (the shape of
//    every ADLB RPC) plus the wakeup hit/suppression split;
//  - stream: one-way throughput, pooled move-sends vs copying span-sends;
//  - fan-in: many senders, one receiver, exact vs wildcard matching (the
//    ADLB server's recv loop is the wildcard case);
//  - barrier: collective rounds/s (shared-memory sense-reversing barrier).
//
// Every row carries its rank count, the spin-then-park tallies
// (spin_hits, spin_ns) and the host shape (nproc = usable CPUs, build
// type): a row whose ranks exceed nproc must show no spin at all.
//
// One-way flows (stream, fan-in) recycle consumed buffers back to the
// *origin* rank: there is no reply message to carry the buffer home, so
// without recycle(Message&&) the sender allocates every message while the
// receiver's pool sits full — the pool_hits: 0 pathology this bench used
// to report.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mpi/comm.h"

using namespace ilps;

namespace {

double wtime() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CaseResult {
  double elapsed = 0;
  mpi::TrafficStats stats;
};

CaseResult run_pingpong(int rounds) {
  mpi::World w(2);
  double elapsed = 0;
  w.run([&](mpi::Comm& c) {
    int peer = 1 - c.rank();
    double t0 = wtime();
    for (int i = 0; i < rounds; ++i) {
      if (c.rank() == 0) {
        ser::Writer msg = c.writer();
        msg.put_i32(i);
        c.send(peer, 1, std::move(msg));
        mpi::Message m = c.recv(peer, 2);
        c.recycle(std::move(m.data));
      } else {
        mpi::Message m = c.recv(peer, 1);
        c.recycle(std::move(m.data));
        ser::Writer msg = c.writer();
        msg.put_i32(i);
        c.send(peer, 2, std::move(msg));
      }
    }
    if (c.rank() == 0) elapsed = wtime() - t0;
  });
  return {elapsed, w.stats()};
}

// Outstanding-message window for one-way flows. Eager sends never block,
// so an unwindowed stream lets the sender run arbitrarily far ahead of the
// receiver — in-flight buffers then exceed any bounded freelist and
// recycling can never reach steady state. A credit ack every kWindow
// messages bounds in-flight below the pool cap (the same discipline the
// ADLB client's pipelined datum window applies).
constexpr int kStreamWindow = 32;

CaseResult run_stream(int count, bool pooled) {
  mpi::World w(2);
  double elapsed = 0;
  w.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      double t0 = wtime();
      for (int i = 0; i < count; ++i) {
        if (pooled) {
          ser::Writer msg = c.writer();
          msg.put_i32(i);
          c.send(1, 1, std::move(msg));
        } else {
          ser::Writer msg;
          msg.put_i32(i);
          c.send(1, 1, msg);  // span overload: heap copy per message
        }
        if ((i + 1) % kStreamWindow == 0) {
          mpi::Message ack = c.recv(1, 3);
          c.recycle(std::move(ack));  // ack buffer goes home to the receiver
        }
      }
      // Handshake so elapsed covers delivery, not just posting.
      mpi::Message done = c.recv(1, 2);
      elapsed = wtime() - t0;
      (void)done;
    } else {
      for (int i = 0; i < count; ++i) {
        mpi::Message m = c.recv(0, 1);
        c.recycle(std::move(m));  // back to the sender's freelist
        if ((i + 1) % kStreamWindow == 0) {
          ser::Writer ack = c.writer();
          ack.put_i32(i);
          c.send(0, 3, std::move(ack));
        }
      }
      c.send_str(0, 2, "done");
    }
  });
  return {elapsed, w.stats()};
}

// senders ranks 1..n-1 each stream count messages at rank 0; the receiver
// matches either exactly (round-robin over known envelopes) or by
// wildcard (what the ADLB server loop does).
CaseResult run_fan_in(int ranks, int per_sender, bool wildcard) {
  mpi::World w(ranks);
  double elapsed = 0;
  const int ack_tag = ranks + 1;
  w.run([&](mpi::Comm& c) {
    if (c.rank() != 0) {
      for (int i = 0; i < per_sender; ++i) {
        ser::Writer msg = c.writer();
        msg.put_i32(i);
        c.send(0, c.rank(), std::move(msg));
        if ((i + 1) % kStreamWindow == 0) {
          mpi::Message ack = c.recv(0, ack_tag);
          c.recycle(std::move(ack));  // ack buffer goes home to the receiver
        }
      }
      return;
    }
    const int total = (ranks - 1) * per_sender;
    std::vector<int> seen(static_cast<size_t>(ranks), 0);
    auto consume = [&](mpi::Message&& m) {
      const int src = m.source;
      c.recycle(std::move(m));  // back to the sender's freelist
      if (++seen[static_cast<size_t>(src)] % kStreamWindow == 0) {
        ser::Writer ack = c.writer();
        ack.put_i32(seen[static_cast<size_t>(src)]);
        c.send(src, ack_tag, std::move(ack));
      }
    };
    double t0 = wtime();
    if (wildcard) {
      for (int i = 0; i < total; ++i) consume(c.recv(mpi::ANY_SOURCE, mpi::ANY_TAG));
    } else {
      for (int i = 0; i < per_sender; ++i) {
        for (int src = 1; src < ranks; ++src) consume(c.recv(src, src));
      }
    }
    elapsed = wtime() - t0;
  });
  return {elapsed, w.stats()};
}

CaseResult run_barriers(int ranks, int rounds) {
  mpi::World w(ranks);
  double elapsed = 0;
  w.run([&](mpi::Comm& c) {
    double t0 = wtime();
    for (int i = 0; i < rounds; ++i) c.barrier();
    if (c.rank() == 0) elapsed = wtime() - t0;
  });
  return {elapsed, w.stats()};
}

void emit(const char* name, const CaseResult& r, int units, const char* unit_name, int ranks) {
  bench::JsonLine j("transport_" + std::string(name));
  j.add("ranks", ranks).add("nproc", mpi::usable_cpus()).add_str("build_type", ILPS_BENCH_BUILD_TYPE);
  j.add(unit_name, units)
      .add("elapsed_s", r.elapsed)
      .add("rate_per_s", units / r.elapsed)
      .add("mpi_messages", r.stats.messages)
      .add("wakeups", r.stats.wakeups)
      .add("wakeups_suppressed", r.stats.wakeups_suppressed)
      .add("pool_hits", r.stats.pool_hits)
      .add("pool_misses", r.stats.pool_misses)
      .add("barrier_fastpath", r.stats.barrier_fastpath)
      .add("collective_wakeups", r.stats.collective_wakeups)
      .add("spin_hits", r.stats.spin_hits)
      .add("spin_ns", r.stats.spin_ns)
      .print();
}

// Pooled one-way flows must reach a recycling steady state: after the
// freelist primes, nearly every send reuses a returned buffer.
void require_steady_state_hits(const char* name, const CaseResult& r) {
  if (r.stats.pool_hits <= r.stats.pool_misses) {
    std::fprintf(stderr, "FAIL %s: pool never reached steady state (hits=%llu misses=%llu)\n",
                 name, static_cast<unsigned long long>(r.stats.pool_hits),
                 static_cast<unsigned long long>(r.stats.pool_misses));
    std::exit(1);
  }
}

}  // namespace

int main() {
  bench::banner("T", "raw transport message rates (tag-indexed mailbox)",
                "dispatch ceiling is set by the transport: per-message cost "
                "must stay flat as envelope counts and rank counts grow");

  {
    const int rounds = 20000;
    CaseResult r = run_pingpong(rounds);
    emit("pingpong", r, rounds, "roundtrips", 2);
    bench::Table t({"case", "rounds", "elapsed_s", "roundtrips/s", "wakeups", "suppressed",
                    "spin_hits", "pool_hit%"});
    double hit = 100.0 * static_cast<double>(r.stats.pool_hits) /
                 static_cast<double>(r.stats.pool_hits + r.stats.pool_misses);
    t.row({"pingpong", std::to_string(rounds), bench::fmt("%.3f", r.elapsed),
           bench::fmt("%.0f", rounds / r.elapsed), std::to_string(r.stats.wakeups),
           std::to_string(r.stats.wakeups_suppressed), std::to_string(r.stats.spin_hits),
           bench::fmt("%.1f%%", hit)});
    t.print();
  }

  {
    const int count = 50000;
    bench::Table t({"case", "msgs", "elapsed_s", "msgs/s", "pool_hits", "pool_misses"});
    for (bool pooled : {false, true}) {
      CaseResult r = run_stream(count, pooled);
      emit(pooled ? "stream_pooled" : "stream_copy", r, count, "msgs", 2);
      if (pooled) require_steady_state_hits("stream_pooled", r);
      t.row({pooled ? "stream pooled" : "stream copy", std::to_string(count),
             bench::fmt("%.3f", r.elapsed), bench::fmt("%.0f", count / r.elapsed),
             std::to_string(r.stats.pool_hits), std::to_string(r.stats.pool_misses)});
    }
    std::printf("\n");
    t.print();
  }

  {
    const int per_sender = 8000;
    bench::Table t({"case", "ranks", "msgs", "elapsed_s", "msgs/s"});
    for (int ranks : {4, 8}) {
      for (bool wildcard : {false, true}) {
        CaseResult r = run_fan_in(ranks, per_sender, wildcard);
        int total = (ranks - 1) * per_sender;
        emit(wildcard ? "fanin_wildcard" : "fanin_exact", r, total, "msgs", ranks);
        require_steady_state_hits(wildcard ? "fanin_wildcard" : "fanin_exact", r);
        t.row({wildcard ? "fan-in wildcard" : "fan-in exact", std::to_string(ranks),
               std::to_string(total), bench::fmt("%.3f", r.elapsed),
               bench::fmt("%.0f", total / r.elapsed)});
      }
    }
    std::printf("\n");
    t.print();
    std::printf("\nwildcard fan-in is the ADLB server's recv loop: the indexed\n"
                "mailbox keeps it within reach of exact-envelope matching.\n");
  }

  {
    const int rounds = 5000;
    bench::Table t({"case", "ranks", "rounds", "elapsed_s", "barriers/s"});
    for (int ranks : {2, 4, 8, 16}) {
      CaseResult r = run_barriers(ranks, rounds);
      emit("barrier", r, rounds, "rounds", ranks);
      t.row({"barrier", std::to_string(ranks), std::to_string(rounds),
             bench::fmt("%.3f", r.elapsed), bench::fmt("%.0f", rounds / r.elapsed)});
    }
    std::printf("\n");
    t.print();
  }
  return 0;
}
