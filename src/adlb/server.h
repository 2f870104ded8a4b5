// The ADLB server: owns work queues and the data store for its shard,
// matches work to parked Gets, rebalances untargeted work across servers,
// and participates in Safra's termination-detection ring.
//
// Concurrency model: the server is a single message loop; every client RPC
// is handled atomically (receive -> mutate -> reply), which is what lets
// termination detection count only server<->server traffic (see
// protocol.h).
//
// Load rebalancing ("stealing"): a server whose clients are parked with an
// empty queue broadcasts a Hungry notice for that work type. Peers holding
// surplus untargeted work respond with a batch (half their queue), and
// remember hungry peers so later Puts with no local taker are forwarded.
// This is a push-triggered variant of ADLB's random-victim stealing with
// the same observable behaviour: idle workers drain busy servers.
//
// Termination (Safra's algorithm over the server ring): each server keeps
// a count of server->server "basic" messages sent minus received and a
// color that blackens on receipt. Server 0, when locally quiet (all its
// clients parked in Get, queues empty), circulates a token that
// accumulates counts; a white round with zero total while quiet proves
// global quiescence, and every parked Get is released with a shutdown
// notice.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "adlb/protocol.h"
#include "ckpt/snapshot.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mpi/comm.h"

namespace ilps::adlb {

// Per-server counters, summed across servers into the run's adlb.* metrics.
#define ILPS_SERVER_STATS(X)                                                   \
  X(puts)                                                                      \
  X(gets)                                                                      \
  X(matches)           /* work units handed to clients */                      \
  X(forwards)          /* targeted units relayed to another server */          \
  X(hungry_notices)    /* notices broadcast by this server */                  \
  X(batches_sent)      /* rebalance batches shipped to peers */                \
  X(units_rebalanced)  /* work units inside those batches */                   \
  X(steal_batches)     /* multi-unit kForwardPut messages sent */              \
  X(steal_batch_units) /* work units inside those messages */                  \
  X(notifications)     /* close notifications produced */                      \
  X(data_ops)                                                                  \
  X(tokens)            /* termination tokens handled */                        \
  X(leftover_data)     /* unclosed data at shutdown (diagnostic) */            \
  X(stuck_datums)      /* unclosed data somebody subscribed to (deadlock) */   \
  /* ---- fault tolerance ---- */                                              \
  X(requeues)          /* units re-dispatched after a failure */               \
  X(task_failures)     /* kTaskFailed reports received */                      \
  X(heartbeat_deaths)  /* clients declared dead by silence */                  \
  X(checkpoints)       /* checkpoint files written */                          \
  X(replay_skips)      /* units skipped as already completed */

struct ServerStats {
  ILPS_STAT_MEMBERS(ServerStats, "adlb.", ILPS_SERVER_STATS)
};

class Server {
 public:
  // `restore`, when given, preloads the data store, completed-task
  // fingerprints, and progress counters from a checkpoint snapshot
  // (restart-from-checkpoint; requires nservers == 1).
  Server(mpi::Comm& comm, const Config& cfg, const ckpt::Snapshot* restore = nullptr);

  // Runs the message loop until global termination. Returns normally
  // after releasing all parked clients.
  void serve();

  const ServerStats& stats() const { return stats_; }

 private:
  struct QueuedUnit {
    int priority;
    int64_t seq;  // FIFO among equal priorities
    WorkUnit unit;
  };

  struct Datum {
    DataType type = DataType::kVoid;
    bool closed = false;
    bool has_value = false;
    std::string value;
    std::map<std::string, std::string> entries;
    int read_refs = 1;
    int write_refs = 1;
    std::vector<std::pair<int, int>> subscribers;  // (client rank, notify type)
    // Incarnation stamp, unique per server: a recreated id gets a larger
    // one, so cached bytes and GC notices say which incarnation they mean.
    uint64_t epoch = 0;
  };

  // ---- message dispatch ----
  void dispatch(const mpi::Message& m);
  void handle_request(const mpi::Message& m);
  void handle_server(const mpi::Message& m);
  void after_dispatch();

  // ---- fault tolerance ----
  bool ft_active() const { return cfg_.ft; }
  bool is_engine_client(int client) const { return client < cfg_.nengines; }
  void handle_task_failed(int source, ser::Reader& r);
  void on_rank_dead_notice(int rank);   // kTagFault arrived for `rank`
  void on_client_dead(int client);      // bookkeeping + requeue + abort checks
  void check_heartbeats();
  void requeue_or_fail(WorkUnit unit, const std::string& why);
  bool flush_deferred();                // requeue backoff expiries; true if any
  void note_completion(int client);     // client's in-flight unit finished
  void maybe_checkpoint();
  ckpt::Snapshot snapshot() const;
  void restore(const ckpt::Snapshot& snap);

  // ---- tasks ----
  // Serve accounting: the first server to see an uncounted request-tagged
  // unit registers it with the request's owner engine by emitting a spawn
  // notice (+1) before accepting the unit. Eager-transport FIFO then
  // guarantees the +1 reaches the owner before the unit's eventual done
  // notice (-1), so the owner's active count can never touch zero while
  // work is still in flight.
  void maybe_spawn_notice(WorkUnit& unit);
  void handle_put(int source, const WorkUnit& unit);
  // Assigns a globally unique id to a not-yet-named unit.
  void name_unit(WorkUnit& unit);
  // Accepts a unit that belongs on this server (or forwards a targeted
  // unit to its home server).
  void accept_unit(WorkUnit unit);
  void deliver(int client, const WorkUnit& unit);
  // One kGotWorkBatch reply carrying several units (fast path, never
  // under ft).
  void deliver_batch(int client, std::vector<WorkUnit>& units);
  void handle_get(int source, int type);
  void evaluate_hunger();
  void send_batch(int peer, int type);
  // Cross-server forwards (targeted relays, hungry-peer handoffs) are
  // coalesced per destination into one kForwardPut and flushed at the end
  // of the dispatch cycle — unit-at-a-time forwarding is the per-message
  // cost the steal path used to pay. Under ft every forward goes out
  // immediately (one message per unit, as the FaultPlan's send-count
  // triggers assume).
  void forward_unit(int dest, const WorkUnit& unit);
  void flush_forwards();

  // ---- data ----
  void handle_data_op(int source, Op op, ser::Reader& r);
  // Performs one ack-only mutation (create/store/close/ref_incr/
  // write_incr/insert) without replying; returns the self-notification
  // count the single-op ACK would carry. Throws DataError on failure —
  // always after fully consuming the sub-op's arguments, so a kDataBatch
  // loop can catch and keep parsing.
  uint32_t apply_data_mutation(int source, Op op, ser::Reader& r);
  Datum& find_datum(int64_t id, const char* op);
  // Closes the datum and queues one notification unit per subscriber.
  // Returns how many of those notifications target `rpc_source` itself:
  // the count rides back on the ACK so an owner engine can account for
  // close notifications it has just mailed to itself (see maybe_spawn_notice).
  uint32_t do_close(int64_t id, Datum& datum, int rpc_source);
  // Appends one retrieve result (value, cacheable flag, incarnation
  // epoch) and records the handout when cacheable (shared by kRetrieve and
  // kMultiRetrieve).
  void write_retrieve_result(ser::Writer& w, int source, int64_t id, const Datum& d);
  // Refcount GC: queue an invalidation of this incarnation for every
  // client holding its bytes, then erase it from the store.
  void gc_datum(int64_t id, uint64_t epoch);

  // ---- termination ----
  bool quiet() const;
  void initiate_token();
  void try_forward_token();
  void shutdown_all();
  void release_parked();
  // Counts a never-closed datum (at shutdown or namespace sweep) as
  // leftover data, and as stuck if a rule still waits on it; returns
  // whether it was stuck.
  bool note_unclosed(int64_t id, const Datum& d);

  // ---- replies ----
  // Every reply to a client starts with the invalidation header (see
  // protocol.h); this writer drains dest's pending invalidations into it.
  ser::Writer reply_writer(int dest);
  void reply_ack(int dest, uint32_t self_notifications = 0);
  void reply_error(int dest, const std::string& message);
  void send_basic(int dest, const ser::Writer& w);

  mpi::Comm& comm_;
  Config cfg_;
  int index_;        // server index in [0, nservers)
  int next_server_;  // ring successor (server rank)
  std::vector<int> my_clients_;
  std::vector<int> peer_servers_;

  // Work state.
  int64_t seq_ = 0;
  // [type]{(-prio, order, seq)}: priority first, then the oldest rule (so
  // a point's later stages run ahead of later points' first stages), then
  // arrival.
  std::vector<std::map<std::tuple<int, int64_t, int64_t>, WorkUnit>> untargeted_;
  std::map<std::pair<int, int>, std::deque<WorkUnit>> targeted_;        // (rank, type)
  std::vector<std::deque<int>> parked_;                                  // [type] client ranks
  std::unordered_map<int, int> parked_clients_;  // client -> type it waits for
  std::vector<bool> announced_;                 // [type] hungry notice outstanding
  std::vector<std::deque<int>> hungry_peers_;   // [type] server ranks
  struct ForwardBatch {
    ser::Writer w;    // open kForwardPut frame
    uint64_t n = 0;   // units appended
  };
  // Coalesced cross-server forwards, flushed by flush_forwards() before
  // any termination-token handling (quiet() counts a non-empty outbox as
  // pending work).
  std::map<int, ForwardBatch> forward_outbox_;

  // Data store shard.
  std::unordered_map<int64_t, Datum> store_;
  // Serve namespace index: ids created under a request (kCreate with
  // req != 0), swept wholesale by kFreeNamespace when the request
  // finishes. Ids already refcount-GC'd are skipped at sweep time.
  std::unordered_map<int64_t, std::vector<int64_t>> req_index_;

  // Client-cache coherence (inert when no client caches: handouts are
  // only recorded for replies marked cacheable, and under ft nothing is
  // ever GC'd so no invalidations arise).
  uint64_t next_epoch_ = 0;                             // last Datum::epoch issued
  std::unordered_map<int64_t, std::set<int>> handouts_; // id -> clients holding bytes
  std::unordered_map<int, std::vector<std::pair<int64_t, uint64_t>>>
      pending_inval_;  // client -> (id, epoch) to ride the next reply

  // Fault-tolerance state (all inert unless cfg_.ft).
  std::unordered_map<int, WorkUnit> inflight_;  // client -> delivered unit
  std::vector<std::pair<double, WorkUnit>> deferred_;  // (ready time, requeued unit)
  std::unordered_map<int, double> last_seen_;   // client -> last RPC time
  std::set<int> dead_clients_;                  // global (all servers learn)
  int64_t next_unit_id_ = 1;
  int64_t tasks_completed_ = 0;
  uint64_t ckpt_seq_ = 0;
  bool restored_ = false;  // this run started from a checkpoint
  // Completed-task fingerprint -> remaining skip budget (a multiset:
  // identical payloads may legitimately run more than once).
  std::unordered_map<uint64_t, int> done_fingerprints_;

  // Termination detection.
  int64_t basic_count_ = 0;  // sent - received server basic messages
  bool black_ = false;
  bool token_outstanding_ = false;  // only meaningful on server 0
  std::optional<std::pair<int64_t, bool>> pending_token_;  // (q, black)
  bool done_ = false;

  ServerStats stats_;
  Rng rng_;
};

}  // namespace ilps::adlb
