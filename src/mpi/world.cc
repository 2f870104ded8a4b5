#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/timer.h"
#include "mpi/comm.h"
#include "obs/trace.h"

namespace ilps::mpi {

namespace {
// Internal tags for collectives, outside the user range. The barrier has a
// shared-memory fast path and sends no messages; the data-carrying
// collectives (broadcast/reduce/gather) still move payloads point-to-point.
constexpr int kTagBcast = kMaxUserTag + 3;
constexpr int kTagReduce = kMaxUserTag + 4;
constexpr int kTagGather = kMaxUserTag + 5;

// Send-buffer freelist cap, shared by the owner pool and the return box.
constexpr size_t kMaxPooled = 64;

// Adaptive spin budget of a blocking wait (see SpinWait): never more than
// the cap, and a budget halved below the floor collapses to zero.
constexpr int64_t kSpinCapNs = 50'000;
constexpr int64_t kSpinFloorNs = 500;

// Tells the core it is in a spin-wait: frees pipeline resources for the
// sibling hyperthread and avoids the memory-order flush on loop exit.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Wildcard semantics: ANY_TAG covers user tags only, so a plain recv can
// never swallow a collective payload or a death notice racing past it;
// ANY_TAG_OR_FAULT additionally covers kTagFault for fault-aware loops.
bool tag_matches(int pattern, int tag) {
  if (pattern == ANY_TAG) return tag < kMaxUserTag;
  if (pattern == ANY_TAG_OR_FAULT) return tag < kMaxUserTag || tag == kTagFault;
  return tag == pattern;
}

bool envelope_matches(int want_source, int want_tag, int source, int tag) {
  return (want_source == ANY_SOURCE || source == want_source) && tag_matches(want_tag, tag);
}
}  // namespace

// Lock-light mailbox: producers never touch shared matching state. Each
// (source → dest) pair has its own SPSC staging lane; a post locks only
// that lane (contended at worst with the consumer's drain, never with
// other producers). The owner drains lanes into consumer-private
// per-(source, tag) FIFO buckets and matches there with no lock at all.
//
// Ordering: every item is stamped from a mailbox-wide atomic arrival
// counter at post time. Items from one source are stamped in program
// order, so each bucket (fed by exactly one lane) stays seq-sorted and a
// wildcard recv — which takes the lowest seq among matching bucket fronts
// — returns exactly the message a single arrival-ordered queue would
// have. Causally ordered posts from different sources get increasing
// seqs because the fetch_add on the arrival counter is part of the
// happens-before chain.
//
// Wakeup protocol (eventcount): the owner registers the envelope it is
// about to block on under wake_mu, publishes `maybe_waiting` with seq_cst,
// then re-drains every lane before sleeping. A producer stamps its lane
// (seq_cst flag inside the lane critical section), then checks
// `maybe_waiting` with seq_cst: either the producer observes the waiter
// (and signals under wake_mu), or the waiter's re-drain observes the
// item — the classic Dekker store-buffering argument, so no wakeup is
// ever lost while producers that find no waiter skip the syscall
// entirely.
struct World::Mailbox {
  struct Item {
    uint64_t seq;
    Message msg;
  };
  struct Bucket {
    std::deque<Item> q;
  };

  static uint64_t key(int source, int tag) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(source)) << 32) |
           static_cast<uint32_t>(tag);
  }

  // One SPSC staging lane per source rank.
  struct Lane {
    ilps::Mutex mu;
    std::vector<Item> staged ILPS_GUARDED_BY(mu);
    // Dekker-side flag: deliberately read/written outside mu by design
    // (see the wakeup-protocol comment above), so it must not be
    // GUARDED_BY.
    ilps::Atomic<bool> has_items{false};
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  ilps::Atomic<uint64_t> next_seq{0};

  // Consumer-private matching state: only the owning rank thread touches
  // the buckets, after draining the lanes.
  std::unordered_map<uint64_t, Bucket> buckets;

  // Eventcount wakeup state (wake_mu guards everything but maybe_waiting,
  // whose whole job is to be checked without the lock — the Dekker
  // partner of the consumer's register-then-redrain).
  ilps::Atomic<bool> maybe_waiting{false};
  ilps::Mutex wake_mu;
  ilps::CondVar cv;
  bool waiting ILPS_GUARDED_BY(wake_mu) = false;
  bool notified ILPS_GUARDED_BY(wake_mu) = false;
  int want_source ILPS_GUARDED_BY(wake_mu) = ANY_SOURCE;
  int want_tag ILPS_GUARDED_BY(wake_mu) = ANY_TAG;

  // Return box: peers deposit consumed message buffers here so one-way
  // flows prime the *sender's* freelist (see Comm::recycle(Message&&)).
  ilps::Mutex ret_mu;
  std::vector<std::vector<std::byte>> returns ILPS_GUARDED_BY(ret_mu);

  // Owner thread only: the drain's swap partner, which hands its
  // capacity back to the lane it empties (so producers do not reallocate
  // after every drain), and this rank's adaptive spin budget.
  std::vector<Item> spare;
  int64_t spin_budget_ns = kSpinCapNs;

  // This rank's spin tallies (written by the owner only; World::stats()
  // sums them over the ranks).
#define ILPS_RELAXED_FIELD_(name) ilps::RelaxedCounter name;
  ILPS_RANK_TRAFFIC_STATS(ILPS_RELAXED_FIELD_)
#undef ILPS_RELAXED_FIELD_

  // Owner thread only: move staged items into the private buckets.
  void drain() {
    for (auto& lp : lanes) {
      Lane& lane = *lp;
      if (!lane.has_items.load(std::memory_order_seq_cst)) continue;
      {
        ilps::LockGuard lock(lane.mu);
        spare.swap(lane.staged);
        // ordering: relaxed is enough — the flag only changes inside
        // lane.mu's critical section here, and a producer that races the
        // clear re-stores true (seq_cst) after its push under the same
        // lock, so no set flag is ever lost.
        lane.has_items.store(false, std::memory_order_relaxed);
      }
      for (auto& it : spare) {
        buckets[key(it.msg.source, it.msg.tag)].q.push_back(std::move(it));
      }
      spare.clear();
    }
  }

  // Spin poll: whether a lane a (source, *) envelope can match from has
  // staged items. Only the expected sender's lane for an exact source.
  bool staged(int source) const {
    // ordering: relaxed — a hint only; drain() re-reads the flag (seq_cst)
    // and takes the lane lock before it touches any item.
    const auto flag = [](const Lane& l) { return l.has_items.load(std::memory_order_relaxed); };
    if (source != ANY_SOURCE) return flag(*lanes[static_cast<size_t>(source)]);
    return std::any_of(lanes.begin(), lanes.end(), [&](const auto& l) { return flag(*l); });
  }
};

struct WorldState {
  ilps::Atomic<bool> aborted{false};
  ilps::Mutex abort_mutex;
  std::string abort_reason ILPS_GUARDED_BY(abort_mutex);

  // First writer wins; readers take the (cold-path) lock so the string
  // read needs no publication argument.
  void set_abort_reason(const std::string& why) {
    ilps::LockGuard lock(abort_mutex);
    if (abort_reason.empty()) abort_reason = why;
  }
  std::string copy_abort_reason() {
    ilps::LockGuard lock(abort_mutex);
    return abort_reason;
  }

  // Traffic / wakeup / pool tallies: pure stats, no protocol reads them.
#define ILPS_RELAXED_FIELD_(name) ilps::RelaxedCounter name;
  ILPS_WORLD_TRAFFIC_STATS(ILPS_RELAXED_FIELD_)
#undef ILPS_RELAXED_FIELD_

  // Sense-reversing shared-memory barrier. Ranks are threads in one
  // process, so a barrier needs no messages at all: arrive on an atomic
  // counter, the last arriver flips the generation, everyone else
  // spins (SpinWait) and then sleeps on one condition variable. The
  // sleeper count and the generation flip form a Dekker pair (both
  // seq_cst), so the releaser either sees the sleeper (and notifies under
  // the mutex) or the sleeper's predicate sees the new generation. The
  // atomics are read outside bar.mu by design and must not be GUARDED_BY.
  // The spun-on generation word has a cache line of its own, so arrivals
  // do not invalidate the spinners' copy.
  struct BarrierSync {
    ilps::Atomic<int> arrived{0};
    alignas(64) ilps::Atomic<uint64_t> generation{0};
    alignas(64) ilps::Atomic<int> sleepers{0};
    ilps::Mutex mu;
    ilps::CondVar cv;
  };
  BarrierSync bar;

  // ---- fault injection ----
  FaultPlan plan;
  std::vector<std::unique_ptr<ilps::Atomic<bool>>> fired;  // parallel to plan.actions
  std::vector<char> dead;    // written by the dying thread, read after run()
  std::vector<char> doomed;  // only the owning rank reads/writes its slot
  // Drain bookkeeping: hung/doomed ranks are released (and killed) once
  // every other rank has finished, so run() can always join its threads.
  ilps::Mutex fin_mutex;
  ilps::CondVar fin_cv;
  int finished ILPS_GUARDED_BY(fin_mutex) = 0;
  int parked_faulty ILPS_GUARDED_BY(fin_mutex) = 0;
};

// Spin-then-park, the spin half: one per blocking wait (recv, timed recv,
// barrier), run between the first failed match and the park protocol,
// which it leaves untouched. spin() polls the caller's cheap `ready`
// check until it holds (true: the caller re-checks for real and may call
// again with what is left of the budget) or the budget is spent (false:
// the caller parks). finish() closes the wait and adapts the rank's
// budget:
//  - a wait the spin satisfied after w ns moves the budget to
//    max(4w, 7/8 of the old budget), capped at kSpinCapNs;
//  - a parked wait that still ended within the cap would have been a hit
//    with a larger budget, so it moves the budget the same way;
//  - any other parked wait halves it, down to zero below kSpinFloorNs, so
//    a rank idling in a long wait (a worker in ADLB get) stops spinning.
// The spin is pure (CPU-relax polls) for its first kPureSpin, then yields
// between polls so a loaded host's runnable threads get the CPU. A world
// with more ranks than usable CPUs never busy-spins: its receives skip
// the spin and its barrier only yield-polls, uncounted; mpi.spin_hits /
// mpi.spin_ns count the busy spins.
class World::SpinWait {
 public:
  using Clock = std::chrono::steady_clock;

  SpinWait(Mailbox& box, bool busy, const Clock::time_point* deadline)
      : box_(box), busy_(busy), deadline_(deadline) {}

  template <typename Ready>
  bool spin(Ready&& ready) {
    Clock::time_point now = Clock::now();
    if (!started_) {
      started_ = true;
      start_ = now;
      end_ = now + std::chrono::nanoseconds(box_.spin_budget_ns);
      if (deadline_ != nullptr && *deadline_ < end_) end_ = *deadline_;
      yields_left_ = box_.spin_budget_ns / kYieldChargeNs;
    }
    if (busy_) {
      for (; now < end_; now = Clock::now()) {
        if (now - start_ >= kPureSpin) {
          // Past the pure spin: keep polling, but let a runnable thread
          // (the peer we wait for, or anyone's work when the host is
          // loaded) have the CPU between polls.
          if (ready()) return true;
          std::this_thread::yield();
          continue;
        }
        // A few polls per clock read keep the poll loop tight.
        for (int i = 0; i < kPollsPerClockRead; ++i) {
          if (ready()) return true;
          cpu_relax();
        }
      }
      return false;
    }
    // Oversubscribed (the barrier only): yield to the ranks that share the
    // CPUs. A yield is charged a fixed slice of the budget, not the wall
    // time it takes, since that time is spent running those ranks.
    for (; yields_left_ > 0; --yields_left_) {
      if (ready()) return true;
      std::this_thread::yield();
    }
    return false;
  }

  // The wait is over; `parked` says whether it went on to the park path.
  void finish(bool parked) {
    if (!started_) return;  // matched at once: there was no wait
    const int64_t waited =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count();
    if (busy_) {
      const int64_t spun =
          parked ? std::chrono::duration_cast<std::chrono::nanoseconds>(end_ - start_).count()
                 : waited;
      box_.spin_ns.add(static_cast<uint64_t>(std::max<int64_t>(spun, 0)));
      if (!parked) box_.spin_hits.add(1);
    }
    int64_t& budget = box_.spin_budget_ns;
    if (!parked || waited < kSpinCapNs) {
      budget = std::min(kSpinCapNs, std::max(4 * waited, budget - budget / 8));
    } else {
      budget /= 2;
      if (budget < kSpinFloorNs) budget = 0;
    }
  }

 private:
  static constexpr int kPollsPerClockRead = 8;
  static constexpr std::chrono::nanoseconds kPureSpin{5'000};
  static constexpr int64_t kYieldChargeNs = 1'000;

  Mailbox& box_;
  const bool busy_;
  const Clock::time_point* deadline_;
  bool started_ = false;
  Clock::time_point start_;
  Clock::time_point end_;
  int64_t yields_left_ = 0;
};

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

World::World(int size)
    : size_(size), busy_spin_(size <= usable_cpus()), state_(std::make_unique<WorldState>()) {
  if (size <= 0) throw CommError("world size must be positive");
  boxes_.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    auto box = std::make_unique<Mailbox>();
    box->lanes.reserve(static_cast<size_t>(size));
    for (int s = 0; s < size; ++s) box->lanes.push_back(std::make_unique<Mailbox::Lane>());
    boxes_.push_back(std::move(box));
  }
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& rank_main) {
  state_->aborted.store(false);
  // Fresh per-rank event buffers each run; a previous run's session (read
  // by the runner between runs) is released here.
  obs_ = obs::trace_enabled()
             ? std::make_unique<obs::Session>(size_, obs::default_capacity())
             : nullptr;
  {
    // Reset per-run fault bookkeeping (fired flags persist across runs so a
    // restart driver can inspect them; they are reset by set_fault_plan).
    ilps::LockGuard lock(state_->fin_mutex);
    state_->finished = 0;
    state_->parked_faulty = 0;
    state_->dead.assign(static_cast<size_t>(size_), 0);
    state_->doomed.assign(static_cast<size_t>(size_), 0);
  }
  state_->bar.arrived.store(0);
  state_->bar.generation.store(0);
  state_->bar.sleepers.store(0);
  std::exception_ptr first_error;
  ilps::Mutex error_mutex;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &rank_main, &first_error, &error_mutex] {
      log::set_thread_rank(r);
      if (obs_) obs::attach(&obs_->rank(r));
      Comm comm(this, r);
      try {
        rank_main(comm);
      } catch (const RankKilled&) {
        on_rank_dead(r);
      } catch (...) {
        {
          ilps::LockGuard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        abort("rank " + std::to_string(r) + " threw");
      }
      finish_rank();
      obs::detach();
      log::set_thread_rank(-1);
    });
  }
  for (auto& t : threads) t.join();

  // Clear mailboxes so a World can host several independent runs.
  for (auto& box : boxes_) {
    for (auto& lane : box->lanes) {
      ilps::LockGuard lock(lane->mu);
      lane->staged.clear();
      lane->has_items.store(false);
    }
    box->buckets.clear();
    box->next_seq.store(0);
    box->maybe_waiting.store(false);
    {
      ilps::LockGuard lock(box->wake_mu);
      box->waiting = false;
      box->notified = false;
    }
    {
      ilps::LockGuard lock(box->ret_mu);
      box->returns.clear();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  if (state_->aborted.load()) {
    throw CommError("world aborted: " + state_->copy_abort_reason());
  }
}

TrafficStats World::stats() const {
  TrafficStats t;
#define ILPS_LOAD_FIELD_(name) t.name = state_->name.load();
  ILPS_WORLD_TRAFFIC_STATS(ILPS_LOAD_FIELD_)
#undef ILPS_LOAD_FIELD_
#define ILPS_SUM_FIELD_(name) t.name += box->name.load();
  for (const auto& box : boxes_) {
    ILPS_RANK_TRAFFIC_STATS(ILPS_SUM_FIELD_)
  }
#undef ILPS_SUM_FIELD_
  return t;
}

void World::post(int source, int dest, int tag, std::vector<std::byte>&& data) {
  if (dest < 0 || dest >= size_) {
    throw CommError("send to invalid rank " + std::to_string(dest));
  }
  state_->messages.add(1);
  state_->bytes.add(data.size());
  Mailbox& box = *boxes_[static_cast<size_t>(dest)];
  Mailbox::Lane& lane = *box.lanes[static_cast<size_t>(source)];
  {
    ilps::LockGuard lock(lane.mu);
    // ordering: acq_rel keeps the arrival counter a causal chain — a post
    // that happens-after another (same source, or via any cross-rank
    // synchronization) reads the later counter value, which is what makes
    // wildcard matching equal to a single arrival-ordered queue.
    lane.staged.push_back(Mailbox::Item{
        box.next_seq.fetch_add(1, std::memory_order_acq_rel),
        Message{source, tag, std::move(data)}});
    lane.has_items.store(true, std::memory_order_seq_cst);
  }
  // Dekker partner of the consumer's register-then-redrain: the seq_cst
  // flag store above and this seq_cst load mean either we see the waiter
  // or its re-drain sees our item.
  if (box.maybe_waiting.load(std::memory_order_seq_cst)) {
    bool wake = false;
    {
      ilps::LockGuard lock(box.wake_mu);
      if (box.waiting && !box.notified &&
          envelope_matches(box.want_source, box.want_tag, source, tag)) {
        box.notified = true;
        wake = true;
      }
    }
    if (wake) {
      state_->wakeups.add(1);
      box.cv.notify_one();
      return;
    }
  }
  state_->wakeups_suppressed.add(1);
}

void World::post(int source, int dest, int tag, std::span<const std::byte> data) {
  post(source, dest, tag, std::vector<std::byte>(data.begin(), data.end()));
}

std::optional<Message> World::take_now(Mailbox& box, int source, int tag) {
  if (source != ANY_SOURCE && tag >= 0) {
    // Exact envelope: O(1) bucket lookup.
    auto it = box.buckets.find(Mailbox::key(source, tag));
    if (it == box.buckets.end() || it->second.q.empty()) return std::nullopt;
    Message m = std::move(it->second.q.front().msg);
    it->second.q.pop_front();
    return m;
  }
  // Wildcard: the oldest matching message is the lowest arrival number
  // among matching bucket fronts (bucket queues are arrival-ordered, so
  // only fronts can be oldest).
  Mailbox::Bucket* best = nullptr;
  uint64_t best_seq = 0;
  for (auto& [key, b] : box.buckets) {
    if (b.q.empty()) continue;
    const Mailbox::Item& front = b.q.front();
    if (!envelope_matches(source, tag, front.msg.source, front.msg.tag)) continue;
    if (best == nullptr || front.seq < best_seq) {
      best = &b;
      best_seq = front.seq;
    }
  }
  if (best == nullptr) return std::nullopt;
  Message m = std::move(best->q.front().msg);
  best->q.pop_front();
  return m;
}

bool World::probe_now(const Mailbox& box, int source, int tag, int* out_source,
                      int* out_tag) {
  if (source != ANY_SOURCE && tag >= 0) {
    auto it = box.buckets.find(Mailbox::key(source, tag));
    if (it == box.buckets.end() || it->second.q.empty()) return false;
    if (out_source != nullptr) *out_source = source;
    if (out_tag != nullptr) *out_tag = tag;
    return true;
  }
  const Mailbox::Item* best = nullptr;
  for (const auto& [key, b] : box.buckets) {
    if (b.q.empty()) continue;
    const Mailbox::Item& front = b.q.front();
    if (!envelope_matches(source, tag, front.msg.source, front.msg.tag)) continue;
    if (best == nullptr || front.seq < best->seq) best = &front;
  }
  if (best == nullptr) return false;
  if (out_source != nullptr) *out_source = best->msg.source;
  if (out_tag != nullptr) *out_tag = best->msg.tag;
  return true;
}

std::optional<Message> World::match_now(int self, int source, int tag) {
  Mailbox& box = *boxes_[static_cast<size_t>(self)];
  box.drain();
  return take_now(box, source, tag);
}

// The one blocking receive: drain and match, spin, then park on the
// eventcount. A deadline bounds the spin and the park (recv_for).
std::optional<Message> World::wait_match(int self, int source, int tag,
                                         const Deadline* deadline) {
  Mailbox& box = *boxes_[static_cast<size_t>(self)];
  // Only an unbounded recv can wait forever on a dropped request; a timed
  // one (the ADLB server's heartbeat poll) keeps its own schedule.
  const bool is_doomed = deadline == nullptr && doomed(self);
  bool parked = false;  // counted in parked_faulty (doomed ranks only)
  bool slept = false;   // reached the park protocol
  SpinWait spin(box, busy_spin_, deadline);
  while (true) {
    box.drain();
    if (auto m = take_now(box, source, tag)) {
      spin.finish(slept);
      if (parked) {
        ilps::LockGuard fl(state_->fin_mutex);
        --state_->parked_faulty;
      }
      return m;
    }
    if (state_->aborted.load()) {
      throw CommError("recv interrupted: world aborted (" + state_->copy_abort_reason() +
                      ")");
    }
    if (is_doomed) {
      // A doomed rank (its request was dropped) will never get a reply.
      // Count it as parked so quiescent peers can drain, then kill it.
      {
        ilps::LockGuard fl(state_->fin_mutex);
        if (!parked) {
          ++state_->parked_faulty;
          parked = true;
          state_->fin_cv.notify_all();
        }
        if (state_->finished + state_->parked_faulty >= size_) throw RankKilled{self};
      }
      // Poll: finish_rank() notifies box cvs without holding wake_mu, so a
      // timed wait avoids any lost-wakeup ordering subtleties.
      ilps::UniqueLock lock(box.wake_mu);
      box.cv.wait_for(lock, std::chrono::milliseconds(5));
      continue;
    }
    // An oversubscribed world parks at once: a receive's peer needs the
    // CPU this rank holds (only the barrier, where every rank is about to
    // be released together, yield-polls there).
    if (busy_spin_ &&
        spin.spin([&] { return box.staged(source) || state_->aborted.load(); })) {
      continue;
    }
    slept = true;
    // Register the envelope, publish the flag, then re-drain before
    // sleeping (the Dekker pair of post()'s flag-store / flag-load).
    {
      ilps::LockGuard lock(box.wake_mu);
      box.waiting = true;
      box.want_source = source;
      box.want_tag = tag;
      box.notified = false;
    }
    box.maybe_waiting.store(true, std::memory_order_seq_cst);
    box.drain();
    std::optional<Message> m = take_now(box, source, tag);
    bool timed_out = false;
    {
      // The wait loop re-checks `aborted`: an abort that completed between
      // the loop-top check and our registration has already overwritten
      // and consumed its `notified = true`, and will never notify again.
      ilps::UniqueLock lock(box.wake_mu);
      while (!m && !timed_out && !box.notified && !state_->aborted.load()) {
        if (deadline == nullptr) {
          box.cv.wait(lock);
        } else {
          timed_out = box.cv.wait_until(lock, *deadline) == std::cv_status::timeout;
        }
      }
      // A signal (or abort) that raced the deadline still counts.
      timed_out = timed_out && !box.notified && !state_->aborted.load();
      box.waiting = false;
      box.notified = false;
    }
    box.maybe_waiting.store(false, std::memory_order_seq_cst);
    if (m || timed_out) {
      // On a timeout, one final pass through the same matching helper in
      // case a post raced the deadline.
      if (!m) {
        box.drain();
        m = take_now(box, source, tag);
      }
      spin.finish(true);
      return m;
    }
  }
}

bool World::probe(int self, int source, int tag, int* out_source, int* out_tag) {
  Mailbox& box = *boxes_[static_cast<size_t>(self)];
  box.drain();
  return probe_now(box, source, tag, out_source, out_tag);
}

void World::abort(const std::string& why) {
  state_->set_abort_reason(why);
  state_->aborted.store(true);
  for (auto& box : boxes_) {
    {
      ilps::LockGuard lock(box->wake_mu);
      // Release waiters past their predicate so they observe the abort.
      box->notified = true;
    }
    box->cv.notify_all();
  }
  {
    ilps::LockGuard lock(state_->bar.mu);
  }
  state_->bar.cv.notify_all();
}

bool World::aborted() const { return state_->aborted.load(); }

// ---- barrier ----

void World::barrier_cross(int self) {
  auto& st = *state_;
  auto& bar = st.bar;
  // ordering: acquire pairs with the releaser's seq_cst generation flip,
  // so everything the previous episode's ranks wrote before arriving is
  // visible once we observe the flip.
  const uint64_t gen = bar.generation.load(std::memory_order_acquire);
  // ordering: acq_rel chains every arrival, so the last arriver's flip
  // happens-after all pre-barrier writes of every rank.
  const int pos = bar.arrived.fetch_add(1, std::memory_order_acq_rel);
  if (pos + 1 == size_) {
    // Last arriver: reset for the next episode, flip the generation, and
    // wake sleepers only if there are any (Dekker pair with the sleeper
    // increment below).
    // ordering: relaxed — only the last arriver writes, and the next
    // episode's arrivals are ordered behind the seq_cst flip below.
    bar.arrived.store(0, std::memory_order_relaxed);
    bar.generation.store(gen + 1, std::memory_order_seq_cst);
    st.barrier_fastpath.add(1);
    if (bar.sleepers.load(std::memory_order_seq_cst) > 0) {
      {
        ilps::LockGuard lock(bar.mu);
      }
      bar.cv.notify_all();
      st.collective_wakeups.add(1);
    }
    return;
  }
  // ordering: acquire — observing the flip must also publish the other
  // ranks' pre-barrier writes to this rank.
  const auto released = [&] { return bar.generation.load(std::memory_order_acquire) != gen; };
  SpinWait spin(*boxes_[static_cast<size_t>(self)], busy_spin_, nullptr);
  if (spin.spin([&] { return released() || st.aborted.load(); }) && released()) {
    spin.finish(false);
    st.barrier_fastpath.add(1);
    return;
  }
  // An abort seen by the spin falls through: the wait below sees it too.
  bar.sleepers.fetch_add(1, std::memory_order_seq_cst);
  {
    ilps::UniqueLock lock(bar.mu);
    // ordering: acquire — same edge as the spin loop above, re-checked
    // under the wakeup mutex.
    while (bar.generation.load(std::memory_order_acquire) == gen && !st.aborted.load()) {
      bar.cv.wait(lock);
    }
  }
  bar.sleepers.fetch_sub(1, std::memory_order_seq_cst);
  // ordering: acquire — distinguishes a real release from an abort wakeup
  // while keeping the publication edge on the release path.
  if (bar.generation.load(std::memory_order_acquire) == gen) {
    throw CommError("barrier interrupted: world aborted (" + st.copy_abort_reason() + ")");
  }
  spin.finish(true);
}

// ---- fault injection ----

void World::set_fault_plan(FaultPlan plan) {
  state_->plan = std::move(plan);
  state_->fired.clear();
  for (size_t i = 0; i < state_->plan.actions.size(); ++i) {
    state_->fired.push_back(std::make_unique<ilps::Atomic<bool>>(false));
  }
}

std::vector<bool> World::fault_fired() const {
  std::vector<bool> out;
  out.reserve(state_->fired.size());
  for (const auto& f : state_->fired) out.push_back(f->load());
  return out;
}

std::vector<int> World::dead_ranks() const {
  std::vector<int> out;
  for (size_t i = 0; i < state_->dead.size(); ++i) {
    if (state_->dead[i] != 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

bool World::doomed(int rank) const {
  const auto& d = state_->doomed;
  return static_cast<size_t>(rank) < d.size() && d[static_cast<size_t>(rank)] != 0;
}

bool World::apply_fault(int rank, uint64_t message_number) {
  auto& st = *state_;
  if (st.plan.actions.empty()) return true;
  bool deliver = true;
  for (size_t i = 0; i < st.plan.actions.size(); ++i) {
    const FaultAction& a = st.plan.actions[i];
    if (a.rank != rank || a.at_message != message_number) continue;
    if (st.fired[i]->exchange(true)) continue;  // each action fires once
    switch (a.kind) {
      case FaultAction::Kind::kKillRank:
        throw RankKilled{rank};
      case FaultAction::Kind::kHangRank:
        park_until_drained(rank);  // throws RankKilled when released
        break;
      case FaultAction::Kind::kDropMessage:
        // The message is lost; since every client exchange is a
        // synchronous RPC the sender can never make progress again.
        if (static_cast<size_t>(rank) < st.doomed.size()) {
          st.doomed[static_cast<size_t>(rank)] = 1;
        }
        deliver = false;
        break;
      case FaultAction::Kind::kDelayMessage:
        std::this_thread::sleep_for(std::chrono::duration<double>(a.delay_seconds));
        break;
    }
  }
  return deliver;
}

void World::on_rank_dead(int rank) {
  auto& st = *state_;
  if (static_cast<size_t>(rank) < st.dead.size()) st.dead[static_cast<size_t>(rank)] = 1;
  // Runs on the dying rank's own thread, so the instant lands in its
  // buffer — and exactly once per death (on_rank_dead has one call site).
  obs::instant(obs::EventKind::kRankDead, rank);
  log::warn("rank ", rank, " died (fault injection)");
  // Death notice to every surviving mailbox; fault-aware receivers (the
  // ADLB server) match kTagFault, everyone else never requests it.
  const std::vector<std::byte> empty;
  for (int r = 0; r < size_; ++r) {
    if (r != rank) post(rank, r, kTagFault, empty);
  }
}

void World::finish_rank() {
  {
    ilps::LockGuard lock(state_->fin_mutex);
    ++state_->finished;
    state_->fin_cv.notify_all();
  }
  // Wake doomed pollers blocked in wait_match so they observe the drain
  // (they use a timed wait with no predicate, so a bare notify suffices
  // and normal predicate-guarded waiters are not disturbed).
  for (auto& box : boxes_) box->cv.notify_all();
}

void World::park_until_drained(int rank) {
  {
    ilps::UniqueLock lock(state_->fin_mutex);
    ++state_->parked_faulty;
    state_->fin_cv.notify_all();
    while (state_->finished + state_->parked_faulty < size_) {
      state_->fin_cv.wait(lock);
    }
  }
  throw RankKilled{rank};
}

FaultPlan FaultPlan::random_kill(uint64_t seed, int first_rank, int last_rank,
                                 uint64_t lo_message, uint64_t hi_message) {
  Rng rng(seed);
  const int victim =
      first_rank + static_cast<int>(rng.next_below(
                       static_cast<uint64_t>(last_rank - first_rank + 1)));
  const uint64_t at = lo_message + rng.next_below(hi_message - lo_message + 1);
  FaultPlan plan;
  plan.kill_rank(victim, at);
  return plan;
}

// ---- buffer recycling ----

void World::recycle_to_origin(int origin, std::vector<std::byte>&& buf) {
  Mailbox& box = *boxes_[static_cast<size_t>(origin)];
  ilps::LockGuard lock(box.ret_mu);
  if (box.returns.size() < kMaxPooled) box.returns.push_back(std::move(buf));
}

// ---- Comm ----

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag, std::span<const std::byte> data) {
  if (tag < 0 || tag >= kMaxUserTag) {
    throw CommError("user tag out of range: " + std::to_string(tag));
  }
  ++sent_;
  if (!world_->apply_fault(rank_, sent_)) return;  // dropped message
  world_->post(rank_, dest, tag, data);
  obs::instant(obs::EventKind::kMpiSend, dest, static_cast<int64_t>(data.size()));
}

void Comm::send(int dest, int tag, std::vector<std::byte>&& data) {
  if (tag < 0 || tag >= kMaxUserTag) {
    throw CommError("user tag out of range: " + std::to_string(tag));
  }
  ++sent_;
  const size_t n = data.size();
  if (!world_->apply_fault(rank_, sent_)) return;  // dropped message
  world_->post(rank_, dest, tag, std::move(data));
  obs::instant(obs::EventKind::kMpiSend, dest, static_cast<int64_t>(n));
}

std::vector<std::byte> Comm::acquire_buffer() {
  if (pool_.empty()) {
    // Pull home any buffers peers deposited in our return box.
    auto& box = *world_->boxes_[static_cast<size_t>(rank_)];
    ilps::LockGuard lock(box.ret_mu);
    if (!box.returns.empty()) pool_.swap(box.returns);
  }
  if (!pool_.empty()) {
    std::vector<std::byte> buf = std::move(pool_.back());
    pool_.pop_back();
    world_->state_->pool_hits.add(1);
    return buf;
  }
  world_->state_->pool_misses.add(1);
  return {};
}

void Comm::recycle(std::vector<std::byte>&& buf) {
  // Small bounded freelist; beyond the cap buffers are just freed. Owned
  // by this rank's thread, so no lock.
  if (pool_.size() < kMaxPooled) pool_.push_back(std::move(buf));
}

void Comm::recycle(Message&& m) {
  if (m.source >= 0 && m.source < world_->size() && m.source != rank_) {
    world_->recycle_to_origin(m.source, std::move(m.data));
  } else {
    recycle(std::move(m.data));
  }
}

Message Comm::recv(int source, int tag) {
  Message m = world_->wait_match(rank_, source, tag);
  obs::instant(obs::EventKind::kMpiRecv, m.source, static_cast<int64_t>(m.data.size()));
  return m;
}

std::optional<Message> Comm::recv_for(double seconds, int source, int tag) {
  const World::Deadline deadline =
      World::Deadline::clock::now() +
      std::chrono::duration_cast<World::Deadline::duration>(std::chrono::duration<double>(seconds));
  auto m = world_->wait_match(rank_, source, tag, &deadline);
  if (m) {
    obs::instant(obs::EventKind::kMpiRecv, m->source, static_cast<int64_t>(m->data.size()));
  }
  return m;
}

std::optional<Message> Comm::try_recv(int source, int tag) {
  return world_->match_now(rank_, source, tag);
}

bool Comm::iprobe(int source, int tag, int* out_source, int* out_tag) {
  return world_->probe(rank_, source, tag, out_source, out_tag);
}

void Comm::barrier() { world_->barrier_cross(rank_); }

void Comm::broadcast(std::vector<std::byte>& data, int root) {
  // Binomial tree rooted at `root` (ranks taken relative to the root, as
  // in MPICH): each subtree head receives once, then forwards to
  // log-many children.
  const int n = size();
  const int rel = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int parent = (rank_ - mask + n) % n;
      data = world_->wait_match(rank_, parent, kTagBcast).data;
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rel + mask < n) {
      const int child = (rank_ + mask) % n;
      world_->post(rank_, child, kTagBcast, data);
    }
  }
}

int64_t Comm::reduce_sum(int64_t value, int root) {
  // Binomial fan-in mirroring broadcast's tree. Integer addition is
  // exactly associative, so the tree order matches the old flat sum.
  const int n = size();
  const int rel = (rank_ - root + n) % n;
  int64_t total = value;
  for (int mask = 1; mask < n; mask <<= 1) {
    if (rel & mask) {
      const int parent = (rank_ - mask + n) % n;
      ser::Writer w;
      w.put_i64(total);
      world_->post(rank_, parent, kTagReduce, w.bytes());
      return 0;
    }
    if (rel + mask < n) {
      const int child = (rank_ + mask) % n;
      Message m = world_->wait_match(rank_, child, kTagReduce);
      total += m.reader().get_i64();
    }
  }
  return total;  // only the root reaches here
}

int64_t Comm::allreduce_sum(int64_t value) {
  int64_t total = reduce_sum(value, 0);
  ser::Writer w;
  w.put_i64(total);
  std::vector<std::byte> buf = w.take();
  broadcast(buf, 0);
  return ser::Reader(buf).get_i64();
}

double Comm::allreduce_sum(double value) {
  // Route through gather so every rank sums in the same order and the
  // result is bit-identical everywhere (a tree reduction would change the
  // floating-point association).
  ser::Writer w;
  w.put_f64(value);
  auto parts = gather(w.bytes(), 0);
  std::vector<std::byte> buf;
  if (rank_ == 0) {
    double total = 0;
    for (const auto& p : parts) total += ser::Reader(p).get_f64();
    ser::Writer out;
    out.put_f64(total);
    buf = out.take();
  }
  broadcast(buf, 0);
  return ser::Reader(buf).get_f64();
}

std::vector<std::vector<std::byte>> Comm::gather(std::span<const std::byte> data, int root) {
  // Gather stays flat: the root needs every rank's payload anyway, so a
  // tree only adds store-and-forward copies of the concatenated data.
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<size_t>(size()));
    out[static_cast<size_t>(root)] = {data.begin(), data.end()};
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      Message m = world_->wait_match(rank_, r, kTagGather);
      out[static_cast<size_t>(r)] = std::move(m.data);
    }
  } else {
    world_->post(rank_, root, kTagGather, data);
  }
  return out;
}

double Comm::wtime() const { return ilps::wtime(); }

void Comm::abort(const std::string& why) { world_->abort(why); }

}  // namespace ilps::mpi
