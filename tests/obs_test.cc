// src/obs tests: ring-buffer wraparound, disabled-tracer cost model,
// multi-rank merge ordering, Chrome trace JSON well-formedness, histogram
// percentiles, and utilization accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runner.h"

using namespace ilps;

namespace {

// Enables tracing for one test body and restores the env-derived default
// afterwards, so test order never leaks state.
struct TraceOn {
  bool prev_trace = obs::trace_enabled();
  bool prev_metrics = obs::metrics_enabled();
  TraceOn() {
    obs::set_trace_enabled(true);
    obs::set_metrics_enabled(true);
  }
  ~TraceOn() {
    obs::set_trace_enabled(prev_trace);
    obs::set_metrics_enabled(prev_metrics);
  }
};

// Minimal recursive-descent JSON syntax checker — enough to prove the
// exporter emits well-formed JSON without a JSON library dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    size_t start = pos_;
    if (peek() == '-' || peek() == '+') ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s_[pos_]))) digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool literal(const char* word) {
    size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

const char* kSmallProgram = R"(
proc swift:main {} {
  set ids [list]
  for {set i 0} {$i < 12} {incr i} {
    set x [turbine::allocate integer]
    lappend ids $x
    turbine::put_work "turbine::store_integer $x $i"
  }
  turbine::rule $ids "puts done" type LOCAL
}
)";

runtime::RunResult run_traced() {
  TraceOn on;
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 2;
  cfg.servers = 1;
  return runtime::run_program(cfg, kSmallProgram);
}

}  // namespace

// ---- ring buffer ----

TEST(ObsTracer, WraparoundKeepsNewestEvents) {
  obs::Tracer t;
  t.init(/*rank=*/7, /*capacity=*/16);
  for (int i = 0; i < 40; ++i) {
    t.emit(obs::EventKind::kMpiSend, obs::Phase::kInstant, i, 0);
  }
  EXPECT_EQ(t.count(), 40u);
  EXPECT_EQ(t.dropped(), 24u);
  auto events = t.events();
  ASSERT_EQ(events.size(), 16u);
  // Oldest-first and exactly the newest 16 (a = 24..39).
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, static_cast<int64_t>(24 + i));
    EXPECT_EQ(events[i].rank, 7);
  }
  // Timestamps are monotone within one rank's buffer.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t, events[i - 1].t);
  }
}

TEST(ObsTracer, RingIsReusedNotGrown) {
  obs::Tracer t;
  t.init(0, 32);
  for (int i = 0; i < 10000; ++i) {
    t.emit(obs::EventKind::kAdlbPut, obs::Phase::kInstant, i, 0);
  }
  // The ring never exceeds its capacity no matter how many events pass
  // through — the emit path stores into preallocated slots.
  EXPECT_EQ(t.events().size(), 32u);
  EXPECT_EQ(t.dropped(), 10000u - 32u);
}

// ---- disabled path ----

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  // No tracer attached on this thread: emit must be a no-op.
  ASSERT_EQ(obs::current(), nullptr);
  obs::emit(obs::EventKind::kTaskRun, obs::Phase::kBegin, 1, 2);
  obs::instant(obs::EventKind::kRankDead, 3);
  { obs::Span span(obs::EventKind::kCkptWrite, 1, 2); }
  EXPECT_EQ(obs::current(), nullptr);
}

TEST(ObsTracer, RunWithTracingOffProducesEmptyTrace) {
  bool prev = obs::trace_enabled();
  obs::set_trace_enabled(false);
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 2;
  cfg.servers = 1;
  auto result = runtime::run_program(cfg, kSmallProgram);
  obs::set_trace_enabled(prev);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_TRUE(result.contains("done"));
}

// ---- multi-rank merge + export ----

TEST(ObsSession, MergedTraceIsTimeOrderedAndCoversRanks) {
  auto result = run_traced();
  ASSERT_FALSE(result.trace.empty());
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LE(result.trace[i - 1].t, result.trace[i].t);
  }
  // Every rank of the 4-rank world shows up (engine, 2 workers, server).
  bool seen[4] = {false, false, false, false};
  for (const auto& e : result.trace) {
    ASSERT_GE(e.rank, 0);
    ASSERT_LT(e.rank, 4);
    seen[e.rank] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
  // The run's lifecycle markers are present: task spans on workers,
  // server handling, and the termination decision.
  auto count_kind = [&](obs::EventKind k, obs::Phase ph) {
    return std::count_if(result.trace.begin(), result.trace.end(), [&](const obs::Event& e) {
      return e.kind == k && e.ph == ph;
    });
  };
  // 12 worker tasks plus any engine-side control tasks; every span closes.
  auto begins = count_kind(obs::EventKind::kTaskRun, obs::Phase::kBegin);
  EXPECT_GE(begins, 12);
  EXPECT_EQ(count_kind(obs::EventKind::kTaskRun, obs::Phase::kEnd), begins);
  EXPECT_GT(count_kind(obs::EventKind::kServerHandle, obs::Phase::kBegin), 0);
  EXPECT_GT(count_kind(obs::EventKind::kShutdown, obs::Phase::kInstant), 0);
}

TEST(ObsExport, ChromeTraceJsonParses) {
  auto result = run_traced();
  ASSERT_FALSE(result.trace.empty());
  std::vector<std::string> roles = {"engine", "worker", "worker", "server"};
  std::string json = obs::chrome_trace_json(result.trace, roles);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  // Spot-check the trace-event schema.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"task.run\""), std::string::npos);
  EXPECT_NE(json.find("rank 3 (server)"), std::string::npos);
}

TEST(ObsExport, MetricsJsonParses) {
  auto result = run_traced();
  std::vector<std::string> roles = {"engine", "worker", "worker", "server"};
  auto usage = obs::utilization(result.trace, roles);
  std::string json = obs::metrics_json(obs::metrics(), usage);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  EXPECT_NE(json.find("\"worker.tasks\": 12"), std::string::npos);
}

TEST(ObsExport, UtilizationCountsBusySpans) {
  // Synthetic trace: rank 0 busy [1.0, 1.4] via nested spans (union must
  // not double-count), rank 1 idle with only instants.
  std::vector<obs::Event> events;
  auto add = [&](double t, int rank, obs::EventKind k, obs::Phase ph) {
    obs::Event e;
    e.t = t;
    e.rank = rank;
    e.kind = k;
    e.ph = ph;
    events.push_back(e);
  };
  add(1.0, 0, obs::EventKind::kServerHandle, obs::Phase::kBegin);
  add(1.1, 0, obs::EventKind::kCkptWrite, obs::Phase::kBegin);
  add(1.3, 0, obs::EventKind::kCkptWrite, obs::Phase::kEnd);
  add(1.4, 0, obs::EventKind::kServerHandle, obs::Phase::kEnd);
  add(1.0, 1, obs::EventKind::kMpiSend, obs::Phase::kInstant);
  add(2.0, 1, obs::EventKind::kMpiRecv, obs::Phase::kInstant);
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::Event& a, const obs::Event& b) { return a.t < b.t; });

  auto usage = obs::utilization(events, {"server", "worker"});
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_NEAR(usage[0].busy_seconds, 0.4, 1e-9);
  EXPECT_NEAR(usage[0].window_seconds, 1.0, 1e-9);
  EXPECT_NEAR(usage[0].busy_fraction, 0.4, 1e-9);
  EXPECT_EQ(usage[0].role, "server");
  EXPECT_NEAR(usage[1].busy_seconds, 0.0, 1e-9);
  EXPECT_EQ(usage[1].events, 2u);
}

// ---- histograms ----

TEST(ObsMetrics, HistogramPercentilesNearestRank) {
  obs::Histogram h;
  for (int i = 100; i >= 1; --i) h.record(i);  // insertion order must not matter
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
}

TEST(ObsMetrics, HistogramEdgeCases) {
  obs::Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);

  obs::Histogram one;
  one.record(42.0);
  EXPECT_DOUBLE_EQ(one.percentile(1), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(100), 42.0);

  obs::Histogram two;
  two.record(10.0);
  two.record(20.0);
  // Nearest-rank: ceil(0.5 * 2) = 1 -> first sample.
  EXPECT_DOUBLE_EQ(two.percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(two.percentile(51), 20.0);
}

TEST(ObsMetrics, RegistryCountersAndGauges) {
  obs::Metrics m;
  m.counter("a.count").add(3);
  m.counter("a.count").add(2);
  m.gauge("b.value").set(1.5);
  EXPECT_EQ(m.counter("a.count").value(), 5u);
  EXPECT_DOUBLE_EQ(m.gauge("b.value").value(), 1.5);
  auto counters = m.counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "a.count");
  m.clear();
  EXPECT_TRUE(m.counters().empty());
}

// A resident service feeds its latency histograms indefinitely; retention
// must be bounded no matter the sample count. 10M samples is hours of a
// saturated service — the reservoir has to hold them under a fixed byte
// budget while count/sum/min/max stay exact.
TEST(ObsMetrics, ReservoirBoundsMemoryUnderTenMillionSamples) {
  obs::Histogram h;
  constexpr uint64_t kSamples = 10'000'000;
  for (uint64_t i = 0; i < kSamples; ++i) {
    h.record(static_cast<double>(i % 1000) * 1e-6);
  }
  EXPECT_EQ(h.count(), kSamples);
  EXPECT_LE(h.retained(), obs::Histogram::kReservoirCap);
  // The budget: the full reservoir plus vector growth slack, and not one
  // byte per excess sample.
  EXPECT_LE(h.sample_bytes(), obs::Histogram::kReservoirCap * sizeof(double) * 2);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(999) * 1e-6);
  EXPECT_NEAR(h.sum(), kSamples * 499.5e-6, kSamples * 1e-12);
  // Percentiles stay a sane estimate of the (uniform 0..999us) input.
  const double p50 = h.percentile(50);
  EXPECT_GT(p50, 400e-6);
  EXPECT_LT(p50, 600e-6);
}

// ---- rolling-window histograms ----

TEST(ObsMetrics, WindowHistogramBucketMapping) {
  EXPECT_EQ(obs::WindowHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(obs::WindowHistogram::bucket_of(obs::WindowHistogram::kBucketFloor), 0u);
  EXPECT_EQ(obs::WindowHistogram::bucket_of(1e12), obs::WindowHistogram::kBuckets - 1);
  size_t prev = 0;
  for (double v = 2e-6; v < 10.0; v *= 2) {
    const size_t b = obs::WindowHistogram::bucket_of(v);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, obs::WindowHistogram::kBuckets);
    prev = b;
    // The bucket's representative (geometric mid) stays within one growth
    // factor of any value mapped into it.
    const double rep = obs::WindowHistogram::bucket_value(b);
    EXPECT_GT(rep, v / obs::WindowHistogram::kBucketGrowth);
    EXPECT_LT(rep, v * obs::WindowHistogram::kBucketGrowth);
  }
}

TEST(ObsMetrics, WindowHistogramRotationAgesOutOldSamples) {
  obs::WindowHistogram w(/*window_seconds=*/8.0);  // 1 s sub-windows
  for (int i = 0; i < 100; ++i) w.record_at(0.010, /*now=*/100.0);
  EXPECT_EQ(w.snapshot_at(100.0).count, 100u);
  // Still visible just inside the window...
  EXPECT_EQ(w.snapshot_at(107.0).count, 100u);
  // ...gone once the window rotates past its sub-window.
  EXPECT_EQ(w.snapshot_at(109.0).count, 0u);

  // Partial aging: two bursts in different sub-windows age out separately.
  w.reset();
  for (int i = 0; i < 10; ++i) w.record_at(0.001, 200.0);
  for (int i = 0; i < 5; ++i) w.record_at(0.002, 205.0);
  EXPECT_EQ(w.snapshot_at(205.0).count, 15u);
  EXPECT_EQ(w.snapshot_at(208.5).count, 5u);   // first burst aged out
  EXPECT_EQ(w.snapshot_at(213.5).count, 0u);

  // Sub-window slots are reused in place: a long-running recorder never
  // grows the structure.
  for (double now = 300.0; now < 400.0; now += 0.25) w.record_at(0.001, now);
  EXPECT_LE(w.snapshot_at(399.75).count,
            4 * 8 + 4u);  // at most one window's worth visible
}

TEST(ObsMetrics, WindowHistogramPercentilesWithinBucketResolution) {
  obs::WindowHistogram w;  // default 60 s window
  for (int i = 1; i <= 1000; ++i) w.record_at(i * 1e-3, /*now=*/10.0);
  const obs::WindowHistogram::Snapshot s = w.snapshot_at(10.0);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.sum, 500.5, 1e-9);
  // Log-spaced buckets: each percentile lands within one growth factor of
  // the exact value (uniform 1ms..1000ms input).
  const double g = obs::WindowHistogram::kBucketGrowth;
  EXPECT_GT(s.p50, 0.500 / g);
  EXPECT_LT(s.p50, 0.500 * g);
  EXPECT_GT(s.p99, 0.990 / g);
  EXPECT_LT(s.p99, 0.990 * g);
  EXPECT_GT(s.p999, 0.999 / g);
  EXPECT_LT(s.p999, 0.999 * g);

  obs::WindowHistogram empty;
  const obs::WindowHistogram::Snapshot e = empty.snapshot_at(1.0);
  EXPECT_EQ(e.count, 0u);
  EXPECT_DOUBLE_EQ(e.p50, 0.0);
}

TEST(ObsMetrics, RegistryWindowHistogramsAreSharedByName) {
  obs::Metrics m;
  obs::WindowHistogram& w1 = m.window_histogram("x.seconds", 30.0);
  obs::WindowHistogram& w2 = m.window_histogram("x.seconds", 99.0);  // window from first creation
  EXPECT_EQ(&w1, &w2);
  EXPECT_DOUBLE_EQ(w2.window_seconds(), 30.0);
  w1.record_at(0.5, 1.0);
  EXPECT_EQ(m.window_histograms().size(), 1u);
  m.reset_histograms();
  EXPECT_EQ(w1.snapshot_at(1.0).count, 0u);
}

// ---- request-scoped capture ----

TEST(ObsRequestCapture, ScopedEventsAreCapturedAndStitched) {
  TraceOn on;
  obs::Tracer t;
  t.init(/*rank=*/2, /*capacity=*/64);
  obs::attach(&t);
  obs::req_capture_begin(42);
  EXPECT_TRUE(obs::req_capture_active());
  // Submit happens on a user thread with no tracer: off-rank note.
  obs::req_capture_note_off_rank(42, obs::EventKind::kReqSubmit, obs::Phase::kInstant, 42);
  {
    obs::RequestScope rs(42);
    obs::instant(obs::EventKind::kRuleFired, 1);
    obs::Span span(obs::EventKind::kTaskRun, 7);
  }
  obs::instant(obs::EventKind::kRuleFired, 2);  // outside any scope: ring only
  {
    obs::RequestScope rs(7);  // scoped but never registered: ring only
    obs::instant(obs::EventKind::kRuleFired, 3);
  }
  obs::detach();

  std::vector<obs::Event> trace = obs::req_capture_take(42);
  ASSERT_EQ(trace.size(), 4u);  // submit + rule fire + task Begin/End
  EXPECT_EQ(trace.front().kind, obs::EventKind::kReqSubmit);
  EXPECT_EQ(trace.front().rank, -1);
  for (const obs::Event& e : trace) EXPECT_EQ(e.req, 42);
  for (size_t i = 1; i < trace.size(); ++i) EXPECT_GE(trace[i].t, trace[i - 1].t);
  // Ring events outside the registered scope kept their own attribution.
  auto ring = t.events();
  ASSERT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.back().req, 7);

  // take() drains: the registry empties and the fast-path gate drops.
  EXPECT_FALSE(obs::req_capture_active());
  EXPECT_TRUE(obs::req_capture_take(42).empty());
  EXPECT_STREQ(obs::kind_name(obs::EventKind::kReqSubmit), "req.submit");
  EXPECT_STREQ(obs::kind_category(obs::EventKind::kReqDone), "serve");
}

TEST(ObsRequestCapture, PerRequestRetentionIsCapped) {
  TraceOn on;
  obs::Tracer t;
  t.init(0, 16);
  obs::attach(&t);
  obs::req_capture_begin(5);
  {
    obs::RequestScope rs(5);
    for (size_t i = 0; i < obs::kReqCaptureCap + 100; ++i) {
      obs::instant(obs::EventKind::kAdlbPut, static_cast<int64_t>(i));
    }
  }
  obs::detach();
  std::vector<obs::Event> trace = obs::req_capture_take(5);
  EXPECT_EQ(trace.size(), obs::kReqCaptureCap);
  EXPECT_EQ(trace.front().a, 0);  // oldest kept; overflow drops the newest
}

// ---- concurrency (exercised under TSAN in CI) ----

// Snapshot readers race registry mutation: new metrics registered by name
// while counters/gauges/histograms are being snapshotted and queried.
TEST(ObsMetrics, ConcurrentRegistrySnapshotWhileMutating) {
  obs::Metrics m;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&m, w] {
      for (int i = 0; i < 4000; ++i) {
        m.counter("c." + std::to_string(i % 8)).add();
        m.gauge("g." + std::to_string(w)).set(i);
        m.histogram("h.lat").record(i * 1e-6);
        m.window_histogram("w.lat").record(i * 1e-6);
      }
    });
  }
  std::thread reader([&m, &stop] {
    while (!stop.load()) {
      (void)m.counters();
      (void)m.gauges();
      for (const auto& [name, h] : m.histograms()) {
        (void)name;
        (void)h->percentile(99);
        (void)h->count();
      }
      for (const auto& [name, w] : m.window_histograms()) {
        (void)name;
        (void)w->snapshot();
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(m.counter("c.0").value(), 3u * 4000u / 8u);
  EXPECT_EQ(m.histogram("h.lat").count(), 3u * 4000u);
}

// Recorders race snapshots across real sub-window rotations (a tiny
// window forces slot reuse while readers merge).
TEST(ObsMetrics, ConcurrentWindowHistogramRotation) {
  obs::WindowHistogram w(/*window_seconds=*/0.04);  // 5 ms sub-windows
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)w.snapshot();
      (void)w.percentile(99);
      (void)w.count();
    }
  });
  std::vector<std::thread> writers;
  for (int i = 0; i < 3; ++i) {
    writers.emplace_back([&w] {
      Timer t;
      while (t.elapsed() < 0.12) w.record(0.001);  // spans ~24 rotations
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  // Whatever remains is at most one window of the most recent records.
  (void)w.snapshot();
  SUCCEED();
}

// Stat drift: every field of every declared stat list reaches the metrics
// registry under its layer prefix with exactly the value RunResult carries,
// after a batch run and after a fault-tolerant run of the same program.
namespace {
void expect_stats_published(const runtime::RunResult& r) {
  const std::vector<std::pair<std::string, uint64_t>> registry = obs::metrics().counters();
  auto check = [&](const auto& stats) {
    const std::string prefix(stats.kMetricPrefix);
    const std::string layer = prefix.substr(0, prefix.find('.') + 1);
    EXPECT_TRUE(layer == "adlb." || layer == "engine." || layer == "worker." ||
                layer == "tcl." || layer == "mpi.")
        << prefix;
    stats.for_each([&](std::string_view name, uint64_t value) {
      const std::string metric = prefix + std::string(name);
      auto it = std::find_if(registry.begin(), registry.end(),
                             [&](const auto& entry) { return entry.first == metric; });
      ASSERT_NE(it, registry.end()) << metric << " is not in the registry";
      EXPECT_EQ(it->second, value) << metric;
    });
  };
  check(r.server_stats);
  check(r.cache_stats);
  check(r.pipeline_stats);
  check(r.engine_stats);
  check(r.worker_stats);
  check(r.tcl_stats);
  check(r.traffic);
  // The aggregate is real, not a table of zeros.
  EXPECT_GT(r.server_stats.puts, 0u);
  EXPECT_GT(r.engine_stats.rules_fired, 0u);
  EXPECT_GT(r.worker_stats.tasks, 0u);
  EXPECT_GT(r.tcl_stats.misses, 0u);
  EXPECT_GT(r.traffic.messages, 0u);
}
}  // namespace

TEST(ObsMetrics, EveryDeclaredStatIsPublished) {
  const bool prev = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  runtime::Config cfg;
  cfg.engines = 1;
  cfg.workers = 2;
  cfg.servers = 1;
  const runtime::RunResult batch = runtime::run_program(cfg, kSmallProgram);
  expect_stats_published(batch);
  const runtime::RunResult ft = runtime::run_with_faults(cfg, kSmallProgram);
  EXPECT_EQ(ft.ft.attempts, 1);
  expect_stats_published(ft);
  obs::set_metrics_enabled(prev);
}
