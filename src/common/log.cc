#include "common/log.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/sync.h"
#include "common/timer.h"

namespace ilps::log {

namespace {

Level initial_level() {
  const char* env = std::getenv("ILPS_LOG");
  if (env == nullptr) return Level::kOff;
  if (std::strcmp(env, "debug") == 0) return Level::kDebug;
  if (std::strcmp(env, "info") == 0) return Level::kInfo;
  if (std::strcmp(env, "warn") == 0) return Level::kWarn;
  if (std::strcmp(env, "error") == 0) return Level::kError;
  return Level::kOff;
}

ilps::Atomic<Level> g_level{initial_level()};
// Serializes stderr writes only; no fields are guarded by it.
ilps::Mutex g_mutex;
thread_local int t_rank = -1;

// flush-on-warn rate limit: a hot warning inside the data plane must not
// serialize every rank thread behind fflush. Warnings flush at most once
// per interval; errors always flush.
ilps::Atomic<int64_t> g_last_flush_us{-1000000};
constexpr int64_t kFlushIntervalUs = 50000;

char letter(Level level) {
  switch (level) {
    case Level::kDebug: return 'D';
    case Level::kInfo: return 'I';
    case Level::kWarn: return 'W';
    case Level::kError: return 'E';
    case Level::kOff: return '?';
  }
  return '?';
}

}  // namespace

namespace detail {
constinit thread_local int64_t t_request = 0;
}  // namespace detail

Level level() {
  // ordering: relaxed — the level is an independent configuration cell;
  // no other memory is published through it.
  return g_level.load(std::memory_order_relaxed);
}

void set_level(Level level) {
  // ordering: relaxed — see level(); a late level change is acceptable.
  g_level.store(level, std::memory_order_relaxed);
}

void set_thread_rank(int rank) { t_rank = rank; }

int thread_rank() { return t_rank; }

namespace {

bool should_flush(Level level) {
  if (level >= Level::kError) return true;
  if (level < Level::kWarn) return false;
  const int64_t now = static_cast<int64_t>(ilps::wtime() * 1e6);
  // ordering: relaxed — the rate-limit stamp guards nothing but itself;
  // losing the CAS race just means another thread flushes instead.
  int64_t last = g_last_flush_us.load(std::memory_order_relaxed);
  while (now - last >= kFlushIntervalUs) {
    // ordering: relaxed — same single-cell contract as the load above.
    if (g_last_flush_us.compare_exchange_weak(last, now, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void write(Level level, const std::string& message) {
  const int64_t req = thread_request();
  char prefix[96];
  if (t_rank >= 0 && req != 0) {
    std::snprintf(prefix, sizeof prefix, "[ilps %.3fs r%d req%lld %c]", ilps::wtime(), t_rank,
                  static_cast<long long>(req), letter(level));
  } else if (t_rank >= 0) {
    std::snprintf(prefix, sizeof prefix, "[ilps %.3fs r%d %c]", ilps::wtime(), t_rank,
                  letter(level));
  } else if (req != 0) {
    std::snprintf(prefix, sizeof prefix, "[ilps %.3fs req%lld %c]", ilps::wtime(),
                  static_cast<long long>(req), letter(level));
  } else {
    std::snprintf(prefix, sizeof prefix, "[ilps %.3fs %c]", ilps::wtime(), letter(level));
  }
  const bool flush = should_flush(level);
  ilps::LockGuard lock(g_mutex);
  std::fprintf(stderr, "%s %s\n", prefix, message.c_str());
  if (flush) std::fflush(stderr);
}

}  // namespace ilps::log
