// Minimal leveled logging. Off by default so tests and benches stay quiet;
// set ILPS_LOG=debug|info|warn|error in the environment or call set_level().
//
// Each line is prefixed with elapsed seconds since process start, the
// calling thread's rank (when one has been bound with set_thread_rank),
// and a single-letter level:  [ilps 0.123s r3 W] message
// warn/error lines flush stderr immediately so they survive a crash.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace ilps::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

Level level();
void set_level(Level level);

// Binds the calling thread to a rank for log prefixes (mpi::World does
// this for every rank thread). -1 means "no rank" and drops the field.
void set_thread_rank(int rank);
int thread_rank();

// Binds the calling thread to a serve request id for log prefixes:
// [ilps 0.123s r3 req17 W]. 0 means "no request" and drops the field.
// obs::RequestScope sets/restores this around request-attributed work;
// the tracer stamps it into every event, so the accessors are inline.
// constinit: the slot has no dynamic initializer, so every translation
// unit touches it directly instead of through a TLS init wrapper (whose
// weak, possibly-null init hook GCC's UBSAN reported as a null store).
namespace detail {
extern constinit thread_local int64_t t_request;
}  // namespace detail

inline void set_thread_request(int64_t req) { detail::t_request = req; }
inline int64_t thread_request() { return detail::t_request; }

// Thread-safe write of one line to stderr.
void write(Level level, const std::string& message);

namespace detail {
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void debug(const Args&... args) {
  if (level() <= Level::kDebug) write(Level::kDebug, detail::cat(args...));
}

template <typename... Args>
void info(const Args&... args) {
  if (level() <= Level::kInfo) write(Level::kInfo, detail::cat(args...));
}

template <typename... Args>
void warn(const Args&... args) {
  if (level() <= Level::kWarn) write(Level::kWarn, detail::cat(args...));
}

template <typename... Args>
void error(const Args&... args) {
  if (level() <= Level::kError) write(Level::kError, detail::cat(args...));
}

}  // namespace ilps::log
