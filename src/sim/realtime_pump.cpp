#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // ppoll
#endif

#include "sim/realtime_pump.hpp"

// hbft-lint: allow-file(wall-clock) — this layer IS the wall-clock boundary;
// everything downstream of Now() stays deterministic.

#include <cerrno>
#include <ctime>
#include <poll.h>

namespace hbft {

SimTime RealtimePump::Now() {
  auto elapsed = std::chrono::steady_clock::now() - epoch_;
  int64_t nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  SimTime t = SimTime::Nanos(nanos);
  if (t < last_) {
    t = last_;
  }
  last_ = t;
  return t;
}

int RealtimePump::Poll(pollfd* fds, size_t nfds, SimTime max_wait) {
  // ppoll for sub-millisecond waits: protocol events are often scheduled
  // tens of microseconds apart, and rounding every wait up to 1 ms would
  // serialise each event hop onto a millisecond of wall time.
  int64_t nanos = max_wait.nanos();
  if (nanos < kMinWait.nanos()) {
    nanos = kMinWait.nanos();  // Floor: a zero-ish bound must not busy-spin.
  }
  if (nanos > 1000 * 1000 * 1000LL) {
    nanos = 1000 * 1000 * 1000LL;  // Bound the sleep so stop flags stay responsive.
  }
  timespec ts{};
  ts.tv_sec = nanos / 1000000000LL;
  ts.tv_nsec = nanos % 1000000000LL;
  int rc = ppoll(fds, static_cast<nfds_t>(nfds), &ts, nullptr);
  if (rc < 0 && errno == EINTR) {
    return 0;
  }
  return rc;
}

SimTime RealtimePump::WaitBound(SimTime now, SimTime next_event, bool runnable) {
  if (next_event <= now) {
    return kMinWait;
  }
  const SimTime cap = runnable ? kRunnableWait : kIdleWait;
  const SimTime until = next_event - now;
  return until < cap ? until : cap;
}

}  // namespace hbft
