// RealtimePump: the bridge between wall-clock socket readiness and the
// deterministic event-queue time base.
//
// The whole simulation orders itself by SimTime; serving real clients means
// external events (bytes arriving on a TCP socket, a peer process dying)
// happen at wall-clock instants instead. The pump anchors a monotonic wall
// epoch at construction and maps elapsed wall time 1:1 onto SimTime, so a
// serve loop alternates:
//
//   pump.Poll(fds, WaitBound(...))  — sleep until sockets are ready
//   t = pump.Now()                  — one injection instant per iteration
//   queue socket events at t        — World::InjectPacket / InjectWireFrame
//   world.RunLoop(pump.Now())       — run the replicas up to t, handle the
//                                     events at t, catch up to the new Now()
//
// Everything that happened on the wire since the last iteration is stamped
// with the same SimTime t and handled once the replica has executed up to
// t, never by jumping its clock over guest time it did not run. Given the
// sequence of (t, injected events) pairs, the run is exactly reproducible —
// wall time only decides where the sequence gets cut. Now() is monotone
// (never re-reads an earlier instant) so injection points can never violate
// channel arrival ordering.
//
// hbft-lint: allow-file(wall-clock) — this layer IS the wall-clock boundary;
// everything downstream of Now() stays deterministic.
#ifndef HBFT_SIM_REALTIME_PUMP_HPP_
#define HBFT_SIM_REALTIME_PUMP_HPP_

#include <chrono>
#include <cstddef>

#include "common/time.hpp"

struct pollfd;

namespace hbft {

class RealtimePump {
 public:
  RealtimePump() : epoch_(std::chrono::steady_clock::now()) {}

  // Wall-clock elapsed since construction as SimTime, clamped monotone.
  SimTime Now();

  // ppoll(2) with a SimTime wait bound (floored at kMinWait so a zero-ish
  // bound cannot busy-spin). Returns poll's result; 0 fds is a plain
  // sleep. EINTR reads as 0 (the loop just re-evaluates).
  int Poll(pollfd* fds, size_t nfds, SimTime max_wait);

  // The one wait rule every serve loop sleeps by (socket readiness ends any
  // sleep early). Until the next queued event, but:
  //   - an event already due waits only the poll floor, kMinWait;
  //   - a runnable replica waits at most kRunnableWait, so a guest that is
  //     executing never falls more than that behind the wall clock (an
  //     interrupt due at its next epoch boundary is not left waiting for an
  //     unrelated wake-up);
  //   - nothing runnable and nothing queued waits kIdleWait, which keeps
  //     stop flags and session budgets responsive.
  static SimTime WaitBound(SimTime now, SimTime next_event, bool runnable);

  static constexpr SimTime kMinWait = SimTime::Micros(50);
  static constexpr SimTime kRunnableWait = SimTime::Millis(2);
  static constexpr SimTime kIdleWait = SimTime::Millis(50);

 private:
  std::chrono::steady_clock::time_point epoch_;
  SimTime last_ = SimTime::Zero();
};

}  // namespace hbft

#endif  // HBFT_SIM_REALTIME_PUMP_HPP_
