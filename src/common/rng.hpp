// Deterministic pseudo-random number generation.
//
// All nondeterminism in the simulation (TLB "hardware" replacement, device
// fault injection, workload block selection on the host side) flows through
// DeterministicRng seeded explicitly, so any run is exactly reproducible from
// its seed. The generator is splitmix64 — tiny, fast, and well distributed.
#ifndef HBFT_COMMON_RNG_HPP_
#define HBFT_COMMON_RNG_HPP_

#include <cstdint>

namespace hbft {

class DeterministicRng {
 public:
  explicit DeterministicRng(uint64_t seed) : state_(seed) {}

  // Next raw 64-bit value (splitmix64 step).
  uint64_t Next();

  // Uniform value in [0, bound) via Lemire multiply-shift reduction (bound > 0).
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Raw generator state, exposed so snapshots can clone a stream exactly
  // (restoring it reproduces the identical draw sequence).
  uint64_t state() const { return state_; }
  void set_state(uint64_t state) { state_ = state; }

 private:
  uint64_t state_ = 0;
};

}  // namespace hbft

#endif  // HBFT_COMMON_RNG_HPP_
