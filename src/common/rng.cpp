#include "common/rng.hpp"

#include "common/check.hpp"

namespace hbft {

uint64_t DeterministicRng::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t DeterministicRng::NextBelow(uint64_t bound) {
  HBFT_CHECK_GT(bound, 0u);
  // Lemire's multiply-shift; bias is negligible for simulation purposes.
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double DeterministicRng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool DeterministicRng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

}  // namespace hbft
