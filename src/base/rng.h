// Deterministic pseudo-random number generation for the simulation.
//
// The simulation must be fully reproducible from a seed (EXPERIMENTS.md
// records seeded runs), so we provide our own xoshiro256** generator rather
// than relying on std::mt19937 distribution implementations, whose results
// may differ across standard libraries.

#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cmath>
#include <cstdint>

#include "src/base/assert.h"

namespace elsc {

// splitmix64 (Steele, Lea & Flood; public-domain reference constants):
// advances *state by the golden-ratio increment and returns the mixed
// output. From state 0 the outputs are e220a8397b1dcdaf, 6e789e6aa1b965f4.
// Rng seeds from it and DeriveSeed chains it; the backoff jitter and the
// federation fault coins use it as a hash of a key copied into the state.
inline uint64_t SplitMix64(uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ull;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
// seeded via splitmix64 as recommended by the authors.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      word = SplitMix64(&x);
    }
  }

  // Uniform over all 64-bit values.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be nonzero.
  uint64_t NextBelow(uint64_t bound) {
    ELSC_CHECK(bound != 0);
    // Lemire's multiply-shift rejection method for unbiased bounded values.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    ELSC_CHECK(lo <= hi);
    const auto span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(NextBelow(span));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Returns true with probability p (clamped to [0, 1]).
  bool NextBool(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return NextDouble() < p;
  }

  // Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean) {
    ELSC_CHECK(mean > 0.0);
    double u = NextDouble();
    // Avoid log(0).
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(u);
  }

  // Forks an independent child stream; used to give each simulated task its
  // own generator so that adding tasks does not perturb others' draws.
  Rng Fork() { return Rng(Next() ^ 0x9e3779b97f4a7c15ull); }

 private:
  static uint64_t Rotl(uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

  uint64_t state_[4] = {};
};

}  // namespace elsc

#endif  // SRC_BASE_RNG_H_
