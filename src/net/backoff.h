// Bounded exponential backoff with deterministic "full jitter".
//
// Resilient clients that observe a connection error (reset, timeout) must
// not retry in lockstep — synchronized retries are the classic reconnect
// storm. Real clients decorrelate with randomized exponential backoff; a
// deterministic simulation needs the same decorrelation without consuming
// draws from any RNG stream that other parts of the run depend on. So the
// jitter here is a pure function of (key, attempt): SplitMix64
// (src/base/rng.h), the finalizer the repo's Rng seeds from, applied to a
// per-connection key mixed with the attempt number. Two clients with
// different keys spread out; the same run replays bit-identically; and no
// shared RNG stream is perturbed by how many retries happened.
//
// Delay schedule (the standard AWS-style "full jitter"):
//   cap    = min(base << attempt, max)        — bounded exponential ceiling
//   delay  = base + jitter in [0, cap - base] — never below base
//
// base > 0 keeps a retry from being instantaneous (a zero-cycle sleep would
// busy-spin the scheduler); the cap bounds worst-case reconnect latency.

#ifndef SRC_NET_BACKOFF_H_
#define SRC_NET_BACKOFF_H_

#include <cstdint>

#include "src/base/rng.h"
#include "src/base/time_units.h"

namespace elsc {

struct BackoffPolicy {
  Cycles base = UsToCycles(200);  // First-retry floor.
  Cycles max = MsToCycles(50);    // Exponential ceiling.
  int max_retries = 8;            // Attempts beyond this abandon the work.

  bool ShouldAbandon(int attempt) const { return attempt > max_retries; }

  // Delay before retry number `attempt` (1-based) for the connection
  // identified by `key`. Deterministic: same (policy, key, attempt) → same
  // delay, independent of global RNG state.
  Cycles Delay(uint64_t key, int attempt) const {
    if (attempt < 1) {
      attempt = 1;
    }
    Cycles cap = base;
    // Saturating shift: stop doubling once past the ceiling (attempt can
    // exceed 63 in pathological plans).
    for (int i = 1; i < attempt && cap < max; ++i) {
      cap = cap > max / 2 ? max : cap * 2;
    }
    if (cap > max) {
      cap = max;
    }
    if (cap <= base) {
      return base;
    }
    const uint64_t span = static_cast<uint64_t>(cap - base) + 1;
    uint64_t state = key ^ (0x6a09e667f3bcc909ull * static_cast<uint64_t>(attempt));
    const uint64_t jitter = SplitMix64(&state) % span;
    return base + static_cast<Cycles>(jitter);
  }
};

}  // namespace elsc

#endif  // SRC_NET_BACKOFF_H_
