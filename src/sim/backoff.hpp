// Bounded exponential backoff with deterministic jitter, in SIMULATED time.
//
// The recovery layer (service::RoutedStateReader) retries a request against
// the untrusted backend after a timeout; the wait between attempts doubles
// from base_ns up to cap_ns, plus a jitter term so concurrent sessions retrying
// against the same server do not synchronize into retry storms. The jitter
// is drawn from the ChaCha20 DRBG keyed by (jitter_seed, stream_tag,
// attempt), never from wall time or a shared generator — so a retry
// schedule depends only on those inputs, keeping faulted runs reproducible
// and the fault-free timeline bit-identical to serial execution.
#pragma once

#include <cstdint>

#include "common/random.hpp"

namespace hardtape::sim {

struct BackoffPolicy {
  /// Simulated time one attempt may spend waiting on the backend before it
  /// counts as dropped. Default ~4x the modeled ORAM round trip (~2.5 ms
  /// Ethernet RTT + server service, DESIGN.md §6).
  uint64_t request_timeout_ns = 10'000'000;
  /// Total attempts (first try + retries) before giving up fail-closed.
  int max_attempts = 4;
  uint64_t base_ns = 2'000'000;  ///< wait before the first retry
  uint64_t cap_ns = 50'000'000;  ///< exponential growth clamps here
  /// Jitter added on top of the exponential term, uniform in
  /// [0, jitter_frac * term]. Zero disables jitter entirely.
  double jitter_frac = 0.5;
  uint64_t jitter_seed = 0x7ea5'0ff5;
};

/// Simulated wait before retry number `attempt` (1 = first retry).
/// `stream_tag` identifies the retrying request (the engine derives it from
/// the block id) so distinct requests de-synchronize.
///
/// Safe for unbounded attempt counts: the exponential term saturates at
/// cap_ns before the doubling can wrap uint64 (a wrapped term would reset
/// the wait to ~0 around attempt 63 and re-synchronize every retrying
/// session into a storm), and the jitter bound is computed without the
/// float->int conversion UB a cap_ns near UINT64_MAX would otherwise hit.
inline uint64_t backoff_delay_ns(const BackoffPolicy& policy, int attempt,
                                 uint64_t stream_tag) {
  if (attempt < 1) return 0;
  uint64_t term = policy.base_ns;
  for (int i = 1; i < attempt && term < policy.cap_ns; ++i) {
    if (term > policy.cap_ns / 2) {  // one more doubling would pass (or wrap past) the cap
      term = policy.cap_ns;
      break;
    }
    term *= 2;
  }
  if (term > policy.cap_ns) term = policy.cap_ns;
  const double jitter_term = policy.jitter_frac * static_cast<double>(term);
  // Largest double exactly representable below 2^64; anything at or above
  // it would make the cast below undefined.
  constexpr double kMaxExact = 18446744073709549568.0;  // 2^64 - 2048
  const uint64_t jitter_bound = jitter_term <= 0.0 ? 0
                                : jitter_term >= kMaxExact
                                    ? static_cast<uint64_t>(kMaxExact)
                                    : static_cast<uint64_t>(jitter_term);
  if (jitter_bound == 0) return term;
  Random rng(policy.jitter_seed ^ (stream_tag * 0x9e3779b97f4a7c15ull) ^
             (static_cast<uint64_t>(static_cast<unsigned>(attempt) & 0xff) << 56));
  const uint64_t jitter = rng.uniform(jitter_bound == UINT64_MAX ? UINT64_MAX
                                                                 : jitter_bound + 1);
  // The sum can still exceed uint64 for adversarial cap/jitter configs;
  // saturate instead of wrapping (a wrap would zero the wait).
  return term > UINT64_MAX - jitter ? UINT64_MAX : term + jitter;
}

}  // namespace hardtape::sim
