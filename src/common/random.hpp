// Deterministic random bit generator used across HarDTAPE.
//
// The paper requires a "secure source of randomness proposed by the
// Manufacturer" (Section IV-B) for ORAM leaf choices, pre-evict/pre-load
// noise, key generation, and nonce derivation. We implement a ChaCha20-based
// DRBG: cryptographically strong output, cheap reseeding, and fully
// deterministic under a fixed seed so every experiment is reproducible.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace hardtape {

/// Blocks the ChaCha20 core computes per call.
inline constexpr size_t kChaCha20Blocks = 4;
/// Keystream of one call: kChaCha20Blocks 64-byte blocks back to back.
using ChaCha20Keystream = std::array<uint8_t, 64 * kChaCha20Blocks>;

/// The ChaCha20 block function (RFC 8439 §2.3), four blocks at a time: `out`
/// receives the blocks for counters counter, counter+1, counter+2 and
/// counter+3 (mod 2^32) in order. The repo's one ChaCha20 core — the DRBG
/// below and the slot seal in crypto/chacha20_poly1305 both run on it.
void chacha20_block(const std::array<uint32_t, 8>& key, uint32_t counter,
                    const std::array<uint32_t, 3>& nonce, ChaCha20Keystream& out);

/// ChaCha20-based DRBG. Not thread-safe; create one per simulated component.
class Random {
 public:
  /// Seeds from a 64-bit value (expanded into the ChaCha key).
  explicit Random(uint64_t seed);
  /// Seeds from raw key material (up to 32 bytes used).
  explicit Random(BytesView seed_material);

  uint64_t next_u64();
  /// Uniform in [0, bound) without modulo bias. bound must be > 0.
  uint64_t uniform(uint64_t bound);
  /// Uniform in [lo, hi] inclusive.
  uint64_t uniform_range(uint64_t lo, uint64_t hi);
  double uniform_double();  ///< in [0, 1)
  void fill(uint8_t* out, size_t n);
  Bytes bytes(size_t n);

  /// Pager noise: number of extra pages to pre-evict/pre-load, uniform in
  /// [0, max_extra] — a distribution independent of the true swap size
  /// (paper §IV-B: "random noises following a distribution unrelated to the
  /// actual size").
  uint64_t swap_noise(uint64_t max_extra);

 private:
  void refill();

  std::array<uint32_t, 8> key_{};
  std::array<uint32_t, 3> nonce_{};
  uint32_t counter_ = 0;
  ChaCha20Keystream buffer_{};
  size_t available_ = 0;
};

}  // namespace hardtape
