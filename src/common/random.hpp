// Deterministic random bit generator used across HarDTAPE, and the repo's one
// ChaCha20 core.
//
// The paper requires a "secure source of randomness proposed by the
// Manufacturer" (Section IV-B) for ORAM leaf choices, pre-evict/pre-load
// noise, key generation, and nonce derivation. We implement a ChaCha20-based
// DRBG: cryptographically strong output, cheap reseeding, and fully
// deterministic under a fixed seed so every experiment is reproducible.
//
// The core below computes ChaCha20 blocks for a list of jobs under one key,
// packing blocks of different jobs side by side across the CPU's vector
// lanes. The DRBG, the single-buffer AEAD calls and the ORAM walk's one
// keystream pass per path (crypto/chacha20_poly1305.hpp) all run on it, and
// every caller computes exactly the blocks it uses.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace hardtape {

/// One run of consecutive ChaCha20 blocks (RFC 8439 §2.3): the blocks of
/// `nonce` for counters counter, counter+1, ... (mod 2^32), `blocks` of them,
/// written back to back to `out` (64 * blocks bytes).
struct ChaCha20Job {
  std::array<uint32_t, 3> nonce{};
  uint32_t counter = 0;
  size_t blocks = 0;
  uint8_t* out = nullptr;
};

/// Computes every job's blocks under `key`. Blocks of different jobs share a
/// batch, so many short jobs cost what one long job of the same total does.
/// The lane width is picked once from the CPU: 16 blocks per batch on
/// AVX-512F, 8 on AVX2, 4 elsewhere. The bytes never depend on it.
void chacha20_blocks(const std::array<uint32_t, 8>& key, std::span<const ChaCha20Job> jobs);

/// Blocks per batch of chacha20_blocks on this CPU (4, 8 or 16).
size_t chacha20_lanes();

namespace detail {
/// chacha20_blocks at exactly `lanes` lanes (4, 8 or 16), for tests that
/// check every width against a reference. Returns false, computing nothing,
/// when this CPU lacks that width.
bool chacha20_blocks_at(size_t lanes, const std::array<uint32_t, 8>& key,
                        std::span<const ChaCha20Job> jobs);
}  // namespace detail

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
  /// Computes the next chacha20_lanes() blocks of the stream: one batch.
  void refill();

  std::array<uint32_t, 8> key_{};
  std::array<uint32_t, 3> nonce_{};
  uint32_t counter_ = 0;
  std::array<uint8_t, 64 * 16> buffer_{};  ///< one batch at the widest lane count
  size_t used_ = 0;                        ///< bytes of buffer_ already drawn
  size_t end_ = 0;                         ///< bytes of buffer_ the last refill wrote
};

}  // namespace hardtape
