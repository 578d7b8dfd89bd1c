// ChaCha20-Poly1305 (RFC 8439) — the one AEAD.
//
// HarDTAPE's A.E.DMA seals three things with AES-GCM (paper Section IV-C):
// the user channel, layer-3 call-stack pages and ORAM blocks. This
// reproduction seals all three with this AEAD (DESIGN.md §1); the simulated
// cost model still charges the paper's A.E.DMA AES-GCM rate.
//
// Every ORAM access reopens and reseals a whole path of 1 KB slots, so this
// AEAD runs on the hottest path of the repo's host time. It is built for
// that: a ChaChaBatch queues every seal, open and free-slot keystream of a
// path, computes all of their ChaCha20 blocks in one call of the core
// (common/random.hpp), which packs blocks of different slots side by side in
// its vector lanes, and then seals or opens each job from an input span to
// an output span. The walk opens a slot the SP stores into client memory and
// seals a stash entry straight into the slot, so no slot is ever copied and
// neither plaintext nor a half-opened block is ever written where the SP
// keeps its bytes. Each job computes exactly the blocks it uses: block 0 is
// the Poly1305 one-time key and the data is XORed from block 1 on, so a
// 1,056-byte slot takes 18. The single-buffer calls at the bottom are
// batches of one that seal and open in place.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/random.hpp"

namespace hardtape::crypto {

using ChaChaKey = std::array<uint8_t, 32>;
using ChaChaNonce = std::array<uint8_t, 12>;
using Poly1305Key = std::array<uint8_t, 32>;
using Poly1305Tag = std::array<uint8_t, 16>;
/// A 128-bit seal key: the session, ORAM and layer-3 keys. The name is the
/// paper's (AES-128), kept because the end-to-end benchmark names it.
using AesKey128 = std::array<uint8_t, 16>;

/// The ChaCha20 key every seal in the repo uses: the 16-byte key, then 16
/// zero bytes (128-bit security, like the paper's AES-128-GCM).
ChaChaKey chacha_key(const AesKey128& key);

/// The Poly1305 one-time authenticator (RFC 8439 §2.5) over `message`.
Poly1305Tag poly1305(const Poly1305Key& key, BytesView message);

/// Keystream blocks one seal or open of `n` bytes computes: block 0 keys
/// Poly1305 and the data is XORed from block 1 on (RFC 8439 §2.8).
constexpr size_t aead_blocks(size_t n) { return 1 + (n + 63) / 64; }

/// Seals, opens and raw keystream runs under one key whose ChaCha20 blocks
/// are computed together, in one call of the core. Queue every job, run()
/// once, then finish each job by the index its add_ call returned. clear()
/// starts the next batch and keeps the buffers, so a batch that is reused
/// allocates only when it outgrows them.
class ChaChaBatch {
 public:
  /// Queues one seal or open of `n` bytes under `nonce` (aead_blocks(n)
  /// blocks from counter 0); returns its index.
  size_t add_aead(const ChaChaNonce& nonce, size_t n);
  /// Queues the keystream of `nonce` from block `counter` on, enough blocks
  /// to cover `n` bytes; returns its index.
  size_t add_stream(const ChaChaNonce& nonce, uint32_t counter, size_t n);
  /// Queues `blocks` keystream blocks of `nonce` from block `counter` on,
  /// which run() writes straight to `out` (64 * blocks bytes, the caller's);
  /// returns its index.
  size_t add_blocks(const ChaChaNonce& nonce, uint32_t counter, size_t blocks, uint8_t* out);
  /// Computes every queued job's blocks under `key`. Call once per batch.
  void run(const ChaChaKey& key);
  void clear() { jobs_.clear(); }

  // After run(). `in` and `out` are the size the job was queued for, and are
  // either one span (in place) or two that do not overlap.
  /// AEAD_CHACHA20_POLY1305 seal (RFC 8439 §2.8) with job `job`'s keystream:
  /// writes the plaintext `in` XOR keystream to `out`, each byte once, and
  /// returns the tag over `aad` and that ciphertext.
  Poly1305Tag seal(size_t job, BytesView aad, BytesView in, std::span<uint8_t> out) const;
  /// Checks `tag` against `aad` and the ciphertext `in` (constant time)
  /// before anything is decrypted. On a match writes the plaintext to `out`
  /// and returns true; on a mismatch returns false and writes nothing.
  bool open(size_t job, BytesView aad, BytesView in, std::span<uint8_t> out,
            const Poly1305Tag& tag) const;
  /// Job `job`'s keystream, its blocks back to back.
  const uint8_t* stream(size_t job) const { return jobs_.at(job).out; }

 private:
  /// Job `job`'s keystream, checked to be the AEAD blocks of `n` bytes.
  const uint8_t* aead_stream(size_t job, size_t n) const;

  /// `out` is null until run() points it into keystream_, except for
  /// add_blocks jobs, which write to the caller's buffer.
  std::vector<ChaCha20Job> jobs_;
  Bytes keystream_;  ///< the other jobs' blocks, in queue order
};

/// AEAD_CHACHA20_POLY1305 (RFC 8439 §2.8): encrypts `data` in place and
/// returns the tag over `aad` and the ciphertext.
Poly1305Tag chacha20_poly1305_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                                   BytesView aad, std::span<uint8_t> data);

/// Checks `tag` against `aad` and the ciphertext in `data` (constant time)
/// before anything is decrypted. On a match decrypts `data` in place and
/// returns true; on a mismatch returns false and leaves `data` as it was.
bool chacha20_poly1305_open(const ChaChaKey& key, const ChaChaNonce& nonce, BytesView aad,
                            std::span<uint8_t> data, const Poly1305Tag& tag);

}  // namespace hardtape::crypto
