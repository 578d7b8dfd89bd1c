// ChaCha20-Poly1305 (RFC 8439) — the one AEAD.
//
// HarDTAPE's A.E.DMA seals three things with AES-GCM (paper Section IV-C):
// the user channel, layer-3 call-stack pages and ORAM blocks. This
// reproduction seals all three with this AEAD (DESIGN.md §1); the simulated
// cost model still charges the paper's A.E.DMA AES-GCM rate.
//
// Every ORAM access reopens and reseals a whole path of 1 KB slots, so this
// AEAD runs on the hottest path of the repo's host time. It is built for
// that: seal and open work in place on the caller's buffer, allocate
// nothing, and run ChaCha20 once per call — the Poly1305 one-time key is
// block 0 of the same 4-block keystream pass (common/random.hpp's core) that
// encrypts the data from block 1 on.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"

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

/// ChaCha20 encryption (RFC 8439 §2.4): XORs `data` in place with the
/// keystream whose first block has counter `initial_counter`.
void chacha20_xor(const ChaChaKey& key, uint32_t initial_counter, const ChaChaNonce& nonce,
                  std::span<uint8_t> data);

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
