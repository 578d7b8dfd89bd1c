// AES-128 and AES-128-GCM.
//
// HarDTAPE uses AES-GCM in three places (Section IV-C):
//  - the user<->Hypervisor secure channel (session key from DHKE),
//  - sealing layer-3 (untrusted memory) pages,
//  - ORAM block re-encryption (shared ORAM key across devices).
// This module serves the first two. ORAM slots, re-sealed by the thousand
// per bundle on the host, use ChaCha20-Poly1305 instead
// (crypto/chacha20_poly1305.hpp; DESIGN.md §1). The "A.E.DMA" hardware units
// of the paper correspond to this module plus the DMA cost model in sim/.
//
// This is a straightforward table-free software implementation; GHASH is a
// schoolbook GF(2^128) multiply. Correctness over speed — the performance
// numbers in the benches come from the cost models, not from this code's
// wall-clock time (see DESIGN.md §1).
#pragma once

#include <array>
#include <optional>

#include "common/bytes.hpp"

namespace hardtape::crypto {

using AesKey128 = std::array<uint8_t, 16>;
using GcmNonce = std::array<uint8_t, 12>;
using GcmTag = std::array<uint8_t, 16>;

/// Raw AES-128 block cipher. Exposed for tests against FIPS-197 vectors.
class Aes128 {
 public:
  explicit Aes128(const AesKey128& key);
  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;

 private:
  std::array<uint8_t, 176> round_keys_{};  // 11 round keys
};

struct GcmResult {
  Bytes ciphertext;
  GcmTag tag;
};

/// AES-128-GCM authenticated encryption.
GcmResult aes_gcm_encrypt(const AesKey128& key, const GcmNonce& nonce,
                          BytesView plaintext, BytesView aad);

/// Returns std::nullopt when the tag does not verify (expected failure mode;
/// never throws for tampered input).
std::optional<Bytes> aes_gcm_decrypt(const AesKey128& key, const GcmNonce& nonce,
                                     BytesView ciphertext, BytesView aad,
                                     const GcmTag& tag);

/// AES-128-CTR keystream XOR (unauthenticated).
Bytes aes_ctr_xor(const AesKey128& key, const GcmNonce& nonce, BytesView data);

}  // namespace hardtape::crypto
