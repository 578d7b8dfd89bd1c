// Layer 3: the untrusted off-chip memory (paper Section IV-B).
//
// Holds call-stack pages evicted from the on-chip layer 2. The adversary has
// full read/write access to this memory (threat A4), so every page is sealed
// with ChaCha20-Poly1305 (the repo's one AEAD; the paper's A.E.DMA uses
// AES-GCM) under the per-session key before it leaves the chip, and any
// modification is detected on reload.
#pragma once

#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/random.hpp"
#include "crypto/chacha20_poly1305.hpp"

namespace hardtape::memlayer {

class Layer3Memory {
 public:
  Layer3Memory(const crypto::AesKey128& session_key, uint64_t rng_seed)
      : key_(crypto::chacha_key(session_key)), rng_(rng_seed) {}

  /// Seals and stores one page under `slot` (a page sequence number chosen
  /// by the pager; base offsets stay on-chip so the slot reveals nothing
  /// about the call-stack structure).
  void store(uint64_t slot, BytesView page);

  /// Loads and authenticates. Returns nullopt when the page is missing or
  /// fails authentication — the caller must abort the bundle.
  std::optional<Bytes> load(uint64_t slot) const;

  void erase(uint64_t slot) { slots_.erase(slot); }
  size_t page_count() const { return slots_.size(); }

  /// Adversary actions, for tests: flip a ciphertext bit / replay an old
  /// sealed page into another slot.
  bool tamper(uint64_t slot);
  bool replay(uint64_t from_slot, uint64_t to_slot);

 private:
  struct Sealed {
    crypto::ChaChaNonce nonce{};
    crypto::Poly1305Tag tag{};
    Bytes ciphertext;
  };

  crypto::ChaChaKey key_;
  mutable Random rng_;
  std::unordered_map<uint64_t, Sealed> slots_;
};

}  // namespace hardtape::memlayer
