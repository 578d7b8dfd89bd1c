// The Hypervisor firmware: boots, attests, manages sessions and the ORAM
// key (paper Fig. 3 steps 1-2 and Section IV-D "ORAM key protection").
//
// Memory discipline per the paper's security analysis (A3): the Hypervisor
// is heap-free, parses only fixed 32-byte headers, and its entire runtime
// state must fit the 256 KB on-chip memory — we track a modeled stack
// high-water so the resource bench can reproduce §VI-A's 248 KB figure.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "common/random.hpp"
#include "hypervisor/attestation.hpp"
#include "hypervisor/channel.hpp"

namespace hardtape::hypervisor {

class Hypervisor {
 public:
  /// Boots the device: verifies + measures the firmware images, derives the
  /// device identity from the PUF secret.
  Hypervisor(BytesView puf_secret, const Manufacturer& manufacturer,
             BytesView secure_bootloader, BytesView hypervisor_binary,
             BytesView hevm_bitstream, uint64_t rng_seed);

  const H256& firmware_measurement() const { return measurement_; }

  /// Step 2: responds to a user's attestation request. Generates ephemeral
  /// session keys, signs (session_pub || nonce) with the device key, and
  /// returns the report. The matching SecureChannel is created on-device.
  struct SessionHandle {
    uint32_t session_id;
    AttestationReport report;
  };
  SessionHandle begin_session(const H256& user_nonce, const crypto::Point& user_public);

  /// Channel of an active session. The returned reference stays valid until
  /// end_session() on that id, even while other sessions begin/end
  /// concurrently (sessions are heap-pinned). The channel object itself is
  /// single-owner: only the session's worker may seal/open on it.
  SecureChannel& channel(uint32_t session_id);
  void end_session(uint32_t session_id);

  // --- ORAM key management (shared across devices of one SP) ---
  bool has_oram_key() const {
    std::lock_guard lock(mu_);
    return oram_key_.has_value();
  }
  /// First device: generates the key from the secure RNG.
  const crypto::AesKey128& generate_oram_key();
  /// The key this boot seals ORAM slots under: HKDF-SHA256 of the ORAM key
  /// (generated first, as above, if this device has none), salted with
  /// `boot_generation` as 8 little-endian bytes. The ORAM client draws its
  /// nonces from a seeded DRBG that restarts with the device, so a warm
  /// restart under the same key would reseal under (key, nonce) pairs the SP
  /// already holds — and a repeated pair leaks the plaintexts' XOR and the
  /// one-time MAC key. Each boot therefore needs a generation no earlier
  /// boot used: the engine passes its durable store's, which recovery never
  /// hands out again while it is on disk (durability/recovery.hpp).
  crypto::AesKey128 oram_seal_key(uint64_t boot_generation);
  const crypto::AesKey128& oram_key() const;
  /// New device joining: obtains the key from `source` over a DHKE channel
  /// between the two trusted Hypervisors (both must be attested devices of
  /// the same manufacturer; the transfer is encrypted end-to-end).
  static Status share_oram_key(Hypervisor& source, Hypervisor& target);

  // --- §VI-A memory accounting ---
  /// Modeled firmware binary size (KB) and observed peak stack usage (KB).
  uint32_t binary_kb() const { return 156; }
  uint32_t peak_stack_kb() const {
    std::lock_guard lock(mu_);
    return peak_stack_kb_;
  }
  bool fits_onchip_memory() const { return binary_kb() + peak_stack_kb() <= 256; }

 private:
  void touch_stack(uint32_t kb) { peak_stack_kb_ = std::max(peak_stack_kb_, kb); }

  struct Session {
    uint32_t id;
    crypto::PrivateKey session_key;
    SecureChannel channel;
  };

  DeviceIdentity identity_;
  H256 measurement_;
  Random rng_;
  /// Guards every mutable member below. One user session == one HEVM worker
  /// in the concurrent engine, so session management must be callable from
  /// many threads; sessions are unique_ptr so channel references survive
  /// other sessions' churn.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint32_t next_session_id_ = 1;
  std::optional<crypto::AesKey128> oram_key_;
  uint32_t peak_stack_kb_ = 24;  // boot-time baseline
};

}  // namespace hardtape::hypervisor
