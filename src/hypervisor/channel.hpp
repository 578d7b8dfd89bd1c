// The secure channel and the A.E.DMA message layer (paper Sections IV-A,
// IV-C; threats A3, A4).
//
// Wire format: a fixed 32-byte header — the ONLY thing the Hypervisor ever
// parses (its runtime memory never holds message bodies; the A.E.DMA engine
// moves payloads straight between the network buffer and HEVM memory). The
// body is sealed with ChaCha20-Poly1305 (crypto/chacha20_poly1305.hpp, the
// repo's one AEAD; the paper's A.E.DMA uses AES-GCM) under the session key,
// with the header bound as AAD and an anti-replay sequence number.
//
//   header := type(1) | flags(1) | reserved(2) | seq(4) | target_offset(8) |
//             body_length(8) | magic(8)
#pragma once

#include <cstring>
#include <optional>

#include "common/errors.hpp"
#include "crypto/chacha20_poly1305.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace hardtape::hypervisor {

enum class MessageType : uint8_t {
  kAttestRequest = 1,
  kAttestReport = 2,
  kBundleSubmit = 3,
  kTraceReport = 4,
  kOramKeyRequest = 5,
  kOramKeyResponse = 6,
};

struct MessageHeader {
  static constexpr size_t kSize = 32;
  static constexpr uint64_t kMagic = 0x4841524454415045ull;  // "HARDTAPE"

  MessageType type = MessageType::kBundleSubmit;
  uint8_t flags = 0;
  uint32_t sequence = 0;
  uint64_t target_offset = 0;
  uint64_t body_length = 0;

  std::array<uint8_t, kSize> serialize() const;
  /// Strict parse; nullopt on bad magic / unknown type / reserved bits.
  static std::optional<MessageHeader> parse(BytesView raw);
};

struct SecureMessage {
  std::array<uint8_t, MessageHeader::kSize> header{};
  crypto::ChaChaNonce nonce{};
  crypto::Poly1305Tag tag{};
  Bytes ciphertext;
};

/// Which end of a session a channel is. Both ends hold the same key, so
/// each stamps its own role into every nonce it seals: request n and reply n
/// never share a (key, nonce) pair, and an end refuses a frame that carries
/// its own role (its own frame reflected back at it).
///  - kInitiator: the user, the service client, the source device;
///  - kResponder: the hypervisor session, the front door, the target device.
enum class ChannelRole : uint8_t { kInitiator = 0x01, kResponder = 0x02 };

/// One end of an established session. Both sides derive the same 128-bit
/// key from ECDH + HKDF; sequence numbers and nonces are per-direction.
class SecureChannel {
 public:
  /// Derives the session key: HKDF(ECDH(my_key, peer_pub), info="hardtape").
  SecureChannel(const crypto::PrivateKey& my_key, const crypto::Point& peer_public,
                ChannelRole role);
  /// Directly from a pre-agreed key (e.g. tests).
  SecureChannel(const crypto::AesKey128& key, ChannelRole role)
      : key_(key), role_(role) {}

  const crypto::AesKey128& key() const { return key_; }

  SecureMessage seal(MessageType type, uint64_t target_offset, BytesView body);

  /// Full validation path, in the Hypervisor's order: parse header ->
  /// length/type/offset checks -> AEAD open (header as AAD) -> the
  /// sender's role must be the peer's (kRejected for a reflected frame) ->
  /// sequence check. Returns the body, or a Status explaining the rejection.
  struct OpenResult {
    Status status = Status::kOk;
    MessageHeader header{};
    Bytes body;
  };
  OpenResult open(const SecureMessage& message, uint64_t max_body_length,
                  uint64_t max_target_offset);

  /// Lossy-transport mode (the service front door's channels). Strict mode
  /// (the default) demands sequence == expected, which is right for the
  /// Hypervisor's lockstep attestation/DMA exchanges but permanently wedges
  /// a conversation the moment the transport drops one frame: every later
  /// frame looks like a replay. In lossy mode open() accepts any sequence
  /// >= expected (the gap is the dropped frames) and rejects < expected —
  /// replays and stale reorders still fail closed, and a rejected frame
  /// still never advances the window.
  void set_lossy_transport(bool lossy) { lossy_transport_ = lossy; }

 private:
  crypto::AesKey128 key_{};
  ChannelRole role_;
  uint32_t send_sequence_ = 0;
  uint32_t recv_sequence_ = 0;
  uint64_t nonce_counter_ = 0;
  bool lossy_transport_ = false;
};

}  // namespace hardtape::hypervisor
