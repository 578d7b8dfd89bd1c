#include "hypervisor/channel.hpp"

#include "common/errors.hpp"

namespace hardtape::hypervisor {

std::array<uint8_t, MessageHeader::kSize> MessageHeader::serialize() const {
  std::array<uint8_t, kSize> out{};
  out[0] = static_cast<uint8_t>(type);
  out[1] = flags;
  // out[2..3] reserved, zero.
  std::memcpy(out.data() + 4, &sequence, 4);
  std::memcpy(out.data() + 8, &target_offset, 8);
  std::memcpy(out.data() + 16, &body_length, 8);
  const uint64_t magic = kMagic;
  std::memcpy(out.data() + 24, &magic, 8);
  return out;
}

std::optional<MessageHeader> MessageHeader::parse(BytesView raw) {
  if (raw.size() != kSize) return std::nullopt;
  uint64_t magic;
  std::memcpy(&magic, raw.data() + 24, 8);
  if (magic != kMagic) return std::nullopt;
  if (raw[2] != 0 || raw[3] != 0) return std::nullopt;  // reserved must be zero
  const uint8_t type = raw[0];
  if (type < 1 || type > 6) return std::nullopt;
  MessageHeader header;
  header.type = static_cast<MessageType>(type);
  header.flags = raw[1];
  std::memcpy(&header.sequence, raw.data() + 4, 4);
  std::memcpy(&header.target_offset, raw.data() + 8, 8);
  std::memcpy(&header.body_length, raw.data() + 16, 8);
  return header;
}

SecureChannel::SecureChannel(const crypto::PrivateKey& my_key,
                             const crypto::Point& peer_public, ChannelRole role)
    : role_(role) {
  const H256 shared = my_key.ecdh(peer_public);
  const std::string info = "hardtape-session-v1";
  const Bytes okm = crypto::hkdf_sha256(
      shared.view(), BytesView{},
      BytesView{reinterpret_cast<const uint8_t*>(info.data()), info.size()}, key_.size());
  std::memcpy(key_.data(), okm.data(), key_.size());
}

SecureMessage SecureChannel::seal(MessageType type, uint64_t target_offset,
                                  BytesView body) {
  MessageHeader header;
  header.type = type;
  header.sequence = send_sequence_++;
  header.target_offset = target_offset;
  header.body_length = body.size();

  SecureMessage message;
  message.header = header.serialize();
  // Deterministic per-message nonce: a counter plus this end's role, so the
  // two ends of one key never seal under the same nonce.
  ++nonce_counter_;
  std::memcpy(message.nonce.data(), &nonce_counter_, sizeof nonce_counter_);
  message.nonce[11] = static_cast<uint8_t>(role_);

  message.ciphertext.assign(body.begin(), body.end());
  message.tag = crypto::chacha20_poly1305_seal(crypto::chacha_key(key_), message.nonce,
                                               message.header, message.ciphertext);
  return message;
}

SecureChannel::OpenResult SecureChannel::open(const SecureMessage& message,
                                              uint64_t max_body_length,
                                              uint64_t max_target_offset) {
  OpenResult result;
  // Step 1: header-only validation (the Hypervisor's 32-byte parse).
  const auto header = MessageHeader::parse(
      BytesView{message.header.data(), message.header.size()});
  if (!header.has_value()) {
    result.status = Status::kMalformedMessage;
    return result;
  }
  if (header->body_length != message.ciphertext.size() ||
      header->body_length > max_body_length ||
      header->target_offset > max_target_offset) {
    result.status = Status::kMalformedMessage;
    return result;
  }
  // Step 2: authenticated decryption with the header as AAD.
  Bytes body = message.ciphertext;
  if (!crypto::chacha20_poly1305_open(crypto::chacha_key(key_), message.nonce,
                                      message.header, body, message.tag)) {
    result.status = Status::kAuthFailed;
    return result;
  }
  // Step 3: only the peer seals frames for this end. A frame stamped with
  // this end's own role is its own frame reflected back: refuse it.
  const ChannelRole peer = role_ == ChannelRole::kInitiator ? ChannelRole::kResponder
                                                            : ChannelRole::kInitiator;
  if (message.nonce[11] != static_cast<uint8_t>(peer)) {
    result.status = Status::kRejected;
    return result;
  }
  // Step 4: anti-replay sequence check. Strict mode: exactly the expected
  // sequence. Lossy mode: allow forward skips (dropped frames), never
  // backward ones (replays / stale reorders).
  const bool acceptable = lossy_transport_
                              ? header->sequence >= recv_sequence_
                              : header->sequence == recv_sequence_;
  if (!acceptable) {
    result.status = Status::kRejected;
    return result;
  }
  recv_sequence_ = header->sequence + 1;
  result.header = *header;
  result.body = std::move(body);
  return result;
}

}  // namespace hardtape::hypervisor
