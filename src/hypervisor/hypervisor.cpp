#include "hypervisor/hypervisor.hpp"

#include <cstring>
#include <string_view>

#include "common/errors.hpp"
#include "crypto/sha256.hpp"

namespace hardtape::hypervisor {

Hypervisor::Hypervisor(BytesView puf_secret, const Manufacturer& manufacturer,
                       BytesView secure_bootloader, BytesView hypervisor_binary,
                       BytesView hevm_bitstream, uint64_t rng_seed)
    : identity_(puf_secret, manufacturer),
      measurement_(measure_firmware(secure_bootloader, hypervisor_binary, hevm_bitstream)),
      rng_(rng_seed) {}

Hypervisor::SessionHandle Hypervisor::begin_session(const H256& user_nonce,
                                                    const crypto::Point& user_public) {
  std::lock_guard lock(mu_);
  touch_stack(92);  // session setup is the stack high-water mark (§VI-A)
  // Ephemeral session key for DHKE + report signing.
  crypto::PrivateKey session_key = crypto::PrivateKey::from_seed(rng_.bytes(32));
  const crypto::Point session_public = session_key.public_key();

  SessionHandle handle;
  handle.session_id = next_session_id_++;
  handle.report = identity_.attest(measurement_, session_public, user_nonce);

  SecureChannel channel(session_key, user_public);
  sessions_.push_back(std::make_unique<Session>(
      Session{handle.session_id, std::move(session_key), std::move(channel)}));
  return handle;
}

SecureChannel& Hypervisor::channel(uint32_t session_id) {
  std::lock_guard lock(mu_);
  for (const auto& session : sessions_) {
    if (session->id == session_id) return session->channel;
  }
  throw UsageError("hypervisor: unknown session");
}

void Hypervisor::end_session(uint32_t session_id) {
  std::lock_guard lock(mu_);
  std::erase_if(sessions_, [&](const auto& s) { return s->id == session_id; });
}

const crypto::AesKey128& Hypervisor::generate_oram_key() {
  std::lock_guard lock(mu_);
  if (!oram_key_.has_value()) {
    crypto::AesKey128 key;
    rng_.fill(key.data(), key.size());
    oram_key_ = key;
  }
  return *oram_key_;
}

crypto::AesKey128 Hypervisor::oram_seal_key(uint64_t boot_generation) {
  const crypto::AesKey128 key = generate_oram_key();
  uint8_t salt[8];
  for (size_t i = 0; i < sizeof salt; ++i) {
    salt[i] = static_cast<uint8_t>(boot_generation >> (8 * i));
  }
  constexpr std::string_view kInfo = "hardtape oram slot seal";
  const Bytes derived = crypto::hkdf_sha256(
      key, salt, BytesView{reinterpret_cast<const uint8_t*>(kInfo.data()), kInfo.size()},
      key.size());
  crypto::AesKey128 seal_key;
  std::memcpy(seal_key.data(), derived.data(), seal_key.size());
  return seal_key;
}

const crypto::AesKey128& Hypervisor::oram_key() const {
  std::lock_guard lock(mu_);
  if (!oram_key_.has_value()) throw UsageError("hypervisor: no ORAM key yet");
  return *oram_key_;
}

Status Hypervisor::share_oram_key(Hypervisor& source, Hypervisor& target) {
  if (!source.has_oram_key()) return Status::kRejected;
  // Both Hypervisors are attested devices; they build a device-to-device
  // DHKE channel and move the key encrypted.
  Bytes source_seed, target_seed;
  {
    std::lock_guard lock(source.mu_);
    source_seed = source.rng_.bytes(32);
  }
  {
    std::lock_guard lock(target.mu_);
    target_seed = target.rng_.bytes(32);
  }
  crypto::PrivateKey source_eph = crypto::PrivateKey::from_seed(source_seed);
  crypto::PrivateKey target_eph = crypto::PrivateKey::from_seed(target_seed);
  SecureChannel source_channel(source_eph, target_eph.public_key());
  SecureChannel target_channel(target_eph, source_eph.public_key());

  const auto& key = source.oram_key();
  const SecureMessage message = source_channel.seal(
      MessageType::kOramKeyResponse, 0, BytesView{key.data(), key.size()});
  const auto open = target_channel.open(message, /*max_body_length=*/64,
                                        /*max_target_offset=*/0);
  if (open.status != Status::kOk || open.body.size() != key.size()) {
    return Status::kAuthFailed;
  }
  crypto::AesKey128 received;
  std::copy(open.body.begin(), open.body.end(), received.begin());
  {
    std::lock_guard lock(target.mu_);
    target.oram_key_ = received;
  }
  return Status::kOk;
}

}  // namespace hardtape::hypervisor
