#include "memlayer/layer3.hpp"

namespace hardtape::memlayer {

namespace {

std::array<uint8_t, 8> slot_aad(uint64_t slot) {
  std::array<uint8_t, 8> aad;
  for (size_t i = 0; i < aad.size(); ++i) aad[i] = static_cast<uint8_t>(slot >> (8 * i));
  return aad;
}

}  // namespace

void Layer3Memory::store(uint64_t slot, BytesView page) {
  Sealed sealed;
  rng_.fill(sealed.nonce.data(), sealed.nonce.size());
  // The slot number is authenticated as AAD so a sealed page cannot be
  // replayed into a different slot.
  sealed.ciphertext.assign(page.begin(), page.end());
  sealed.tag =
      crypto::chacha20_poly1305_seal(key_, sealed.nonce, slot_aad(slot), sealed.ciphertext);
  slots_[slot] = std::move(sealed);
}

std::optional<Bytes> Layer3Memory::load(uint64_t slot) const {
  const auto it = slots_.find(slot);
  if (it == slots_.end()) return std::nullopt;
  Bytes page = it->second.ciphertext;
  if (!crypto::chacha20_poly1305_open(key_, it->second.nonce, slot_aad(slot), page,
                                      it->second.tag)) {
    return std::nullopt;
  }
  return page;
}

bool Layer3Memory::tamper(uint64_t slot) {
  const auto it = slots_.find(slot);
  if (it == slots_.end()) return false;
  if (it->second.ciphertext.empty()) {
    it->second.tag[0] ^= 1;
  } else {
    it->second.ciphertext[0] ^= 1;
  }
  return true;
}

bool Layer3Memory::replay(uint64_t from_slot, uint64_t to_slot) {
  const auto it = slots_.find(from_slot);
  if (it == slots_.end()) return false;
  slots_[to_slot] = it->second;
  return true;
}

}  // namespace hardtape::memlayer
