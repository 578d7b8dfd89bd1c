#include "crypto/chacha20_poly1305.hpp"

#include <algorithm>
#include <cstring>

#include "common/random.hpp"

namespace hardtape::crypto {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;
/// 2^128 in the top limb: the pad bit of a full 16-byte block.
constexpr uint64_t kFullBlockBit = uint64_t{1} << 40;

uint64_t load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);  // little-endian hosts only
  return v;
}

void store64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }

/// Poly1305 over GF(2^130 - 5) with the accumulator and r in three limbs of
/// 44, 44 and 42 bits, so every limb product fits a 128-bit integer.
class Poly1305 {
 public:
  explicit Poly1305(const uint8_t key[32]) {
    const uint64_t t0 = load64(key);
    const uint64_t t1 = load64(key + 8);
    // Clamp r (RFC 8439 §2.5) while splitting it into limbs.
    r0_ = t0 & 0xffc0fffffffull;
    r1_ = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffull;
    r2_ = (t1 >> 24) & 0x00ffffffc0full;
    // Limb products past 2^130 fold back in as *5; the extra *4 is the
    // 2^132 = 2^130 * 4 offset of the r1 and r2 limbs' overflow.
    s1_ = r1_ * 20;
    s2_ = r2_ * 20;
    s_lo_ = load64(key + 16);
    s_hi_ = load64(key + 24);
  }

  /// Absorbs `count` 16-byte blocks, each extended by `pad_bit` (2^128 for
  /// a full block; 0 for the final block of a raw message, which carries
  /// its own 0x01 byte).
  void blocks(const uint8_t* m, size_t count, uint64_t pad_bit = kFullBlockBit) {
    uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
    for (; count > 0; --count, m += 16) {
      const uint64_t t0 = load64(m);
      const uint64_t t1 = load64(m + 8);
      h0 += t0 & kMask44;
      h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
      h2 += ((t1 >> 24) & kMask42) | pad_bit;
      u128 d0 = u128{h0} * r0_ + u128{h1} * s2_ + u128{h2} * s1_;
      u128 d1 = u128{h0} * r1_ + u128{h1} * r0_ + u128{h2} * s2_;
      u128 d2 = u128{h0} * r2_ + u128{h1} * r1_ + u128{h2} * r0_;
      uint64_t c = static_cast<uint64_t>(d0 >> 44);
      h0 = static_cast<uint64_t>(d0) & kMask44;
      d1 += c;
      c = static_cast<uint64_t>(d1 >> 44);
      h1 = static_cast<uint64_t>(d1) & kMask44;
      d2 += c;
      c = static_cast<uint64_t>(d2 >> 42);
      h2 = static_cast<uint64_t>(d2) & kMask42;
      h0 += c * 5;
      c = h0 >> 44;
      h0 &= kMask44;
      h1 += c;
    }
    h0_ = h0;
    h1_ = h1;
    h2_ = h2;
  }

  /// Absorbs `n` bytes zero-padded to a whole number of 16-byte blocks, as
  /// the AEAD construction pads the additional data and the ciphertext
  /// (RFC 8439 §2.8).
  void zero_padded(const uint8_t* m, size_t n) {
    const size_t whole = n / 16;
    blocks(m, whole);
    if (n % 16 == 0) return;
    uint8_t block[16] = {};
    std::memcpy(block, m + whole * 16, n % 16);
    blocks(block, 1);
  }

  Poly1305Tag finish() {
    uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
    // Fully carry h; the carry out of the top limb folds back in as *5.
    uint64_t c = h1 >> 44;
    h1 &= kMask44;
    h2 += c;
    c = h2 >> 42;
    h2 &= kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
    c = h1 >> 44;
    h1 &= kMask44;
    h2 += c;
    c = h2 >> 42;
    h2 &= kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
    // g = h + 5 - 2^130; keep it instead of h when it did not go negative
    // (h >= p), chosen by mask rather than by branch.
    uint64_t g0 = h0 + 5;
    c = g0 >> 44;
    g0 &= kMask44;
    uint64_t g1 = h1 + c;
    c = g1 >> 44;
    g1 &= kMask44;
    uint64_t g2 = h2 + c - (uint64_t{1} << 42);
    const uint64_t use_g = (g2 >> 63) - 1;  // all ones when g2 did not borrow
    h0 = (h0 & ~use_g) | (g0 & use_g);
    h1 = (h1 & ~use_g) | (g1 & use_g);
    h2 = (h2 & ~use_g) | (g2 & use_g);
    // tag = (h + s) mod 2^128.
    h0 += s_lo_ & kMask44;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += (((s_lo_ >> 44) | (s_hi_ << 20)) & kMask44) + c;
    c = h1 >> 44;
    h1 &= kMask44;
    h2 += (s_hi_ >> 24) + c;
    Poly1305Tag tag;
    store64(tag.data(), h0 | (h1 << 44));
    store64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
    return tag;
  }

 private:
  uint64_t r0_ = 0, r1_ = 0, r2_ = 0, s1_ = 0, s2_ = 0;  ///< clamped r, and r * 20
  uint64_t s_lo_ = 0, s_hi_ = 0;                         ///< s, the final pad
  uint64_t h0_ = 0, h1_ = 0, h2_ = 0;                    ///< the accumulator
};

std::array<uint32_t, 8> key_words(const ChaChaKey& key) {
  std::array<uint32_t, 8> words;
  std::memcpy(words.data(), key.data(), key.size());  // little-endian hosts only
  return words;
}

std::array<uint32_t, 3> nonce_words(const ChaChaNonce& nonce) {
  std::array<uint32_t, 3> words;
  std::memcpy(words.data(), nonce.data(), nonce.size());
  return words;
}

void xor_bytes(uint8_t* data, const uint8_t* keystream, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) store64(data + i, load64(data + i) ^ load64(keystream + i));
  for (; i < n; ++i) data[i] ^= keystream[i];
}

/// One keystream pass for (key, nonce) from counter `start` on. The first
/// 4-block call is made at construction, so the AEAD can take the start of
/// block 0 as Poly1305's key before deciding whether to decrypt.
class Keystream {
 public:
  Keystream(const ChaChaKey& key, const ChaChaNonce& nonce, uint32_t start)
      : key_(key_words(key)), nonce_(nonce_words(nonce)), counter_(start) {
    chacha20_block(key_, counter_, nonce_, block_);
    std::memcpy(one_time_key_.data(), block_.data(), one_time_key_.size());
  }

  /// The first 32 bytes of the first block (RFC 8439 §2.6 at counter 0).
  const uint8_t* one_time_key() const { return one_time_key_.data(); }

  /// XORs `data` with the keystream from byte `offset` of the first call on.
  void apply(std::span<uint8_t> data, size_t offset) {
    for (size_t done = 0; done < data.size();) {
      if (offset == block_.size()) {
        counter_ += kChaCha20Blocks;
        chacha20_block(key_, counter_, nonce_, block_);
        offset = 0;
      }
      const size_t take = std::min(data.size() - done, block_.size() - offset);
      xor_bytes(data.data() + done, block_.data() + offset, take);
      done += take;
      offset += take;
    }
  }

 private:
  std::array<uint32_t, 8> key_;
  std::array<uint32_t, 3> nonce_;
  uint32_t counter_;
  ChaCha20Keystream block_;
  Poly1305Key one_time_key_;
};

/// The AEAD tag: Poly1305 over the additional data, then the ciphertext,
/// each zero-padded to 16 bytes, then le64(aad length) || le64(ct length).
Poly1305Tag aead_tag(const uint8_t one_time_key[32], BytesView aad, BytesView ciphertext) {
  Poly1305 mac(one_time_key);
  mac.zero_padded(aad.data(), aad.size());
  mac.zero_padded(ciphertext.data(), ciphertext.size());
  uint8_t lengths[16];
  store64(lengths, aad.size());
  store64(lengths + 8, ciphertext.size());
  mac.blocks(lengths, 1);
  return mac.finish();
}

}  // namespace

ChaChaKey chacha_key(const AesKey128& key) {
  ChaChaKey out{};
  std::memcpy(out.data(), key.data(), key.size());
  return out;
}

Poly1305Tag poly1305(const Poly1305Key& key, BytesView message) {
  Poly1305 mac(key.data());
  const size_t whole = message.size() / 16;
  mac.blocks(message.data(), whole);
  if (const size_t rest = message.size() % 16; rest != 0) {
    uint8_t block[16] = {};
    std::memcpy(block, message.data() + whole * 16, rest);
    block[rest] = 1;
    mac.blocks(block, 1, /*pad_bit=*/0);
  }
  return mac.finish();
}

void chacha20_xor(const ChaChaKey& key, uint32_t initial_counter, const ChaChaNonce& nonce,
                  std::span<uint8_t> data) {
  Keystream(key, nonce, initial_counter).apply(data, 0);
}

Poly1305Tag chacha20_poly1305_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                                   BytesView aad, std::span<uint8_t> data) {
  Keystream stream(key, nonce, 0);
  stream.apply(data, 64);  // block 0 is the MAC key; data starts at block 1
  return aead_tag(stream.one_time_key(), aad, data);
}

bool chacha20_poly1305_open(const ChaChaKey& key, const ChaChaNonce& nonce, BytesView aad,
                            std::span<uint8_t> data, const Poly1305Tag& tag) {
  Keystream stream(key, nonce, 0);
  const Poly1305Tag expected = aead_tag(stream.one_time_key(), aad, data);
  if (!ct_equal(expected, tag)) return false;
  stream.apply(data, 64);
  return true;
}

}  // namespace hardtape::crypto
