#include "common/random.hpp"

#include <cstring>

namespace hardtape {

namespace {
constexpr std::array<uint32_t, 4> kSigma = {0x61707865, 0x3320646e, 0x79622d32,
                                            0x6b206574};  // "expand 32-byte k"

// One 32-bit state word of all four blocks: lane b belongs to block
// counter+b. GCC and Clang lower this vector type to SSE2 on x86-64 and NEON
// on AArch64 with no target flags (and to scalar code on anything else), so
// the four blocks run their rounds side by side.
using Lanes = uint32_t __attribute__((vector_size(16)));

inline Lanes rotl(Lanes v, int n) { return (v << n) | (v >> (32 - n)); }

inline void quarter_round(Lanes& a, Lanes& b, Lanes& c, Lanes& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}
}  // namespace

void chacha20_block(const std::array<uint32_t, 8>& key, uint32_t counter,
                    const std::array<uint32_t, 3>& nonce, ChaCha20Keystream& out) {
  static_assert(kChaCha20Blocks == 4, "one block per vector lane");
  Lanes state[16];
  for (size_t i = 0; i < 4; ++i) state[i] = Lanes{} + kSigma[i];
  for (size_t i = 0; i < 8; ++i) state[4 + i] = Lanes{} + key[i];
  state[12] = Lanes{counter, counter + 1, counter + 2, counter + 3};
  for (size_t i = 0; i < 3; ++i) state[13 + i] = Lanes{} + nonce[i];
  Lanes x[16];
  for (size_t i = 0; i < 16; ++i) x[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (size_t i = 0; i < 16; ++i) x[i] += state[i];
  // Lane b of word i is word i of block b.
  for (size_t b = 0; b < kChaCha20Blocks; ++b) {
    for (size_t i = 0; i < 16; ++i) {
      const uint32_t v = x[i][b];
      std::memcpy(out.data() + b * 64 + i * 4, &v, 4);  // little-endian hosts only
    }
  }
}

Random::Random(uint64_t seed) {
  key_[0] = static_cast<uint32_t>(seed);
  key_[1] = static_cast<uint32_t>(seed >> 32);
  key_[2] = 0x68617264;  // "hard"
  key_[3] = 0x74617065;  // "tape"
}

Random::Random(BytesView seed_material) {
  Bytes padded = right_pad(seed_material, 32);
  std::memcpy(key_.data(), padded.data(), 32);
}

void Random::refill() {
  chacha20_block(key_, counter_, nonce_, buffer_);
  counter_ += kChaCha20Blocks;
  available_ = buffer_.size();
}

void Random::fill(uint8_t* out, size_t n) {
  while (n > 0) {
    if (available_ == 0) refill();
    const size_t take = std::min(n, available_);
    std::memcpy(out, buffer_.data() + (buffer_.size() - available_), take);
    available_ -= take;
    out += take;
    n -= take;
  }
}

uint64_t Random::next_u64() {
  uint64_t v;
  fill(reinterpret_cast<uint8_t*>(&v), sizeof v);
  return v;
}

uint64_t Random::uniform(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = bound * ((~uint64_t{0} / bound));
  uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

uint64_t Random::uniform_range(uint64_t lo, uint64_t hi) {
  return lo + uniform(hi - lo + 1);
}

double Random::uniform_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

Bytes Random::bytes(size_t n) {
  Bytes out(n);
  fill(out.data(), n);
  return out;
}

uint64_t Random::swap_noise(uint64_t max_extra) {
  if (max_extra == 0) return 0;
  return uniform(max_extra + 1);
}

}  // namespace hardtape
