#include "calibration.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <vector>

namespace perfbench {

namespace {

// --- hash kernel: SHA-256 compression (a frozen copy, FIPS 180-4) ---

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

void compress(uint32_t h[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (uint32_t{block[i * 4]} << 24) | (uint32_t{block[i * 4 + 1]} << 16) |
           (uint32_t{block[i * 4 + 2]} << 8) | block[i * 4 + 3];
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
    const uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t t2 = s0 + maj;
    hh = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  h[0] += a; h[1] += b; h[2] += c; h[3] += d;
  h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
}

constexpr int kHashBlocks = 700;

uint32_t run_hash_kernel(uint32_t seed) {
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::array<uint8_t, 64> block{};
  block[0] = static_cast<uint8_t>(seed);
  for (int i = 0; i < kHashBlocks; ++i) {
    compress(h, block.data());
    // Feed the digest back so no iteration can be skipped or hoisted.
    block[i & 63] ^= static_cast<uint8_t>(h[i & 7]);
  }
  return h[0];
}

// --- dispatch kernel: a byte-coded stack machine with per-op gas ---

enum Op : uint8_t {
  kPush1, kAdd, kMul, kXor, kAnd, kShr, kDup1, kDup2, kMload, kMstore, kDec, kJumpi,
  kStop
};
constexpr uint8_t kGas[] = {3, 3, 5, 3, 3, 3, 3, 3, 3, 3, 3, 10, 0};
constexpr uint64_t kVmIterations = 5000;

// Mixes a counter into a 64-word memory until the counter reaches zero.
std::vector<uint8_t> vm_program() {
  return {kPush1, 0, kMload,                         // counter = mem[0]
          kDup1, kPush1, 0x9d, kMul,                 // loop: x = c * k
          kDup1, kPush1, 13, kShr, kXor,             // x ^= x >> 13
          kDup2, kPush1, 63, kAnd, kMload, kAdd,     // x += mem[c & 63]
          kDup2, kPush1, 63, kAnd, kMstore,          // mem[c & 63] = x
          kDec, kDup1, kJumpi, 3,                    // if (--c) goto loop
          kStop};
}

uint64_t run_vm_kernel(const std::vector<uint8_t>& code, uint64_t seed) {
  uint64_t stack[64] = {};
  uint64_t memory[64] = {};
  memory[0] = kVmIterations;
  memory[1] = seed;
  int sp = 0;  // next free slot
  int64_t gas = 1LL << 40;
  size_t pc = 0;
  for (;;) {
    const uint8_t op = code[pc++];
    gas -= kGas[op];
    if (gas < 0) return 0;
    switch (op) {
      case kPush1: stack[sp++] = code[pc++]; break;
      case kAdd: --sp; stack[sp - 1] += stack[sp]; break;
      case kMul: --sp; stack[sp - 1] *= stack[sp]; break;
      case kXor: --sp; stack[sp - 1] ^= stack[sp]; break;
      case kAnd: --sp; stack[sp - 1] &= stack[sp]; break;
      case kShr: --sp; stack[sp - 1] >>= (stack[sp] & 63); break;
      case kDup1: stack[sp] = stack[sp - 1]; ++sp; break;
      case kDup2: stack[sp] = stack[sp - 2]; ++sp; break;
      case kMload: stack[sp - 1] = memory[stack[sp - 1] & 63]; break;
      case kMstore: sp -= 2; memory[stack[sp + 1] & 63] = stack[sp]; break;
      case kDec: stack[sp - 1] -= 1; break;
      case kJumpi: {
        const uint8_t target = code[pc++];
        if (stack[--sp] != 0) pc = target;
        break;
      }
      default: return memory[1] ^ memory[2] ^ stack[0];
    }
  }
}

template <typename Fn>
double time_ns(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
      .count();
}

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

volatile uint64_t g_sink = 0;

// One random cycle through 4M entries (Sattolo's shuffle, fixed xorshift
// seed): each load depends on the last and lands on an unpredictable line.
std::vector<uint32_t> build_cycle() {
  constexpr uint32_t kEntries = 4u << 20;  // 16 MB
  std::vector<uint32_t> order(kEntries);
  for (uint32_t i = 0; i < kEntries; ++i) order[i] = i;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = kEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % i]);
  }
  std::vector<uint32_t> next(kEntries);
  for (uint32_t i = 0; i < kEntries; ++i) next[order[i]] = order[(i + 1) % kEntries];
  return next;
}

}  // namespace

RefSample sample_reference() {
  static const std::vector<uint8_t> code = vm_program();
  double hash[3];
  double dispatch[3];
  for (int i = 0; i < 3; ++i) {
    const uint64_t seed = g_sink + static_cast<uint64_t>(i);
    hash[i] = time_ns([&] { g_sink = g_sink + run_hash_kernel(static_cast<uint32_t>(seed)); });
    dispatch[i] = time_ns([&] { g_sink = g_sink + run_vm_kernel(code, seed); });
  }
  return {median3(hash[0], hash[1], hash[2]), median3(dispatch[0], dispatch[1], dispatch[2])};
}

std::vector<double> memory_latency_by_cpu(const std::vector<int>& cpus) {
  const std::vector<uint32_t> next = build_cycle();
  uint32_t at = 0;
  std::vector<double> out;
  for (const int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    double runs[3];
    for (double& run : runs) {
      run = time_ns([&] {
        for (int step = 0; step < 2000; ++step) at = next[at];
      });
    }
    out.push_back(median3(runs[0], runs[1], runs[2]));
  }
  g_sink = g_sink + at;
  return out;
}

}  // namespace perfbench
