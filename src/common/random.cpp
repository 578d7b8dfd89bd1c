#include "common/random.hpp"

#include <algorithm>
#include <cstring>

namespace hardtape {

namespace {
constexpr std::array<uint32_t, 4> kSigma = {0x61707865, 0x3320646e, 0x79622d32,
                                            0x6b206574};  // "expand 32-byte k"

using Key = std::array<uint32_t, 8>;
using Core = void (*)(const Key&, std::span<const ChaCha20Job>);

// One 32-bit state word of a batch of blocks: lane b belongs to the batch's
// b-th block. The compiler lowers each type to the vector registers of the
// function it is used in (SSE2 or NEON for 4 lanes, AVX2 for 8, AVX-512 for
// 16), so one template body serves every width.
using Lanes4 = uint32_t __attribute__((vector_size(16)));
using Lanes8 = uint32_t __attribute__((vector_size(32)));
using Lanes16 = uint32_t __attribute__((vector_size(64)));

// Everything below is forced inline into the per-width functions at the
// bottom, which carry the target attributes; no vector crosses a call, so no
// vector-passing ABI is involved.
template <class V>
[[gnu::always_inline]] inline void rotl(V& v, int n) {
  v = (v << n) | (v >> (32 - n));
}

template <class V>
[[gnu::always_inline]] inline void quarter_round(V& a, V& b, V& c, V& d) {
  a += b; d ^= a; rotl(d, 16);
  c += d; b ^= c; rotl(b, 12);
  a += b; d ^= a; rotl(d, 8);
  c += d; b ^= c; rotl(b, 7);
}

/// Up to W blocks, each from any job: its counter, nonce and destination.
template <size_t W>
struct Batch {
  uint32_t counter[W] = {};
  uint32_t nonce[3][W] = {};
  uint8_t* out[W] = {};
  size_t used = 0;
};

/// Interleaves the lanes of a and b: `low` gets a0 b0 a1 b1 ... from their
/// low halves, `high` the same from their high halves.
template <class V>
[[gnu::always_inline]] inline void interleave(const V& a, const V& b, V& low, V& high) {
  constexpr size_t W = sizeof(V) / sizeof(uint32_t);
  if constexpr (W == 4) {
    low = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    high = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  } else if constexpr (W == 8) {
    low = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    high = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
  } else {
    static_assert(W == 16);
    low = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19,
                                  4, 20, 5, 21, 6, 22, 7, 23);
    high = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27,
                                   12, 28, 13, 29, 14, 30, 15, 31);
  }
}

/// `key` holds the key words, each broadcast to every lane.
template <class V, size_t W>
[[gnu::always_inline]] inline void run_batch(const V (&key)[8], const Batch<W>& batch) {
  static_assert(sizeof(V) == 4 * W);
  V in[4];  // the words that differ by lane: counter, then the nonce
  std::memcpy(&in[0], batch.counter, sizeof(V));
  for (size_t i = 0; i < 3; ++i) std::memcpy(&in[1 + i], batch.nonce[i], sizeof(V));
  V x[16];
  for (size_t i = 0; i < 4; ++i) x[i] = V{} + kSigma[i];
  for (size_t i = 0; i < 8; ++i) x[4 + i] = key[i];
  for (size_t i = 0; i < 4; ++i) x[12 + i] = in[i];
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
  for (size_t i = 0; i < 4; ++i) x[i] += kSigma[i];
  for (size_t i = 0; i < 8; ++i) x[4 + i] += key[i];
  for (size_t i = 0; i < 4; ++i) x[12 + i] += in[i];
  // Lane b of word i is word i of block b. Transpose each run of W words as
  // a W x W square: log2(W) rounds of interleaving vector i with vector
  // i + W/2 leave vector b of the run holding those W words of block b.
  // These loops are unrolled so that every x[i] stays in a register.
#pragma GCC unroll 4
  for (size_t first = 0; first < 16; first += W) {
#pragma GCC unroll 4
    for (size_t step = 1; step < W; step *= 2) {
      V next[W];
#pragma GCC unroll 8
      for (size_t i = 0; i < W / 2; ++i) {
        interleave(x[first + i], x[first + i + W / 2], next[2 * i], next[2 * i + 1]);
      }
#pragma GCC unroll 16
      for (size_t i = 0; i < W; ++i) x[first + i] = next[i];
    }
  }
  // Block b is vector b of every run, 4 * W bytes each (little-endian hosts
  // only).
#pragma GCC unroll 16
  for (size_t b = 0; b < W; ++b) {
    if (b >= batch.used) continue;
#pragma GCC unroll 4
    for (size_t first = 0; first < 16; first += W) {
      std::memcpy(batch.out[b] + 4 * first, &x[first + b], sizeof(V));
    }
  }
}

/// Walks the jobs' blocks in order, W to a batch: a batch's lanes may hold
/// blocks of several jobs, and only the last batch runs part full.
template <class V>
[[gnu::always_inline]] inline void compute(const Key& key, std::span<const ChaCha20Job> jobs) {
  constexpr size_t W = sizeof(V) / sizeof(uint32_t);
  // Broadcast once per call: the blocks are stored through byte pointers
  // that may alias `key`, so a batch would otherwise reload every word.
  V key_words[8];
#pragma GCC unroll 8
  for (size_t i = 0; i < 8; ++i) key_words[i] = V{} + key[i];
  Batch<W> batch;
  size_t job = 0, block = 0;
  for (;;) {
    batch.used = 0;
    while (batch.used < W && job < jobs.size()) {
      if (block == jobs[job].blocks) {
        ++job;
        block = 0;
        continue;
      }
      batch.counter[batch.used] = jobs[job].counter + static_cast<uint32_t>(block);
      for (size_t i = 0; i < 3; ++i) batch.nonce[i][batch.used] = jobs[job].nonce[i];
      batch.out[batch.used] = jobs[job].out + 64 * block;
      ++batch.used;
      ++block;
    }
    if (batch.used == 0) return;
    run_batch<V>(key_words, batch);
  }
}

void compute_4(const Key& key, std::span<const ChaCha20Job> jobs) { compute<Lanes4>(key, jobs); }

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void compute_8(const Key& key, std::span<const ChaCha20Job> jobs) {
  compute<Lanes8>(key, jobs);
}

[[gnu::target("avx512f")]] void compute_16(const Key& key, std::span<const ChaCha20Job> jobs) {
  compute<Lanes16>(key, jobs);
}
#endif

/// The core for `lanes` lanes, or nullptr when this CPU lacks that width.
Core core_for(size_t lanes) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();  // callers may run before libgcc's own constructor
  if (lanes == 16) return __builtin_cpu_supports("avx512f") ? compute_16 : nullptr;
  if (lanes == 8) return __builtin_cpu_supports("avx2") ? compute_8 : nullptr;
#endif
  return lanes == 4 ? compute_4 : nullptr;
}
}  // namespace

void chacha20_blocks(const Key& key, std::span<const ChaCha20Job> jobs) {
  static const Core core = core_for(chacha20_lanes());
  core(key, jobs);
}

size_t chacha20_lanes() {
  static const size_t lanes = core_for(16) != nullptr ? 16 : core_for(8) != nullptr ? 8 : 4;
  return lanes;
}

bool detail::chacha20_blocks_at(size_t lanes, const Key& key,
                                std::span<const ChaCha20Job> jobs) {
  const Core core = core_for(lanes);
  if (core == nullptr) return false;
  core(key, jobs);
  return true;
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
  const size_t blocks = chacha20_lanes();
  const ChaCha20Job job{nonce_, counter_, blocks, buffer_.data()};
  chacha20_blocks(key_, {&job, 1});
  counter_ += static_cast<uint32_t>(blocks);
  used_ = 0;
  end_ = 64 * blocks;
}

void Random::fill(uint8_t* out, size_t n) {
  while (n > 0) {
    if (used_ == end_) refill();
    const size_t take = std::min(n, end_ - used_);
    std::memcpy(out, buffer_.data() + used_, take);
    used_ += take;
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
