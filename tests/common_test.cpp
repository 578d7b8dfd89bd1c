// Unit tests for src/common: byte utilities, u256 arithmetic with EVM
// semantics, and the ChaCha20 DRBG.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "common/random.hpp"
#include "common/u256.hpp"

namespace hardtape {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(to_hex0x(data), "0x0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0x0001ABFF"), data);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, CtEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, BytesView{a.data(), 2}));
}

TEST(Bytes, RightPad) {
  const Bytes data = {1, 2};
  EXPECT_EQ(right_pad(data, 4), (Bytes{1, 2, 0, 0}));
  EXPECT_EQ(right_pad(data, 1), (Bytes{1}));
}

TEST(U256, BasicConstructionAndCompare) {
  EXPECT_TRUE(u256{}.is_zero());
  EXPECT_EQ(u256{42}.as_u64(), 42u);
  EXPECT_LT(u256{1}, u256{2});
  EXPECT_GT(u256(1, 0, 0, 0), u256(0, ~0ull, ~0ull, ~0ull));
}

TEST(U256, AdditionWithCarryAcrossLimbs) {
  const u256 max_low{0, 0, 0, ~0ull};
  EXPECT_EQ(max_low + u256{1}, u256(0, 0, 1, 0));
  // Wrap at 2^256.
  const u256 all_ones = ~u256{};
  EXPECT_EQ(all_ones + u256{1}, u256{});
}

TEST(U256, SubtractionBorrow) {
  EXPECT_EQ(u256(0, 0, 1, 0) - u256{1}, u256(0, 0, 0, ~0ull));
  EXPECT_EQ(u256{} - u256{1}, ~u256{});
}

TEST(U256, Multiplication) {
  EXPECT_EQ(u256{7} * u256{6}, u256{42});
  // (2^128) * (2^128) wraps to 0.
  const u256 two128 = u256{1} << 128;
  EXPECT_EQ(two128 * two128, u256{});
  // (2^64) * (2^64) = 2^128.
  const u256 two64 = u256{1} << 64;
  EXPECT_EQ(two64 * two64, two128);
}

TEST(U256, MulWide) {
  const u256 a = ~u256{};  // 2^256 - 1
  const auto [hi, lo] = u256::mul_wide(a, a);
  // (2^256-1)^2 = 2^512 - 2^257 + 1 -> hi = 2^256 - 2, lo = 1.
  EXPECT_EQ(lo, u256{1});
  EXPECT_EQ(hi, ~u256{} - u256{1});
}

TEST(U256, DivMod) {
  EXPECT_EQ(u256{100} / u256{7}, u256{14});
  EXPECT_EQ(u256{100} % u256{7}, u256{2});
  // EVM: division by zero yields zero.
  EXPECT_EQ(u256{100} / u256{}, u256{});
  EXPECT_EQ(u256{100} % u256{}, u256{});
  // Large / small.
  const u256 big = u256::from_string(
      "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  EXPECT_EQ(big / u256{1}, big);
  EXPECT_EQ(big % big, u256{});
  EXPECT_EQ(big / big, u256{1});
}

TEST(U256, DivModReconstruction) {
  // a = q*b + r for pseudo-random values.
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    u256 a(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    u256 b(i % 3 == 0 ? 0 : rng.next_u64(), rng.next_u64(), 0, rng.next_u64());
    if (b.is_zero()) b = u256{rng.next_u64() | 1};
    const auto [q, r] = u256::divmod(a, b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(U256, StringConversions) {
  EXPECT_EQ(u256::from_string("123456789").to_string(), "123456789");
  EXPECT_EQ(u256::from_string("0xff").as_u64(), 255u);
  EXPECT_EQ(u256::from_string("0xdeadbeef").to_hex(), "deadbeef");
  EXPECT_EQ(u256{}.to_string(), "0");
  EXPECT_EQ(u256{}.to_hex(), "0");
  EXPECT_THROW(u256::from_string(""), std::invalid_argument);
  EXPECT_THROW(u256::from_string("12a"), std::invalid_argument);
  const std::string huge =
      "115792089237316195423570985008687907853269984665640564039457584007913129"
      "639935";  // 2^256 - 1
  EXPECT_EQ(u256::from_string(huge), ~u256{});
  EXPECT_EQ((~u256{}).to_string(), huge);
}

TEST(U256, BeBytesRoundTrip) {
  const u256 v = u256::from_string("0x0102030405060708090a0b0c0d0e0f10");
  const auto be = v.to_be_bytes();
  EXPECT_EQ(u256::from_be_bytes(be), v);
  EXPECT_EQ(be[31], 0x10);
  EXPECT_EQ(be[16], 0x01);
  EXPECT_EQ(be[0], 0x00);
  // Short input is left-padded (treated as big-endian value).
  EXPECT_EQ(u256::from_be_bytes(Bytes{0x12, 0x34}), u256{0x1234});
}

TEST(U256, Shifts) {
  const u256 one{1};
  EXPECT_EQ(one << 0, one);
  EXPECT_EQ(one << 255, u256(0x8000000000000000ull, 0, 0, 0));
  EXPECT_EQ(one << 256, u256{});
  EXPECT_EQ((one << 255) >> 255, one);
  EXPECT_EQ((one << 64), u256(0, 0, 1, 0));
  const u256 pattern = u256::from_string("0x123456789abcdef0123456789abcdef0");
  EXPECT_EQ((pattern << 8) >> 8, pattern);
}

TEST(U256, SignedOps) {
  const u256 minus_one = ~u256{};
  const u256 minus_seven = u256{7}.neg();
  EXPECT_TRUE(minus_one.is_negative());
  EXPECT_EQ(u256::sdiv(minus_seven, u256{2}), u256{3}.neg());
  EXPECT_EQ(u256::sdiv(u256{7}, u256{2}.neg()), u256{3}.neg());
  EXPECT_EQ(u256::sdiv(minus_seven, u256{2}.neg()), u256{3});
  EXPECT_EQ(u256::smod(minus_seven, u256{3}), u256{1}.neg());  // sign of dividend
  EXPECT_EQ(u256::smod(u256{7}, u256{3}.neg()), u256{1});
  EXPECT_TRUE(u256::slt(minus_one, u256{}));
  EXPECT_TRUE(u256::slt(minus_one, u256{1}));
  EXPECT_FALSE(u256::slt(u256{1}, minus_one));
  // INT_MIN / -1 wraps back to INT_MIN (EVM semantics).
  const u256 int_min = u256{1} << 255;
  EXPECT_EQ(u256::sdiv(int_min, minus_one), int_min);
}

TEST(U256, AddmodMulmod) {
  // addmod handles the 257-bit intermediate.
  const u256 max = ~u256{};
  EXPECT_EQ(u256::addmod(max, max, u256{10}),
            u256{(max % u256{10}).as_u64() * 2 % 10});
  EXPECT_EQ(u256::addmod(u256{5}, u256{7}, u256{}), u256{});
  // mulmod handles the 512-bit intermediate.
  EXPECT_EQ(u256::mulmod(max, max, u256{12}), (max % u256{12}) * (max % u256{12}) % u256{12});
  EXPECT_EQ(u256::mulmod(max, max, max), u256{});
  EXPECT_EQ(u256::mulmod(u256{3}, u256{4}, u256{5}), u256{2});
}

TEST(U256, Exp) {
  EXPECT_EQ(u256::exp(u256{2}, u256{10}), u256{1024});
  EXPECT_EQ(u256::exp(u256{0}, u256{0}), u256{1});  // EVM: 0^0 = 1
  EXPECT_EQ(u256::exp(u256{7}, u256{0}), u256{1});
  EXPECT_EQ(u256::exp(u256{0}, u256{5}), u256{});
  EXPECT_EQ(u256::exp(u256{2}, u256{256}), u256{});  // wraps
  EXPECT_EQ(u256::exp(u256{3}, u256{5}), u256{243});
}

TEST(U256, SignExtend) {
  // Extending byte 0 of 0xff -> -1.
  EXPECT_EQ(u256::signextend(u256{0}, u256{0xff}), ~u256{});
  EXPECT_EQ(u256::signextend(u256{0}, u256{0x7f}), u256{0x7f});
  // Byte index >= 31: unchanged.
  EXPECT_EQ(u256::signextend(u256{31}, u256{0xff}), u256{0xff});
  EXPECT_EQ(u256::signextend(u256{100}, u256{0xff}), u256{0xff});
  // Extending byte 1 of 0x8000.
  const u256 v = u256::signextend(u256{1}, u256{0x8000});
  EXPECT_TRUE(v.is_negative());
  EXPECT_EQ(v, u256{0x8000} | (~u256{} << 16));
}

TEST(U256, Sar) {
  const u256 minus_eight = u256{8}.neg();
  EXPECT_EQ(u256::sar(minus_eight, u256{1}), u256{4}.neg());
  EXPECT_EQ(u256::sar(u256{8}, u256{1}), u256{4});
  EXPECT_EQ(u256::sar(minus_eight, u256{300}), ~u256{});  // >= 256, negative
  EXPECT_EQ(u256::sar(u256{8}, u256{300}), u256{});
  EXPECT_EQ(u256::sar(minus_eight, u256{0}), minus_eight);
}

TEST(U256, ByteOp) {
  const u256 v = u256::from_string(
      "0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20");
  EXPECT_EQ(u256::byte(u256{0}, v), u256{0x01});
  EXPECT_EQ(u256::byte(u256{31}, v), u256{0x20});
  EXPECT_EQ(u256::byte(u256{32}, v), u256{});
}

TEST(U256, BitLength) {
  EXPECT_EQ(u256{}.bit_length(), 0u);
  EXPECT_EQ(u256{1}.bit_length(), 1u);
  EXPECT_EQ(u256{0xff}.bit_length(), 8u);
  EXPECT_EQ((u256{1} << 200).bit_length(), 201u);
  EXPECT_EQ((~u256{}).bit_length(), 256u);
}

TEST(Address, RoundTrips) {
  const Address a = Address::from_hex("0x7E5F4552091A69125d5DfCb7B8C2659029395Bdf");
  EXPECT_EQ(Address::from_u256(a.to_u256()), a);
  EXPECT_EQ(a.hex(), "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf");
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(Address{}.is_zero());
}

TEST(H256, RoundTrips) {
  const u256 v = u256::from_string("0xdeadbeef");
  const H256 h = H256::from_u256(v);
  EXPECT_EQ(h.to_u256(), v);
  EXPECT_FALSE(h.is_zero());
  EXPECT_TRUE(H256{}.is_zero());
}

// --- ChaCha20 / Random ---

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2 test vector.
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) {
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) | ((4 * i + 3) << 24);
  }
  const std::array<uint32_t, 3> nonce = {0x09000000, 0x4a000000, 0x00000000};
  ChaCha20Keystream out;
  chacha20_block(key, 1, nonce, out);
  const Bytes expected = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_EQ(Bytes(out.begin(), out.begin() + 64), expected);
}

TEST(ChaCha20, EachCallIsFourConsecutiveBlocks) {
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) key[i] = 0x01020304u * (i + 1);
  const std::array<uint32_t, 3> nonce = {7, 8, 9};
  // Counters 0xfffffffe.. wrap mod 2^32 inside one call, as one block at a
  // time would.
  for (const uint32_t counter : {0u, 5u, 0xfffffffeu}) {
    ChaCha20Keystream batch;
    chacha20_block(key, counter, nonce, batch);
    for (uint32_t b = 1; b < kChaCha20Blocks; ++b) {
      ChaCha20Keystream later;
      chacha20_block(key, counter + b, nonce, later);
      EXPECT_TRUE(std::equal(later.begin(), later.begin() + 64, batch.begin() + 64 * b))
          << "counter " << counter << " block " << b;
    }
  }
}

TEST(Random, Deterministic) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Random, UniformBounds) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const uint64_t v = rng.uniform_range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, UniformIsRoughlyUniform) {
  Random rng(99);
  std::array<int, 8> buckets{};
  constexpr int kDraws = 8000;
  for (int i = 0; i < kDraws; ++i) buckets[rng.uniform(8)]++;
  for (int count : buckets) {
    EXPECT_GT(count, kDraws / 8 - 200);
    EXPECT_LT(count, kDraws / 8 + 200);
  }
}

TEST(Random, SwapNoiseBounded) {
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LE(rng.swap_noise(6), 6u);
  }
  EXPECT_EQ(rng.swap_noise(0), 0u);
}

TEST(Random, StreamMatchesOneBlockPerRefill) {
  // Bytes 248..264 and 504..520 of Random(42), straddling the ends of the
  // first and second 4-block refills, as recorded from the DRBG that refilled
  // one block at a time: seeded runs must not change with the refill width.
  Random rng(42);
  const Bytes stream = rng.bytes(600);
  EXPECT_EQ(to_hex(BytesView{stream.data() + 248, 16}), "9061246b8fc36dd592b195012bca2364");
  EXPECT_EQ(to_hex(BytesView{stream.data() + 504, 16}), "26dad648bb8a8e48f4edee72c11e23b0");
}

TEST(Random, FillProducesDifferentBlocks) {
  Random rng(3);
  const Bytes a = rng.bytes(64);
  const Bytes b = rng.bytes(64);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 64u);
}

TEST(Errors, StatusToString) {
  EXPECT_STREQ(to_string(Status::kOk), "ok");
  EXPECT_STREQ(to_string(Status::kMemoryOverflow), "memory-overflow");
  EXPECT_STREQ(to_string(Status::kStashOverflow), "stash-overflow");
  EXPECT_STREQ(to_string(Status::kTimeout), "timeout");
  EXPECT_STREQ(to_string(Status::kUnavailable), "unavailable");
  EXPECT_STREQ(to_string(Status::kRetryExhausted), "retry-exhausted");
  EXPECT_STREQ(to_string(Status::kStale), "stale");
  EXPECT_STREQ(to_string(Status::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(Status::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(to_string(Status::kDeviceLost), "device-lost");
}

// Every Status value must round-trip to a unique human-readable name — a
// new code that falls through to "unknown" would make fault reports
// undebuggable. kStatusCount_ is the keep-last sentinel this test iterates
// to, so extending the enum without extending to_string fails here.
TEST(Errors, StatusToStringIsExhaustiveAndDistinct) {
  const int count = static_cast<int>(Status::kStatusCount_);
  EXPECT_GT(count, 0);
  for (int v = 0; v < count; ++v) {
    const char* name = to_string(static_cast<Status>(v));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "Status value " << v << " has no name";
    for (int w = 0; w < v; ++w) {
      EXPECT_STRNE(name, to_string(static_cast<Status>(w)))
          << "Status values " << w << " and " << v << " share a name";
    }
  }
  EXPECT_STREQ(to_string(Status::kStatusCount_), "unknown");
}

}  // namespace
}  // namespace hardtape
