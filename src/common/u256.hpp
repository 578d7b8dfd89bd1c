// 256-bit unsigned integer with EVM semantics.
//
// The EVM is a 256-bit machine: every stack slot, storage key and storage
// value is a 256-bit word. All arithmetic wraps mod 2^256; division by zero
// yields zero (EVM convention, not an error). Signed operations interpret the
// word as two's complement.
//
// Representation: four 64-bit limbs, least-significant first.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace hardtape {

class u256 {
 public:
  constexpr u256() : limbs_{0, 0, 0, 0} {}
  constexpr u256(uint64_t v) : limbs_{v, 0, 0, 0} {}  // NOLINT: implicit by design
  constexpr u256(uint64_t l3, uint64_t l2, uint64_t l1, uint64_t l0)
      : limbs_{l0, l1, l2, l3} {}  // big-endian-ish ctor: l3 is most significant

  /// Limb access, index 0 = least significant.
  constexpr uint64_t limb(size_t i) const { return limbs_[i]; }
  constexpr uint64_t& limb(size_t i) { return limbs_[i]; }

  static u256 from_be_bytes(BytesView be);  ///< big-endian, up to 32 bytes
  std::array<uint8_t, 32> to_be_bytes() const;
  Bytes to_be_bytes_vec() const;

  /// Parses decimal, or hex when prefixed with 0x. Throws on bad input.
  static u256 from_string(std::string_view s);
  std::string to_hex() const;  ///< minimal-length lowercase hex, no 0x
  std::string to_string() const;  ///< decimal

  constexpr bool is_zero() const {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  explicit constexpr operator bool() const { return !is_zero(); }

  /// True when the value fits in uint64_t.
  constexpr bool fits_u64() const {
    return (limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  /// Low 64 bits (truncating).
  constexpr uint64_t as_u64() const { return limbs_[0]; }
  /// Saturating conversion to uint64_t (used for gas/memory size checks).
  constexpr uint64_t as_u64_saturating() const {
    return fits_u64() ? limbs_[0] : ~uint64_t{0};
  }

  /// Index of the highest set bit plus one; 0 for zero.
  unsigned bit_length() const;
  bool bit(unsigned i) const {
    return i < 256 && ((limbs_[i / 64] >> (i % 64)) & 1u) != 0;
  }
  /// Sign bit for two's-complement interpretation.
  constexpr bool is_negative() const { return (limbs_[3] >> 63) != 0; }

  friend constexpr bool operator==(const u256& a, const u256& b) = default;
  friend std::strong_ordering operator<=>(const u256& a, const u256& b);

  friend u256 operator+(const u256& a, const u256& b);
  friend u256 operator-(const u256& a, const u256& b);
  friend u256 operator*(const u256& a, const u256& b);
  friend u256 operator/(const u256& a, const u256& b);  ///< 0 if b == 0
  friend u256 operator%(const u256& a, const u256& b);  ///< 0 if b == 0
  friend u256 operator&(const u256& a, const u256& b);
  friend u256 operator|(const u256& a, const u256& b);
  friend u256 operator^(const u256& a, const u256& b);
  friend u256 operator~(const u256& a);
  friend u256 operator<<(const u256& a, unsigned n);
  friend u256 operator>>(const u256& a, unsigned n);  ///< logical

  u256& operator+=(const u256& b) { return *this = *this + b; }
  u256& operator-=(const u256& b) { return *this = *this - b; }
  u256& operator*=(const u256& b) { return *this = *this * b; }
  u256& operator|=(const u256& b) { return *this = *this | b; }
  u256& operator&=(const u256& b) { return *this = *this & b; }
  u256& operator^=(const u256& b) { return *this = *this ^ b; }

  u256 neg() const { return u256{} - *this; }  ///< two's complement negation

  /// Quotient and remainder in one pass. Returns {0, 0} when b == 0.
  static std::pair<u256, u256> divmod(const u256& a, const u256& b);

  // EVM-specific operations (names match opcodes).
  static u256 addmod(const u256& a, const u256& b, const u256& m);
  static u256 mulmod(const u256& a, const u256& b, const u256& m);
  static u256 exp(const u256& base, const u256& exponent);
  static u256 sdiv(const u256& a, const u256& b);
  static u256 smod(const u256& a, const u256& b);
  static bool slt(const u256& a, const u256& b);
  static u256 signextend(const u256& byte_index, const u256& value);
  static u256 sar(const u256& value, const u256& shift);  ///< arithmetic >>
  /// EVM BYTE opcode: i-th byte counted from the most significant end.
  static u256 byte(const u256& index, const u256& value);

  /// 256x256 -> 512-bit multiplication, result as (high, low).
  static std::pair<u256, u256> mul_wide(const u256& a, const u256& b);

 private:
  std::array<uint64_t, 4> limbs_;  // little-endian limb order
};

/// Keccak-width hash value and other 32-byte identifiers.
struct H256 {
  std::array<uint8_t, 32> bytes{};

  static H256 from(BytesView data) {
    if (data.size() != 32) throw std::invalid_argument("H256: need 32 bytes");
    H256 h;
    std::memcpy(h.bytes.data(), data.data(), 32);
    return h;
  }
  static H256 from_u256(const u256& v) {
    H256 h;
    h.bytes = v.to_be_bytes();
    return h;
  }
  u256 to_u256() const { return u256::from_be_bytes(bytes); }
  BytesView view() const { return {bytes.data(), bytes.size()}; }
  std::string hex() const { return to_hex(view()); }
  bool is_zero() const {
    for (uint8_t b : bytes)
      if (b) return false;
    return true;
  }
  friend bool operator==(const H256&, const H256&) = default;
  friend auto operator<=>(const H256&, const H256&) = default;
};

/// 20-byte Ethereum account address.
struct Address {
  std::array<uint8_t, 20> bytes{};

  static Address from(BytesView data) {
    if (data.size() != 20) throw std::invalid_argument("Address: need 20 bytes");
    Address a;
    std::memcpy(a.bytes.data(), data.data(), 20);
    return a;
  }
  static Address from_hex(std::string_view hex) {
    return from(hardtape::from_hex(hex));
  }
  /// Address stored in the low 20 bytes of a 256-bit word (EVM convention).
  static Address from_u256(const u256& v) {
    const auto be = v.to_be_bytes();
    Address a;
    std::memcpy(a.bytes.data(), be.data() + 12, 20);
    return a;
  }
  u256 to_u256() const {
    Bytes padded(32, 0);
    std::memcpy(padded.data() + 12, bytes.data(), 20);
    return u256::from_be_bytes(padded);
  }
  BytesView view() const { return {bytes.data(), bytes.size()}; }
  std::string hex() const { return "0x" + to_hex(view()); }
  bool is_zero() const {
    for (uint8_t b : bytes)
      if (b) return false;
    return true;
  }
  friend bool operator==(const Address&, const Address&) = default;
  friend auto operator<=>(const Address&, const Address&) = default;
};

struct H256Hasher {
  size_t operator()(const H256& h) const {
    uint64_t v;
    std::memcpy(&v, h.bytes.data(), sizeof v);
    return static_cast<size_t>(v);
  }
};

struct AddressHasher {
  size_t operator()(const Address& a) const {
    uint64_t v;
    std::memcpy(&v, a.bytes.data(), sizeof v);
    return static_cast<size_t>(v * 0x9e3779b97f4a7c15ull);
  }
};

struct U256Hasher {
  size_t operator()(const u256& v) const {
    return static_cast<size_t>((v.limb(0) ^ (v.limb(1) * 0x9e3779b97f4a7c15ull)) ^
                               (v.limb(2) + (v.limb(3) << 1)));
  }
};

}  // namespace hardtape
