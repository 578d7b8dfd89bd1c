// The one record codec for every byte the device writes to its own disk:
// page records, journal records and checkpoint frames (DESIGN.md §10, §16).
//
// Integers on disk are little-endian; 256-bit ids are big-endian, as
// Ethereum writes them. Each record carries a CRC-32C (Castagnoli, RFC 3720)
// over every byte of the record except the checksum itself. The checksum is
// unkeyed and the disk is the operator's, so it only detects torn writes and
// bit rot: what the SP could forge is guarded elsewhere (ORAM slots are
// AEAD-sealed, node data is proof-checked against trusted roots). CRC-32C
// catches every single-bit error and every burst of 32 bits or fewer, and a
// random corruption slips through with probability 2^-32 — the trade
// LevelDB's log format makes for the same job.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

#include "common/bytes.hpp"
#include "common/u256.hpp"

namespace hardtape::codec {

/// CRC-32C of `data`, continuing from `prior` (the CRC of the bytes before
/// it, 0 to start): crc32c(b, crc32c(a)) == crc32c(a || b), so a record's
/// checksum spans its header and payload without a preimage copy.
uint32_t crc32c(BytesView data, uint32_t prior = 0);

inline void put_u16(Bytes& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

inline void put_u32(Bytes& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void put_u64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void put_u256(Bytes& out, const u256& v) {
  const auto be = v.to_be_bytes();
  out.insert(out.end(), be.begin(), be.end());
}

inline uint16_t get_u16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

// Written out rather than looped, so that GCC and Clang merge the shifts
// into one load in the CRC's inner loop.
inline uint32_t get_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t get_u64(const uint8_t* p) {
  return static_cast<uint64_t>(get_u32(p)) | (static_cast<uint64_t>(get_u32(p + 4)) << 32);
}

/// Bounds-checked little-endian reader; any read past the end poisons the
/// cursor so a parser can check once at the end of each section.
struct Reader {
  const uint8_t* p;
  size_t remaining;
  bool ok = true;

  bool take(size_t n) {
    if (!ok || remaining < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!take(4)) return 0;
    const uint32_t v = get_u32(p);
    p += 4;
    remaining -= 4;
    return v;
  }
  uint64_t u64() {
    if (!take(8)) return 0;
    const uint64_t v = get_u64(p);
    p += 8;
    remaining -= 8;
    return v;
  }
  u256 big() {
    if (!take(32)) return u256{};
    const u256 v = u256::from_be_bytes(BytesView{p, 32});
    p += 32;
    remaining -= 32;
    return v;
  }
  H256 h256() {
    H256 v{};
    if (!take(32)) return v;
    std::memcpy(v.bytes.data(), p, 32);
    p += 32;
    remaining -= 32;
    return v;
  }
  Bytes blob() {
    const uint32_t len = u32();
    Bytes v;
    if (!take(len)) return v;
    v.assign(p, p + len);
    p += len;
    remaining -= len;
    return v;
  }
};

/// The number in a numbered file name such as "wal-7" (prefix "wal-").
/// nullopt when `name` lacks the prefix or its suffix is empty, not all
/// digits, out of range, or UINT64_MAX (which has no successor generation):
/// a file the operator's disk carries under such a name is foreign, never a
/// reason to throw.
std::optional<uint64_t> numbered_suffix(std::string_view name, std::string_view prefix);

}  // namespace hardtape::codec
