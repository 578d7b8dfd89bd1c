#include "common/codec.hpp"

#include <array>
#include <charconv>
#include <limits>

namespace hardtape::codec {

namespace {

/// Slicing-by-8 tables for the reflected Castagnoli polynomial: kTables[0]
/// is the bytewise table, and kTables[k][b] advances kTables[k-1][b] by one
/// more zero byte, so eight input bytes fold in with eight lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  constexpr uint32_t kPoly = 0x82F63B78;  // 0x1EDC6F41 bit-reversed
  Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) != 0 ? kPoly : 0u);
    t[0][b] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

uint32_t crc32c(BytesView data, uint32_t prior) {
  uint32_t crc = ~prior;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t w = get_u64(p) ^ crc;
    crc = kTables[7][w & 0xff] ^ kTables[6][(w >> 8) & 0xff] ^
          kTables[5][(w >> 16) & 0xff] ^ kTables[4][(w >> 24) & 0xff] ^
          kTables[3][(w >> 32) & 0xff] ^ kTables[2][(w >> 40) & 0xff] ^
          kTables[1][(w >> 48) & 0xff] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xff];
  return ~crc;
}

std::optional<uint64_t> numbered_suffix(std::string_view name, std::string_view prefix) {
  if (!name.starts_with(prefix)) return std::nullopt;
  const std::string_view digits = name.substr(prefix.size());
  uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (error != std::errc{} || end != digits.data() + digits.size()) return std::nullopt;
  if (value == std::numeric_limits<uint64_t>::max()) return std::nullopt;
  return value;
}

}  // namespace hardtape::codec
