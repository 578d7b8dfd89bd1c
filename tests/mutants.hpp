// Every small mutant of an encoded value, for the decoders' mutation fuzz:
// each single-bit flip, each one-byte insertion (a seeded byte at every
// position), each one-byte deletion and each truncation. A strict decoder
// must refuse a mutant, or decode it to a value that encodes back to the
// mutant's exact bytes: one wire form per value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/random.hpp"

namespace hardtape::fuzz {

/// Calls `visit(const Bytes& mutant)` once per mutant of `encoded`.
template <typename Visit>
void for_each_mutant(const Bytes& encoded, Random& rng, Visit&& visit) {
  Bytes mutant = encoded;
  for (size_t bit = 0; bit < 8 * encoded.size(); ++bit) {
    const auto mask = static_cast<uint8_t>(1u << (bit % 8));
    mutant[bit / 8] ^= mask;
    visit(mutant);
    mutant[bit / 8] ^= mask;
  }
  for (size_t pos = 0; pos <= encoded.size(); ++pos) {
    const auto at = mutant.begin() + static_cast<ptrdiff_t>(pos);
    mutant.insert(at, static_cast<uint8_t>(rng.uniform(256)));
    visit(mutant);
    mutant.erase(mutant.begin() + static_cast<ptrdiff_t>(pos));
  }
  for (size_t pos = 0; pos < encoded.size(); ++pos) {
    const uint8_t removed = mutant[pos];
    mutant.erase(mutant.begin() + static_cast<ptrdiff_t>(pos));
    visit(mutant);
    mutant.insert(mutant.begin() + static_cast<ptrdiff_t>(pos), removed);
  }
  for (size_t len = 0; len < encoded.size(); ++len) {
    visit(Bytes(encoded.begin(), encoded.begin() + static_cast<ptrdiff_t>(len)));
  }
}

/// What a decoder did with the mutants: how many it saw and decoded, and
/// the first decoded mutant that did not encode back to its own bytes.
struct MutantTally {
  size_t total = 0;
  size_t decoded = 0;
  size_t not_canonical = 0;
  std::string first_not_canonical;  ///< hex of that mutant

  void record(const Bytes& mutant, const std::optional<Bytes>& reencoded) {
    ++total;
    if (!reencoded.has_value()) return;
    ++decoded;
    if (*reencoded == mutant) return;
    if (not_canonical++ == 0) first_not_canonical = to_hex(mutant);
  }
};

}  // namespace hardtape::fuzz
