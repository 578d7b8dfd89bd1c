// On-disk page codec for the paged state backend (DESIGN.md §16).
//
// Every page written to a SimFs segment carries a self-describing header so
// a reader can verify — with no context beyond the bytes themselves and the
// logical id it asked for — that it got back exactly what some writer once
// stored:
//
//   u32 magic | u16 version | u16 reserved | 32B logical id | u64 generation
//   | u32 payload_len | u32 checksum | payload
//
// checksum = CRC-32C over every other byte of the record, header and payload
// (common/codec.hpp), the same discipline as the journal and checkpoints.
// Decoding is FAIL-CLOSED: a torn, bit-flipped, or mis-addressed page (id
// mismatch) yields nullopt, never silently-garbage payload bytes. Callers on
// the state path convert that refusal into an IntegrityError — the same
// `kIntegrity`-class rejection a tampered ORAM slot gets.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/u256.hpp"

namespace hardtape::pagedstore {

constexpr uint32_t kPageMagic = 0x48545047;  // "HTPG"
/// Version 1 records had a 60-byte header whose checksum skipped magic,
/// version, reserved and length; they are refused like any unknown version.
constexpr uint16_t kPageVersion = 2;
/// magic + version + reserved + id + generation + payload_len + checksum.
constexpr size_t kPageHeaderSize = 4 + 2 + 2 + 32 + 8 + 4 + 4;
/// Hard bound on a single page payload; an encoded length beyond it is
/// corruption by definition, rejected before any allocation.
constexpr uint32_t kMaxPagePayload = 1u << 20;

struct DecodedPage {
  u256 id{};
  uint64_t generation = 0;
  Bytes payload;
};

/// Encodes one page record. Throws UsageError when payload exceeds
/// kMaxPagePayload (a page that could never be decoded back).
Bytes encode_page(const u256& id, uint64_t generation, BytesView payload);

/// Decodes a page record that must occupy exactly `raw`. nullopt on ANY
/// violation: short buffer, bad magic/version, oversized length, length not
/// matching the buffer, or checksum mismatch.
std::optional<DecodedPage> decode_page(BytesView raw);

}  // namespace hardtape::pagedstore
