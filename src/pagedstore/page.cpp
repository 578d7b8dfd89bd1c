#include "pagedstore/page.hpp"

#include "common/codec.hpp"
#include "common/errors.hpp"

namespace hardtape::pagedstore {

namespace {

constexpr size_t kPayloadLenAt = 4 + 2 + 2 + 32 + 8;  // after magic .. generation
constexpr size_t kChecksumAt = kPayloadLenAt + 4;

}  // namespace

Bytes encode_page(const u256& id, uint64_t generation, BytesView payload) {
  if (payload.size() > kMaxPagePayload) {
    throw UsageError("pagedstore: page payload exceeds kMaxPagePayload");
  }
  Bytes out;
  out.reserve(kPageHeaderSize + payload.size());
  codec::put_u32(out, kPageMagic);
  codec::put_u16(out, kPageVersion);
  codec::put_u16(out, 0);  // reserved
  codec::put_u256(out, id);
  codec::put_u64(out, generation);
  codec::put_u32(out, static_cast<uint32_t>(payload.size()));
  codec::put_u32(out, codec::crc32c(payload, codec::crc32c(out)));
  append(out, payload);
  return out;
}

std::optional<DecodedPage> decode_page(BytesView raw) {
  if (raw.size() < kPageHeaderSize) return std::nullopt;
  const uint8_t* p = raw.data();
  if (codec::get_u32(p) != kPageMagic) return std::nullopt;
  if (codec::get_u16(p + 4) != kPageVersion) return std::nullopt;
  const uint32_t len = codec::get_u32(p + kPayloadLenAt);
  if (len > kMaxPagePayload) return std::nullopt;
  if (raw.size() != kPageHeaderSize + len) return std::nullopt;
  const BytesView payload = raw.subspan(kPageHeaderSize);
  if (codec::crc32c(payload, codec::crc32c(raw.first(kChecksumAt))) !=
      codec::get_u32(p + kChecksumAt)) {
    return std::nullopt;
  }
  DecodedPage page;
  page.id = u256::from_be_bytes(BytesView{p + 8, 32});
  page.generation = codec::get_u64(p + 40);
  page.payload.assign(payload.begin(), payload.end());
  return page;
}

}  // namespace hardtape::pagedstore
