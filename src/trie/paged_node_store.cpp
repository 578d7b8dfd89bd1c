#include "trie/paged_node_store.hpp"

#include <cstring>

#include "common/codec.hpp"
#include "common/errors.hpp"

namespace hardtape::trie {

namespace {

u256 page_id(uint64_t page) { return u256{page}; }

constexpr size_t kRecordHeader = 32 + 4;  // hash + length

}  // namespace

PagedNodeStore::PagedNodeStore(durability::SimFs& fs,
                               pagedstore::PagedStoreConfig config,
                               size_t page_payload_bytes)
    : store_(fs, std::move(config)), page_payload_bytes_(page_payload_bytes) {
  if (page_payload_bytes_ < kRecordHeader + 1) {
    throw UsageError("paged node store: page payload too small for one node");
  }
}

void PagedNodeStore::put(const H256& hash, BytesView encoded) {
  if (index_.contains(hash)) return;  // content-addressed: already stored
  if (encoded.empty() || encoded.size() > pagedstore::kMaxPagePayload / 2) {
    throw UsageError("paged node store: bad node encoding size");
  }
  // Nodes never span pages: roll when this record would overflow the fill
  // page (oversized nodes get a page of their own).
  const size_t record = kRecordHeader + encoded.size();
  if (fill_offset_ != 0 && fill_offset_ + record > page_payload_bytes_) {
    ++fill_page_;
    fill_offset_ = 0;
  }
  auto ref = store_.pin_or_create(page_id(fill_page_));
  Bytes& payload = ref.data();
  payload.reserve(payload.size() + record);
  append(payload, hash.view());
  codec::put_u32(payload, static_cast<uint32_t>(encoded.size()));
  append(payload, encoded);
  ref.mark_dirty();
  index_[hash] = NodeRef{fill_page_, fill_offset_,
                         static_cast<uint32_t>(encoded.size())};
  fill_offset_ += static_cast<uint32_t>(record);
}

std::optional<Bytes> PagedNodeStore::get(const H256& hash) const {
  const auto it = index_.find(hash);
  if (it == index_.end()) return std::nullopt;
  const NodeRef& ref = it->second;
  // The store copies the record out under its lock, so concurrent proof
  // walks hold no pins and even a one-page pool serves them all.
  const size_t record = kRecordHeader + ref.length;
  auto bytes = store_.get(page_id(ref.page), ref.offset, record);
  if (!bytes.has_value() || bytes->size() != record ||
      std::memcmp(bytes->data(), hash.bytes.data(), 32) != 0) {
    throw IntegrityError("paged node store: index/page mismatch for node " +
                         hash.hex());
  }
  bytes->erase(bytes->begin(), bytes->begin() + kRecordHeader);
  return bytes;
}

}  // namespace hardtape::trie
