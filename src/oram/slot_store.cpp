#include "oram/slot_store.hpp"

#include <cstring>

#include "common/codec.hpp"

namespace hardtape::oram {

namespace {

u256 bucket_page_id(size_t bucket) { return u256{static_cast<uint64_t>(bucket)}; }

}  // namespace

// ---------------------------------------------------------------------------
// RamSlotStore
// ---------------------------------------------------------------------------

void RamSlotStore::read_bucket(size_t bucket, std::vector<SealedSlot>& out) {
  const size_t base = bucket * z_;
  for (size_t z = 0; z < z_; ++z) out.push_back(slots_[base + z]);
}

void RamSlotStore::write_bucket(size_t bucket, SealedSlot* slots) {
  const size_t base = bucket * z_;
  for (size_t z = 0; z < z_; ++z) slots_[base + z] = std::move(slots[z]);
}

// ---------------------------------------------------------------------------
// PagedSlotStore
// ---------------------------------------------------------------------------

PagedSlotStore::PagedSlotStore(durability::SimFs& fs,
                               pagedstore::PagedStoreConfig config, size_t z,
                               size_t block_size, size_t min_pool_pages)
    : store_(fs,
             [&] {
               config.buffer_pool_pages =
                   std::max(config.buffer_pool_pages, min_pool_pages);
               return std::move(config);
             }()),
      z_(z),
      page_bytes_(bucket_page_bytes(z, block_size)) {
  // A fresh server is a fresh tree: leftover segments under this prefix (a
  // previous engine incarnation on the same fs) are dead spill space, never
  // recovery input — a restart reloads the tree with fresh leaves.
  const std::string prefix = store_.config().name + ".seg-";
  for (const std::string& path : fs.list()) {
    if (path.starts_with(prefix) &&
        path != pagedstore::PagedStore::segment_path(store_.config().name,
                                                     store_.current_segment())) {
      fs.remove(path);
    }
  }
}

Bytes PagedSlotStore::serialize_bucket(const SealedSlot* slots) const {
  Bytes payload;
  payload.reserve(page_bytes_);
  for (size_t z = 0; z < z_; ++z) {
    const SealedSlot& slot = slots[z];
    payload.insert(payload.end(), slot.nonce.begin(), slot.nonce.end());
    payload.insert(payload.end(), slot.tag.begin(), slot.tag.end());
    codec::put_u32(payload, static_cast<uint32_t>(slot.ciphertext.size()));
    append(payload, slot.ciphertext);
  }
  return payload;
}

void PagedSlotStore::deserialize_bucket(BytesView payload,
                                        std::vector<SealedSlot>& out) const {
  size_t off = 0;
  for (size_t z = 0; z < z_; ++z) {
    SealedSlot slot;
    if (payload.size() - off < 12 + 16 + 4) {
      throw IntegrityError("oram slot store: truncated bucket page");
    }
    std::memcpy(slot.nonce.data(), payload.data() + off, 12);
    std::memcpy(slot.tag.data(), payload.data() + off + 12, 16);
    const uint32_t len = codec::get_u32(payload.data() + off + 28);
    off += 32;
    if (payload.size() - off < len) {
      throw IntegrityError("oram slot store: truncated bucket page");
    }
    slot.ciphertext.assign(payload.begin() + static_cast<ptrdiff_t>(off),
                           payload.begin() + static_cast<ptrdiff_t>(off + len));
    off += len;
    out.push_back(std::move(slot));
  }
  if (off != payload.size()) {
    throw IntegrityError("oram slot store: trailing bytes in bucket page");
  }
}

void PagedSlotStore::read_bucket(size_t bucket, std::vector<SealedSlot>& out) {
  const auto page = store_.pin(bucket_page_id(bucket));
  if (!page) {
    // Never-written bucket: Z empty-ciphertext slots, exactly what a fresh
    // RAM tree holds (its fill count is 0, so no walk opens them).
    out.resize(out.size() + z_);
    return;
  }
  deserialize_bucket(page.data(), out);
}

void PagedSlotStore::write_bucket(size_t bucket, SealedSlot* slots) {
  store_.put(bucket_page_id(bucket), serialize_bucket(slots));
}

void PagedSlotStore::begin_walk(const std::vector<size_t>& buckets) {
  walk_pins_.clear();
  walk_pins_.reserve(buckets.size());
  for (const size_t bucket : buckets) {
    // Never-written buckets have no page yet; they materialize when the walk
    // rewrites the path (write_bucket installs them through put).
    if (auto page = store_.pin(bucket_page_id(bucket))) {
      walk_pins_.push_back(std::move(page));
    }
  }
}

}  // namespace hardtape::oram
