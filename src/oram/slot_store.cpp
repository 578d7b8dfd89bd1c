#include "oram/slot_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/codec.hpp"

namespace hardtape::oram {

namespace {

u256 bucket_page_id(size_t bucket) { return u256{static_cast<uint64_t>(bucket)}; }

}  // namespace

// ---------------------------------------------------------------------------
// RamSlotStore
// ---------------------------------------------------------------------------

SealedSlot* RamSlotStore::written(size_t bucket) {
  auto& slots = buckets_.at(bucket);
  if (slots == nullptr) slots = std::make_unique<SealedSlot[]>(z_);
  return slots.get();
}

void RamSlotStore::begin_walk(std::span<const size_t> buckets, std::span<SealedSlot*> path) {
  for (size_t level = 0; level < buckets.size(); ++level) {
    SealedSlot* slots = written(buckets[level]);
    for (size_t z = 0; z < z_; ++z) path[level * z_ + z] = slots + z;
  }
}

void RamSlotStore::write_bucket(size_t bucket, SealedSlot* slots) {
  std::move(slots, slots + z_, written(bucket));
}

void RamSlotStore::read_bucket(size_t bucket, SealedSlot* out) {
  const SealedSlot* slots = buckets_.at(bucket).get();
  for (size_t z = 0; z < z_; ++z) out[z] = slots != nullptr ? slots[z] : SealedSlot{};
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
      z_(z) {
  page_.reserve(bucket_page_bytes(z, block_size));
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

void PagedSlotStore::deserialize_bucket(BytesView payload, SealedSlot* out) const {
  size_t off = 0;
  for (size_t z = 0; z < z_; ++z) {
    SealedSlot& slot = out[z];
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
  }
  if (off != payload.size()) {
    throw IntegrityError("oram slot store: trailing bytes in bucket page");
  }
}

void PagedSlotStore::read_bucket(size_t bucket, SealedSlot* out) {
  const auto page = store_.pin(bucket_page_id(bucket));
  if (!page) {
    // Never-written bucket: Z empty-ciphertext slots, exactly what a fresh
    // RAM tree holds (its fill count is 0, so no walk opens them).
    for (size_t z = 0; z < z_; ++z) {
      out[z].nonce = {};
      out[z].tag = {};
      out[z].ciphertext.clear();
    }
    return;
  }
  deserialize_bucket(page.data(), out);
}

void PagedSlotStore::write_bucket(size_t bucket, SealedSlot* slots) {
  page_.clear();
  for (size_t z = 0; z < z_; ++z) {
    const SealedSlot& slot = slots[z];
    append(page_, slot.nonce);
    append(page_, slot.tag);
    codec::put_u32(page_, static_cast<uint32_t>(slot.ciphertext.size()));
    append(page_, slot.ciphertext);
  }
  store_.put(bucket_page_id(bucket), page_);
}

void PagedSlotStore::begin_walk(std::span<const size_t> buckets, std::span<SealedSlot*> path) {
  walk_pins_.clear();
  walk_pins_.reserve(buckets.size());
  for (const size_t bucket : buckets) {
    // Never-written buckets have no page yet; they materialize when the walk
    // ends (write_bucket installs them through put).
    if (auto page = store_.pin(bucket_page_id(bucket))) {
      walk_pins_.push_back(std::move(page));
    }
  }
  walk_buckets_.assign(buckets.begin(), buckets.end());
  walk_slots_.resize(buckets.size() * z_);
  for (size_t level = 0; level < buckets.size(); ++level) {
    read_bucket(buckets[level], walk_slots_.data() + level * z_);
  }
  for (size_t i = 0; i < walk_slots_.size(); ++i) path[i] = &walk_slots_[i];
}

void PagedSlotStore::end_walk() {
  for (size_t level = 0; level < walk_buckets_.size(); ++level) {
    write_bucket(walk_buckets_[level], walk_slots_.data() + level * z_);
  }
  walk_pins_.clear();
  // The pool is this store's memory bound: between walks the scratch keeps
  // no slot bytes, only its Z*(depth+1) empty slots.
  for (SealedSlot& slot : walk_slots_) Bytes().swap(slot.ciphertext);
}

}  // namespace hardtape::oram
