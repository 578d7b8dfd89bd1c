#include "oram/path_oram.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/chacha20_poly1305.hpp"
#include "oram/slot_store.hpp"

namespace hardtape::oram {

namespace {

// A block's sealed plaintext: its 32-byte id, then its data zero-padded to
// the block size.
Bytes make_plaintext(const u256& id, BytesView data, size_t block_size) {
  Bytes pt;
  pt.reserve(slot_ciphertext_bytes(block_size));
  append(pt, id.to_be_bytes_vec());
  append(pt, data);
  pt.resize(slot_ciphertext_bytes(block_size), 0);
  return pt;
}

// A free slot holds no block, so there is nothing to authenticate: the fresh
// nonce a seal draws, then ChaCha20 keystream under the seal key from
// counter 1 across the sealed shape, ciphertext then tag. The client never
// opens one; its bucket's fill count says which slots are free.
SealedSlot free_slot(const crypto::AesKey128& key, Random& rng, size_t ciphertext_bytes) {
  SealedSlot slot;
  rng.fill(slot.nonce.data(), slot.nonce.size());
  slot.ciphertext.assign(ciphertext_bytes + slot.tag.size(), 0);
  crypto::chacha20_xor(crypto::chacha_key(key), 1, slot.nonce, slot.ciphertext);
  std::memcpy(slot.tag.data(), slot.ciphertext.data() + ciphertext_bytes, slot.tag.size());
  slot.ciphertext.resize(ciphertext_bytes);
  return slot;
}

}  // namespace

SealedSlot seal_slot(SealMode /*mode*/, const crypto::AesKey128& key, Random& rng,
                     BytesView plaintext) {
  SealedSlot slot;
  rng.fill(slot.nonce.data(), slot.nonce.size());
  slot.ciphertext.assign(plaintext.begin(), plaintext.end());
  slot.tag = crypto::chacha20_poly1305_seal(crypto::chacha_key(key), slot.nonce, {},
                                            slot.ciphertext);
  return slot;
}

std::optional<Bytes> open_slot(SealMode /*mode*/, const crypto::AesKey128& key,
                               const SealedSlot& slot) {
  Bytes plaintext = slot.ciphertext;
  if (!crypto::chacha20_poly1305_open(crypto::chacha_key(key), slot.nonce, {}, plaintext,
                                      slot.tag)) {
    return std::nullopt;
  }
  return plaintext;
}

size_t region_bucket(size_t index) {
  const auto level = static_cast<size_t>(std::bit_width(index + 1) - 1);
  const size_t first = (size_t{1} << level) - 1;  // heap index of the level's first bucket
  size_t offset = index - first;
  size_t reversed = 0;
  for (size_t bit = 0; bit < level; ++bit, offset >>= 1) {
    reversed = (reversed << 1) | (offset & 1);
  }
  return first + reversed;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

OramServer::OramServer(const OramConfig& config) : config_(config) {
  if (config.capacity == 0) throw UsageError("oram: zero capacity");
  // Leaves sized so the tree holds `capacity` blocks with Z-slot buckets and
  // comfortable slack (standard Path ORAM: N leaves for N blocks suffices
  // when Z >= 4; we round capacity up to a power of two).
  leaf_count_ = 1;
  depth_ = 0;
  while (leaf_count_ < config.capacity) {
    leaf_count_ <<= 1;
    ++depth_;
  }
  switch (config.backend) {
    case SlotBackend::kRam:
      store_ = std::make_unique<RamSlotStore>(bucket_count(), config.bucket_capacity);
      break;
    case SlotBackend::kPaged: {
      if (config.backing_fs == nullptr) {
        throw UsageError("oram: paged slot backend requires backing_fs");
      }
      pagedstore::PagedStoreConfig ps;
      ps.name = config.backing_name;
      ps.buffer_pool_pages = config.buffer_pool_pages;
      // Walk working set: every bucket of one path stays pinned from
      // read_path to write_path, plus slack for the rewrite's fetches.
      store_ = std::make_unique<PagedSlotStore>(*config.backing_fs, std::move(ps),
                                                config.bucket_capacity, config.block_size,
                                                /*min_pool_pages=*/2 * (depth_ + 1));
      break;
    }
  }
  if (store_ == nullptr) throw UsageError("oram: bad slot backend");
}

OramServer::~OramServer() = default;

std::vector<SealedSlot> OramServer::read_path(uint64_t leaf) {
  if (leaf >= leaf_count_) throw UsageError("oram: leaf out of range");
  observed_leaves_.push_back(leaf);
  ++access_count_;
  std::vector<size_t> buckets;
  buckets.reserve(depth_ + 1);
  for (size_t level = 0; level <= depth_; ++level) {
    buckets.push_back(bucket_index(leaf, level));
  }
  // The walk's pages stay pinned until write_path rewrites them (or the next
  // read_path supersedes the walk) — eviction proceeds around them.
  store_->begin_walk(buckets);
  std::vector<SealedSlot> out;
  out.reserve((depth_ + 1) * config_.bucket_capacity);
  for (const size_t bucket : buckets) store_->read_bucket(bucket, out);
  return out;
}

void OramServer::write_path(uint64_t leaf, std::vector<SealedSlot> slots) {
  if (leaf >= leaf_count_) throw UsageError("oram: leaf out of range");
  if (slots.size() != (depth_ + 1) * config_.bucket_capacity) {
    throw UsageError("oram: path shape mismatch");
  }
  for (size_t level = 0; level <= depth_; ++level) {
    store_->write_bucket(bucket_index(leaf, level),
                         slots.data() + level * config_.bucket_capacity);
  }
  store_->end_walk();
}

void OramServer::load_slots(std::vector<SealedSlot> slots) {
  // The first k buckets in region order, Z slots each.
  const size_t z = config_.bucket_capacity;
  const size_t buckets = slots.size() / z;
  if (slots.size() % z != 0 || buckets == 0 || buckets > bucket_count()) {
    throw UsageError("oram: bulk load shape mismatch");
  }
  store_->end_walk();
  for (size_t index = 0; index < buckets; ++index) {
    store_->write_bucket(region_bucket(index), slots.data() + index * z);
  }
}

std::vector<SealedSlot> OramServer::stored_bucket(size_t bucket) const {
  if (bucket >= bucket_count()) throw UsageError("oram: bucket out of range");
  std::vector<SealedSlot> out;
  out.reserve(config_.bucket_capacity);
  store_->read_bucket(bucket, out);
  return out;
}

std::optional<pagedstore::BufferPoolStats> OramServer::slot_pool_stats() const {
  return store_->pool_stats();
}

uint64_t OramServer::bytes_per_access() const {
  return 2 * (depth_ + 1) * config_.bucket_capacity * sealed_slot_bytes(config_.block_size);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

OramClient::OramClient(OramServer& server, const crypto::AesKey128& seal_key,
                       uint64_t rng_seed, SealMode mode)
    : server_(server),
      key_(seal_key),
      mode_(mode),
      rng_(rng_seed),
      fill_(server.bucket_count(), 0) {
  if (server.config().bucket_capacity > UINT8_MAX) {
    throw UsageError("oram: bucket capacity above 255");
  }
}

std::optional<Bytes> OramClient::read(const BlockId& id) {
  return access(id, nullptr);
}

void OramClient::write(const BlockId& id, BytesView data) {
  if (data.size() > server_.config().block_size) {
    throw UsageError("oram: block too large");
  }
  Bytes padded(data.begin(), data.end());
  padded.resize(server_.config().block_size, 0);
  access(id, &padded);
}

AccessAttempt OramClient::try_read(const BlockId& id) {
  try {
    return AccessAttempt{Status::kOk, read(id), 0};
  } catch (const IntegrityError&) {
    return AccessAttempt{Status::kAuthFailed, std::nullopt, 0};
  }
}

AccessAttempt OramClient::try_write(const BlockId& id, BytesView data) {
  try {
    write(id, data);
    return AccessAttempt{};
  } catch (const IntegrityError&) {
    return AccessAttempt{Status::kAuthFailed, std::nullopt, 0};
  }
}

std::optional<Bytes> OramClient::access_remove(const BlockId& id) {
  return access(id, nullptr, nullptr, /*remove=*/true);
}

void OramClient::adopt(const BlockId& id, Bytes data) {
  const size_t block_size = server_.config().block_size;
  if (data.size() > block_size) throw UsageError("oram: block too large");
  data.resize(block_size, 0);
  const uint64_t leaf = rng_.uniform(server_.leaf_count());
  position_[id] = leaf;
  stash_[id] = StashEntry{std::move(data), leaf};
  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;
}

std::optional<Bytes> OramClient::read_modify_write(
    const BlockId& id, const std::function<Bytes(std::optional<Bytes>)>& mutate) {
  return access(id, nullptr, &mutate);
}

void OramClient::bulk_load(const Pages& pages, std::optional<size_t> sized_for) {
  if (!position_.empty() || !stash_.empty()) {
    throw UsageError("oram: bulk_load requires a fresh client");
  }
  const size_t z = server_.config().bucket_capacity;
  const size_t block_size = server_.config().block_size;
  const uint64_t leaf_count = server_.leaf_count();

  // The fill region: the first buckets in region order, the fewest whose
  // slots hold 1.25x the pages the load is sized for.
  const size_t target = sized_for.value_or(pages.size());
  const size_t region =
      std::clamp<size_t>((5 * target + 4 * z - 1) / (4 * z), 1, server_.bucket_count());
  const size_t deepest = std::bit_width(region) - 1;  // level of the region's last bucket

  // Plan placement locally: deepest bucket with room on the page's fresh
  // path inside the region, the stash when none has room. region_bucket is
  // its own inverse, so it also maps a heap bucket to its region index.
  std::vector<std::vector<const Pages::value_type*>> region_pages(region);
  for (const auto& page : pages) {
    if (page.second.size() > block_size) throw UsageError("oram: block too large");
    const uint64_t leaf = rng_.uniform(leaf_count);
    if (!position_.emplace(page.first, leaf).second) {
      throw UsageError("oram: duplicate page in bulk_load");
    }
    bool placed = false;
    for (size_t level_plus_1 = deepest + 1; level_plus_1 > 0 && !placed; --level_plus_1) {
      const size_t index = region_bucket(server_.bucket_index(leaf, level_plus_1 - 1));
      if (index < region && region_pages[index].size() < z) {
        region_pages[index].push_back(&page);
        placed = true;
      }
    }
    if (!placed) {
      Bytes padded = page.second;
      padded.resize(block_size, 0);
      stash_.emplace(page.first, StashEntry{std::move(padded), leaf});
    }
  }
  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;

  // Seal each page once, fill every other region slot as a free slot, and
  // hand the region to the server in one shot.
  std::vector<SealedSlot> slots(region * z);
  for (size_t index = 0; index < region; ++index) {
    const size_t fill = region_pages[index].size();
    fill_[region_bucket(index)] = static_cast<uint8_t>(fill);
    for (size_t slot = 0; slot < z; ++slot) {
      SealedSlot& sealed = slots[index * z + slot];
      if (slot < fill) {
        const auto& [id, data] = *region_pages[index][slot];
        sealed = seal_slot(mode_, key_, rng_, make_plaintext(id, data, block_size));
      } else {
        sealed = free_slot(key_, rng_, slot_ciphertext_bytes(block_size));
      }
    }
  }
  server_.load_slots(std::move(slots));
}

std::optional<Bytes> OramClient::access(
    const BlockId& id, const Bytes* new_data,
    const std::function<Bytes(std::optional<Bytes>)>* mutate, bool remove) {
  const auto pos_it = position_.find(id);
  const bool known = pos_it != position_.end();
  if (!known && new_data == nullptr && mutate == nullptr) {
    // Reading an unknown id must still look like a normal access: fetch and
    // rewrite a random path (a "dummy access"), otherwise absent keys would
    // be distinguishable by the missing traffic. Each block on it is resealed
    // in place and every other slot is a fresh free slot, so the fill counts
    // stand.
    const uint64_t leaf = rng_.uniform(server_.leaf_count());
    auto path = server_.read_path(leaf);
    const size_t z = server_.config().bucket_capacity;
    const size_t ciphertext_bytes = slot_ciphertext_bytes(server_.config().block_size);
    for (size_t level = 0; level <= server_.depth(); ++level) {
      const size_t fill = fill_[server_.bucket_index(leaf, level)];
      for (size_t slot = 0; slot < z; ++slot) {
        SealedSlot& sealed = path[level * z + slot];
        sealed = slot < fill ? seal_slot(mode_, key_, rng_, open_block(sealed))
                             : free_slot(key_, rng_, ciphertext_bytes);
      }
    }
    server_.write_path(leaf, std::move(path));
    return std::nullopt;
  }

  const uint64_t leaf = known ? pos_it->second : rng_.uniform(server_.leaf_count());

  // 1. Read the path and pull every block on it into the stash: the first
  // fill-count slots of each bucket. The free slots are never opened.
  const auto path = server_.read_path(leaf);
  const size_t z = server_.config().bucket_capacity;
  for (size_t level = 0; level <= server_.depth(); ++level) {
    const size_t fill = fill_[server_.bucket_index(leaf, level)];
    for (size_t slot = 0; slot < fill; ++slot) {
      const Bytes pt = open_block(path[level * z + slot]);
      const u256 slot_id = u256::from_be_bytes(BytesView{pt.data(), 32});
      const auto slot_pos = position_.find(slot_id);
      if (slot_pos == position_.end()) continue;  // stale copy of an id that moved
      if (stash_.contains(slot_id)) continue;     // newer copy already stashed
      StashEntry entry;
      entry.data.assign(pt.begin() + 32, pt.end());
      entry.leaf = slot_pos->second;
      stash_.emplace(slot_id, std::move(entry));
    }
  }

  if (remove) {
    // Out-migration: forget the block after pulling it off the path. The
    // server-visible traffic (one path read + rewrite) is identical to any
    // other access — only the trusted-side maps change.
    auto removed = stash_.find(id);
    if (removed == stash_.end()) {
      throw IntegrityError("oram: mapped block missing");
    }
    std::optional<Bytes> result = std::move(removed->second.data);
    stash_.erase(removed);
    position_.erase(id);
    evict_along_path(leaf);
    return result;
  }

  // 2. Remap the requested block to a fresh uniformly random leaf.
  const uint64_t new_leaf = rng_.uniform(server_.leaf_count());
  position_[id] = new_leaf;

  std::optional<Bytes> result;
  auto stash_it = stash_.find(id);
  if (stash_it != stash_.end()) {
    result = stash_it->second.data;
    stash_it->second.leaf = new_leaf;
    if (new_data != nullptr) stash_it->second.data = *new_data;
    if (mutate != nullptr) {
      Bytes updated = (*mutate)(result);
      updated.resize(server_.config().block_size, 0);
      stash_it->second.data = std::move(updated);
    }
  } else if (new_data != nullptr) {
    stash_.emplace(id, StashEntry{*new_data, new_leaf});
  } else if (mutate != nullptr) {
    Bytes created = (*mutate)(std::nullopt);
    created.resize(server_.config().block_size, 0);
    stash_.emplace(id, StashEntry{std::move(created), new_leaf});
  } else {
    // Known position but block not found on path or stash: data loss.
    throw IntegrityError("oram: mapped block missing");
  }

  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;

  // 3. Evict: greedily push stash blocks as deep as possible along this path.
  evict_along_path(leaf);
  return result;
}

void OramClient::evict_along_path(uint64_t leaf) {
  const size_t depth = server_.depth();
  const size_t z = server_.config().bucket_capacity;
  const size_t block_size = server_.config().block_size;
  std::vector<SealedSlot> path((depth + 1) * z);

  // Deepest level first; each bucket fills from slot 0.
  for (size_t level_plus_1 = depth + 1; level_plus_1 > 0; --level_plus_1) {
    const size_t level = level_plus_1 - 1;
    size_t filled = 0;
    const uint64_t path_prefix = (server_.leaf_count() + leaf) >> (depth - level);
    for (auto it = stash_.begin(); it != stash_.end() && filled < z;) {
      const uint64_t block_prefix =
          (server_.leaf_count() + it->second.leaf) >> (depth - level);
      if (block_prefix == path_prefix) {
        const Bytes pt = make_plaintext(it->first, it->second.data, block_size);
        path[level * z + filled] = seal_slot(mode_, key_, rng_, pt);
        ++filled;
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
    fill_[server_.bucket_index(leaf, level)] = static_cast<uint8_t>(filled);
    for (; filled < z; ++filled) {
      path[level * z + filled] = free_slot(key_, rng_, slot_ciphertext_bytes(block_size));
    }
  }
  server_.write_path(leaf, std::move(path));
}

Bytes OramClient::open_block(const SealedSlot& slot) const {
  std::optional<Bytes> pt;
  if (slot.ciphertext.size() == slot_ciphertext_bytes(server_.config().block_size)) {
    pt = open_slot(mode_, key_, slot);
  }
  if (!pt.has_value()) throw IntegrityError("oram: slot authentication failed");
  return std::move(*pt);
}

}  // namespace hardtape::oram
