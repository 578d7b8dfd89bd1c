#include "oram/path_oram.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

#include "crypto/chacha20_poly1305.hpp"
#include "oram/slot_store.hpp"

namespace hardtape::oram {

namespace {

// Writes `data` into a stash entry's plaintext after its 32-byte id, cut or
// zero-padded to the block.
void put_block(Bytes& plaintext, BytesView data) {
  const size_t n = std::min(data.size(), plaintext.size() - 32);
  std::memcpy(plaintext.data() + 32, data.data(), n);
  std::memset(plaintext.data() + 32 + n, 0, plaintext.size() - 32 - n);
}

// A block as the client stashes and seals it: its 32-byte id, then its data
// zero-padded to the block size.
Bytes block_plaintext(const BlockId& id, BytesView data, size_t block_size) {
  Bytes plaintext(slot_ciphertext_bytes(block_size));
  const auto id_bytes = id.to_be_bytes();
  std::memcpy(plaintext.data(), id_bytes.data(), id_bytes.size());
  put_block(plaintext, data);
  return plaintext;
}

// The data of a stash entry's plaintext.
Bytes block_data(const Bytes& plaintext) { return Bytes(plaintext.begin() + 32, plaintext.end()); }

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
      // begin_walk to end_walk, plus slack for the rewrite's fetches.
      store_ = std::make_unique<PagedSlotStore>(*config.backing_fs, std::move(ps),
                                                config.bucket_capacity, config.block_size,
                                                /*min_pool_pages=*/2 * (depth_ + 1));
      break;
    }
  }
  if (store_ == nullptr) throw UsageError("oram: bad slot backend");
  walk_buckets_.resize(depth_ + 1);
  walk_path_.resize((depth_ + 1) * config.bucket_capacity);
}

OramServer::~OramServer() = default;

std::span<SealedSlot* const> OramServer::begin_walk(uint64_t leaf) {
  if (leaf >= leaf_count_) throw UsageError("oram: leaf out of range");
  observed_leaves_.push_back(leaf);
  ++access_count_;
  for (size_t level = 0; level <= depth_; ++level) {
    walk_buckets_[level] = bucket_index(leaf, level);
  }
  store_->begin_walk(walk_buckets_, walk_path_);
  walking_ = true;
  return walk_path_;
}

void OramServer::end_walk() {
  if (!walking_) throw UsageError("oram: no walk in flight");
  walking_ = false;
  store_->end_walk();
}

void OramServer::load_slots(std::vector<SealedSlot> slots) {
  // The first k buckets in region order, Z slots each.
  const size_t z = config_.bucket_capacity;
  const size_t buckets = slots.size() / z;
  if (slots.size() % z != 0 || buckets == 0 || buckets > bucket_count()) {
    throw UsageError("oram: bulk load shape mismatch");
  }
  for (size_t index = 0; index < buckets; ++index) {
    store_->write_bucket(region_bucket(index), slots.data() + index * z);
  }
}

std::vector<SealedSlot> OramServer::stored_bucket(size_t bucket) const {
  if (bucket >= bucket_count()) throw UsageError("oram: bucket out of range");
  std::vector<SealedSlot> out(config_.bucket_capacity);
  store_->read_bucket(bucket, out.data());
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
                       uint64_t rng_seed, SealMode /*mode*/)
    : server_(server),
      key_(seal_key),
      rng_(rng_seed),
      fill_(server.bucket_count(), 0),
      fills_(server.depth() + 1),
      nonces_((server.depth() + 1) * server.config().bucket_capacity) {
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
  access(id, &data);
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
  const uint64_t leaf = rng_.uniform(server_.leaf_count());
  position_[id] = leaf;
  stash_[id] = StashEntry{block_plaintext(id, data, block_size), leaf};
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
      stash_.emplace(page.first,
                     StashEntry{block_plaintext(page.first, page.second, block_size), leaf});
    }
  }
  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;

  // Seal each page once and fill every other region slot as a free slot,
  // drawing the nonces in region order. The keystream runs one pass per
  // path's worth of buckets, so its scratch never outgrows a walk's, however
  // large the region.
  std::vector<SealedSlot> slots(region * z);
  std::vector<uint8_t> fills(region);
  for (size_t index = 0; index < region; ++index) {
    fills[index] = static_cast<uint8_t>(region_pages[index].size());
    fill_[region_bucket(index)] = fills[index];
  }
  // Its own batch and plaintexts, freed when the load ends, keep the walks'
  // scratch at one walk's size.
  crypto::ChaChaBatch batch;
  std::vector<SealedSlot*> pass_slots;
  std::vector<crypto::ChaChaNonce> nonces;
  std::vector<Bytes> plaintexts;
  const size_t pass = server_.depth() + 1;
  for (size_t first = 0; first < region; first += pass) {
    const size_t count = std::min(pass, region - first);
    pass_slots.clear();
    nonces.resize(count * z);
    plaintexts.clear();
    for (size_t i = 0; i < count * z; ++i) {
      pass_slots.push_back(&slots[first * z + i]);
      rng_.fill(nonces[i].data(), nonces[i].size());
      const auto& bucket_pages = region_pages[first + i / z];
      if (i % z < bucket_pages.size()) {
        const auto& [id, data] = *bucket_pages[i % z];
        plaintexts.push_back(block_plaintext(id, data, block_size));
      }
    }
    seal_slots(batch, pass_slots, std::span(fills).subspan(first, count), nonces, plaintexts);
  }
  server_.load_slots(std::move(slots));
}

std::optional<Bytes> OramClient::access(
    const BlockId& id, const BytesView* new_data,
    const std::function<Bytes(std::optional<Bytes>)>* mutate, bool remove) {
  const auto pos_it = position_.find(id);
  const bool known = pos_it != position_.end();
  const size_t z = server_.config().bucket_capacity;
  const size_t block_size = server_.config().block_size;
  if (!known && new_data == nullptr && mutate == nullptr) {
    // Reading an unknown id must still look like a normal access: fetch and
    // rewrite a random path (a "dummy access"), otherwise absent keys would
    // be distinguishable by the missing traffic. Each block on it is resealed
    // in place and every other slot is a fresh free slot, so the fill counts
    // stand. Each slot's new nonce is drawn once the slots before it are
    // checked, as resealing slot by slot would.
    const uint64_t leaf = rng_.uniform(server_.leaf_count());
    const auto path = server_.begin_walk(leaf);
    open_pass(leaf, path);
    size_t opened = 0;
    for (size_t level = 0; level < fills_.size(); ++level) {
      for (size_t slot = 0; slot < z; ++slot) {
        if (slot < fills_[level]) open_block(opened++, *path[level * z + slot], leaf, level);
        rng_.fill(nonces_[level * z + slot].data(), nonces_[level * z + slot].size());
      }
    }
    seal_slots(batch_, path, fills_, nonces_, plaintexts_);
    server_.end_walk();
    plaintexts_.resize(opened);
    return std::nullopt;
  }

  const uint64_t leaf = known ? pos_it->second : rng_.uniform(server_.leaf_count());

  // 1. Read the path and pull every block on it into the stash: the first
  // fill-count slots of each bucket, opened in one keystream pass into
  // client memory. The free slots are never opened. Every opened block, and
  // the one asked for, is accounted for before any enters the stash, so a
  // walk that fails closed leaves the client and the SP's tree as they were.
  const auto path = server_.begin_walk(leaf);
  open_pass(leaf, path);
  size_t opened = 0;
  for (size_t level = 0; level < fills_.size(); ++level) {
    for (size_t slot = 0; slot < fills_[level]; ++slot) {
      open_block(opened, *path[level * z + slot], leaf, level);
      ++opened;
    }
  }
  if (known && !stash_.contains(id) &&
      std::none_of(opened_.begin(), opened_.begin() + static_cast<ptrdiff_t>(opened),
                   [&](const OpenedBlock& block) { return block.id == id; })) {
    // Known position but block not found on path or stash: data loss.
    throw IntegrityError("oram: mapped block missing");
  }
  for (size_t k = 0; k < opened; ++k) {
    stash_.emplace(opened_[k].id, StashEntry{std::move(plaintexts_[k]), opened_[k].leaf});
  }

  if (remove) {
    // Out-migration: forget the block after pulling it off the path. The
    // server-visible traffic (one path read + rewrite) is identical to any
    // other access — only the trusted-side maps change.
    auto removed = stash_.find(id);
    std::optional<Bytes> result = block_data(removed->second.plaintext);
    stash_.erase(removed);
    position_.erase(id);
    evict_along_path(leaf, path);
    return result;
  }

  // 2. Remap the requested block to a fresh uniformly random leaf.
  const uint64_t new_leaf = rng_.uniform(server_.leaf_count());
  position_[id] = new_leaf;

  std::optional<Bytes> result;
  auto stash_it = stash_.find(id);
  if (stash_it != stash_.end()) {
    Bytes& plaintext = stash_it->second.plaintext;
    result = block_data(plaintext);
    stash_it->second.leaf = new_leaf;
    if (new_data != nullptr) put_block(plaintext, *new_data);
    if (mutate != nullptr) put_block(plaintext, (*mutate)(result));
  } else if (new_data != nullptr) {
    stash_.emplace(id, StashEntry{block_plaintext(id, *new_data, block_size), new_leaf});
  } else {
    stash_.emplace(id, StashEntry{block_plaintext(id, (*mutate)(std::nullopt), block_size),
                                  new_leaf});
  }

  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;

  // 3. Evict: greedily push stash blocks as deep as possible along this path.
  evict_along_path(leaf, path);
  return result;
}

void OramClient::evict_along_path(uint64_t leaf, std::span<SealedSlot* const> path) {
  const size_t depth = server_.depth();
  const size_t z = server_.config().bucket_capacity;

  // Deepest level first; each bucket fills from slot 0. Every slot's nonce
  // is drawn here, in the order the slots are assigned, and each block's
  // plaintext moves out of its stash entry into plaintexts_.
  size_t sealed = 0;
  for (size_t level_plus_1 = depth + 1; level_plus_1 > 0; --level_plus_1) {
    const size_t level = level_plus_1 - 1;
    size_t filled = 0;
    const uint64_t path_prefix = (server_.leaf_count() + leaf) >> (depth - level);
    for (auto it = stash_.begin(); it != stash_.end() && filled < z;) {
      const uint64_t block_prefix =
          (server_.leaf_count() + it->second.leaf) >> (depth - level);
      if (block_prefix == path_prefix) {
        crypto::ChaChaNonce& nonce = nonces_[level * z + filled];
        rng_.fill(nonce.data(), nonce.size());
        if (sealed == plaintexts_.size()) plaintexts_.emplace_back();
        plaintexts_[sealed++].swap(it->second.plaintext);
        ++filled;
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
    fills_[level] = static_cast<uint8_t>(filled);
    fill_[server_.bucket_index(leaf, level)] = fills_[level];
    for (; filled < z; ++filled) {
      crypto::ChaChaNonce& nonce = nonces_[level * z + filled];
      rng_.fill(nonce.data(), nonce.size());
    }
  }
  // plaintexts_ took the blocks deepest level first; the rewrite seals them
  // in path order, root first.
  const auto first = plaintexts_.begin();
  std::reverse(first, first + static_cast<ptrdiff_t>(sealed));
  for (size_t level = 0, begin = 0; level <= depth; begin += fills_[level++]) {
    std::reverse(first + static_cast<ptrdiff_t>(begin),
                 first + static_cast<ptrdiff_t>(begin + fills_[level]));
  }
  seal_slots(batch_, path, fills_, nonces_, plaintexts_);
  server_.end_walk();
  plaintexts_.resize(sealed);
}

void OramClient::seal_slots(crypto::ChaChaBatch& batch, std::span<SealedSlot* const> slots,
                            std::span<const uint8_t> fills,
                            std::span<const crypto::ChaChaNonce> nonces,
                            std::span<const Bytes> plaintexts) const {
  const size_t z = server_.config().bucket_capacity;
  const size_t ciphertext_bytes = slot_ciphertext_bytes(server_.config().block_size);
  // A free slot holds no block, so there is nothing to authenticate: the
  // keystream from counter 1 across the sealed shape, ciphertext then tag.
  // Its whole blocks go straight into the ciphertext; the rest of the
  // ciphertext and the tag come from the block after them.
  const size_t direct_blocks = ciphertext_bytes / 64;
  const size_t rest = ciphertext_bytes % 64;
  const auto holds_block = [&](size_t i) { return i % z < fills[i / z]; };
  batch.clear();
  for (size_t i = 0; i < slots.size(); ++i) {
    SealedSlot& slot = *slots[i];
    slot.nonce = nonces[i];
    slot.ciphertext.resize(ciphertext_bytes);  // changes nothing after a slot's first write
    if (holds_block(i)) {
      batch.add_aead(slot.nonce, ciphertext_bytes);
      continue;
    }
    batch.add_blocks(slot.nonce, 1, direct_blocks, slot.ciphertext.data());
    batch.add_stream(slot.nonce, static_cast<uint32_t>(1 + direct_blocks),
                     rest + slot.tag.size());
  }
  batch.run(crypto::chacha_key(key_));
  size_t job = 0, block = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    SealedSlot& slot = *slots[i];
    if (holds_block(i)) {
      slot.tag = batch.seal(job++, {}, plaintexts[block++], slot.ciphertext);
      continue;
    }
    const uint8_t* tail = batch.stream(job + 1);
    job += 2;
    std::memcpy(slot.ciphertext.data() + 64 * direct_blocks, tail, rest);
    std::memcpy(slot.tag.data(), tail + rest, slot.tag.size());
  }
}

void OramClient::open_pass(uint64_t leaf, std::span<SealedSlot* const> path) {
  const size_t z = server_.config().bucket_capacity;
  const size_t ciphertext_bytes = slot_ciphertext_bytes(server_.config().block_size);
  batch_.clear();
  for (size_t level = 0; level < fills_.size(); ++level) {
    fills_[level] = fill_[server_.bucket_index(leaf, level)];
    for (size_t slot = 0; slot < fills_[level]; ++slot) {
      batch_.add_aead(path[level * z + slot]->nonce, ciphertext_bytes);
    }
  }
  batch_.run(crypto::chacha_key(key_));
}

void OramClient::open_block(size_t job, const SealedSlot& slot, uint64_t leaf, size_t level) {
  if (job == plaintexts_.size()) plaintexts_.emplace_back();
  if (job == opened_.size()) opened_.emplace_back();
  Bytes& plaintext = plaintexts_[job];
  plaintext.resize(slot_ciphertext_bytes(server_.config().block_size));
  if (slot.ciphertext.size() != plaintext.size() ||
      !batch_.open(job, {}, slot.ciphertext, plaintext, slot.tag)) {
    throw IntegrityError("oram: slot authentication failed");
  }
  // Eviction and bulk_load keep one copy of each mapped block, in a bucket
  // on its own path; an authentic slot anywhere else is one the SP replayed
  // or moved.
  const BlockId id = u256::from_be_bytes(BytesView{plaintext.data(), 32});
  const auto pos = position_.find(id);
  if (pos == position_.end()) throw IntegrityError("oram: opened block is not mapped");
  const auto earlier = opened_.begin() + static_cast<ptrdiff_t>(job);
  if (stash_.contains(id) || std::any_of(opened_.begin(), earlier, [&](const OpenedBlock& b) {
        return b.id == id;
      })) {
    throw IntegrityError("oram: opened block is held twice");
  }
  if (server_.bucket_index(pos->second, level) != server_.bucket_index(leaf, level)) {
    throw IntegrityError("oram: opened block is off its path");
  }
  opened_[job] = OpenedBlock{id, pos->second};
}

}  // namespace hardtape::oram
