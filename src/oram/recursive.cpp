#include "oram/recursive.hpp"

#include <cstring>

namespace hardtape::oram {

namespace {
// The data tree keeps a sealed dummy in every free slot, marked by this id,
// where OramClient keeps a per-bucket fill count: recursion exists to leave
// only the stash on-chip, and a count per bucket is O(n) trusted state.
const u256 kDummyId = ~u256{};

// Data blocks carry their current leaf in the sealed header (id || leaf ||
// data) so blocks swept up in transit keep a valid mapping without an extra
// map lookup.
Bytes make_plaintext(const u256& id, uint64_t leaf, BytesView data,
                     size_t block_size) {
  Bytes pt;
  pt.reserve(40 + block_size);
  append(pt, id.to_be_bytes_vec());
  for (int i = 0; i < 8; ++i) pt.push_back(static_cast<uint8_t>(leaf >> (8 * i)));
  append(pt, data);
  pt.resize(40 + block_size, 0);
  return pt;
}
}  // namespace

RecursiveOramClient::RecursiveOramClient(const RecursiveOramConfig& config,
                                         const crypto::AesKey128& oram_key,
                                         uint64_t rng_seed, SealMode mode)
    : config_(config),
      key_(oram_key),
      mode_(mode),
      rng_(rng_seed),
      data_server_(OramConfig{.block_size = config.block_size,
                              .bucket_capacity = config.bucket_capacity,
                              .capacity = config.capacity,
                              .max_stash_blocks = config.max_stash_blocks}),
      map_server_(OramConfig{
          .block_size = config.map_entries_per_block * 8,
          .bucket_capacity = config.bucket_capacity,
          .capacity = (config.capacity + config.map_entries_per_block - 1) /
                          config.map_entries_per_block +
                      1,
          .max_stash_blocks = config.max_stash_blocks}),
      map_client_(map_server_, oram_key, rng_seed ^ 0x3a9, mode) {}

// Swaps the map entry for `index` and returns the previous one. Exactly one
// map-ORAM access per data access (read-modify-write on the map block).
uint64_t RecursiveOramClient::map_entry_swap(uint64_t index, uint64_t new_entry) {
  const uint64_t map_index = index / config_.map_entries_per_block;
  const size_t offset = (index % config_.map_entries_per_block) * 8;
  uint64_t previous = 0;
  map_position_[map_index] = true;
  map_client_.read_modify_write(u256{map_index}, [&](std::optional<Bytes> block) {
    Bytes contents;
    if (block.has_value()) {
      contents = std::move(*block);
    } else {
      // Uninitialized map block: every entry gets a fresh random leaf.
      contents.resize(config_.map_entries_per_block * 8);
      for (size_t i = 0; i < config_.map_entries_per_block; ++i) {
        const uint64_t leaf = rng_.uniform(data_server_.leaf_count());
        std::memcpy(contents.data() + i * 8, &leaf, 8);
      }
    }
    std::memcpy(&previous, contents.data() + offset, 8);
    std::memcpy(contents.data() + offset, &new_entry, 8);
    return contents;
  });
  return previous;
}

std::optional<Bytes> RecursiveOramClient::read(uint64_t index) {
  if (index >= config_.capacity) throw UsageError("recursive oram: index out of range");
  const uint64_t new_leaf = rng_.uniform(data_server_.leaf_count());
  const uint64_t leaf = map_entry_swap(index, new_leaf) % data_server_.leaf_count();
  // Absent blocks are simply not found on the path: the access is uniform
  // either way (one map access + one data access).
  return data_access(index, leaf, new_leaf, nullptr);
}

void RecursiveOramClient::write(uint64_t index, BytesView data) {
  if (index >= config_.capacity) throw UsageError("recursive oram: index out of range");
  if (data.size() > config_.block_size) throw UsageError("recursive oram: block too large");
  Bytes padded(data.begin(), data.end());
  padded.resize(config_.block_size, 0);
  const uint64_t new_leaf = rng_.uniform(data_server_.leaf_count());
  const uint64_t leaf = map_entry_swap(index, new_leaf) % data_server_.leaf_count();
  data_access(index, leaf, new_leaf, &padded);
}

std::optional<Bytes> RecursiveOramClient::data_access(uint64_t index, uint64_t leaf,
                                                      uint64_t new_leaf,
                                                      const Bytes* new_data) {
  const auto path = data_server_.begin_walk(leaf);
  for (const SealedSlot* slot : path) {
    if (slot->ciphertext.empty()) continue;
    const auto pt = open_slot(mode_, key_, *slot);
    if (!pt.has_value()) throw IntegrityError("recursive oram: authentication failed");
    const u256 slot_id = u256::from_be_bytes(BytesView{pt->data(), 32});
    if (slot_id == kDummyId) continue;
    const uint64_t id = slot_id.as_u64();
    if (data_stash_.contains(id)) continue;
    // The block header carries its current leaf, so transit blocks keep
    // their true mapping without an extra map lookup.
    uint64_t header_leaf = 0;
    std::memcpy(&header_leaf, pt->data() + 32, 8);
    StashEntry entry;
    entry.data.assign(pt->begin() + 40, pt->end());
    entry.leaf = (id == index) ? new_leaf : header_leaf;
    data_stash_[id] = std::move(entry);
  }

  std::optional<Bytes> result;
  auto it = data_stash_.find(index);
  if (it != data_stash_.end()) {
    result = it->second.data;
    it->second.leaf = new_leaf;
    if (new_data != nullptr) it->second.data = *new_data;
  } else if (new_data != nullptr) {
    data_stash_[index] = StashEntry{*new_data, new_leaf};
  }
  stash_high_water_ = std::max(stash_high_water_, data_stash_.size());

  evict_data_path(leaf, path);
  return result;
}

void RecursiveOramClient::evict_data_path(uint64_t leaf, std::span<SealedSlot* const> path) {
  const size_t depth = data_server_.depth();
  const size_t z = config_.bucket_capacity;
  for (size_t level_plus_1 = depth + 1; level_plus_1 > 0; --level_plus_1) {
    const size_t level = level_plus_1 - 1;
    size_t filled = 0;
    const uint64_t path_prefix = (data_server_.leaf_count() + leaf) >> (depth - level);
    for (auto it = data_stash_.begin(); it != data_stash_.end() && filled < z;) {
      const uint64_t block_prefix =
          (data_server_.leaf_count() + it->second.leaf) >> (depth - level);
      if (block_prefix == path_prefix) {
        const Bytes pt = make_plaintext(u256{it->first}, it->second.leaf,
                                        it->second.data, config_.block_size);
        *path[level * z + filled] = seal_slot(mode_, key_, rng_, pt);
        ++filled;
        it = data_stash_.erase(it);
      } else {
        ++it;
      }
    }
    for (; filled < z; ++filled) {
      *path[level * z + filled] = seal_slot(
          mode_, key_, rng_,
          make_plaintext(kDummyId, 0, BytesView{}, config_.block_size));
    }
  }
  data_server_.end_walk();
}

}  // namespace hardtape::oram
