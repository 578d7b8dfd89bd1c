// Recursive position map (paper Section II-C: "The position map can be
// stored in higher-level ORAMs recursively if it is too big").
//
// The plain OramClient keeps an O(n) position map on-chip — fine for the
// proof-of-concept tree, but a 2^30-page production world state needs ~8 GB
// of map, far beyond on-chip memory. The standard fix is recursion: the
// data ORAM's position map is packed into blocks and stored in a second,
// much smaller ORAM, whose own (tiny) position map stays on-chip. Each data
// access then costs one map-ORAM access plus one data-ORAM access.
//
// Recursion requires dense block indices; HarDTAPE assigns page ids dense
// indices deterministically at block-synchronization time (the sync order
// is public, so the assignment leaks nothing).
#pragma once

#include "oram/path_oram.hpp"

namespace hardtape::oram {

struct RecursiveOramConfig {
  size_t block_size = 1024;       ///< data block (page) size
  size_t capacity = 4096;         ///< number of dense data blocks
  size_t bucket_capacity = 4;
  size_t max_stash_blocks = 256;
  size_t map_entries_per_block = 128;  ///< 8-byte leaf pointers per map block
};

/// A Path ORAM whose position map lives in a second Path ORAM. Blocks are
/// addressed by dense index in [0, capacity).
class RecursiveOramClient {
 public:
  RecursiveOramClient(const RecursiveOramConfig& config,
                      const crypto::AesKey128& oram_key, uint64_t rng_seed,
                      SealMode mode = SealMode::kChaChaHmac);

  std::optional<Bytes> read(uint64_t index);
  void write(uint64_t index, BytesView data);

  /// Total server-side accesses per logical operation (map + data).
  uint64_t data_accesses() const { return data_server_.access_count(); }
  uint64_t map_accesses() const { return map_server_.access_count(); }

  /// On-chip memory actually required: the map ORAM's position map + both
  /// stashes — the quantity recursion is meant to shrink.
  size_t onchip_position_entries() const { return map_position_.size(); }
  size_t stash_high_water() const { return stash_high_water_; }

  const OramServer& data_server() const { return data_server_; }
  const OramServer& map_server() const { return map_server_; }

 private:
  struct StashEntry {
    Bytes data;
    uint64_t leaf;
  };

  // Position-map access through the map ORAM: swaps the packed entry
  // (leaf | exists-bit) for `index` and returns the previous one.
  uint64_t map_entry_swap(uint64_t index, uint64_t new_entry);
  // One Path ORAM access against the data tree (mirrors OramClient::access).
  std::optional<Bytes> data_access(uint64_t index, uint64_t leaf, uint64_t new_leaf,
                                   const Bytes* new_data);
  // Seals the stash as deep as it goes onto `path`, the data-tree walk in
  // flight to `leaf`, in place, and ends the walk.
  void evict_data_path(uint64_t leaf, std::span<SealedSlot* const> path);

  RecursiveOramConfig config_;
  crypto::AesKey128 key_;
  SealMode mode_;
  Random rng_;

  OramServer data_server_;
  OramServer map_server_;
  OramClient map_client_;  // its position map is the small on-chip one

  // Data ORAM state kept on-chip: stash only (the point of recursion);
  // existence bits live inside the map entries.
  std::unordered_map<uint64_t, StashEntry> data_stash_;
  size_t stash_high_water_ = 0;

  // Exposed for accounting: number of entries in the map client's position
  // map (mirrors map ORAM block count).
  std::unordered_map<uint64_t, bool> map_position_;
};

}  // namespace hardtape::oram
