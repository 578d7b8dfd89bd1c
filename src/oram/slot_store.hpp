// Backing array of the OramServer's bucket tree, behind an interface so the
// tree can live either in RAM (the seed behavior) or on checksummed pages
// of a pagedstore::PagedStore under its hard resident-page cap (DESIGN.md
// §16).
//
// The paged backend maps ONE BUCKET to ONE PAGE: page id = bucket index,
// payload = the bucket's Z sealed slots serialized back to back. A path walk
// (read_path .. write_path) brackets its buckets with begin_walk/end_walk so
// their pages stay PINNED for the whole walk — eviction proceeds around an
// in-flight walk, and a pool too small for depth+1 pins fails closed with
// PoolExhaustedError instead of silently overcommitting. Each begin_walk
// pin, read_bucket and write_bucket looks its bucket up once in the store's
// page table; a never-written bucket comes back as an empty pin. The shard's
// walk lock serializes every call. Torn or corrupt segment records surface
// as IntegrityError from the PagedStore page verifier — the same
// kIntegrity-class refusal a tampered slot seal gets.
//
// A bulk load (OramClient::bulk_load) writes only the pages of its fill
// region, the first buckets in region order; any other bucket gets its page
// on the first walk through it. So the paged segments hold the region plus
// the buckets walks have rewritten, and never-written buckets cost nothing.
//
// The slot store needs NO write-ahead log: the bucket tree is rebuilt on
// warm restart (bulk_load draws fresh leaves; positions are never carried
// across a crash), so its segments are spill space, never recovery input.
// The paged backend therefore wipes leftover files under its prefix at
// construction — a fresh server is a fresh tree.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "oram/path_oram.hpp"
#include "pagedstore/store.hpp"

namespace hardtape::oram {

/// Bucket-granular storage used by OramServer. Buckets hold exactly Z
/// slots; indices follow the server's heap layout. Not thread-safe (the
/// server's callers serialize walks).
class SlotStore {
 public:
  virtual ~SlotStore() = default;

  /// Appends bucket `bucket`'s Z slots to `out`, root-of-bucket order.
  virtual void read_bucket(size_t bucket, std::vector<SealedSlot>& out) = 0;
  /// Replaces bucket `bucket` with `slots[0..Z)`.
  virtual void write_bucket(size_t bucket, SealedSlot* slots) = 0;

  /// Pins the pages of an in-flight path walk until end_walk (or the next
  /// begin_walk). RAM backend: no-op.
  virtual void begin_walk(const std::vector<size_t>& buckets) { (void)buckets; }
  virtual void end_walk() {}

  /// Buffer-pool statistics; nullopt on the RAM backend.
  virtual std::optional<pagedstore::BufferPoolStats> pool_stats() const {
    return std::nullopt;
  }
};

/// The seed backend: a flat bucket-major vector, everything RAM-resident.
class RamSlotStore final : public SlotStore {
 public:
  RamSlotStore(size_t bucket_count, size_t z)
      : z_(z), slots_(bucket_count * z) {}

  void read_bucket(size_t bucket, std::vector<SealedSlot>& out) override;
  void write_bucket(size_t bucket, SealedSlot* slots) override;

 private:
  size_t z_;
  std::vector<SealedSlot> slots_;
};

/// Paged backend: buckets serialized onto PagedStore pages, RAM bounded by
/// the pool cap, overflow spilled to SimFs segments.
class PagedSlotStore final : public SlotStore {
 public:
  /// `config.buffer_pool_pages` is raised to `min_pool_pages` (the walk pin
  /// working set: depth+1 path buckets plus slack) when set lower.
  PagedSlotStore(durability::SimFs& fs, pagedstore::PagedStoreConfig config,
                 size_t z, size_t block_size, size_t min_pool_pages);

  /// Payload bytes of one bucket page over `block_size`-byte blocks: Z
  /// slots, each a 4-byte ciphertext length and the slot's sealed bytes.
  static constexpr size_t bucket_page_bytes(size_t z, size_t block_size) {
    return z * (4 + sealed_slot_bytes(block_size));
  }

  void read_bucket(size_t bucket, std::vector<SealedSlot>& out) override;
  void write_bucket(size_t bucket, SealedSlot* slots) override;
  void begin_walk(const std::vector<size_t>& buckets) override;
  void end_walk() override { walk_pins_.clear(); }
  std::optional<pagedstore::BufferPoolStats> pool_stats() const override {
    return store_.pool_stats();
  }

 private:
  Bytes serialize_bucket(const SealedSlot* slots) const;
  void deserialize_bucket(BytesView payload, std::vector<SealedSlot>& out) const;

  pagedstore::PagedStore store_;
  size_t z_;
  size_t page_bytes_;  ///< bucket_page_bytes of this store's geometry
  std::vector<pagedstore::PagedStore::PageRef> walk_pins_;
};

}  // namespace hardtape::oram
