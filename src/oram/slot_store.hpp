// Backing array of the OramServer's bucket tree, behind an interface so the
// tree can live either in RAM (the seed behavior) or on checksummed pages
// of a pagedstore::PagedStore under its hard resident-page cap (DESIGN.md
// §16).
//
// A walk reads and rewrites its path in place (DESIGN.md §10): begin_walk
// hands it a pointer to each of the path's Z*(depth+1) slots, the client
// opens the filled ones from there and seals every one straight back, and
// end_walk closes the walk. Neither store copies a slot out or back for it.
//
// The RAM store holds only the buckets that were ever written: a bucket's Z
// slots are allocated the first time a walk or a bulk load reaches it, so a
// fresh tree costs one pointer per bucket, and a never-written bucket reads
// back as Z empty slots.
//
// The paged backend maps ONE BUCKET to ONE PAGE: page id = bucket index,
// payload = the bucket's Z sealed slots serialized back to back. begin_walk
// pins the path's pages, so eviction proceeds around an in-flight walk and
// a pool too small for depth+1 pins fails closed with PoolExhaustedError
// instead of silently overcommitting, then deserializes each bucket into
// the store's walk scratch, whose slots every walk reuses; end_walk
// serializes the rewritten scratch back with one put per bucket, drops the
// pins and frees the scratch's slot bytes, so between walks the store
// holds none outside its pool.
// A walk that fails closed never reaches end_walk and puts nothing back.
// A never-written bucket comes back as Z empty slots. The shard's walk lock
// serializes every call. Torn or corrupt segment records surface as
// IntegrityError from the PagedStore page verifier — the same
// kIntegrity-class refusal a tampered slot seal gets.
//
// A bulk load (OramClient::bulk_load) writes only the buckets of its fill
// region, the first buckets in region order; any other bucket is written on
// the first walk through it. So either store holds the region plus the
// buckets walks have rewritten, and never-written buckets cost nothing.
//
// The slot store needs NO write-ahead log: the bucket tree is rebuilt on
// warm restart (bulk_load draws fresh leaves; positions are never carried
// across a crash), so its segments are spill space, never recovery input.
// The paged backend therefore wipes leftover files under its prefix at
// construction — a fresh server is a fresh tree.
#pragma once

#include <memory>
#include <optional>
#include <span>
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

  /// Starts a walk over `buckets` (one path, root first), dropping any walk
  /// left unfinished: points path[level * Z + slot] at that slot as the store
  /// keeps it, for the walk to read and overwrite in place until end_walk.
  virtual void begin_walk(std::span<const size_t> buckets, std::span<SealedSlot*> path) = 0;
  /// Ends the walk once every slot on its path is rewritten.
  virtual void end_walk() = 0;
  /// Replaces bucket `bucket` with `slots[0..Z)`, moving them in (the bulk
  /// load).
  virtual void write_bucket(size_t bucket, SealedSlot* slots) = 0;
  /// Copies bucket `bucket`'s Z slots to `out[0..Z)`.
  virtual void read_bucket(size_t bucket, SealedSlot* out) = 0;

  /// Buffer-pool statistics; nullopt on the RAM backend.
  virtual std::optional<pagedstore::BufferPoolStats> pool_stats() const {
    return std::nullopt;
  }
};

/// The RAM backend: one pointer per bucket, and a bucket's Z slots from the
/// first time it is written.
class RamSlotStore final : public SlotStore {
 public:
  RamSlotStore(size_t bucket_count, size_t z) : z_(z), buckets_(bucket_count) {}

  void begin_walk(std::span<const size_t> buckets, std::span<SealedSlot*> path) override;
  void end_walk() override {}
  void write_bucket(size_t bucket, SealedSlot* slots) override;
  void read_bucket(size_t bucket, SealedSlot* out) override;

 private:
  /// Bucket `bucket`'s Z slots, allocated (empty) on first use.
  SealedSlot* written(size_t bucket);

  size_t z_;
  std::vector<std::unique_ptr<SealedSlot[]>> buckets_;  ///< null until written
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

  void begin_walk(std::span<const size_t> buckets, std::span<SealedSlot*> path) override;
  void end_walk() override;
  void write_bucket(size_t bucket, SealedSlot* slots) override;
  void read_bucket(size_t bucket, SealedSlot* out) override;
  std::optional<pagedstore::BufferPoolStats> pool_stats() const override {
    return store_.pool_stats();
  }

 private:
  void deserialize_bucket(BytesView payload, SealedSlot* out) const;

  pagedstore::PagedStore store_;
  size_t z_;
  std::vector<pagedstore::PagedStore::PageRef> walk_pins_;
  std::vector<size_t> walk_buckets_;   ///< the walk in flight's path, root first
  std::vector<SealedSlot> walk_slots_;  ///< its buckets' slots, emptied between walks
  Bytes page_;                         ///< one bucket page, reused by every put
};

}  // namespace hardtape::oram
