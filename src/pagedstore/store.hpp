// PagedStore: a page-granular store over SimFs with a bounded buffer pool
// (DESIGN.md §16).
//
// SimFs deliberately has no random-access writes — only append / fsync /
// rename / remove / sync_dir, the POSIX crash-consistency vocabulary. So the
// store is LOG-STRUCTURED: page versions are appended to numbered segment
// files ("<name>.seg-<n>") and an in-memory page table maps each logical id
// to the locator (segment, offset, length) of its newest persisted version.
// Updating a page never touches the old bytes; copy-on-write falls out of
// the medium. The buffer pool (buffer_pool.hpp) caches payloads under a hard
// `buffer_pool_pages` cap — evicting a dirty frame appends it to the current
// segment first, so the ONLY full copy of the data lives on the fs and RAM
// stays bounded no matter how large the store grows.
//
// Reads are FAIL-CLOSED: a page fetched from a segment is verified against
// its header checksum and the id the caller asked for; a torn or corrupt
// record throws IntegrityError — the same `kIntegrity`-class refusal a
// tampered ORAM slot gets — never silent garbage.
//
// Durability is the CALLER's protocol, not this class's: appends are pending
// until flush(true) fsyncs the touched segments. The incremental-checkpoint
// protocol built on top (durability::DurableStore) flushes dirty pages, then
// publishes a manifest of locators with the atomic-rename sequence; stores
// that need no crash consistency (the ORAM slot store, the trie node store —
// both rebuilt on warm restart) simply never fsync and use the segments as
// spill space.
//
// NOT thread-safe: callers hold their own lock (the shard walk lock, the
// DurableStore mutex). The page table is RAM-resident metadata — tens of
// bytes per page against a page of data; the memory BOUND applies to
// payloads, which is where 10-100x state lives.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/u256.hpp"
#include "durability/vfs.hpp"
#include "pagedstore/buffer_pool.hpp"
#include "pagedstore/page.hpp"

namespace hardtape::pagedstore {

/// Where a persisted page version lives. `length` is the full encoded record
/// (header + payload).
struct PageLocator {
  uint64_t segment = 0;
  uint64_t offset = 0;
  uint32_t length = 0;
  bool operator==(const PageLocator&) const = default;
};

struct PagedStoreConfig {
  std::string name = "store";  ///< file prefix: "<name>.seg-<n>"
  size_t buffer_pool_pages = 64;
  /// Roll to a new segment file once the current one grows past this.
  size_t segment_target_bytes = 1 << 20;
  /// Remove a segment file as soon as no live page version references it.
  /// Right for rebuild-on-restart stores (ORAM slots, trie nodes); MUST be
  /// false when published manifests may still reference old segments (the
  /// DurableStore checkpoint protocol GCs via gc_segments instead).
  bool auto_gc_segments = true;
  obs::Registry* registry = nullptr;  ///< pool metrics (optional)
};

class PagedStore {
 public:
  PagedStore(durability::SimFs& fs, PagedStoreConfig config);

  // --- page access ---
  /// Installs or overwrites a page (dirty in the pool; the prior persisted
  /// version, if any, stays on its segment — CoW).
  void put(const u256& id, BytesView payload);
  /// nullopt when the id was never written; throws IntegrityError when the
  /// persisted version fails verification.
  std::optional<Bytes> get(const u256& id);
  /// Pins an existing page (UsageError when absent). The returned ref may be
  /// written through; mark_dirty() makes the change stick.
  BufferPool::PageRef pin(const u256& id);
  /// Pins, creating the page from `init` when absent.
  BufferPool::PageRef pin_or_create(const u256& id, const std::function<Bytes()>& init);
  bool contains(const u256& id) const;
  size_t page_count() const { return table_.size(); }

  // --- persistence protocol ---
  /// Stamped into page headers of subsequent appends (the checkpoint
  /// generation in the DurableStore protocol).
  void set_generation(uint64_t generation) { generation_ = generation; }
  struct FlushResult {
    uint64_t pages = 0;
    uint64_t bytes = 0;  ///< segment bytes appended by this flush
  };
  /// Persists every dirty pool page to the current segment; with `fsync`
  /// also makes all touched segments durable. After flush(), every page has
  /// a locator.
  FlushResult flush(bool fsync);
  /// Appends `id`'s dirty pool copy now (no fsync); no-op when clean.
  void force_persist(const u256& id);
  /// Newest persisted locator; nullopt while the only copy is a dirty pool
  /// frame that has never been evicted or flushed.
  std::optional<PageLocator> durable_locator(const u256& id) const;
  /// Rolls `id` back: to `prior` (a locator saved before an overwrite), or
  /// out of existence (nullopt). Any pool copy is discarded. The undo half
  /// of the DurableStore's epoch-abort path.
  void revert_to(const u256& id, const std::optional<PageLocator>& prior);
  /// (id, locator) for every page, id-ordered. UsageError if any page is
  /// still dirty — call flush() first. This is the manifest's page list.
  std::vector<std::pair<u256, PageLocator>> locators() const;
  /// Removes segment files NOT in `keep` (the current open segment is
  /// always kept). Used by the manifest GC once no published checkpoint
  /// references a segment.
  void gc_segments(const std::set<uint64_t>& keep);
  uint64_t current_segment() const { return current_segment_; }

  // --- introspection ---
  BufferPoolStats pool_stats() const { return pool_.stats(); }
  uint64_t segment_bytes_appended() const { return bytes_appended_; }
  const PagedStoreConfig& config() const { return config_; }

  static std::string segment_path(const std::string& name, uint64_t segment);
  /// Reads and verifies one page record straight from a segment file —
  /// nullopt on any violation (missing file, short slice, checksum or id
  /// mismatch). Recovery resolves manifest entries through this.
  static std::optional<DecodedPage> read_page_at(const durability::SimFs& fs,
                                                 const std::string& name,
                                                 const PageLocator& locator,
                                                 const u256& expected_id);

 private:
  struct Entry {
    std::optional<PageLocator> loc;
  };

  /// Appends one encoded page record, returns its locator, and rolls the
  /// segment when past the target size.
  PageLocator append_record_locked(const u256& id, const Bytes& payload);
  void set_locator(const u256& id, const PageLocator& loc);
  void drop_locator_ref(const PageLocator& loc);
  /// Pins `id`, whose table entry is `entry`, loading its persisted version
  /// on a pool miss. The entry stays put while the pool evicts: the table
  /// is node-based, so no insertion moves it.
  BufferPool::PageRef fetch(const u256& id, const Entry& entry);

  durability::SimFs& fs_;
  PagedStoreConfig config_;
  uint64_t generation_ = 0;
  std::unordered_map<u256, Entry, U256Hasher> table_;  ///< locators() sorts by id
  uint64_t current_segment_ = 0;
  uint64_t current_segment_bytes_ = 0;
  uint64_t bytes_appended_ = 0;
  std::set<uint64_t> unsynced_segments_;
  std::map<uint64_t, uint64_t> segment_live_;  ///< live page versions per segment
  BufferPool pool_;
};

}  // namespace hardtape::pagedstore
