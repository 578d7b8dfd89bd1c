// PagedStore: a page-granular store over SimFs with a hard RAM cap
// (DESIGN.md §16).
//
// SimFs deliberately has no random-access writes — only append / fsync /
// rename / remove / sync_dir, the POSIX crash-consistency vocabulary. So the
// store is LOG-STRUCTURED: page versions are appended to numbered segment
// files ("<name>.seg-<n>"). Updating a page never touches the old bytes;
// copy-on-write falls out of the medium.
//
// ONE PAGE TABLE. Every page has one entry, found by one hash lookup per
// operation. The entry holds the locator (segment, offset, length) of the
// page's newest persisted version and, while the page is resident, its
// frame: payload, dirty bit, pin count and LRU link. At most
// `buffer_pool_pages` frames are resident — a hard cap, not a hint:
//
//  - a frame with live PageRef pins is NEVER evicted — in-flight ORAM walks
//    hold their pages while eviction proceeds around them;
//  - the victim is the least-recently-used UNPINNED frame; a dirty victim is
//    appended to the current segment before its frame is freed, so the ONLY
//    full copy of the data lives on the fs and RAM stays bounded no matter
//    how large the store grows;
//  - when every frame is pinned and one more page is needed, the store FAILS
//    CLOSED with PoolExhaustedError rather than growing past the cap. A
//    working set of pins larger than the budget is a sizing bug the operator
//    must see, and the refused operation changes nothing but the count of
//    refusals.
//
// Reads are FAIL-CLOSED: a page loaded from a segment is verified against
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
// Thread-safe: one mutex covers the table, the frames, the LRU and the
// segment state for every operation, segment I/O included (SimFs has its own
// lock and never calls back). Two callers serialize anyway — the shard walk
// lock around a PagedSlotStore, the DurableStore mutex around its mirror —
// but NodeSimulator serves proofs under a SHARED lock, so PagedNodeStore::get
// runs on several threads at once. Payload access through a PageRef is
// unlocked: the pin is what keeps the frame stable, and a caller that writes
// through one serializes against its other writers and flush().
//
// The table is RAM-resident metadata — tens of bytes per page against a page
// of data; the memory BOUND applies to payloads, which is where 10-100x
// state lives.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
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
  std::string name = "store";     ///< file prefix: "<name>.seg-<n>"
  size_t buffer_pool_pages = 64;  ///< hard cap on resident pages
  /// Remove a segment file as soon as no live page version references it.
  /// Right for rebuild-on-restart stores (ORAM slots, trie nodes); MUST be
  /// false when published manifests may still reference old segments (the
  /// DurableStore checkpoint protocol GCs via gc_segments instead).
  bool auto_gc_segments = true;
};

class PagedStore {
  struct Entry;
  using Slot = std::pair<const u256, Entry>;  ///< one page-table element

 public:
  PagedStore(durability::SimFs& fs, PagedStoreConfig config);

  /// RAII pin. While any PageRef to a page is alive its frame cannot be
  /// evicted; destruction (or release()) unpins. Empty when default-built
  /// or returned by pin() for an absent page.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& o) noexcept { *this = std::move(o); }
    PageRef& operator=(PageRef&& o) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef() { release(); }

    explicit operator bool() const { return slot_ != nullptr; }
    const u256& id() const;
    /// Mutable payload access; call mark_dirty() after modifying.
    Bytes& data();
    const Bytes& data() const;
    void mark_dirty();
    void release();

   private:
    friend class PagedStore;
    PageRef(PagedStore* store, Slot* slot) : store_(store), slot_(slot) {}
    PagedStore* store_ = nullptr;
    Slot* slot_ = nullptr;
  };

  // --- page access ---
  /// Installs or overwrites a page (dirty in its frame; the prior persisted
  /// version, if any, stays on its segment — CoW).
  void put(const u256& id, BytesView payload);
  /// Copies up to `length` payload bytes from `offset` on (fewer where the
  /// page ends first). nullopt when the id was never written; throws
  /// IntegrityError when the persisted version fails verification.
  std::optional<Bytes> get(const u256& id, size_t offset = 0,
                           size_t length = SIZE_MAX);
  /// Pins a page; an empty PageRef when the id was never written. The ref
  /// may be written through; mark_dirty() makes the change stick.
  PageRef pin(const u256& id);
  /// Pins a page, creating it empty (and dirty) when absent.
  PageRef pin_or_create(const u256& id);
  bool contains(const u256& id) const;
  size_t page_count() const;

  // --- persistence protocol ---
  /// Stamped into page headers of subsequent appends (the checkpoint
  /// generation in the DurableStore protocol).
  void set_generation(uint64_t generation);
  struct FlushResult {
    uint64_t pages = 0;
    uint64_t bytes = 0;  ///< segment bytes appended by this flush
  };
  /// Persists every dirty page to the current segment, in id order; with
  /// `fsync` also makes all touched segments durable. After flush(), every
  /// page has a locator.
  FlushResult flush(bool fsync);
  /// Appends `id`'s dirty frame now (no fsync) and returns its newest
  /// persisted locator; nullopt when the id was never written.
  std::optional<PageLocator> force_persist(const u256& id);
  /// Newest persisted locator; nullopt while the only copy is a dirty frame
  /// that has never been evicted or flushed.
  std::optional<PageLocator> durable_locator(const u256& id) const;
  /// Rolls `id` back: to `prior` (a locator saved before an overwrite), or
  /// out of existence (nullopt). Any frame is discarded; UsageError when the
  /// page is pinned. The undo half of the DurableStore's epoch-abort path.
  void revert_to(const u256& id, const std::optional<PageLocator>& prior);
  /// (id, locator) for every page, id-ordered. UsageError if any page has no
  /// locator yet — call flush() first. This is the manifest's page list.
  std::vector<std::pair<u256, PageLocator>> locators() const;
  /// Removes segment files NOT in `keep` (the current open segment is
  /// always kept). Used by the manifest GC once no published checkpoint
  /// references a segment.
  void gc_segments(const std::set<uint64_t>& keep);
  uint64_t current_segment() const;

  // --- introspection ---
  BufferPoolStats pool_stats() const;
  uint64_t segment_bytes_appended() const;
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
  struct Frame {
    Bytes payload;
    uint64_t counted = 0;  ///< payload bytes in resident_bytes_
    bool dirty = false;
    uint32_t pins = 0;
    std::list<Slot*>::iterator lru_pos;
  };
  struct Entry {
    std::optional<PageLocator> loc;  ///< newest persisted version
    std::unique_ptr<Frame> frame;    ///< set while the page is resident
  };

  /// Counts a hit, or a miss that evicts when full and loads the persisted
  /// version; either way `slot` ends resident at the hot end of the LRU.
  void fault_in_locked(Slot& slot);
  /// Frees the coldest unpinned frame when every frame is taken. Returns
  /// false, having changed nothing, when all of them are pinned.
  bool make_room_locked();
  /// Counts the refusal and throws PoolExhaustedError.
  [[noreturn]] void refuse_locked();
  /// Makes `slot` resident with `payload` at the hot end (room already made).
  void add_frame_locked(Slot& slot, Bytes payload);
  void drop_frame_locked(Entry& entry);
  /// Brings resident_bytes_ (and its peak) up to the frame's payload size.
  void recount_locked(Frame& frame);
  PageRef pin_locked(Slot& slot);
  void unpin(Slot& slot);
  /// Appends the frame's payload as a new version and points the entry at it.
  void persist_locked(Slot& slot);
  /// Appends one encoded page record, returns its locator, and rolls to a
  /// new segment once the current one passes 1 MiB.
  PageLocator append_record_locked(const u256& id, const Bytes& payload);
  void drop_locator_ref(const PageLocator& loc);

  durability::SimFs& fs_;
  const PagedStoreConfig config_;

  mutable std::mutex mu_;
  std::unordered_map<u256, Entry, U256Hasher> table_;  ///< locators() sorts by id
  std::list<Slot*> lru_;     ///< resident pages, front = coldest
  uint64_t resident_bytes_ = 0;
  size_t pinned_ = 0;        ///< pages with at least one pin
  BufferPoolStats stats_;    ///< `resident` and `pinned` filled in on read
  uint64_t generation_ = 0;
  uint64_t current_segment_ = 0;
  uint64_t current_segment_bytes_ = 0;
  uint64_t bytes_appended_ = 0;
  std::set<uint64_t> unsynced_segments_;
  std::map<uint64_t, uint64_t> segment_live_;  ///< live page versions per segment
};

}  // namespace hardtape::pagedstore
