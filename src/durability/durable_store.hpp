// DurableStore: the live write-ahead mirror of the chip's ORAM store.
//
// It sits on the untrusted side of the paper's boundary — durability is a
// SERVICE the operator provides, not something the chip trusts. The chip's
// safety argument never depends on the journal being honest: recovery
// re-derives state fail-closed and the delta-sync re-verifies against the
// node's proofs. What the journal buys is AVAILABILITY — a warm restart that
// skips re-verifying the whole world.
//
// Wiring (all passive, the engine never blocks on policy):
//  - EpochListener callbacks (fired by EpochRegistry with its lock held)
//    journal epoch begin/commit/abort. Commit is the group-commit point:
//    the epoch's page installs were appended un-synced during the pass; the
//    commit record's fsync makes the whole epoch durable at once. A crash
//    before it loses the *entire* epoch — which is exactly what recovery's
//    staging semantics reconstruct.
//  - log_page_install (fed by the engine's sync pass, once per page it
//    installs, in staging order) appends an install record and stages the
//    mirror update. It never sees the page's ORAM
//    leaf: nothing on this disk may name the path a page's next walk takes.
//  - log_bundle_admitted / log_bundle_resolved append+fsync immediately:
//    the durable resolve mark IS the outcome-delivery record, so it may
//    never be softer than the delivery it witnesses.
//
// Checkpoint policy: after a commit, if `checkpoint_every_records` journal
// records have accumulated since the last checkpoint, snapshot the mirror
// and roll to a new (ckpt, wal) generation. Checkpoints never run with an
// epoch open — the mirror would contain staged state.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "durability/checkpoint.hpp"
#include "durability/journal.hpp"
#include "durability/recovery.hpp"
#include "durability/vfs.hpp"
#include "oram/epoch.hpp"

namespace hardtape::durability {

struct DurableConfig {
  /// Roll a checkpoint once this many journal records accumulated since the
  /// last one (checked at epoch commit). 0 = manual checkpoints only.
  uint64_t checkpoint_every_records = 0;
  /// Incremental (copy-on-write) checkpoints over a paged mirror
  /// (DESIGN.md §16): page payloads live in a pagedstore::PagedStore —
  /// bounded buffer pool in RAM, log-structured segment files beyond it —
  /// and a checkpoint flushes dirty pages then publishes a v2 locator
  /// manifest. Cost is O(pages dirtied since the last checkpoint +
  /// metadata), not O(state), and mirror RAM is capped at the pool budget.
  /// false = the seed behavior: full-image v1 snapshots from a RAM mirror.
  bool incremental_checkpoints = false;
  size_t buffer_pool_pages = 64;  ///< paged mirror's hard RAM cap
};

class DurableStore final : public oram::EpochListener {
 public:
  DurableStore(SimFs& fs, DurableConfig config);

  // --- oram::EpochListener (called with the registry lock held) ---
  void on_epoch_begin(uint64_t epoch, const H256& root, uint64_t block_number) override;
  void on_epoch_commit(uint64_t epoch) override;
  void on_epoch_abort(uint64_t epoch) override;

  // --- data-path hooks ---
  void log_page_install(const u256& page_id, BytesView data);
  void log_bundle_admitted(uint64_t bundle_id);
  void log_bundle_resolved(uint64_t bundle_id);

  /// Adopts a recovered image as the mirror and starts a FRESH generation:
  /// writes checkpoint(next_generation) immediately (so recovery evidence is
  /// re-anchored durably) and opens wal-(next_generation). Call once, before
  /// any logging.
  void adopt(const RecoveredState& recovered);

  /// Manual checkpoint roll; no-op while an epoch is open.
  void checkpoint();

  /// Tracks the engine's bundle-id high-water mark in the mirror so a
  /// checkpoint carries it even when no admit record is pending.
  void note_next_bundle_id(uint64_t next_bundle_id);

  struct Stats {
    uint64_t journal_records = 0;
    uint64_t journal_syncs = 0;
    uint64_t checkpoints_written = 0;
    uint64_t generation = 0;
    /// Bytes the newest checkpoint cost: v1 = the full serialized image;
    /// incremental = manifest size + segment bytes appended since the
    /// previous checkpoint (the CoW delta).
    uint64_t last_checkpoint_bytes = 0;
    uint64_t checkpoint_bytes_total = 0;
  };
  Stats stats() const;
  /// The durable image as of the last committed epoch. Incremental mode
  /// materializes page payloads from the paged mirror (epoch-staged
  /// overwrites are read back from their pre-epoch undo locators), so the
  /// result is identical to the RAM mirror's — at a transient O(state)
  /// allocation; use sparingly at scale.
  StoreImage image_snapshot() const;
  /// Paged-mirror pool statistics; nullopt in full-image mode.
  std::optional<pagedstore::BufferPoolStats> pool_stats() const;

 private:
  void sync_journal_locked();
  void checkpoint_locked(uint64_t base_seq, uint64_t new_generation);
  void gc_segments_locked();

  SimFs& fs_;
  DurableConfig config_;

  mutable std::mutex mu_;
  StoreImage mirror_;  ///< incremental mode: `pages` values empty
  /// Incremental mode only: page payloads, pool-capped and spilled to
  /// "dstore.seg-*" files. Mutable: reads fault pages through the pool.
  mutable std::optional<pagedstore::PagedStore> paged_;
  /// First-touch undo per open epoch: the pre-epoch durable locator of each
  /// overwritten page (nullopt = the page did not exist). Abort reverts.
  std::map<u256, std::optional<pagedstore::PageLocator>> undo_;
  uint64_t appended_at_last_ckpt_ = 0;
  uint64_t generation_ = 0;
  std::optional<Journal> journal_;  ///< one instance per generation file
  bool journal_published_ = false;  ///< directory entry of the live wal sync_dir'd
  uint64_t records_before_roll_ = 0;

  // Open-epoch staging, mirroring the registry's discipline.
  bool epoch_open_ = false;
  oram::EpochRegistry::Pin open_pin_{};
  std::map<u256, Bytes> staged_pages_;  ///< incremental mode: values empty

  Stats stats_{};
};

}  // namespace hardtape::durability
