// State-root epoch tagging for installed ORAM pages (PR 4).
//
// The ORAM holds exactly one version of the world state at a time, but a
// live chain keeps moving underneath it: every (re-)synchronization installs
// pages verified against one specific trusted state root. The registry pins
// that relationship chip-side:
//  - each sync pass opens an *epoch* — a monotone counter bound to the
//    (state root, block number) the pass verified against;
//  - every page the pass installs is tagged with that epoch (a page that a
//    delta sync did NOT touch keeps its older tag: it was verified at an
//    earlier epoch and is still byte-identical in the newer state);
//  - the *store epoch* is the most recently completed pass. A session
//    pinned to epoch E is only sound while the store epoch is E — every
//    page it reads then carries a tag <= E, i.e. data verified against a
//    root on E's canonical history.
// No session sees the store epoch move: the engine's resync quiesces the
// pool (every queued bundle resolves) before it opens a pass, and pins each
// session to the store epoch it starts at. The page tags make the
// max-page-epoch <= store-epoch invariant a cheap integer audit instead of
// a per-read proof.
//
// Thread safety: all methods lock; begin/commit are called from the (single)
// resync path, tag() from the installer, readers from anywhere.
#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/errors.hpp"
#include "oram/path_oram.hpp"

namespace hardtape::oram {

class EpochRegistry;

/// Observer for epoch transitions, implemented by the durability layer so
/// every begin/commit/abort lands in the write-ahead journal in the same
/// order the registry applied it. Callbacks run with the registry lock held
/// (that IS the ordering guarantee) — implementations must not call back
/// into the registry.
class EpochListener {
 public:
  virtual ~EpochListener() = default;
  virtual void on_epoch_begin(uint64_t epoch, const H256& root, uint64_t block_number) = 0;
  virtual void on_epoch_commit(uint64_t epoch) = 0;
  virtual void on_epoch_abort(uint64_t epoch) = 0;
};

class EpochRegistry {
 public:
  struct Pin {
    uint64_t epoch = 0;
    H256 state_root{};
    uint64_t block_number = 0;
  };

  /// Registers the (single) transition observer; nullptr detaches.
  void set_listener(EpochListener* listener) {
    std::lock_guard lock(mu_);
    listener_ = listener;
  }

  /// Opens epoch store_epoch()+1 for `root`. Pages tagged until commit()
  /// belong to it. Only one pass may be open at a time.
  uint64_t begin(const H256& root, uint64_t block_number) {
    std::lock_guard lock(mu_);
    if (open_) throw UsageError("epoch: previous sync pass not committed");
    open_ = true;
    pending_ = Pin{history_.empty() ? 0 : history_.back().epoch + 1, root, block_number};
    staged_tags_.clear();
    if (listener_) listener_->on_epoch_begin(pending_.epoch, root, block_number);
    return pending_.epoch;
  }

  /// Tags one installed page with the open pass's epoch. The tag is STAGED:
  /// it becomes visible to readers at commit(), and abort() discards it —
  /// so `max_page_epoch() <= store_epoch()` holds at every instant, even
  /// mid-pass, and an aborted pass releases every page it touched.
  void tag(const BlockId& page) {
    std::lock_guard lock(mu_);
    if (!open_) throw UsageError("epoch: tag() outside a sync pass");
    staged_tags_.push_back(page);
    ++pages_tagged_;
  }

  /// Completes the open pass: the staged tags land and the store epoch
  /// advances to it. Calling commit() (or abort()) with no pass open is a
  /// usage error — a double commit means the caller lost track of the pass
  /// lifecycle and its journal would disagree with the registry.
  void commit() {
    std::lock_guard lock(mu_);
    if (!open_) throw UsageError("epoch: commit() outside a sync pass");
    open_ = false;
    for (const BlockId& page : staged_tags_) tags_[page] = pending_.epoch;
    staged_tags_.clear();
    history_.push_back(pending_);
    if (listener_) listener_->on_epoch_commit(pending_.epoch);
  }
  void abort() {
    std::lock_guard lock(mu_);
    if (!open_) throw UsageError("epoch: abort() outside a sync pass");
    open_ = false;
    staged_tags_.clear();  // released: the pass never happened
    if (listener_) listener_->on_epoch_abort(pending_.epoch);
  }

  /// Re-seeds a pristine registry from recovered durable state (committed
  /// history + page tags). Warm-restart only: rejects a registry that has
  /// already begun life, and never fires the listener — the journal already
  /// contains these transitions.
  void restore(std::vector<Pin> history,
               std::unordered_map<BlockId, uint64_t, U256Hasher> tags) {
    std::lock_guard lock(mu_);
    if (open_ || !history_.empty() || !tags_.empty()) {
      throw UsageError("epoch: restore() on a non-pristine registry");
    }
    history_ = std::move(history);
    tags_ = std::move(tags);
    pages_tagged_ = tags_.size();
  }

  /// The last committed pass (epoch 0 exists only after the initial sync).
  std::optional<Pin> current() const {
    std::lock_guard lock(mu_);
    if (history_.empty()) return std::nullopt;
    return history_.back();
  }
  uint64_t store_epoch() const {
    std::lock_guard lock(mu_);
    return history_.empty() ? 0 : history_.back().epoch;
  }
  std::optional<Pin> at(uint64_t epoch) const {
    std::lock_guard lock(mu_);
    for (const Pin& pin : history_) {
      if (pin.epoch == epoch) return pin;
    }
    return std::nullopt;
  }

  /// Install-epoch of one page (nullopt = never installed). A reader pinned
  /// to epoch E must only ever observe tags <= E; a larger tag is a
  /// staleness violation (the store outran the session).
  std::optional<uint64_t> page_epoch(const BlockId& page) const {
    std::lock_guard lock(mu_);
    const auto it = tags_.find(page);
    if (it == tags_.end()) return std::nullopt;
    return it->second;
  }
  /// Largest tag currently in the store — used by the soak harness to audit
  /// that no page claims an epoch newer than the committed store epoch.
  uint64_t max_page_epoch() const {
    std::lock_guard lock(mu_);
    uint64_t max_epoch = 0;
    for (const auto& [page, epoch] : tags_) max_epoch = std::max(max_epoch, epoch);
    return max_epoch;
  }
  uint64_t pages_tagged() const {
    std::lock_guard lock(mu_);
    return pages_tagged_;
  }
  size_t distinct_pages() const {
    std::lock_guard lock(mu_);
    return tags_.size();
  }

  /// Committed history snapshot, oldest first (for checkpointing).
  std::vector<Pin> history() const {
    std::lock_guard lock(mu_);
    return history_;
  }
  /// Committed page-tag snapshot (for checkpointing).
  std::unordered_map<BlockId, uint64_t, U256Hasher> tags() const {
    std::lock_guard lock(mu_);
    return tags_;
  }

 private:
  mutable std::mutex mu_;
  bool open_ = false;
  Pin pending_{};
  std::vector<Pin> history_;
  std::vector<BlockId> staged_tags_;  ///< open pass's tags, not yet visible
  std::unordered_map<BlockId, uint64_t, U256Hasher> tags_;
  uint64_t pages_tagged_ = 0;
  EpochListener* listener_ = nullptr;
};

}  // namespace hardtape::oram
