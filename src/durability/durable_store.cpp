#include "durability/durable_store.hpp"

#include <utility>

#include "common/codec.hpp"

namespace hardtape::durability {

DurableStore::DurableStore(SimFs& fs, DurableConfig config)
    : fs_(fs), config_(config) {
  if (config_.incremental_checkpoints) {
    pagedstore::PagedStoreConfig ps;
    ps.name = "dstore";
    ps.buffer_pool_pages = config_.buffer_pool_pages;
    // Published manifests keep referencing old segments until the manifest
    // itself is retired; GC runs against the surviving-manifest keep set.
    ps.auto_gc_segments = false;
    paged_.emplace(fs_, std::move(ps));
  }
  journal_.emplace(fs_, checkpoint::journal_path(0), /*start_seq=*/0);
}

void DurableStore::on_epoch_begin(uint64_t epoch, const H256& root,
                                  uint64_t block_number) {
  std::lock_guard lock(mu_);
  journal_->append_epoch_begin(epoch, root, block_number);
  sync_journal_locked();
  epoch_open_ = true;
  open_pin_ = {epoch, root, block_number};
  staged_pages_.clear();
  undo_.clear();
}

void DurableStore::on_epoch_commit(uint64_t epoch) {
  std::lock_guard lock(mu_);
  journal_->append_epoch_commit(epoch);
  // Group commit: this single fsync makes the epoch's begin record, every
  // page install appended during the pass, and the commit record durable
  // together.
  sync_journal_locked();
  if (epoch_open_) {
    for (auto& [id, page] : staged_pages_) {
      mirror_.pages[id] = std::move(page);
      mirror_.page_tags[id] = open_pin_.epoch;
    }
    mirror_.epoch_history.push_back(open_pin_);
    epoch_open_ = false;
    staged_pages_.clear();
    undo_.clear();  // the epoch's paged-mirror puts are now the truth
  }
  if (config_.checkpoint_every_records != 0 &&
      journal_->records_written() >= config_.checkpoint_every_records) {
    checkpoint_locked(journal_->next_seq(), generation_ + 1);
  }
}

void DurableStore::on_epoch_abort(uint64_t epoch) {
  std::lock_guard lock(mu_);
  journal_->append_epoch_abort(epoch);
  sync_journal_locked();
  if (paged_.has_value()) {
    // Roll every page the epoch touched back to its pre-epoch version (or
    // out of existence): the paged mirror must match the un-staged mirror.
    for (const auto& [id, prior] : undo_) paged_->revert_to(id, prior);
  }
  epoch_open_ = false;
  staged_pages_.clear();
  undo_.clear();
}

void DurableStore::log_page_install(const u256& page_id, BytesView data) {
  std::lock_guard lock(mu_);
  // Appended UN-synced: the epoch-commit fsync is the durability barrier for
  // the whole pass (group commit). A crash before it loses the epoch, which
  // recovery's staging replay handles by design.
  journal_->append_page_install(page_id, data);
  if (epoch_open_) {
    if (paged_.has_value()) {
      // Copy-on-write staging: on the epoch's FIRST touch of this page,
      // persist whatever dirty pool copy the page had (its committed-but-
      // unflushed truth) and remember that locator as the undo point; then
      // overwrite in place. Commit keeps the new version; abort reverts.
      if (!undo_.contains(page_id)) undo_[page_id] = paged_->force_persist(page_id);
      paged_->put(page_id, data);
      staged_pages_[page_id] = Bytes{};  // membership only
    } else {
      staged_pages_[page_id] = Bytes(data.begin(), data.end());
    }
  }
}

void DurableStore::log_bundle_admitted(uint64_t bundle_id) {
  std::lock_guard lock(mu_);
  journal_->append_bundle_admit(bundle_id);
  sync_journal_locked();
  mirror_.pending_bundles.insert(bundle_id);
  if (bundle_id + 1 > mirror_.next_bundle_id) mirror_.next_bundle_id = bundle_id + 1;
}

void DurableStore::log_bundle_resolved(uint64_t bundle_id) {
  std::lock_guard lock(mu_);
  // The durable resolve mark is the delivery receipt: once this sync
  // returns, recovery treats the bundle as settled and will not re-derive
  // its outcome.
  journal_->append_bundle_resolve(bundle_id);
  sync_journal_locked();
  mirror_.pending_bundles.erase(bundle_id);
}

void DurableStore::adopt(const RecoveredState& recovered) {
  std::lock_guard lock(mu_);
  mirror_ = recovered.image;
  if (paged_.has_value()) {
    // Recovery materialized the image in RAM (a transient); re-page every
    // payload and keep only metadata in the mirror so steady-state RAM
    // drops back to the pool budget. The checkpoint below makes the fresh
    // generation's manifest reference the re-paged copies.
    for (auto& [id, data] : mirror_.pages) {
      paged_->put(id, data);
      data = Bytes{};
    }
  }
  // Re-anchor durably at a FRESH generation: the adopted image becomes its
  // own checkpoint, so post-recovery operation never appends to (or behind)
  // artifacts that are still crash evidence.
  checkpoint_locked(recovered.image.base_seq, recovered.stats.next_generation);
}

void DurableStore::checkpoint() {
  std::lock_guard lock(mu_);
  if (epoch_open_) return;
  checkpoint_locked(journal_->next_seq(), generation_ + 1);
}

void DurableStore::note_next_bundle_id(uint64_t next_bundle_id) {
  std::lock_guard lock(mu_);
  if (next_bundle_id > mirror_.next_bundle_id) mirror_.next_bundle_id = next_bundle_id;
}

void DurableStore::sync_journal_locked() {
  journal_->sync();
  if (!journal_published_) {
    // First durability barrier of this generation: the fsync made the BYTES
    // durable, but the file's directory entry is still a pending create — a
    // crash now would orphan them behind a name that never existed. One
    // sync_dir publishes it (the forgot-to-fsync-the-directory bug, closed).
    fs_.sync_dir();
    journal_published_ = true;
  }
  ++stats_.journal_syncs;
}

void DurableStore::checkpoint_locked(uint64_t base_seq, uint64_t new_generation) {
  mirror_.base_seq = base_seq;
  if (paged_.has_value()) {
    paged_->set_generation(new_generation);
    const auto flushed = paged_->flush(/*fsync=*/true);
    (void)flushed;
    // Segment files created since the last barrier have pending directory
    // entries; publish them BEFORE the manifest that references them, so a
    // crash can never keep the manifest while losing a segment it points at
    // (recovery would still fail closed — this just avoids burning the
    // whole generation on an ordering accident).
    fs_.sync_dir();
    checkpoint::Manifest manifest;
    manifest.meta = mirror_;  // page data fields already empty
    manifest.store_name = paged_->config().name;
    for (const auto& [id, locator] : paged_->locators()) {
      if (!mirror_.pages.contains(id)) {
        throw HardtapeError("durable store: paged mirror holds a page the "
                            "logical mirror does not");
      }
      manifest.pages.push_back({id, locator});
    }
    if (manifest.pages.size() != mirror_.pages.size()) {
      throw HardtapeError("durable store: logical mirror holds pages the "
                          "paged mirror does not");
    }
    const size_t manifest_bytes =
        checkpoint::write_manifest(fs_, new_generation, manifest);
    const uint64_t appended = paged_->segment_bytes_appended();
    stats_.last_checkpoint_bytes =
        manifest_bytes + (appended - appended_at_last_ckpt_);
    appended_at_last_ckpt_ = appended;
    gc_segments_locked();
  } else {
    stats_.last_checkpoint_bytes = checkpoint::write(fs_, new_generation, mirror_);
  }
  stats_.checkpoint_bytes_total += stats_.last_checkpoint_bytes;
  ++stats_.checkpoints_written;
  records_before_roll_ += journal_->records_written();
  generation_ = new_generation;
  journal_.emplace(fs_, checkpoint::journal_path(new_generation), base_seq);
  journal_published_ = false;
}

void DurableStore::gc_segments_locked() {
  // A segment stays as long as ANY published checkpoint manifest references
  // it (after publish-time GC at most the newest two generations survive;
  // v1 files and corrupt manifests reference no segments). The PagedStore
  // additionally always keeps its open segment.
  std::set<uint64_t> keep;
  for (const std::string& name : fs_.list()) {
    if (!codec::numbered_suffix(name, "ckpt-").has_value()) continue;
    const auto data = fs_.read(name);
    if (!data.has_value()) continue;
    const auto manifest = checkpoint::parse_manifest(*data);
    if (!manifest.has_value()) continue;
    for (const auto& entry : manifest->pages) keep.insert(entry.locator.segment);
  }
  paged_->gc_segments(keep);
}

DurableStore::Stats DurableStore::stats() const {
  std::lock_guard lock(mu_);
  Stats out = stats_;
  out.journal_records = records_before_roll_ + journal_->records_written();
  out.generation = generation_;
  return out;
}

StoreImage DurableStore::image_snapshot() const {
  std::lock_guard lock(mu_);
  StoreImage out = mirror_;
  if (paged_.has_value()) {
    for (auto& [id, page] : out.pages) {
      const auto undo_it = undo_.find(id);
      if (undo_it != undo_.end()) {
        // The pool holds this page's UNCOMMITTED epoch-staged content; the
        // committed version lives at the saved pre-epoch locator.
        if (!undo_it->second.has_value()) {
          throw HardtapeError("durable store: mirrored page lacks a committed version");
        }
        auto rec = pagedstore::PagedStore::read_page_at(
            fs_, paged_->config().name, *undo_it->second, id);
        if (!rec.has_value()) {
          throw IntegrityError("durable store: committed page version unreadable");
        }
        page = std::move(rec->payload);
      } else {
        auto data = paged_->get(id);
        if (!data.has_value()) {
          throw HardtapeError("durable store: paged mirror lost a page payload");
        }
        page = std::move(*data);
      }
    }
  }
  return out;
}

std::optional<pagedstore::BufferPoolStats> DurableStore::pool_stats() const {
  std::lock_guard lock(mu_);
  if (!paged_.has_value()) return std::nullopt;
  return paged_->pool_stats();
}

}  // namespace hardtape::durability
