#include "durability/recovery.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/codec.hpp"
#include "durability/journal.hpp"

namespace hardtape::durability::Recovery {

namespace {

/// Journal replay state machine. Epoch-scoped records stage their effects
/// and only a kEpochCommit publishes them into the image — mirroring the
/// live EpochRegistry's staging discipline, so a crash mid-epoch recovers
/// to exactly the pre-epoch image.
class Applier {
 public:
  Applier(StoreImage& image, RecoveryStats& stats) : image_(image), stats_(stats) {}

  bool apply(const JournalRecord& rec) {
    switch (rec.type) {
      case RecordType::kEpochBegin: {
        if (open_) return false;  // begin-while-open: impossible history
        const uint64_t expected =
            image_.epoch_history.empty() ? 0 : image_.epoch_history.back().epoch + 1;
        if (rec.epoch != expected) return false;
        open_ = true;
        pin_ = {rec.epoch, rec.root, rec.block_number};
        staged_pages_.clear();
        return true;
      }
      case RecordType::kEpochCommit: {
        if (!open_ || rec.epoch != pin_.epoch) return false;
        for (auto& [id, page] : staged_pages_) {
          image_.pages[id] = std::move(page);
          image_.page_tags[id] = pin_.epoch;
        }
        image_.epoch_history.push_back(pin_);
        open_ = false;
        return true;
      }
      case RecordType::kEpochAbort:
        if (!open_ || rec.epoch != pin_.epoch) return false;
        drop_open_epoch();
        return true;
      case RecordType::kPageInstall:
        if (!open_) return false;  // installs outside an epoch never happen
        staged_pages_[rec.page_id] = rec.page_data;
        return true;
      case RecordType::kBundleAdmit:
        image_.pending_bundles.insert(rec.bundle_id);
        if (rec.bundle_id + 1 > image_.next_bundle_id) {
          image_.next_bundle_id = rec.bundle_id + 1;
        }
        return true;
      case RecordType::kBundleResolve:
        image_.pending_bundles.erase(rec.bundle_id);
        return true;
    }
    return false;
  }

  /// Called once after the last journal: an epoch still open lost its
  /// commit record to the crash — abort it.
  void finish() {
    if (open_) drop_open_epoch();
  }

 private:
  void drop_open_epoch() {
    open_ = false;
    staged_pages_.clear();
    ++stats_.epochs_aborted;
  }

  StoreImage& image_;
  RecoveryStats& stats_;
  bool open_ = false;
  oram::EpochRegistry::Pin pin_{};
  std::map<u256, Bytes> staged_pages_;
};

}  // namespace

RecoveredState replay(const SimFs& fs) {
  RecoveredState out;

  uint64_t generation = 0;
  if (auto newest = checkpoint::load_newest(fs); newest.has_value()) {
    generation = newest->first;
    out.image = std::move(newest->second);
    out.stats.used_checkpoint = true;
    out.stats.checkpoint_generation = generation;
  }
  out.stats.next_generation = generation + 1;

  Applier applier(out.image, out.stats);
  uint64_t expected_seq = out.image.base_seq;
  for (uint64_t g = generation;; ++g) {
    if (!fs.exists(checkpoint::journal_path(g)) && g != generation) break;
    const auto result = Journal::replay(
        fs, checkpoint::journal_path(g), expected_seq,
        [&](const JournalRecord& rec) { return applier.apply(rec); });
    out.stats.records_replayed += result.records;
    out.stats.bytes_truncated += result.truncated_bytes;
    if (fs.exists(checkpoint::journal_path(g))) {
      ++out.stats.journals_replayed;
      out.stats.next_generation = std::max(out.stats.next_generation, g + 1);
    }
    expected_seq = result.next_seq;
    if (!result.stop_reason.empty()) {
      // The chain is severed here; a later generation's records cannot be
      // sequence-verified against a truncated predecessor, so they are
      // untrusted evidence — fail closed.
      out.stats.stop_reason = result.stop_reason;
      break;
    }
  }
  applier.finish();
  out.image.base_seq = expected_seq;

  // Never reuse a generation number any artifact on disk already carries —
  // an untrusted wal beyond the truncation point must stay evidence, not
  // become the tail of the restarted store's fresh journal.
  for (const std::string& name : fs.list()) {
    for (const std::string_view prefix : {"wal-", "ckpt-"}) {
      if (const auto g = codec::numbered_suffix(name, prefix)) {
        out.stats.next_generation = std::max(out.stats.next_generation, *g + 1);
      }
    }
  }
  return out;
}

}  // namespace hardtape::durability::Recovery
