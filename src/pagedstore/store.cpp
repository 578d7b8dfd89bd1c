#include "pagedstore/store.hpp"

#include <algorithm>

#include "common/codec.hpp"
#include "common/errors.hpp"

namespace hardtape::pagedstore {

namespace {

constexpr uint64_t kSegmentTargetBytes = 1 << 20;

}  // namespace

PagedStore::PagedStore(durability::SimFs& fs, PagedStoreConfig config)
    : fs_(fs), config_(std::move(config)) {
  if (config_.buffer_pool_pages == 0) {
    throw UsageError("pagedstore: zero buffer pool capacity");
  }
  // Resume past any segments a previous incarnation left behind — appending
  // into an existing file would corrupt every locator pointing into it.
  const std::string prefix = config_.name + ".seg-";
  for (const std::string& file : fs_.list()) {
    if (const auto segment = codec::numbered_suffix(file, prefix)) {
      current_segment_ = std::max(current_segment_, *segment + 1);
    }
  }
}

std::string PagedStore::segment_path(const std::string& name, uint64_t segment) {
  return name + ".seg-" + std::to_string(segment);
}

std::optional<DecodedPage> PagedStore::read_page_at(const durability::SimFs& fs,
                                                    const std::string& name,
                                                    const PageLocator& locator,
                                                    const u256& expected_id) {
  const auto raw = fs.read_range(segment_path(name, locator.segment),
                                 locator.offset, locator.length);
  if (!raw.has_value()) return std::nullopt;
  auto page = decode_page(*raw);
  if (!page.has_value() || page->id != expected_id) return std::nullopt;
  return page;
}

// ---------------------------------------------------------------------------
// PageRef
// ---------------------------------------------------------------------------

PagedStore::PageRef& PagedStore::PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    release();
    store_ = o.store_;
    slot_ = o.slot_;
    o.store_ = nullptr;
    o.slot_ = nullptr;
  }
  return *this;
}

const u256& PagedStore::PageRef::id() const {
  if (slot_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  return slot_->first;
}

Bytes& PagedStore::PageRef::data() {
  if (slot_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  return slot_->second.frame->payload;
}

const Bytes& PagedStore::PageRef::data() const {
  if (slot_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  return slot_->second.frame->payload;
}

void PagedStore::PageRef::mark_dirty() {
  if (slot_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  slot_->second.frame->dirty = true;
}

void PagedStore::PageRef::release() {
  if (slot_ != nullptr) store_->unpin(*slot_);
  store_ = nullptr;
  slot_ = nullptr;
}

PagedStore::PageRef PagedStore::pin_locked(Slot& slot) {
  if (slot.second.frame->pins++ == 0) ++pinned_;
  return PageRef{this, &slot};
}

void PagedStore::unpin(Slot& slot) {
  std::lock_guard lock(mu_);
  Frame& frame = *slot.second.frame;
  // A caller may have grown the payload through its pin (PagedNodeStore
  // appends nodes that way): count the frame at its current size.
  recount_locked(frame);
  if (--frame.pins == 0) --pinned_;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

void PagedStore::add_frame_locked(Slot& slot, Bytes payload) {
  auto frame = std::make_unique<Frame>();
  frame->lru_pos = lru_.insert(lru_.end(), &slot);
  frame->payload = std::move(payload);
  recount_locked(*frame);
  slot.second.frame = std::move(frame);
}

void PagedStore::drop_frame_locked(Entry& entry) {
  resident_bytes_ -= entry.frame->counted;
  lru_.erase(entry.frame->lru_pos);
  entry.frame.reset();
}

void PagedStore::recount_locked(Frame& frame) {
  resident_bytes_ = resident_bytes_ - frame.counted + frame.payload.size();
  frame.counted = frame.payload.size();
  stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, resident_bytes_);
}

bool PagedStore::make_room_locked() {
  if (lru_.size() < config_.buffer_pool_pages) return true;
  for (Slot* victim : lru_) {
    if (victim->second.frame->pins > 0) continue;
    if (victim->second.frame->dirty) {
      persist_locked(*victim);
      ++stats_.dirty_writebacks;
    }
    drop_frame_locked(victim->second);
    ++stats_.evictions;
    return true;
  }
  return false;
}

void PagedStore::refuse_locked() {
  ++stats_.exhausted;
  throw PoolExhaustedError(
      "pagedstore: buffer pool exhausted — all " +
      std::to_string(config_.buffer_pool_pages) +
      " frames pinned; refusing to overcommit past buffer_pool_pages");
}

void PagedStore::fault_in_locked(Slot& slot) {
  Entry& entry = slot.second;
  if (entry.frame != nullptr) {
    ++stats_.hits;
    lru_.splice(lru_.end(), lru_, entry.frame->lru_pos);
    return;
  }
  ++stats_.misses;
  if (!make_room_locked()) refuse_locked();
  if (!entry.loc.has_value()) {
    throw UsageError("pagedstore: load of a page with no persisted version");
  }
  auto page = read_page_at(fs_, config_.name, *entry.loc, slot.first);
  if (!page.has_value()) {
    throw IntegrityError("pagedstore: page 0x" + slot.first.to_hex() +
                         " failed verification (torn or corrupt segment record)");
  }
  add_frame_locked(slot, std::move(page->payload));
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

PageLocator PagedStore::append_record_locked(const u256& id, const Bytes& payload) {
  const Bytes record = encode_page(id, generation_, payload);
  const PageLocator loc{current_segment_, current_segment_bytes_,
                        static_cast<uint32_t>(record.size())};
  fs_.append(segment_path(config_.name, current_segment_), record);
  current_segment_bytes_ += record.size();
  bytes_appended_ += record.size();
  unsynced_segments_.insert(current_segment_);
  if (current_segment_bytes_ >= kSegmentTargetBytes) {
    ++current_segment_;
    current_segment_bytes_ = 0;
  }
  return loc;
}

void PagedStore::drop_locator_ref(const PageLocator& loc) {
  const auto it = segment_live_.find(loc.segment);
  if (it == segment_live_.end()) return;
  if (--it->second > 0) return;
  segment_live_.erase(it);
  if (config_.auto_gc_segments && loc.segment != current_segment_) {
    fs_.remove(segment_path(config_.name, loc.segment));
    unsynced_segments_.erase(loc.segment);
  }
}

void PagedStore::persist_locked(Slot& slot) {
  Entry& entry = slot.second;
  const PageLocator loc = append_record_locked(slot.first, entry.frame->payload);
  ++segment_live_[loc.segment];
  if (entry.loc.has_value()) drop_locator_ref(*entry.loc);
  entry.loc = loc;
  entry.frame->dirty = false;
}

// ---------------------------------------------------------------------------
// Page access
// ---------------------------------------------------------------------------

void PagedStore::put(const u256& id, BytesView payload) {
  Bytes copy(payload.begin(), payload.end());
  std::lock_guard lock(mu_);
  // Any prior locator stays: that is the CoW version.
  const auto [it, created] = table_.try_emplace(id);
  Entry& entry = it->second;
  if (Frame* frame = entry.frame.get()) {
    lru_.splice(lru_.end(), lru_, frame->lru_pos);
    frame->payload = std::move(copy);
    recount_locked(*frame);
  } else {
    if (!make_room_locked()) {
      if (created) table_.erase(it);  // a refused put leaves no page behind
      refuse_locked();
    }
    add_frame_locked(*it, std::move(copy));
  }
  entry.frame->dirty = true;
}

std::optional<Bytes> PagedStore::get(const u256& id, size_t offset, size_t length) {
  std::lock_guard lock(mu_);
  const auto it = table_.find(id);
  if (it == table_.end()) return std::nullopt;
  fault_in_locked(*it);
  const Bytes& payload = it->second.frame->payload;
  const size_t begin = std::min(offset, payload.size());
  const size_t end = begin + std::min(length, payload.size() - begin);
  return Bytes(payload.begin() + static_cast<ptrdiff_t>(begin),
               payload.begin() + static_cast<ptrdiff_t>(end));
}

PagedStore::PageRef PagedStore::pin(const u256& id) {
  std::lock_guard lock(mu_);
  const auto it = table_.find(id);
  if (it == table_.end()) return PageRef{};
  fault_in_locked(*it);
  return pin_locked(*it);
}

PagedStore::PageRef PagedStore::pin_or_create(const u256& id) {
  std::lock_guard lock(mu_);
  const auto [it, created] = table_.try_emplace(id);
  if (!created) {
    fault_in_locked(*it);
  } else {
    if (!make_room_locked()) {
      table_.erase(it);  // a refused create leaves no page behind
      refuse_locked();
    }
    add_frame_locked(*it, Bytes{});
    it->second.frame->dirty = true;
  }
  return pin_locked(*it);
}

bool PagedStore::contains(const u256& id) const {
  std::lock_guard lock(mu_);
  return table_.contains(id);
}

size_t PagedStore::page_count() const {
  std::lock_guard lock(mu_);
  return table_.size();
}

// ---------------------------------------------------------------------------
// Persistence protocol
// ---------------------------------------------------------------------------

void PagedStore::set_generation(uint64_t generation) {
  std::lock_guard lock(mu_);
  generation_ = generation;
}

PagedStore::FlushResult PagedStore::flush(bool fsync) {
  std::lock_guard lock(mu_);
  // Only a resident page can be dirty: eviction persists a dirty victim.
  std::vector<Slot*> dirty;
  for (Slot* slot : lru_) {
    if (slot->second.frame->dirty) dirty.push_back(slot);
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const Slot* a, const Slot* b) { return a->first < b->first; });
  FlushResult out;
  const uint64_t before = bytes_appended_;
  for (Slot* slot : dirty) persist_locked(*slot);
  out.pages = dirty.size();
  out.bytes = bytes_appended_ - before;
  if (fsync) {
    for (const uint64_t segment : unsynced_segments_) {
      fs_.fsync(segment_path(config_.name, segment));
    }
    unsynced_segments_.clear();
  }
  return out;
}

std::optional<PageLocator> PagedStore::force_persist(const u256& id) {
  std::lock_guard lock(mu_);
  const auto it = table_.find(id);
  if (it == table_.end()) return std::nullopt;
  const Frame* frame = it->second.frame.get();
  if (frame != nullptr && frame->dirty) persist_locked(*it);
  return it->second.loc;
}

std::optional<PageLocator> PagedStore::durable_locator(const u256& id) const {
  std::lock_guard lock(mu_);
  const auto it = table_.find(id);
  if (it == table_.end()) return std::nullopt;
  return it->second.loc;
}

void PagedStore::revert_to(const u256& id, const std::optional<PageLocator>& prior) {
  std::lock_guard lock(mu_);
  const auto it = table_.try_emplace(id).first;
  Entry& entry = it->second;
  if (entry.frame != nullptr) {
    if (entry.frame->pins > 0) throw UsageError("pagedstore: revert of a pinned page");
    drop_frame_locked(entry);
  }
  if (prior.has_value()) ++segment_live_[prior->segment];
  if (entry.loc.has_value()) drop_locator_ref(*entry.loc);
  if (prior.has_value()) {
    entry.loc = prior;
  } else {
    table_.erase(it);
  }
}

std::vector<std::pair<u256, PageLocator>> PagedStore::locators() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<u256, PageLocator>> out;
  out.reserve(table_.size());
  for (const auto& [id, entry] : table_) {
    if (!entry.loc.has_value()) {
      throw UsageError("pagedstore: locators() with dirty pages — flush first");
    }
    out.emplace_back(id, *entry.loc);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void PagedStore::gc_segments(const std::set<uint64_t>& keep) {
  std::lock_guard lock(mu_);
  const std::string prefix = config_.name + ".seg-";
  for (const std::string& file : fs_.list()) {
    const auto numbered = codec::numbered_suffix(file, prefix);
    if (!numbered.has_value()) continue;
    const uint64_t segment = *numbered;
    if (segment == current_segment_ || keep.contains(segment)) continue;
    if (segment_live_.contains(segment)) continue;  // live pages still point here
    fs_.remove(file);
    unsynced_segments_.erase(segment);
  }
}

uint64_t PagedStore::current_segment() const {
  std::lock_guard lock(mu_);
  return current_segment_;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

BufferPoolStats PagedStore::pool_stats() const {
  std::lock_guard lock(mu_);
  BufferPoolStats out = stats_;
  out.resident = lru_.size();
  out.pinned = pinned_;
  return out;
}

uint64_t PagedStore::segment_bytes_appended() const {
  std::lock_guard lock(mu_);
  return bytes_appended_;
}

}  // namespace hardtape::pagedstore
