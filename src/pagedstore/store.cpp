#include "pagedstore/store.hpp"

#include <algorithm>

#include "common/codec.hpp"
#include "common/errors.hpp"

namespace hardtape::pagedstore {

PagedStore::PagedStore(durability::SimFs& fs, PagedStoreConfig config)
    : fs_(fs),
      config_(std::move(config)),
      pool_(config_.buffer_pool_pages,
            [this](const u256& id, const Bytes& payload) {
              set_locator(id, append_record_locked(id, payload));
            },
            config_.registry, config_.name) {
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

PageLocator PagedStore::append_record_locked(const u256& id, const Bytes& payload) {
  const Bytes record = encode_page(id, generation_, payload);
  const PageLocator loc{current_segment_, current_segment_bytes_,
                        static_cast<uint32_t>(record.size())};
  fs_.append(segment_path(config_.name, current_segment_), record);
  current_segment_bytes_ += record.size();
  bytes_appended_ += record.size();
  unsynced_segments_.insert(current_segment_);
  if (current_segment_bytes_ >= config_.segment_target_bytes) {
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

void PagedStore::set_locator(const u256& id, const PageLocator& loc) {
  Entry& entry = table_[id];
  ++segment_live_[loc.segment];
  if (entry.loc.has_value()) drop_locator_ref(*entry.loc);
  entry.loc = loc;
}

BufferPool::PageRef PagedStore::fetch(const u256& id, const Entry& entry) {
  return pool_.fetch(id, [this, &id, &entry] {
    if (!entry.loc.has_value()) {
      throw UsageError("pagedstore: load of a page with no persisted version");
    }
    auto page = read_page_at(fs_, config_.name, *entry.loc, id);
    if (!page.has_value()) {
      throw IntegrityError("pagedstore: page 0x" + id.to_hex() +
                           " failed verification (torn or corrupt segment record)");
    }
    return std::move(page->payload);
  });
}

void PagedStore::put(const u256& id, BytesView payload) {
  table_.try_emplace(id);  // keep any prior locator: that's the CoW version
  pool_.insert(id, Bytes(payload.begin(), payload.end()), /*dirty=*/true);
}

std::optional<Bytes> PagedStore::get(const u256& id) {
  const auto it = table_.find(id);
  if (it == table_.end()) return std::nullopt;
  return fetch(id, it->second).data();
}

BufferPool::PageRef PagedStore::pin(const u256& id) {
  const auto it = table_.find(id);
  if (it == table_.end()) {
    throw UsageError("pagedstore: pin of an absent page");
  }
  return fetch(id, it->second);
}

BufferPool::PageRef PagedStore::pin_or_create(const u256& id,
                                              const std::function<Bytes()>& init) {
  const auto [it, created] = table_.try_emplace(id);
  if (!created) return fetch(id, it->second);
  return pool_.insert(id, init(), /*dirty=*/true);
}

bool PagedStore::contains(const u256& id) const { return table_.contains(id); }

PagedStore::FlushResult PagedStore::flush(bool fsync) {
  FlushResult out;
  const uint64_t before = bytes_appended_;
  for (const u256& id : pool_.dirty_ids()) {
    pool_.writeback(id);
    ++out.pages;
  }
  out.bytes = bytes_appended_ - before;
  if (fsync) {
    for (const uint64_t segment : unsynced_segments_) {
      fs_.fsync(segment_path(config_.name, segment));
    }
    unsynced_segments_.clear();
  }
  return out;
}

void PagedStore::force_persist(const u256& id) { pool_.writeback(id); }

std::optional<PageLocator> PagedStore::durable_locator(const u256& id) const {
  const auto it = table_.find(id);
  if (it == table_.end()) return std::nullopt;
  return it->second.loc;
}

void PagedStore::revert_to(const u256& id, const std::optional<PageLocator>& prior) {
  pool_.discard(id);
  const auto it = table_.find(id);
  if (it == table_.end()) {
    if (prior.has_value()) {
      ++segment_live_[prior->segment];
      table_[id].loc = prior;
    }
    return;
  }
  if (prior.has_value()) {
    ++segment_live_[prior->segment];
    if (it->second.loc.has_value()) drop_locator_ref(*it->second.loc);
    it->second.loc = prior;
  } else {
    if (it->second.loc.has_value()) drop_locator_ref(*it->second.loc);
    table_.erase(it);
  }
}

std::vector<std::pair<u256, PageLocator>> PagedStore::locators() const {
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

}  // namespace hardtape::pagedstore
