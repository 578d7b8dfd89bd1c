// Paged MPT node store: trie nodes packed into fixed-size pages of a
// pagedstore::PagedStore under its hard resident-page cap (DESIGN.md §16).
//
// MPT nodes are small (tens to a few hundred bytes of RLP), so one node per
// on-disk page would waste an order of magnitude. Instead nodes are PACKED:
// a fill page accumulates records [32B hash | u32 len | encoding] until its
// payload reaches `page_payload_bytes`, then the next page starts. The
// in-memory index maps hash -> (page, offset, length) — metadata only, tens
// of bytes per node; payloads live in the PagedStore under its hard
// `buffer_pool_pages` cap and spill to SimFs segments beyond it.
//
// Nodes are content-addressed and immutable, so there is no update path and
// no fragmentation; stale nodes left behind by trie updates age out with
// their pages (same garbage the RAM store kept forever). `get` copies one
// record out under the store's lock and holds no pin, so proof walks on
// several threads at once (NodeSimulator serves them under a shared lock)
// never exhaust even a one-page pool — size it for locality instead.
//
// Reads are fail-closed twice over: the page checksum rejects torn/corrupt
// segment records (IntegrityError from the PagedStore), and the record
// header's hash must equal the hash asked for (an index/page mismatch is
// corruption, not a miss).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "pagedstore/store.hpp"
#include "trie/node_store.hpp"

namespace hardtape::trie {

class PagedNodeStore final : public NodeStore {
 public:
  static constexpr size_t kDefaultPagePayload = 4096;

  /// `config.name` prefixes the segment files; see PagedStoreConfig.
  PagedNodeStore(durability::SimFs& fs, pagedstore::PagedStoreConfig config,
                 size_t page_payload_bytes = kDefaultPagePayload);

  size_t page_payload_bytes() const { return page_payload_bytes_; }

  void put(const H256& hash, BytesView encoded) override;
  std::optional<Bytes> get(const H256& hash) const override;
  size_t node_count() const override { return index_.size(); }

  pagedstore::BufferPoolStats pool_stats() const { return store_.pool_stats(); }
  uint64_t page_count() const { return fill_page_ + 1; }

 private:
  struct NodeRef {
    uint64_t page = 0;
    uint32_t offset = 0;
    uint32_t length = 0;  ///< encoding length (record is 36 bytes longer)
  };

  mutable pagedstore::PagedStore store_;
  const size_t page_payload_bytes_;
  std::unordered_map<H256, NodeRef, H256Hasher> index_;
  uint64_t fill_page_ = 0;
  uint32_t fill_offset_ = 0;  ///< payload bytes already in the fill page
};

}  // namespace hardtape::trie
