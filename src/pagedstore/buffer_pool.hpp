// Buffer-pool statistics and the pool's fail-closed refusal (DESIGN.md §16).
//
// The pool itself is part of pagedstore::PagedStore (store.hpp): one page
// table whose entries carry each resident page's frame. This header keeps the
// two pool types that callers name without needing the store: the statistics
// the ORAM slot store, the trie node store, the durable mirror and the benches
// report, and the error an operation gets when every frame is pinned.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/errors.hpp"

namespace hardtape::pagedstore {

/// All frames pinned and another page needed: the hard `buffer_pool_pages`
/// cap refuses to stretch. Fail-closed by design; the refused operation
/// leaves the store unchanged.
class PoolExhaustedError : public HardtapeError {
 public:
  using HardtapeError::HardtapeError;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;     ///< evictions that flushed a dirty frame
  uint64_t exhausted = 0;            ///< PoolExhaustedError throws
  uint64_t peak_resident_bytes = 0;  ///< high-water of summed payload bytes
  size_t resident = 0;
  size_t pinned = 0;
};

}  // namespace hardtape::pagedstore
