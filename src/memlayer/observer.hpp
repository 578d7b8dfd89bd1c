// Glue between the EVM interpreter and the 3-layer memory model: an
// ExecutionObserver that drives the L1 caches and the L2 call-stack pager
// from interpreter events and accumulates the resulting cycle/time costs.
//
// This is the component that turns the *functional* interpreter into the
// *hardware* HEVM for simulation purposes (DESIGN.md §6: one semantic core,
// two timing skins).
#pragma once

#include "evm/trace.hpp"
#include "memlayer/l1cache.hpp"
#include "memlayer/pager.hpp"

namespace hardtape::memlayer {

struct MemLayerStats {
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t frames_entered = 0;
  uint64_t memory_overflows = 0;
  friend bool operator==(const MemLayerStats&, const MemLayerStats&) = default;
};

class MemLayerObserver : public evm::ExecutionObserver {
 public:
  MemLayerObserver(const L1Config& l1_config, const MemLayerConfig& l2_config,
                   const crypto::AesKey128& session_key)
      : l1_config_(l1_config), caches_(l1_config), pager_(l2_config, session_key) {}

  void on_step(const StepInfo& info) override {
    // Instruction fetch: the PC's code page must be in the L1 code cache.
    track(caches_.code.access(info.pc / l1_config_.page_size));
  }

  void on_memory_access(evm::MemoryLike which, uint64_t offset, uint64_t size,
                        bool /*is_write*/) override {
    LruPageCache* cache = nullptr;
    switch (which) {
      case evm::MemoryLike::kCode: cache = &caches_.code; break;
      case evm::MemoryLike::kInput: cache = &caches_.input; break;
      case evm::MemoryLike::kMemory: cache = &caches_.memory; break;
      case evm::MemoryLike::kReturnData: cache = &caches_.return_data; break;
    }
    const uint64_t first = offset / l1_config_.page_size;
    const uint64_t last = size == 0 ? first : (offset + size - 1) / l1_config_.page_size;
    for (uint64_t page = first; page <= last; ++page) track(cache->access(page));

    // Frame Memory growth feeds the layer-2 pager. A frame's footprint is
    // its base pages (stack + frame state + input) plus its Memory pages.
    if (which == evm::MemoryLike::kMemory && pager_.depth() > 0 &&
        !frame_base_pages_.empty()) {
      const uint64_t end = offset + size;
      const size_t mem_pages = (end + l1_config_.page_size - 1) / l1_config_.page_size;
      const size_t pages = frame_base_pages_.back() + mem_pages;
      if (pages > pager_.current_frame_pages()) {
        if (pager_.grow_frame(pages) == Status::kMemoryOverflow) {
          ++stats_.memory_overflows;
        }
      }
    }
  }

  void on_storage_access(const Address& addr, const u256& key, bool, bool) override {
    // World-state record cache: 64 entries, hashed over (addr, key).
    const uint64_t tag = AddressHasher{}(addr) ^ U256Hasher{}(key);
    track(caches_.world_state.access(tag));
  }

  void on_frame_enter(const FrameInfo& info) override {
    ++stats_.frames_entered;
    caches_.clear_frame_local();
    // Initial frame footprint: stack page + frame state + input pages.
    const size_t input_pages = (info.input_size + l1_config_.page_size - 1) / l1_config_.page_size;
    frame_base_pages_.push_back(2 + input_pages);
    if (pager_.push_frame(2 + input_pages) == Status::kMemoryOverflow) {
      ++stats_.memory_overflows;
    }
  }

  void on_frame_exit(const FrameExitInfo&) override {
    caches_.clear_frame_local();
    if (!frame_base_pages_.empty()) frame_base_pages_.pop_back();
    if (pager_.depth() > 0) pager_.pop_frame();
  }

  /// End-of-bundle reset (Fig. 3 step 10: all on-chip memories cleared).
  void reset() {
    caches_ = L1Caches(l1_config_);
    pager_.reset();
    stats_ = {};
    frame_base_pages_.clear();
  }

  const MemLayerStats& stats() const { return stats_; }
  const CallStackPager& pager() const { return pager_; }
  CallStackPager& pager() { return pager_; }
  const L1Caches& caches() const { return caches_; }

 private:
  void track(bool hit) {
    if (hit) {
      ++stats_.l1_hits;
    } else {
      ++stats_.l1_misses;
    }
  }

  L1Config l1_config_;
  L1Caches caches_;
  CallStackPager pager_;
  MemLayerStats stats_;
  std::vector<size_t> frame_base_pages_;
};

}  // namespace hardtape::memlayer
