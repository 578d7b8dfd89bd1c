// Glue between the EVM interpreter and the layer-2 call-stack pager: an
// ExecutionObserver that pushes, grows and pops pager frames from interpreter
// frame and Memory events. The HEVM core's one observer extends it with the
// pipeline cycle model (hevm::HevmObserver); bench_ablation_memlayer and
// memlayer_test attach it alone.
//
// Layer 1 (the per-frame cache partitions of paper §IV-B) is not simulated:
// a layer-1 miss is served from layer 2 on-chip and never leaves the chip,
// and the cycle model charges no miss stall, so a hit/miss count would feed
// nothing. Layer 1 appears only in the §VI-A resource model
// (hevm/resource_model.hpp).
#pragma once

#include "evm/trace.hpp"
#include "memlayer/pager.hpp"

namespace hardtape::memlayer {

struct MemLayerStats {
  uint64_t frames_entered = 0;
  uint64_t memory_overflows = 0;
  friend bool operator==(const MemLayerStats&, const MemLayerStats&) = default;
};

class MemLayerObserver : public evm::ExecutionObserver {
 public:
  MemLayerObserver(const MemLayerConfig& config, const crypto::AesKey128& session_key)
      : pager_(config, session_key) {}

  void on_memory_access(evm::MemoryLike which, uint64_t offset, uint64_t size,
                        bool /*is_write*/) override {
    // Frame Memory growth feeds the layer-2 pager. A frame's footprint is
    // its base pages (stack + frame state + input) plus its Memory pages.
    if (which == evm::MemoryLike::kMemory && pager_.depth() > 0 &&
        !frame_base_pages_.empty()) {
      const uint64_t end = offset + size;
      const size_t mem_pages = (end + page_size() - 1) / page_size();
      const size_t pages = frame_base_pages_.back() + mem_pages;
      if (pages > pager_.current_frame_pages()) {
        if (pager_.grow_frame(pages) == Status::kMemoryOverflow) {
          ++stats_.memory_overflows;
        }
      }
    }
  }

  void on_frame_enter(const FrameInfo& info) override {
    ++stats_.frames_entered;
    // Initial frame footprint: stack page + frame state + input pages.
    const size_t input_pages = (info.input_size + page_size() - 1) / page_size();
    frame_base_pages_.push_back(2 + input_pages);
    if (pager_.push_frame(2 + input_pages) == Status::kMemoryOverflow) {
      ++stats_.memory_overflows;
    }
  }

  void on_frame_exit(const FrameExitInfo&) override {
    if (!frame_base_pages_.empty()) frame_base_pages_.pop_back();
    if (pager_.depth() > 0) pager_.pop_frame();
  }

  /// End-of-bundle reset (Fig. 3 step 10: all on-chip memories cleared).
  void reset() {
    pager_.reset();
    stats_ = {};
    frame_base_pages_.clear();
  }

  const MemLayerStats& stats() const { return stats_; }
  const CallStackPager& pager() const { return pager_; }
  CallStackPager& pager() { return pager_; }

 private:
  size_t page_size() const { return pager_.config().page_size; }

  CallStackPager pager_;
  MemLayerStats stats_;
  std::vector<size_t> frame_base_pages_;
};

}  // namespace hardtape::memlayer
