// Layer 2: the on-chip call stack, managed as a ring of 1 KB pages
// (paper Section IV-B, layers 2 and 3).
//
// Invariant maintained by the pager, straight from the paper: the current
// (topmost) execution frame is always entirely on-chip, so layer-1 misses
// are always served from layer 2 without touching the untrusted world.
// Only the *bottom* pages of the call stack spill to layer 3 when the ring
// fills, and returning to a lower frame reloads all of its pages.
//
// What the adversary can observe is the sequence of swap operations and
// their page counts (threat A5). Two defenses:
//  - the swap order depends only on the *total* call-stack size, never on
//    which frame is which (the ring), and
//  - every swap is padded with a random number of pre-evicted / pre-loaded
//    extra pages drawn from the Manufacturer's RNG, decorrelating observed
//    counts from true frame sizes.
//
// A single frame reaching half of the layer-2 capacity is treated as an
// attack and aborts the bundle with kMemoryOverflow.
#pragma once

#include <vector>

#include "common/errors.hpp"
#include "common/random.hpp"
#include "memlayer/layer3.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"

namespace hardtape::memlayer {

struct MemLayerConfig {
  size_t page_size = 1024;          ///< 1 KB pages
  size_t l2_bytes = 1024 * 1024;    ///< 1 MB layer-2 per HEVM (paper §IV-B)
  size_t max_noise_pages = 8;       ///< upper bound on pre-evict/load noise
  uint64_t rng_seed = 0;
  /// Optional swap-event tracing (obs). Emission is observation-only: it
  /// never draws from the RNG or advances the clock, so traced and untraced
  /// runs produce identical swap schedules.
  obs::TraceRing* trace = nullptr;
  const sim::SimClock* clock = nullptr;  ///< sim timestamps for trace events

  size_t l2_pages() const { return l2_bytes / page_size; }
  /// Memory Overflow threshold: half the layer-2 size (paper rule).
  size_t frame_page_limit() const { return l2_pages() / 2; }
};

/// Noise-RNG stream id for (engine seed, bundle, attempt) — the seed to put
/// in MemLayerConfig::rng_seed. Mirrors faults::fault_stream(): the swap
/// padding drawn for a bundle must depend only on these three values, never
/// on worker count, submission interleaving, or a shared RNG's call order,
/// so a 1-worker and an 8-worker run of the same workload produce identical
/// swap schedules, while a retried bundle still draws fresh padding.
inline uint64_t noise_stream(uint64_t seed, uint64_t bundle_id, uint32_t attempt) {
  return seed ^ ((bundle_id + 1) * 0x9e3779b97f4a7c15ull + attempt);
}

/// One observable swap operation: what the adversary sees on the memory bus.
struct SwapEvent {
  enum class Kind : uint8_t { kEvict, kLoad } kind;
  uint64_t pages;        ///< observed count (true + noise)
  uint64_t noise_pages;  ///< noise component (internal ground truth, not visible)
  friend bool operator==(const SwapEvent&, const SwapEvent&) = default;
};

class CallStackPager {
 public:
  CallStackPager(const MemLayerConfig& config, const crypto::AesKey128& session_key);

  /// Enters a new execution frame with `pages` initial pages (CALL).
  /// Returns kMemoryOverflow when the frame alone violates the limit.
  Status push_frame(size_t pages);
  /// Expands the current frame to `total_pages` (memory growth).
  Status grow_frame(size_t total_pages);
  /// Leaves the top frame (RETURN/REVERT/STOP); reloads the caller's
  /// swapped pages to restore the invariant.
  void pop_frame();
  /// End of bundle: clears everything (HEVM reset, Fig. 3 step 10).
  void reset();

  int depth() const { return static_cast<int>(frames_.size()); }
  size_t resident_pages() const { return total_pages_ - swapped_pages_; }
  size_t total_pages() const { return total_pages_; }
  size_t peak_total_pages() const { return peak_total_pages_; }
  size_t swapped_pages() const { return swapped_pages_; }
  size_t current_frame_pages() const {
    return frames_.empty() ? 0 : frames_.back();
  }

  /// The adversary's view of this bundle.
  const std::vector<SwapEvent>& swap_events() const { return events_; }
  uint64_t total_evicted_pages() const { return total_evicted_; }
  uint64_t total_loaded_pages() const { return total_loaded_; }
  Layer3Memory& layer3() { return layer3_; }

  const MemLayerConfig& config() const { return config_; }

 private:
  // Ensures resident_pages() <= l2_pages(), spilling bottom pages (+noise).
  void ensure_fits();
  void evict(size_t required);
  void load(size_t required);

  MemLayerConfig config_;
  Random rng_;
  Layer3Memory layer3_;
  std::vector<size_t> frames_;  // page count per frame, bottom..top
  size_t total_pages_ = 0;
  size_t peak_total_pages_ = 0;
  size_t swapped_pages_ = 0;    // spilled prefix of the page sequence
  uint64_t next_slot_ = 0;      // layer-3 slot sequence (kept on-chip)
  std::vector<SwapEvent> events_;
  uint64_t total_evicted_ = 0;
  uint64_t total_loaded_ = 0;
};

}  // namespace hardtape::memlayer
