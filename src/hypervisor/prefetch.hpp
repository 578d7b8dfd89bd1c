// Pagewise code prefetching (paper Section IV-D, problem (3)).
//
// A contract's code pages, fetched on demand, arrive as a burst of
// back-to-back ORAM queries at frame entry — a pattern that distinguishes
// Code queries from sporadic storage queries and can fingerprint the
// contract. The paper's fix: after each ORAM access an interval timer is set
// to a random value of about half the global average inter-query gap; when
// it expires, the next code page is prefetched. Observed gaps become
// near-uniform and type-independent.
//
// This module reschedules a demand-query timeline into the observable
// timeline: code queries are decoupled from their demand instants and
// re-emitted on timer expiries between the (fixed) K-V queries. The gap
// statistics feed the timing-uniformity ablation bench.
#pragma once

#include <vector>

#include "common/random.hpp"
#include "oram/paged_state.hpp"

namespace hardtape::hypervisor {

struct QueryEvent {
  uint64_t time_ns = 0;
  oram::PageType type = oram::PageType::kAccountMeta;
  bool is_prefetch = false;  ///< ground truth; not visible to the adversary
  friend bool operator==(const QueryEvent&, const QueryEvent&) = default;
};

struct GapStats {
  double mean_ns = 0;
  double stddev_ns = 0;
};

GapStats gap_stats(const std::vector<QueryEvent>& timeline);

class CodePrefetcher {
 public:
  explicit CodePrefetcher(uint64_t rng_seed, uint64_t initial_gap_ns = 500'000)
      : rng_(rng_seed), avg_gap_ns_(static_cast<double>(initial_gap_ns)) {}

  /// Reschedules `demand` (sorted by time): K-V/account queries keep their
  /// instants; code queries are re-emitted on randomized timers. Each code
  /// page still arrives no later than it is *executed* from, because the
  /// HEVM stalls on a genuine miss; we model that by flushing any remaining
  /// code queries of a frame when its first K-V query after the burst fires.
  std::vector<QueryEvent> schedule(const std::vector<QueryEvent>& demand);

 private:
  uint64_t next_timer() {
    // ~half the average gap, jittered ±50% (the "random value of
    // approximately half of the global average gap").
    const double base = avg_gap_ns_ / 2.0;
    return static_cast<uint64_t>(base * (0.5 + rng_.uniform_double()));
  }
  void observe_gap(uint64_t gap_ns) {
    constexpr double kAlpha = 0.1;  // EMA
    avg_gap_ns_ = (1 - kAlpha) * avg_gap_ns_ + kAlpha * static_cast<double>(gap_ns);
  }

  Random rng_;
  double avg_gap_ns_;
};

}  // namespace hardtape::hypervisor
