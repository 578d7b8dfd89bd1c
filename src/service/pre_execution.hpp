// The per-session pieces of the paper's Figure 3 that PreExecutionEngine
// (service/engine.hpp, which carries the step map) assembles: the routed
// state reader behind step 8 — the HEVM's one read path into the paged
// world state in the ORAM (oram/paged_state.hpp), with the session's
// retry/backoff/fail-closed recovery against the SP — the user channel's
// wire-size models behind steps 2 and 9, and the step-3 queue model over
// dedicated HEVMs.
//
// All timing flows through sim::SimClock via the cost models of sim/costs.hpp
// (see DESIGN.md §1); all cryptography and the ORAM itself are real.
#pragma once

#include "hevm/hevm_core.hpp"
#include "hypervisor/prefetch.hpp"
#include "obs/trace.hpp"
#include "oram/paged_state.hpp"
#include "service/security_config.hpp"
#include "sim/costs.hpp"

namespace hardtape::service {

/// Wire-size models of the user channel: what the engine charges AES-GCM
/// time for on the way in and out of a session.
namespace wire {
/// Serialized size of a bundle-submit message body.
uint64_t bundle_bytes(const std::vector<evm::Transaction>& bundle);
/// Serialized size of the returned trace report (step-level trace dominates).
uint64_t trace_bytes(const hevm::BundleReport& report);
}  // namespace wire

/// state::StateReader routing each query to the ORAM or to locally
/// prefetched (untrusted) memory according to the security configuration,
/// charging simulated time either way. The one place an HEVM page read is
/// issued, charged, recovered and decoded: each ORAM page costs one
/// charge_oram and one request for its page id (oram/paged_state.hpp has the
/// format).
///
/// A request is also the session's recovery layer against the SP, who owns
/// the ORAM server and its link (paper §III): a response may never arrive,
/// arrive late, or arrive tampered. Each request runs a bounded retry loop
/// in SIMULATED time under the default sim::BackoffPolicy — a per-attempt
/// timeout, exponential backoff with jitter keyed on the page id, and a hard
/// attempt budget. Timeouts (drops, over-delayed responses) are retried;
/// integrity failures (kAuthFailed, kBadProof) end the request at once —
/// retrying would hand a tampering server an oracle — and an exhausted
/// budget ends it as kRetryExhausted. Either way the request throws
/// BackendFault: StateReader has no Status channel, so the failure travels
/// up to the session boundary, where the engine turns it into the outcome's
/// Status. The recovery time is tallied in recovery(), never on the clock:
/// the engine charges it once at the end of the session, so a fault-free
/// run stays bit-identical to serial and a faulted one replays exactly.
class RoutedStateReader : public state::StateReader {
 public:
  struct Timing {
    sim::SimClock* clock = nullptr;
    /// chip <-> ORAM server: the paper's "Ethernet with a 2 ms latency",
    /// which we apportion as ~1 ms per direction on a 10 GbE link.
    sim::LinkModel oram_link{.latency_ns = 1'250'000, .bytes_per_ns = 1.25};
    sim::OramServerModel server{};
    /// The ORAM path is re-encrypted by the dedicated A.E.DMA engines at
    /// near line rate, unlike the modest user-channel stream.
    double oram_reencrypt_bytes_per_ns = 1.6;
    uint64_t local_read_ns = 2'000;         ///< prefetched untrusted memory, per page
    uint32_t modeled_tree_depth = 30;       ///< 1.1 TB / 1 KB blocks => ~2^30 leaves
    uint64_t page_bytes = oram::sealed_slot_bytes(oram::kPageSize);  ///< one slot on the wire
  };

  /// `oram` may be null only while the security config reads nothing
  /// through the ORAM. `trace` (optional) receives each request's lifecycle:
  /// issue, every retry, complete.
  RoutedStateReader(const state::WorldState& local, oram::OramAccessor* oram,
                    const SecurityConfig& security, Timing timing,
                    obs::TraceRing* trace = nullptr);

  std::optional<state::Account> account(const Address& addr) const override;
  u256 storage(const Address& addr, const u256& key) const override;
  Bytes code(const Address& addr) const override;

  /// Simulated cost of one full Path ORAM access over the modeled 2^30-leaf
  /// production tree (download + upload of a (depth+1)*Z-slot path, server
  /// service time, on-chip re-encryption through the A.E.DMA).
  uint64_t oram_access_ns() const;

  // Per-bundle statistics.
  struct Stats {
    uint64_t oram_queries = 0;
    uint64_t kv_queries = 0;
    uint64_t code_queries = 0;
    uint64_t local_reads = 0;
    uint64_t oram_time_ns = 0;
    std::vector<hypervisor::QueryEvent> demand_timeline;
    friend bool operator==(const Stats&, const Stats&) = default;
  };
  const Stats& stats() const { return stats_; }

  /// Recovery work the reader's requests did against the backend (all zero
  /// on a reliable one).
  struct Recovery {
    uint64_t sim_ns = 0;     ///< timeouts + backoff + residual delays, simulated
    uint32_t retries = 0;    ///< re-issued requests
    uint32_t faults = 0;     ///< faulty attempts observed (recovered or not)
    uint32_t timeouts = 0;   ///< attempts that timed out (drop or late)
    uint32_t exhausted = 0;  ///< requests that ran out of attempts
  };
  const Recovery& recovery() const { return recovery_; }

 private:
  void charge_oram(oram::PageType type) const;
  void charge_local() const;
  /// Charges and reads one page, recovering as the class comment says;
  /// nullopt when the id was never written.
  std::optional<Bytes> read_page(oram::PageType type, const Address& addr,
                                 const u256& index) const;
  void trace(obs::TraceCode code, uint64_t a, uint64_t b) const;

  struct PageKey {
    Address addr;
    u256 index;
    friend bool operator==(const PageKey&, const PageKey&) = default;
  };
  struct PageKeyHasher {
    size_t operator()(const PageKey& k) const {
      return AddressHasher{}(k.addr) ^ (U256Hasher{}(k.index) * 0x9e3779b97f4a7c15ull);
    }
  };

  const state::WorldState& local_;
  oram::OramAccessor* oram_;
  SecurityConfig security_;
  Timing timing_;
  obs::TraceRing* trace_;
  mutable Stats stats_;
  mutable Recovery recovery_;
  // Per-bundle storage page cache, modeling the HEVM's layer-1 world-state
  // cache: one ORAM fetch serves all records of a group page for the rest of
  // the bundle (the paper's grouping-as-prefetch). Meta pages need none: the
  // session's overlay asks for each account once.
  mutable std::unordered_map<PageKey, std::optional<Bytes>, PageKeyHasher> group_cache_;
};

/// Models Fig. 3 step 3 queueing: bundles arriving `arrival_gap_ns` apart
/// are dispatched to the earliest-free of `cores` dedicated HEVMs (no context
/// switches — a busy core finishes its bundle first).
struct ScheduleResult {
  uint64_t makespan_ns = 0;        ///< first arrival -> last completion
  uint64_t mean_wait_ns = 0;       ///< time spent queued, per bundle
  uint64_t max_queue_depth = 0;
  std::vector<uint64_t> completion_ns;
};
ScheduleResult schedule_bundles(const std::vector<uint64_t>& durations_ns, int cores,
                                uint64_t arrival_gap_ns);

}  // namespace hardtape::service
