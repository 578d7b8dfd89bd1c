// OramFrontend: the chip-side arbitration point in front of the shared ORAM
// backend, enabling concurrent multi-session pre-execution.
//
// HarDTAPE dedicates one HEVM per user session (paper §IV-B), but the whole
// chip shares one oblivious store. The backend locks itself: the engine's
// ShardedOramStore (oram/sharded.hpp) serializes each shard's stash,
// position map and path walks behind that shard's own lock, so the
// adversary-visible server trace of every shard stays a sequential stream of
// uniformly random root-to-leaf paths, while sessions whose accesses land on
// distinct shards walk in parallel. What remains here is one request path:
//
//  1. a per-block in-flight gate: at most one access per BlockId at a time.
//     This is correctness, not tuning — an access migrates the block's shard
//     assignment, so an ungated same-id twin could consult a stale route. A
//     duplicate request waits its turn and then issues its own walk, so the
//     SP sees one walk per request and the access count never leaks;
//  2. retry/backoff: the server and the link belong to the malicious SP
//     (paper §III), so a response may never arrive, arrive late, or arrive
//     tampered. Every access runs a bounded retry loop in SIMULATED time: a
//     per-request timeout, exponential backoff with deterministic jitter
//     (sim/backoff.hpp), and a hard attempt budget. Timeouts (drops,
//     over-delayed responses) are retried;
//  3. fail closed: integrity failures (kAuthFailed, kBadProof) end the
//     request immediately — a bad tag is an attack indicator, and retrying
//     would hand a tampering server an oracle — and an exhausted budget
//     surfaces as kRetryExhausted. Terminal failures are attributed to the
//     shard the request was routed to (Stats::shard_failures); the engine's
//     circuit breaker decides whether the whole backend is quarantined.
//
// All waiting is simulated (charged to the calling session via the active
// RecoveryTally), so the fault-free timeline stays bit-identical to serial
// execution and faulted runs replay exactly under a fixed seed.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "obs/trace.hpp"
#include "oram/path_oram.hpp"
#include "sim/backoff.hpp"

namespace hardtape::oram {

/// Per-session accumulator of recovery work (simulated retry time, fault
/// counts) for layers above a value-only interface (state::StateReader has
/// no Status channel). The engine installs one per session on the executing
/// thread; the frontend adds to whichever tally is active whenever it
/// recovers from — or gives up on — a backend fault.
struct RecoveryTally {
  uint64_t sim_ns = 0;    ///< timeouts + backoff + residual delays, simulated
  uint32_t retries = 0;   ///< re-issued requests
  uint32_t faults = 0;    ///< faulty attempts observed (recovered or not)
};

/// RAII: makes `tally` the calling thread's active tally; restores the
/// previous one on destruction (scopes nest).
class ScopedRecoveryTally {
 public:
  explicit ScopedRecoveryTally(RecoveryTally& tally);
  ~ScopedRecoveryTally();
  ScopedRecoveryTally(const ScopedRecoveryTally&) = delete;
  ScopedRecoveryTally& operator=(const ScopedRecoveryTally&) = delete;

  /// The calling thread's active tally, or nullptr outside any scope.
  static RecoveryTally* active();

 private:
  RecoveryTally* prev_;
};

struct FrontendConfig {
  /// Retry/backoff policy for the fault-aware access path. With a reliable
  /// backend the policy is dormant: attempt 1 succeeds, zero time charged.
  sim::BackoffPolicy recovery{};
  /// Optional request-lifecycle tracing (issue/retry/complete). The frontend
  /// is shared by all workers, so the ring is the sink's shared ring; events
  /// carry wall time for ordering and per-request sim recovery time — the
  /// frontend has no session clock.
  obs::TraceRing* trace = nullptr;

  /// Shards behind the backend (sizes the per-shard failure accounting;
  /// 0 disables it).
  size_t shard_count = 0;
  /// Current shard of a block (ShardedOramStore::shard_of), kUnknownShard
  /// for ids the store never saw. Consulted once the request holds the
  /// block's gate, before issuing — which is also the shard any failure of
  /// this request is attributed to, since a migration only happens after a
  /// successful walk there.
  std::function<uint32_t(const BlockId&)> shard_router{};
};

class OramFrontend : public OramAccessor {
 public:
  using Config = FrontendConfig;

  /// `shard_router` result for ids the store has no assignment for.
  /// Numerically equal to ShardedOramStore::kNoShard.
  static constexpr uint32_t kUnknownShard = ~uint32_t{0};

  /// Counters over the frontend's lifetime. All wall-clock figures are host
  /// measurements of real gate contention (NOT simulated time — the
  /// simulated timeline lives in the engine's metrics).
  struct Stats {
    uint64_t reads = 0;             ///< read requests issued to the backend
    uint64_t writes = 0;
    uint64_t contention_stall_ns = 0;  ///< wall ns spent waiting at the gate
    // --- recovery layer ---
    uint64_t timeouts = 0;          ///< attempts that timed out (drop/late)
    uint64_t retries = 0;           ///< requests re-issued after a timeout
    uint64_t auth_failures = 0;     ///< tampered responses (fail-closed)
    uint64_t bad_proofs = 0;        ///< stale-proof responses (fail-closed)
    uint64_t retry_exhausted = 0;   ///< requests that ran out of attempts
    /// Terminal failures attributed per shard (empty when shard_count == 0).
    std::vector<uint64_t> shard_failures;
  };

  explicit OramFrontend(OramAccessor& backend, Config config = {})
      : backend_(backend), config_(std::move(config)) {
    stats_.shard_failures.resize(config_.shard_count, 0);
  }

  /// Fault-aware access: takes the per-block gate, runs the full
  /// timeout/backoff/fail-closed loop and returns the terminal status.
  /// sim_delay_ns of the result carries the total simulated recovery time
  /// (also added to the active RecoveryTally).
  AccessAttempt try_read(const BlockId& id) override;
  AccessAttempt try_write(const BlockId& id, BytesView data) override;

  Stats snapshot() const;
  const Config& config() const { return config_; }

 private:
  /// The one request path (write_data == nullptr for reads): gate, then
  /// retry/backoff, then fail closed — see the file comment.
  AccessAttempt access(const BlockId& id, const BytesView* write_data);

  OramAccessor& backend_;
  Config config_;
  mutable std::mutex state_mu_;  ///< guards stats_, inflight_
  std::condition_variable gate_cv_;  ///< waits on state_mu_ for the gate
  Stats stats_;
  std::unordered_set<BlockId, U256Hasher> inflight_;  ///< ids past the gate
};

}  // namespace hardtape::oram
