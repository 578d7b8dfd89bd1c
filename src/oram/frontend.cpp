#include "oram/frontend.hpp"

#include <chrono>

namespace hardtape::oram {

namespace {
uint64_t wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

thread_local RecoveryTally* g_active_tally = nullptr;
}  // namespace

ScopedRecoveryTally::ScopedRecoveryTally(RecoveryTally& tally) : prev_(g_active_tally) {
  g_active_tally = &tally;
}

ScopedRecoveryTally::~ScopedRecoveryTally() { g_active_tally = prev_; }

RecoveryTally* ScopedRecoveryTally::active() { return g_active_tally; }

AccessAttempt OramFrontend::access(const BlockId& id, const BytesView* write_data) {
  // 1. The per-block gate: wait until no access to this id is in flight,
  // then claim it. Routing happens after the claim, when no same-id twin can
  // migrate the block under this request.
  const auto gate_start = std::chrono::steady_clock::now();
  {
    std::unique_lock lock(state_mu_);
    gate_cv_.wait(lock, [&] { return !inflight_.contains(id); });
    inflight_.insert(id);
    stats_.contention_stall_ns += wall_ns_since(gate_start);
  }
  const uint32_t shard = config_.shard_router ? config_.shard_router(id) : kUnknownShard;

  // 2. Retry timeouts with backoff in simulated time; 3. fail closed on
  // integrity failures and on an exhausted budget.
  const sim::BackoffPolicy& policy = config_.recovery;
  // De-synchronizes the jitter of distinct requests; deterministic in the id.
  const uint64_t stream_tag = U256Hasher{}(id);
  AccessAttempt result;
  uint64_t recovery_ns = 0;
  uint32_t retries = 0;
  uint32_t faults = 0;
  uint64_t timeouts = 0, auth_failures = 0, bad_proofs = 0, exhausted = 0;
  if (config_.trace != nullptr) {
    config_.trace->append(obs::TraceCategory::kOram,
                          static_cast<uint16_t>(obs::TraceCode::kOramIssue), /*sim_ns=*/0,
                          write_data != nullptr ? 1 : 0, stream_tag);
  }
  for (int attempt = 1;; ++attempt) {
    AccessAttempt a = write_data != nullptr ? backend_.try_write(id, *write_data)
                                            : backend_.try_read(id);
    if (a.status == Status::kOk && a.sim_delay_ns <= policy.request_timeout_ns) {
      recovery_ns += a.sim_delay_ns;  // slower than usual, but it arrived
      result = std::move(a);
      break;
    }
    ++faults;
    if (a.status == Status::kAuthFailed || a.status == Status::kBadProof) {
      // Fail closed: an integrity failure is an attack indicator, not
      // transient loss. Retrying would hand a tampering server an oracle,
      // so the request terminates here and the session aborts.
      (a.status == Status::kAuthFailed ? auth_failures : bad_proofs) += 1;
      result = AccessAttempt{a.status, std::nullopt, 0};
      break;
    }
    // Dropped or over-delayed response: the session waited out the full
    // request timeout before concluding the answer is not coming.
    ++timeouts;
    recovery_ns += policy.request_timeout_ns;
    if (attempt >= policy.max_attempts) {
      ++exhausted;
      result = AccessAttempt{Status::kRetryExhausted, std::nullopt, 0};
      break;
    }
    const uint64_t backoff_ns = sim::backoff_delay_ns(policy, attempt, stream_tag);
    recovery_ns += backoff_ns;
    ++retries;
    if (config_.trace != nullptr) {
      config_.trace->append(obs::TraceCategory::kOram,
                            static_cast<uint16_t>(obs::TraceCode::kOramRetry), /*sim_ns=*/0,
                            static_cast<uint64_t>(attempt), backoff_ns);
    }
  }
  result.sim_delay_ns = recovery_ns;
  if (config_.trace != nullptr) {
    config_.trace->append(obs::TraceCategory::kOram,
                          static_cast<uint16_t>(obs::TraceCode::kOramComplete), /*sim_ns=*/0,
                          static_cast<uint64_t>(result.status), recovery_ns);
  }
  if (RecoveryTally* tally = ScopedRecoveryTally::active()) {
    tally->sim_ns += recovery_ns;
    tally->retries += retries;
    tally->faults += faults;
  }

  // Release the gate and account the request.
  {
    std::lock_guard lock(state_mu_);
    inflight_.erase(id);
    ++(write_data != nullptr ? stats_.writes : stats_.reads);
    stats_.timeouts += timeouts;
    stats_.retries += retries;
    stats_.auth_failures += auth_failures;
    stats_.bad_proofs += bad_proofs;
    stats_.retry_exhausted += exhausted;
    // Every non-kOk result is terminal (integrity failure or exhaustion).
    if (result.status != Status::kOk && shard < stats_.shard_failures.size()) {
      ++stats_.shard_failures[shard];
    }
  }
  gate_cv_.notify_all();
  return result;
}

AccessAttempt OramFrontend::try_read(const BlockId& id) { return access(id, nullptr); }

AccessAttempt OramFrontend::try_write(const BlockId& id, BytesView data) {
  return access(id, &data);
}

OramFrontend::Stats OramFrontend::snapshot() const {
  std::lock_guard lock(state_mu_);
  return stats_;
}

}  // namespace hardtape::oram
