// Deterministic adversarial fault injection across the untrusted boundary.
//
// HarDTAPE's threat model (paper §III) is a MALICIOUS service provider: the
// SP owns the ORAM server, the Ethernet link, and the node feed. A faithful
// robustness story therefore needs an adversary that can drop, delay,
// tamper, and replay at every one of those interfaces — and needs each such
// run to be exactly reproducible, or a fault-triggered bug can never be
// debugged. This module is that adversary.
//
// Reproducibility contract: a FaultPlan decision depends ONLY on
// (plan seed, site, stream, op index) — never on wall time, thread
// interleaving, or call order. Streams are logical request sources (the
// engine uses one per (bundle, attempt), see fault_stream()); op indices
// count per (site, stream) inside a FaultScope. Two runs with the same seed
// and the same per-stream operation sequences produce the same fault trace
// and — because all recovery waiting is simulated — the same outcomes,
// regardless of how the worker pool interleaved.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/random.hpp"

namespace hardtape::faults {

/// Where a fault strikes. Each site models one SP-controlled interface.
enum class FaultSite : uint8_t {
  kOramRead = 0,   ///< ORAM server response to a path read
  kOramWrite = 1,  ///< ORAM server ack of a path write
  kChannelFrame = 2,  ///< a SecureMessage frame on the Ethernet link
  kNodeFetch = 3,  ///< a node response consumed at block-sync time
};
inline constexpr size_t kFaultSiteCount = 4;

enum class FaultKind : uint8_t {
  kNone = 0,
  kDrop,            ///< response never arrives (the caller's timeout fires)
  kDelay,           ///< response arrives late, by a seeded SimClock amount
  kTamper,          ///< response arrives with a broken slot tag (Poly1305)
  kStaleProof,      ///< node response carries a corrupted Merkle proof
  kDuplicateFrame,  ///< link delivers the frame twice (anti-replay probe)
  kReorderFrame,    ///< link swaps the frame with its successor
};

const char* to_string(FaultSite site);
const char* to_string(FaultKind kind);

struct FaultPlanConfig {
  uint64_t seed = 1;
  /// Per-operation fault probability, applied at every site.
  double fault_rate = 0.0;
  /// Relative weights of the kinds drawn once a fault fires. Only the kinds
  /// applicable at the struck site participate (e.g. frames can duplicate,
  /// ORAM responses cannot); a zero weight disables a kind.
  double weight_drop = 1.0;
  double weight_delay = 1.0;
  double weight_tamper = 1.0;
  double weight_stale_proof = 1.0;
  double weight_duplicate = 1.0;
  double weight_reorder = 1.0;
  /// Injected delays are uniform in [min, max], simulated time.
  uint64_t min_delay_ns = 1'000'000;
  uint64_t max_delay_ns = 20'000'000;
};

struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  uint64_t delay_ns = 0;  ///< meaningful only for kDelay
};

struct FaultEvent {
  FaultSite site;
  uint64_t stream;
  uint64_t op;
  FaultKind kind;
  uint64_t delay_ns;
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Thread-safe, deterministic fault oracle (see the contract above).
class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config) : config_(config) {}

  /// The decision for operation `op` of `stream` at `site`. Pure in its
  /// arguments plus the seed; also records non-kNone decisions in the trace.
  FaultDecision decide(FaultSite site, uint64_t stream, uint64_t op);

  /// Test hook: pin the decision for one (site, stream, op) regardless of
  /// rate — lets a test strike exactly one session with exactly one fault.
  void force(FaultSite site, uint64_t stream, uint64_t op, FaultDecision decision);

  /// Every injected (non-kNone) fault so far, sorted by (site, stream, op)
  /// so traces compare equal across runs with different interleavings.
  std::vector<FaultEvent> trace() const;
  uint64_t injected() const { return injected_.load(std::memory_order_relaxed); }
  const FaultPlanConfig& config() const { return config_; }

 private:
  FaultPlanConfig config_;
  mutable std::mutex mu_;  ///< guards trace_ and forced_
  std::vector<FaultEvent> trace_;
  std::map<std::tuple<uint8_t, uint64_t, uint64_t>, FaultDecision> forced_;
  std::atomic<uint64_t> injected_{0};
};

/// Binds the calling thread to a fault stream (one pre-execution session).
/// Wrappers (FaultyOram) read the current stream and draw per-site op
/// indices from here; outside any scope no faults are injected, which keeps
/// setup paths (ORAM install, attestation) fault-free by construction.
class FaultScope {
 public:
  explicit FaultScope(uint64_t stream);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  static bool active();
  static uint64_t stream();
  /// Post-incremented per-(site, stream) operation index.
  static uint64_t next_op(FaultSite site);

 private:
  struct State {
    uint64_t stream = 0;
    std::array<uint64_t, kFaultSiteCount> ops{};
    State* prev = nullptr;
  };
  State state_;
};

/// The engine's stream id for (bundle, attempt): requeued bundles must see a
/// fresh — but still deterministic — fault schedule, or a transient fault
/// would deterministically recur on every retry and bounded requeue could
/// never succeed.
inline uint64_t fault_stream(uint64_t bundle_id, uint32_t attempt) {
  return (bundle_id + 1) * 0x9e3779b97f4a7c15ull + attempt;
}

}  // namespace hardtape::faults
