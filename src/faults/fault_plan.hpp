// Deterministic adversarial fault injection: the one per-operation oracle.
//
// HarDTAPE's threat model (paper §III) is a MALICIOUS service provider: the
// SP owns the ORAM server, the Ethernet link, and the node feed — and it
// runs the fleet of dedicated pre-executor devices, which die mid-session,
// return garbage while claiming health, or flap. A faithful robustness story
// therefore needs an adversary that can strike at every one of those
// interfaces — and needs each such run to be exactly reproducible, or a
// fault-triggered bug can never be debugged. This module is that adversary:
// one FaultPlan, one draw rule, one trace, whichever site it strikes.
//
// Reproducibility contract: a FaultPlan decision depends ONLY on
// (plan seed, site, stream, op index) — never on wall time, thread
// interleaving, or call order. Each call site keys its own decisions:
//  - ORAM reads: stream = fault_stream(bundle, attempt), op = the read's
//    index within that session attempt (counted by its FaultyOram);
//  - channel frames: the FaultyLink's stream, op = the frame's index;
//  - node fetches: stream = the engine's sync pass, op = the account index;
//  - device bindings: stream = device id, op = that device's binding index
//    (counted by service::DevicePool).
// Two runs with the same seed and the same per-stream operation sequences
// produce the same fault trace and — because all recovery waiting is
// simulated — the same outcomes, regardless of how the worker pool
// interleaved.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/random.hpp"

namespace hardtape::faults {

/// Where a fault strikes. Each site models one SP-controlled interface. The
/// values are mixed into every decision, so they never change; 1 is retired.
enum class FaultSite : uint8_t {
  kOramRead = 0,       ///< ORAM server response to a path read
  kChannelFrame = 2,   ///< a SecureMessage frame on the Ethernet link
  kNodeFetch = 3,      ///< a node response consumed at block-sync time
  kDeviceBinding = 4,  ///< a dedicated device serving one session binding
};

enum class FaultKind : uint8_t {
  kNone = 0,
  kDrop,            ///< response never arrives (the caller's timeout fires)
  kDelay,           ///< response arrives late, by a seeded SimClock amount
  kTamper,          ///< response arrives with a broken slot tag (Poly1305)
  kStaleProof,      ///< node response carries a corrupted Merkle proof
  kDuplicateFrame,  ///< link delivers the frame twice (anti-replay probe)
  kReorderFrame,    ///< link swaps the frame with its successor
  /// Device dies kill_frac of the way through its binding, for good; the
  /// session's sealed state dies with it.
  kCrash,
  /// Device runs the session to its end, but the result fails health and
  /// attestation checks; the device stays up (and keeps lying).
  kSticky,
  /// Device dies like kCrash, then rejoins after downtime_ns of repair.
  kFlap,
};

const char* to_string(FaultSite site);
const char* to_string(FaultKind kind);

struct FaultPlanConfig {
  uint64_t seed = 1;
  /// Per-operation fault probability, applied at every site.
  double fault_rate = 0.0;
  /// Relative weights of the kinds drawn once a fault fires. Only the kinds
  /// applicable at the struck site participate (e.g. frames can duplicate,
  /// ORAM responses cannot, and only devices crash, stick or flap); a zero
  /// weight disables a kind.
  double weight_drop = 1.0;
  double weight_delay = 1.0;
  double weight_tamper = 1.0;
  double weight_stale_proof = 1.0;
  double weight_duplicate = 1.0;
  double weight_reorder = 1.0;
  double weight_crash = 1.0;
  double weight_sticky = 1.0;
  double weight_flap = 1.0;
  /// Injected delays are uniform in [min, max], simulated time.
  uint64_t min_delay_ns = 1'000'000;
  uint64_t max_delay_ns = 20'000'000;
  /// Flap downtimes are uniform in [min, max], simulated time.
  uint64_t min_downtime_ns = 20'000'000;
  uint64_t max_downtime_ns = 200'000'000;
};

struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  uint64_t delay_ns = 0;     ///< meaningful only for kDelay
  /// kCrash/kFlap: fraction of the binding served before death, in [0, 1).
  double kill_frac = 0.0;
  uint64_t downtime_ns = 0;  ///< meaningful only for kFlap
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
  /// rate — lets a test strike exactly one session (or one device binding)
  /// with exactly one fault.
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

/// The engine's stream id for (bundle, attempt): requeued bundles must see a
/// fresh — but still deterministic — fault schedule, or a transient fault
/// would deterministically recur on every retry and bounded requeue could
/// never succeed.
inline uint64_t fault_stream(uint64_t bundle_id, uint32_t attempt) {
  return (bundle_id + 1) * 0x9e3779b97f4a7c15ull + attempt;
}

}  // namespace hardtape::faults
