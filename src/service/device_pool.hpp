// Elastic dedicated-device pool for the service front door (PR 9).
//
// PR 7 modeled the paper's per-chip HEVM fleet as a fixed free-list sized at
// construction — adequate for overload policy, useless for fleet reality:
// real devices join late, get drained for maintenance, die mid-session,
// return garbage while claiming health, and flap. This module owns that
// lifecycle as an explicit state machine per device:
//
//            add_device           warmup done
//               │                      │
//               ▼                      ▼
//           kJoining ───────────► kServing ◄──────────┐
//                                  │  │  │            │ backoff elapsed
//                       start_drain│  │  │crash/flap  │ (kRejoin)
//                                  ▼  │  └──────► kQuarantined
//                           kDraining │ sticky breaker ──┘   │
//                                  │  │                      │ crash,
//                     (idle, or    ▼  ▼                      │ no rejoin
//                      grace cut) kDead ◄────────────────────┘
//
// A draining device never comes back: its session completing, a grace cut,
// a sticky result and any crash, a flap included, all end the drain.
//
// Division of labor: the pool is PURE sim-time policy — which device is
// bindable now, what fate the fault plan assigns a binding, when a timed
// transition (warmup, quarantine backoff, flap repair) falls due — plus the
// device lifecycle event log the binding audit consumes. The FrontDoor owns
// the request-side consequences (cutting bindings, failover re-admission,
// scheduling drain deadlines) in its discrete-event loop. Everything here is
// single-threaded by design and deterministic: quarantine re-admission
// delays come from sim::BackoffPolicy keyed by the device id, fault fates
// from the one faults::FaultPlan at its kDeviceBinding site, keyed by
// (device, binding index) — so the same dispatch sequence churns
// identically at any engine worker count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "sim/backoff.hpp"

namespace hardtape::service {

enum class DeviceState : uint8_t {
  kJoining = 0,     ///< hot-added, warming up; not yet bindable
  kServing = 1,     ///< bindable (or currently bound)
  kDraining = 2,    ///< no new bindings; in-flight session gets a grace period
  kQuarantined = 3, ///< down (breaker or flap); timed re-admission pending
  kDead = 4,        ///< permanently gone; terminal
};

const char* to_string(DeviceState state);

/// Device lifecycle events, the binding audit's second input: the audit
/// proves every binding interval fits inside a window in which its device
/// was actually alive (kServe/kRejoin .. kCrash/kQuarantine/kDrainDone).
enum class DeviceEventKind : uint8_t {
  kJoin = 0,        ///< device added (warmup starts)
  kServe = 1,       ///< warmup done; device is bindable
  kDrainStart = 2,  ///< drain requested; no new bindings from here
  kDrainDone = 3,   ///< drain complete; device is dead
  kCrash = 4,       ///< abrupt death (permanent, or flap if a rejoin follows)
  kStickyFault = 5, ///< a binding's result failed health/attestation checks
  kQuarantine = 6,  ///< breaker tripped; timed backoff before re-admission
  kRejoin = 7,      ///< back in service after quarantine/flap repair
};

const char* to_string(DeviceEventKind kind);

struct DeviceEvent {
  uint64_t at_ns = 0;
  uint32_t device = 0;
  DeviceEventKind kind = DeviceEventKind::kJoin;
  friend bool operator==(const DeviceEvent&, const DeviceEvent&) = default;
};

struct DevicePoolConfig {
  /// Devices present (and serving) at construction: the simulated
  /// dedicated-HEVM fleet the front door schedules onto. Decoupled from
  /// EngineConfig::num_hevms on purpose: devices are the MODEL (capacity,
  /// the paper's per-chip HEVM count), workers are the HOST (how fast the
  /// model is evaluated).
  size_t initial_devices = 3;
  /// Sim time a hot-added device spends kJoining before it may bind.
  uint64_t join_warmup_ns = 0;
  /// Sim time a draining device's in-flight session is allowed to finish
  /// before the FrontDoor cuts the binding and re-admits the bundle.
  uint64_t drain_grace_ns = 50'000'000;
  /// Consecutive sticky-faulted bindings that quarantine a device
  /// (<= 0 disables the per-device breaker).
  int quarantine_threshold = 2;
  /// Quarantine duration policy: re-admission after
  /// backoff_delay_ns(probe_backoff, nth quarantine, device id) — bounded
  /// exponential, deterministically jittered per device.
  sim::BackoffPolicy probe_backoff{};
  /// Optional seeded adversary (must outlive the pool), consulted at its
  /// kDeviceBinding site; it may be the same plan the engine reads.
  /// nullptr = reliable fleet; binding_fate() always answers kNone.
  faults::FaultPlan* fault_plan = nullptr;
};

/// Single-threaded, sim-time device state machine (see header comment).
class DevicePool {
 public:
  /// Starts with `initial_devices` devices already serving at sim time 0
  /// (the legacy static-pool shape). `registry` must outlive the pool.
  DevicePool(DevicePoolConfig config, obs::Registry* registry);

  /// Hot-adds a device: kJoining for join_warmup_ns, then kServing.
  /// Returns the new device id (ids are dense, assigned in add order).
  uint32_t add_device(uint64_t now_ns);

  /// Begins a graceful drain. Idle (or not-yet-serving) devices die
  /// immediately; a busy device goes kDraining and the return value tells
  /// the caller an in-flight binding needs a grace deadline. Returns
  /// nullopt when the drain is already complete (device was idle/dead),
  /// otherwise the device is kDraining with a live binding.
  std::optional<DeviceState> start_drain(uint32_t device, uint64_t now_ns);

  /// Completes a drain whose grace expired: the binding was cut by the
  /// caller; the device dies now.
  void finish_drain(uint32_t device, uint64_t now_ns);

  /// Binds the lowest-id idle serving device, or nullopt. The caller owns
  /// the binding until exactly one of complete()/sticky_fault()/crash()/
  /// finish_drain() releases it.
  std::optional<uint32_t> acquire(uint64_t now_ns);

  /// The fault plan's fate for the binding just placed on `device`
  /// (consumes the device's next binding index): kNone, kCrash, kSticky or
  /// kFlap. kNone without a plan.
  faults::FaultDecision binding_fate(uint32_t device);

  /// Clean release: the binding ran to completion and passed health checks.
  /// Resets the device's sticky streak; a draining device dies here.
  void complete(uint32_t device, uint64_t now_ns);

  /// Failed release: the binding completed but its result failed
  /// attestation/health checks. Feeds the per-device breaker; at
  /// quarantine_threshold consecutive failures the device is quarantined
  /// for a deterministic backoff. A draining device dies instead.
  void sticky_fault(uint32_t device, uint64_t now_ns);

  /// Abrupt death at `now_ns` (binding already cut by the caller, if any).
  /// rejoin_at_ns == 0 is permanent (kDead); otherwise the device flaps:
  /// kQuarantined until rejoin_at_ns, then serving again. A draining device
  /// never comes back: any death completes its drain. No-op on kDead.
  void crash(uint32_t device, uint64_t now_ns, uint64_t rejoin_at_ns);

  /// Applies every timed transition due by `now_ns` (warmup completion,
  /// quarantine/flap re-admission), in (wake time, device id) order.
  void advance_to(uint64_t now_ns);

  /// Earliest pending timed transition, UINT64_MAX if none. Lets the
  /// FrontDoor's finish() make progress while the whole fleet is down.
  uint64_t next_transition_ns() const;

  DeviceState state(uint32_t device) const;
  bool busy(uint32_t device) const;
  /// True iff acquire() could succeed right now.
  bool has_idle() const;
  /// Devices that could EVER serve a future binding (joining, serving, or
  /// quarantined-with-rejoin). False means queued work can never dispatch.
  bool can_ever_serve() const;
  size_t size() const { return devices_.size(); }
  size_t serving_count() const;
  const DevicePoolConfig& config() const { return config_; }
  /// Complete lifecycle log, in occurrence order.
  const std::vector<DeviceEvent>& events() const { return events_; }

 private:
  struct Device {
    DeviceState state = DeviceState::kServing;
    bool busy = false;
    uint64_t binding_count = 0;    ///< fault-plan binding index source
    int sticky_streak = 0;         ///< consecutive sticky faults (breaker)
    uint32_t quarantines = 0;      ///< backoff attempt number
    uint64_t wake_ns = UINT64_MAX; ///< pending timed transition, if any
    obs::Gauge* state_gauge = nullptr;
  };

  Device& device_at(uint32_t device);
  const Device& device_at(uint32_t device) const;
  void set_state(uint32_t device, DeviceState state);
  /// Every way a drain ends: the device dies, kDrainDone is logged, and the
  /// drain counts as completed.
  void drain_done(uint32_t device, uint64_t now_ns);
  void log(uint32_t device, DeviceEventKind kind, uint64_t at_ns);
  void refresh_serving_gauge();

  DevicePoolConfig config_;
  obs::Registry* registry_;
  std::vector<Device> devices_;
  std::vector<DeviceEvent> events_;

  obs::Gauge* serving_gauge_ = nullptr;
  obs::Gauge* total_gauge_ = nullptr;
  obs::Counter* hot_adds_ = nullptr;
  obs::Counter* crashes_ = nullptr;
  obs::Counter* sticky_faults_ = nullptr;
  obs::Counter* quarantines_ = nullptr;
  obs::Counter* rejoins_ = nullptr;
  obs::Counter* drains_started_ = nullptr;
  obs::Counter* drains_completed_ = nullptr;
};

}  // namespace hardtape::service
