// Admission control for the service front door (PR 7).
//
// The paper's dedicated-hardware contract shapes everything here: an HEVM is
// never shared, so under overload the only lever the service has is WHO gets
// a device next and WHO is told "no" — never "how thin do we slice it". This
// module is that lever, and it is deliberately pure policy: no threads, no
// wall clocks, no I/O. Every decision is a function of (config, queue state,
// simulated time), which is what lets the front door replay identically at
// any worker count and lets tests pin fairness bounds exactly.
//
// Three mechanisms, composed:
//
//  1. Per-tenant bounded FIFO queues drained by deficit round-robin (DRR):
//     each round a tenant's deficit grows by quantum = kDrrQuantumBase *
//     weight and it may dispatch while deficit >= cost (cost = 1 per
//     request). A tenant at its in-flight quota is skipped without losing
//     its deficit. DRR gives a hard fairness bound — a flooding tenant can
//     fill only its OWN queue, and any other tenant waits at most O(rounds)
//     behind its own backlog.
//
//  2. Sim-time deadlines: a request carries an absolute queue-wait deadline.
//     Admission refuses dead-on-arrival requests (the link may have delayed
//     the frame past its own budget) and the dispatcher refuses requests
//     that aged out while queued — both as kDeadlineExceeded, both without
//     spending a device. A pre-execution answer after the caller's deadline
//     is worthless; executing it anyway would be pure overload amplification.
//
//  3. A brownout ladder driven by total queue depth, with two-threshold
//     hysteresis per rung so the state cannot flap on a boundary workload:
//
//       kHealthy          admit everyone (subject to queue caps + deadlines)
//       kShedLowPriority  refuse tenants below the priority floor
//       kAdmitNone        refuse everyone; drain what is already queued
//
//     A shed rung refuses by priority class alone: no request carries a
//     cost estimate (service frames v3).
//
// Shed requests are answered kOverloaded immediately: a fast honest refusal
// the client can act on, instead of a slow timeout that holds queue memory.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/errors.hpp"
#include "evm/types.hpp"
#include "obs/metrics.hpp"

namespace hardtape::service {

/// Overload rungs, in escalation order. Values are wire/metric-stable.
enum class BrownoutState : uint8_t {
  kHealthy = 0,
  kShedLowPriority = 1,
  kAdmitNone = 2,
};

const char* to_string(BrownoutState state);

/// DRR quantum per weight unit. Cost of one request is 1, so a weight-1
/// tenant dispatches once per round.
inline constexpr uint32_t kDrrQuantumBase = 1;

/// Per-tenant policy. Tenants not configured up front get the defaults from
/// AdmissionConfig on first contact.
struct TenantConfig {
  uint64_t tenant_id = 0;
  /// DRR weight: share of dispatch slots relative to other backlogged
  /// tenants. quantum = kDrrQuantumBase * weight.
  uint32_t weight = 1;
  /// Bound on this tenant's queue; arrivals beyond it are shed (kOverloaded)
  /// no matter how healthy the service is — one tenant's backlog must never
  /// become everyone's memory pressure.
  uint32_t queue_capacity = 64;
  /// Concurrency quota: max requests from this tenant on devices at once.
  uint32_t max_in_flight = 4;
  /// Brownout class. kShedLowPriority refuses tenants with
  /// priority < shed_priority_floor.
  uint32_t priority = 1;
};

struct AdmissionConfig {
  std::vector<TenantConfig> tenants;  ///< pre-configured tenants
  TenantConfig defaults{};            ///< template for unknown tenants
  /// Tenants with priority below this floor are refused in kShedLowPriority.
  uint32_t shed_priority_floor = 2;

  /// Brownout ladder thresholds on the total queue depth. Each rung is
  /// entered at its *_enter mark and left only under its lower *_exit mark —
  /// classic hysteresis so a workload sitting on a threshold cannot flap.
  size_t shed_depth_enter = 192;
  size_t shed_depth_exit = 96;
  size_t admit_none_depth_enter = 512;
  size_t admit_none_depth_exit = 256;
};

/// One admitted-but-not-yet-dispatched request.
struct QueuedRequest {
  uint64_t session_id = 0;
  uint64_t tenant_id = 0;
  uint64_t request_id = 0;
  uint64_t enqueue_ns = 0;        ///< sim time of admission
  uint64_t deadline_ns = 0;       ///< ABSOLUTE sim deadline; 0 = none
  std::vector<evm::Transaction> bundle;
};

/// Pure-policy admission controller. Single-threaded by design: the front
/// door's dispatch loop owns it; concurrency lives in the worker pool below.
class AdmissionController {
 public:
  /// Metrics are registered eagerly for configured tenants and lazily for
  /// unknown ones. `registry` must outlive the controller.
  AdmissionController(AdmissionConfig config, obs::Registry* registry);

  /// Admission verdict for an arriving request at sim time `now_ns`.
  /// kOk: queued. kOverloaded: shed (brownout, priority, or full queue).
  /// kDeadlineExceeded: dead on arrival. Refusals hold no state.
  Status admit(QueuedRequest request, uint64_t now_ns);

  /// Next DRR pick. `expired` picks blew their deadline while queued: the
  /// caller answers kDeadlineExceeded and must NOT dispatch them (they are
  /// not counted in flight and consume no device). Non-expired picks are
  /// charged against the tenant's deficit and in-flight quota; the caller
  /// must pair each with exactly one on_complete(). nullopt = no tenant has
  /// dispatchable work (empty queues or everyone at quota).
  struct Pick {
    QueuedRequest request;
    bool expired = false;
  };
  std::optional<Pick> next(uint64_t now_ns);

  /// Releases the tenant's in-flight slot taken by a non-expired next().
  void on_complete(uint64_t tenant_id);

  /// Re-admits a request whose device died (or was drained away) mid-flight.
  /// The request already won admission once, so the brownout ladder and the
  /// tenant queue cap do NOT apply — shedding it now would turn a device
  /// fault into a silent drop of accepted work. It re-enters at the FRONT
  /// of its tenant queue (failover work re-dispatches ahead of newer
  /// arrivals, minimizing rebind latency) but still flows through the
  /// normal DRR pass, in-flight quotas and deadline expiry: a re-admitted
  /// request that ages out is still answered kDeadlineExceeded.
  void readmit(QueuedRequest request, uint64_t now_ns);

  BrownoutState state() const { return state_; }
  size_t total_queued() const { return total_queued_; }

 private:
  struct Tenant {
    TenantConfig config;
    std::deque<QueuedRequest> queue;
    uint64_t deficit = 0;
    uint32_t in_flight = 0;
    obs::Counter* admitted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Histogram* queue_wait = nullptr;
  };

  Tenant& tenant(uint64_t tenant_id);
  void update_brownout();

  AdmissionConfig config_;
  obs::Registry* registry_;
  std::map<uint64_t, Tenant> tenants_;  // ordered => deterministic DRR order
  /// DRR cursor: tenant id the next round resumes at.
  uint64_t cursor_ = 0;
  size_t total_queued_ = 0;
  BrownoutState state_ = BrownoutState::kHealthy;
  obs::Gauge* brownout_gauge_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
};

}  // namespace hardtape::service
