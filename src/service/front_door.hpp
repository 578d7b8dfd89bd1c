// The service front door (PR 7): HarDTAPE's user-facing edge.
//
// What PreExecutionEngine deliberately is NOT — a network service — this
// module is. It terminates authenticated client connections (one
// hypervisor::SecureChannel each, in lossy-transport mode so a dropped
// frame cannot wedge the anti-replay window), parses the versioned RLP
// service frames (service/frames.hpp), multiplexes thousands of client
// sessions onto the engine, and decides under overload who gets a device
// and who is refused (service/admission.hpp).
//
//                      ┌────────────── FrontDoor ──────────────┐
//   client ── seal ──► │ SecureChannel.open ── frames::decode  │
//  (FaultyLink here)   │        │                              │
//                      │   session mux (conn -> session)       │
//                      │        │ submit                       │
//                      │   AdmissionController (DRR/quota/     │
//                      │        │ deadline/brownout)           │
//                      │   DevicePool (elastic, fault-domained)│──► engine
//                      └───────────────────────────────────────┘
//
// The dedicated-hardware invariant, made explicit: a simulated device is
// bound to AT MOST ONE session at any simulated instant — the binding log
// records every (device, session, [start, end)) interval and a test proves
// the intervals never overlap per device.
//
// Elastic pool & failover (PR 9): the pool is a lifecycle state machine
// (service/device_pool.hpp) — devices hot-add, drain gracefully, crash,
// flap and get quarantined by a per-device breaker, all on simulated time.
// Device loss is fail-closed, per the paper's sealed-state model: a dying
// device takes its session state with it, so a bundle bound to a crashed
// (or force-drained) device is RE-ADMITTED at attempt+1 through the normal
// queue and re-executed from scratch — budgeted by the engine's
// max_bundle_attempts, resolving kRetryExhausted beyond it, or kDeviceLost
// when no device can ever serve it again. audit_bindings() proves the three
// churn invariants: no per-device overlap, no binding past its device's
// death/drain-completion, every admitted request terminal.
//
// Determinism: the front door is a discrete-event machine on SIMULATED
// time. deliver() stamps each frame with its arrival time; admission,
// dispatch, expiry, brownout transitions AND device churn (fault fates,
// drain deadlines, quarantine backoff) all happen at defined sim instants.
// Engine bundle ids are PRE-ASSIGNED in admission (= arrival) order, so
// each session's outcome — whose RNG and fault streams key on (bundle id,
// attempt) — is pinned at admission, before any worker touches it; a
// failover re-executes under the SAME id at attempt+1, keyed the same way.
// The engine's worker count is therefore pure wall-clock parallelism: the
// same delivery sequence yields bit-identical outcomes, admission verdicts,
// binding logs and device lifecycle logs at 1 worker or 8, churn included
// (front_door_test holds it to that).
//
// The one wall-clock seam: at dispatch the front door must learn how long
// the session RAN (simulated) to know when its device frees, so it
// submits the burst of dispatchable bundles and then blocks — wall-clock —
// on the engine's on_outcome hook for their durations before sim time
// advances further. Bursts still execute in parallel across the pool;
// determinism costs ordering, not concurrency.
#pragma once

#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>

#include "crypto/chacha20_poly1305.hpp"
#include "service/admission.hpp"
#include "service/device_pool.hpp"
#include "service/engine.hpp"
#include "service/frames.hpp"

namespace hardtape::faults {
class FaultyLink;
}  // namespace hardtape::faults

namespace hardtape::service {

/// Sessions the mux will hold open at once; opens beyond it are refused
/// kOverloaded (a bounded front door cannot promise unbounded state).
inline constexpr size_t kMaxOpenSessions = 4096;
/// The largest request body a connection's channel will open.
inline constexpr uint64_t kMaxRequestBodyBytes = 1 << 20;

struct FrontDoorConfig {
  /// The simulated device fleet the dispatcher schedules onto: its size,
  /// warmup, drain grace, breaker and fault plan.
  DevicePoolConfig devices{};
  AdmissionConfig admission{};
};

/// The server. Single caller thread drives deliver()/finish(); the engine's
/// worker pool is the only concurrency underneath.
class FrontDoor {
 public:
  /// The engine must be constructed but NOT started: the front door installs
  /// its on_outcome hook, and the caller starts the engine afterwards.
  FrontDoor(PreExecutionEngine& engine, FrontDoorConfig config);

  /// Registers a client connection keyed by a pre-shared channel key and
  /// returns its connection id. (Full ECDH session setup is the
  /// hypervisor's attestation path; the front door models the many-clients
  /// plane with PSK channels, same crypto, cheaper setup.)
  uint64_t connect(const crypto::AesKey128& key);

  /// Delivers one sealed frame from a connection at simulated `arrival_ns`
  /// (clamped monotonic). Advances the event loop to the arrival instant
  /// (processing due completions, device transitions and dispatches), then
  /// handles the frame. Returns the sealed responses going back to the
  /// client: one for an authenticated well-formed frame, an error frame for
  /// authenticated garbage (kMalformedMessage, session state untouched),
  /// and nothing for frames the channel rejected (tamper, replay) —
  /// unauthenticated bytes earn no reply and mutate nothing.
  std::vector<hypervisor::SecureMessage> deliver(
      uint64_t conn_id, const hypervisor::SecureMessage& frame,
      uint64_t arrival_ns);

  /// Runs the event loop until every admitted request has reached a
  /// terminal status (completed, expired, retry-exhausted, or — when the
  /// whole fleet is permanently gone — kDeviceLost). Does NOT drain the
  /// engine — the caller still owns that.
  void finish();

  /// Advances sim time with no new arrivals (lets polls observe progress).
  void advance_to(uint64_t now_ns);

  // --- fleet operations (PR 9), all at the current sim instant ---

  /// Hot-adds a device (kJoining for the configured warmup, then serving).
  uint32_t add_device();
  /// Begins a graceful drain: no new bindings; an in-flight session gets
  /// drain_grace_ns to finish before it is cut and re-admitted.
  void drain_device(uint32_t device);
  /// Abrupt operator-visible death (the chaos drill's kill switch): any
  /// in-flight binding is cut NOW and its bundle re-admitted; the device
  /// is permanently dead.
  void kill_device(uint32_t device);

  uint64_t now_ns() const { return now_ns_; }
  const AdmissionController& admission() const { return admission_; }
  const DevicePool& devices() const { return pool_; }

  /// One device-session binding interval, [start_ns, end_ns) in sim time.
  /// end_ns is the scheduled completion — or the cut instant, when the
  /// device died or was force-drained mid-binding.
  struct Binding {
    uint32_t device = 0;
    uint64_t session_id = 0;
    uint64_t bundle_id = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  /// Complete binding history, in dispatch order. The dedicated-hardware
  /// audit: per device, intervals must never overlap.
  const std::vector<Binding>& bindings() const { return bindings_; }

  /// The churn audit (PR 9): checks the binding log against the device
  /// lifecycle log. Invariant (a): per-device intervals never overlap.
  /// Invariant (b): every interval lies inside a window in which its device
  /// was in service (kServe/kRejoin .. kCrash/kQuarantine/kDrainDone).
  /// Invariant (c) — every admitted request terminal — is observable via
  /// poll and asserted by callers after finish(); this method covers (a)
  /// and (b), which only the front door's internal logs can prove.
  struct ChurnAudit {
    bool ok = true;
    std::string violation;  ///< empty when ok
  };
  ChurnAudit audit_bindings() const;

 private:
  enum class Stage : uint8_t { kQueued, kRunning, kDone };

  struct RequestState {
    uint64_t bundle_id = 0;
    uint64_t deadline_ns = 0;  ///< absolute sim deadline (0 = none)
    Stage stage = Stage::kQueued;
    Status admission_status = Status::kOk;
    /// Next execution's engine attempt index (0 = first; >0 after failover).
    uint32_t attempt = 0;
    /// Retained for failover re-execution: a dead device's sealed session
    /// state is unrecoverable, so re-binding re-executes from the bundle.
    std::vector<evm::Transaction> bundle;
    uint64_t estimated_gas = 0;
    uint64_t rebind_start_ns = 0;  ///< nonzero while awaiting re-dispatch
    /// Valid once stage is kRunning/kDone:
    uint64_t dispatch_ns = 0;
    uint64_t done_ns = 0;  ///< sim completion instant
    Status outcome_status = Status::kOk;
    uint64_t queue_wait_ns = 0;  ///< total sim ns queued, across attempts
    uint64_t exec_ns = 0;
    uint64_t gas_used = 0;
  };

  struct Session {
    uint64_t session_id = 0;
    uint64_t tenant_id = 0;
    uint64_t conn_id = 0;
    bool open = false;
    std::map<uint64_t, RequestState> requests;  // by client request_id
  };

  struct Connection {
    hypervisor::SecureChannel channel;
    uint64_t session_id = 0;  ///< 0 = no session opened yet
  };

  /// A scheduled sim-time event. Generalizes PR 7's completion heap: a
  /// binding now ends one of three ways — it completes, its device dies
  /// under it, or a drain deadline cuts it. Events carry the binding
  /// GENERATION they were scheduled against; a binding released earlier by
  /// a different event leaves stale entries in the heap, which no-op on a
  /// generation mismatch (the heap cannot remove entries).
  struct Event {
    enum class Kind : uint8_t { kCompletion, kDeviceDeath, kDrainDeadline };
    uint64_t at_ns = 0;
    uint64_t seq = 0;  ///< schedule order; deterministic tie-break
    Kind kind = Kind::kCompletion;
    uint32_t device = 0;
    uint64_t gen = 0;
    uint64_t rejoin_at_ns = 0;  ///< kDeviceDeath: 0 = permanent, else flap
    bool operator>(const Event& other) const {
      return at_ns != other.at_ns ? at_ns > other.at_ns : seq > other.seq;
    }
  };

  /// The binding currently running on a device, with the engine outcome it
  /// will resolve to (learned at dispatch) and the fate the fault plan
  /// assigned it.
  struct ActiveBinding {
    uint64_t gen = 0;
    size_t binding_idx = 0;  ///< into bindings_
    uint64_t bundle_id = 0;
    uint64_t session_id = 0;
    uint64_t request_id = 0;
    uint64_t tenant_id = 0;
    Status outcome_status = Status::kOk;
    uint32_t engine_attempt = 0;  ///< the attempt the engine actually ran
    uint64_t exec_ns = 0;
    uint64_t gas_used = 0;
    bool sticky_fail = false;  ///< completion resolves as failover, not done
  };

  /// The engine outcome mailbox: workers post, the dispatch loop blocks.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, SessionOutcome> ready;
    void post(const SessionOutcome& outcome);
    SessionOutcome take(uint64_t bundle_id);
  };

  ResponseFrame handle_frame(Connection& conn, uint64_t conn_id,
                             const RequestFrame& request);
  ResponseFrame handle_open(Connection& conn, uint64_t conn_id,
                            const RequestFrame& request);
  ResponseFrame handle_submit(Session& session, const RequestFrame& request);
  ResponseFrame handle_poll(Session& session, const RequestFrame& request);
  /// Processes every event and device transition due by `target_ns`, in
  /// time order, dispatching freed capacity, then advances now_ns_.
  void advance(uint64_t target_ns);
  void handle_event(const Event& event);
  /// Cuts the active binding on `device` at now_ns_ (device death or drain
  /// deadline): truncates the binding interval, releases the tenant slot
  /// and fails the request over. Returns the released binding.
  ActiveBinding cut_binding(uint32_t device);
  /// Re-admits a request whose binding was lost, at engine attempt + 1;
  /// terminal kRetryExhausted when the budget is spent.
  void failover(const ActiveBinding& lost);
  /// Pulls DRR picks onto idle devices at now_ns_; blocks on the engine for
  /// the burst's durations and schedules their end events.
  void dispatch();
  /// Fail-closed resolution when no device can ever serve again: every
  /// queued request is answered (kDeviceLost, or kDeadlineExceeded if it
  /// already aged out) instead of waiting forever.
  void resolve_queued_device_lost();
  RequestState* find_request(uint64_t session_id, uint64_t request_id);

  PreExecutionEngine& engine_;
  AdmissionController admission_;
  DevicePool pool_;
  Mailbox mailbox_;

  uint64_t now_ns_ = 0;
  uint64_t next_conn_id_ = 1;
  uint64_t next_session_id_ = 1;
  uint64_t next_bundle_id_ = 0;  ///< pre-assigned engine ids, arrival order
  uint64_t next_event_seq_ = 0;
  uint64_t next_binding_gen_ = 1;
  std::map<uint64_t, Connection> connections_;
  std::map<uint64_t, Session> sessions_;
  size_t open_sessions_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::map<uint32_t, ActiveBinding> active_;  ///< by device
  std::vector<Binding> bindings_;

  obs::Counter* frames_total_ = nullptr;
  obs::Counter* frames_rejected_ = nullptr;   ///< channel said no (auth/replay)
  obs::Counter* frames_malformed_ = nullptr;  ///< authenticated garbage
  obs::Counter* dispatched_total_ = nullptr;
  obs::Counter* failovers_total_ = nullptr;   ///< bindings lost + re-admitted
  obs::Counter* retry_exhausted_total_ = nullptr;
  obs::Counter* device_lost_total_ = nullptr; ///< terminal kDeviceLost
  obs::Histogram* rebind_latency_ = nullptr;  ///< binding cut -> re-dispatch
  obs::Gauge* sessions_gauge_ = nullptr;
};

/// Test/bench client helper: one connection, seal/deliver/decode round
/// trips, optionally through a FaultyLink (frames that the link drops or
/// the server rejects simply yield no response — like the real wire).
class ServiceClient {
 public:
  ServiceClient(FrontDoor& door, const crypto::AesKey128& key);

  /// Sends the frame at sim time `now_ns`; returns the first decoded
  /// response, or nullopt when the wire ate it.
  std::optional<ResponseFrame> call(const RequestFrame& request,
                                    uint64_t now_ns,
                                    faults::FaultyLink* link = nullptr);

  uint64_t conn_id() const { return conn_id_; }

 private:
  FrontDoor& door_;
  hypervisor::SecureChannel channel_;
  uint64_t conn_id_ = 0;
};

}  // namespace hardtape::service
