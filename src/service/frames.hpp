// Service wire protocol: the front door's framed-request API (PR 7).
//
// Layering: a service frame is the *body* of a hypervisor::SecureMessage —
// the existing authenticated channel (ChaCha20-Poly1305 with the 32-byte
// header as AAD plus per-direction anti-replay sequence numbers) provides
// confidentiality, integrity and replay protection; this module only defines
// what the plaintext body says. The split mirrors the paper's A.E.DMA
// discipline: the Hypervisor parses the fixed header, the body goes straight
// to the service logic.
//
// Frame body encoding is RLP (the repo's one canonical serialization):
//
//   request  := [version, verb, session_id, tenant_id, request_id,
//                deadline_ns, client_time_ns, gas_estimate, bundle]
//   bundle   := [tx*]
//   tx       := [from, to_present, to, value, data, gas_limit, gas_price,
//                nonce_present, nonce]
//   response := [version, verb, session_id, request_id, status, done,
//                outcome_status, queue_wait_ns, exec_ns, gas_used]
//
// Fail-closed decode contract: decode() returns nullopt on ANY deviation —
// wrong version, unknown verb, wrong arity, oversized fields, trailing
// bytes. A malformed frame never partially parses; the front door answers
// kMalformedMessage and leaves the session state machine untouched. (The
// channel's receive sequence HAS advanced by then — the frame authenticated
// as genuinely the client's next message; it is the client's own garbage,
// not an attacker's, so rejecting it without killing the session is safe.
// Frames that fail authentication or replay never reach this layer and
// never advance channel state — hypervisor_test pins that.)
#pragma once

#include <optional>

#include "common/errors.hpp"
#include "evm/types.hpp"

namespace hardtape::service {

/// Protocol version carried in every frame. Bump on any wire change; the
/// front door rejects mismatches (kMalformedMessage) instead of guessing.
/// v2 (PR 9): request frames carry a gas_estimate field for cost-aware
/// brownout; fixed arity grew 8 -> 9.
inline constexpr uint8_t kServiceFrameVersion = 2;

/// The front door's four verbs (Fig. 3's user-facing slice of the flow).
enum class Verb : uint8_t {
  kOpenSession = 1,   ///< bind this channel to a tenant; allocates a session
  kSubmit = 2,        ///< enqueue one bundle for pre-execution
  kPoll = 3,          ///< fetch the outcome of an admitted request
  kCloseSession = 4,  ///< end the session; frees its state
};

const char* to_string(Verb verb);

/// Client -> front door. Field meaning depends on the verb (unused fields
/// encode as zero and are ignored, but must still be present — fixed arity
/// keeps the decoder strict).
struct RequestFrame {
  uint8_t version = kServiceFrameVersion;
  Verb verb = Verb::kSubmit;
  uint64_t session_id = 0;   ///< 0 for kOpenSession (none assigned yet)
  uint64_t tenant_id = 0;    ///< kOpenSession only: who is asking
  uint64_t request_id = 0;   ///< client-chosen correlation id (submit/poll)
  /// kSubmit: queue-wait budget in simulated ns (0 = no deadline). Measured
  /// from client_time_ns, so a frame the SP's link delayed can be dead on
  /// arrival — admission answers kDeadlineExceeded without queueing it.
  uint64_t deadline_ns = 0;
  /// Simulated send time at the client (the open-loop generator's arrival
  /// stamp). The front door trusts it only for deadline arithmetic — it is
  /// the client's own budget being spent.
  uint64_t client_time_ns = 0;
  /// kSubmit only: the client's estimate of the bundle's execution cost, in
  /// gas. Feeds cost-aware brownout shedding; 0 means "no hint" and the
  /// front door derives an estimate from the bundle's summed gas limits.
  /// Advisory for ADMISSION only — an understated hint buys a cheaper shed
  /// verdict but execution still charges real gas against real limits.
  uint64_t gas_estimate = 0;
  std::vector<evm::Transaction> bundle;  ///< kSubmit only

  Bytes encode() const;
  /// Strict parse (see the fail-closed contract above).
  static std::optional<RequestFrame> decode(BytesView body);
};

/// Front door -> client. `status` is the verb's own result (admission
/// verdict, poll validity); the `done`/`outcome_*` block is only meaningful
/// for kPoll replies with status kOk.
struct ResponseFrame {
  uint8_t version = kServiceFrameVersion;
  Verb verb = Verb::kSubmit;  ///< echoes the request's verb
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  Status status = Status::kOk;
  bool done = false;                    ///< poll: outcome is final
  Status outcome_status = Status::kOk;  ///< poll: the execution's status
  uint64_t queue_wait_ns = 0;           ///< poll: sim ns spent queued
  uint64_t exec_ns = 0;                 ///< poll: sim ns on the device
  uint64_t gas_used = 0;                ///< poll: total gas across the bundle

  Bytes encode() const;
  static std::optional<ResponseFrame> decode(BytesView body);
};

}  // namespace hardtape::service
