// Error taxonomy for HarDTAPE.
//
// Two regimes, per CppCoreGuidelines I.10 / E.14:
//  - Programming and contract violations throw exceptions derived from
//    HardtapeError (misuse of an API, malformed inputs to library internals).
//  - Expected protocol-level failures — a MAC that fails to verify, a Merkle
//    proof that does not check out, an HEVM that ran out of gas — are values:
//    status enums carried in results, because callers must branch on them.
#pragma once

#include <stdexcept>
#include <string>

namespace hardtape {

/// Base class for all library exceptions.
class HardtapeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown on malformed serialized data (RLP, message frames, pages).
class DecodingError : public HardtapeError {
 public:
  using HardtapeError::HardtapeError;
};

/// Thrown when an API precondition is violated by the caller.
class UsageError : public HardtapeError {
 public:
  using HardtapeError::HardtapeError;
};

/// Thrown when data under the chip's own integrity protection fails to
/// verify (a sealed ORAM slot with a bad tag, a mapped block the server no
/// longer returns). Distinct from UsageError/DecodingError so fault-tolerant
/// layers can convert exactly these — and only these — into Status values
/// (the untrusted backend misbehaving is an expected outcome under the
/// paper's threat model, not a programming error).
class IntegrityError : public HardtapeError {
 public:
  using HardtapeError::HardtapeError;
};

/// Protocol-level status for operations whose failure is an expected outcome.
enum class Status {
  kOk,
  kAuthFailed,        ///< AEAD tag or ECDSA signature rejected
  kBadProof,          ///< Merkle proof inconsistent with the trusted root
  kNotFound,          ///< key absent (world state, ORAM page)
  kBusy,              ///< no idle HEVM available
  kMemoryOverflow,    ///< execution frame exceeded half of layer-2 memory (paper §IV-B)
  kStashOverflow,     ///< Path ORAM stash exceeded its on-chip bound
  kMalformedMessage,  ///< hypervisor rejected a message header
  kRejected,          ///< attestation or policy rejection
  kTimeout,           ///< untrusted backend gave no response within the request timeout
  kUnavailable,       ///< circuit breaker open: backend quarantined, request not attempted
  kRetryExhausted,    ///< bounded retries + backoff used up without a good response
  /// The chain outran this result: the bundle's pinned snapshot fell behind
  /// the head by more than the staleness budget (or its pinned root was
  /// orphaned by a reorg) and the bounded re-sync/re-execute attempts were
  /// used up. Like kUnavailable/kRetryExhausted this is a fail-closed
  /// refusal, not a wrong answer: the engine never reports traces produced
  /// against a state the canonical chain no longer contains.
  kStale,
  /// The front door shed this request at admission: the service is past its
  /// brownout watermarks (or this tenant's queue is full / its tenant class
  /// is being shed) and queueing it would only grow tail latency without
  /// bound. A fast, honest refusal — the client may retry elsewhere or
  /// later; nothing was executed and no device time was spent.
  kOverloaded,
  /// The request's queue-wait budget was already blown when the admission
  /// or dispatch decision was made (the frame arrived late, or the request
  /// aged out in its tenant queue before a device freed). Fail-closed
  /// refusal: a pre-execution answer delivered after the caller's deadline
  /// is worthless, so the service never spends a device on it.
  kDeadlineExceeded,
  /// The dedicated device executing (or queued to execute) this request died
  /// or was drained away, and no device could ever serve it again within its
  /// failover budget. Fail-closed: a dying device's sealed session state dies
  /// with it — recovery is re-bind + re-execute from the bundle, never a
  /// resume in the clear — so when the fleet cannot host another attempt the
  /// honest terminal answer is "your device is gone", not a stale result.
  kDeviceLost,
  // Sentinel — keep last. Lets tests iterate every value and prove that
  // to_string never silently degrades to "unknown" for a real status.
  kStatusCount_,
};

const char* to_string(Status s);

/// Carrier for an unrecoverable backend fault detected beneath a
/// value-returning interface (state::StateReader cannot return a Status).
/// Caught at the session boundary and converted to the carried Status —
/// it never escapes the pre-execution engine.
class BackendFault : public HardtapeError {
 public:
  explicit BackendFault(Status status)
      : HardtapeError(std::string("backend fault: ") + to_string(status)),
        status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

}  // namespace hardtape
