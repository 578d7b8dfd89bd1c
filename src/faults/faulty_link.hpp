// FaultyLink: the SP-controlled Ethernet between a user and the Hypervisor.
//
// Frames (hypervisor::SecureMessage) pass through the FaultPlan one at a
// time; the link may drop a frame, tamper its ciphertext, deliver it twice,
// or swap it with its successor. transmit() returns the frames that actually
// come out of the wire, in delivery order — the receiver's SecureChannel
// then demonstrates the paper's fail-closed properties: a tampered frame is
// kAuthFailed (and must NOT advance the receive sequence), a duplicate or
// reordered frame is kRejected by the anti-replay sequence check.
#pragma once

#include <optional>
#include <vector>

#include "faults/fault_plan.hpp"
#include "hypervisor/channel.hpp"

namespace hardtape::faults {

class FaultyLink {
 public:
  FaultyLink(FaultPlan& plan, uint64_t stream) : plan_(plan), stream_(stream) {}

  /// Feeds one frame into the link; returns what the receiver actually gets
  /// (possibly nothing — a drop, or a frame held back for reordering).
  std::vector<hypervisor::SecureMessage> transmit(hypervisor::SecureMessage frame);

  /// Frames still buffered inside the link (a held reordered frame). Call
  /// after the last transmit to model the link going quiet.
  std::vector<hypervisor::SecureMessage> flush();

 private:
  FaultPlan& plan_;
  uint64_t stream_;
  uint64_t op_ = 0;
  std::optional<hypervisor::SecureMessage> held_;  ///< reorder buffer
};

}  // namespace hardtape::faults
