// FaultyOram: the malicious SP's ORAM server + link, as an OramAccessor.
//
// Sits between the session's state reader (service::RoutedStateReader, the
// recovery layer) and the real store.
// For every access inside a FaultScope it consults the FaultPlan:
//  - kDrop:   the response never comes back — surfaced as kTimeout, and the
//             backend is NOT touched (the request is modeled as lost in
//             flight, so a later retry still finds consistent state);
//  - kDelay:  the real access happens, but the response carries extra
//             simulated latency. If that exceeds the reader's request
//             timeout, the reader treats it as a drop and retries;
//  - kTamper: the response arrives with a broken authentication tag —
//             surfaced as kAuthFailed without touching the backend (what
//             the OramClient would report after a failed open_slot).
// Outside a FaultScope (ORAM install, attestation, tests' direct access)
// every call passes straight through.
#pragma once

#include "faults/fault_plan.hpp"
#include "oram/path_oram.hpp"

namespace hardtape::faults {

class FaultyOram : public oram::OramAccessor {
 public:
  FaultyOram(oram::OramAccessor& backend, FaultPlan& plan)
      : backend_(backend), plan_(plan) {}

  oram::AccessAttempt try_read(const oram::BlockId& id) override;
  oram::AccessAttempt try_write(const oram::BlockId& id, BytesView data) override;

 private:
  oram::OramAccessor& backend_;
  FaultPlan& plan_;
};

}  // namespace hardtape::faults
