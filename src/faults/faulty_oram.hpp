// FaultyOram: the malicious SP's ORAM server + link, as an OramAccessor.
//
// Sits between one session attempt's state reader (service::RoutedStateReader,
// the recovery layer) and the real store. The engine builds one per session
// attempt, keyed by that attempt's fault stream, and the wrapper numbers the
// attempt's reads itself: read n is decided by the FaultPlan at
// (kOramRead, stream, n), so a session's faults depend on nothing but its own
// request sequence. For every read it consults the plan:
//  - kDrop:   the response never comes back — surfaced as kTimeout, and the
//             backend is NOT touched (the request is modeled as lost in
//             flight, so a later retry still finds consistent state);
//  - kDelay:  the real access happens, but the response carries extra
//             simulated latency. If that exceeds the reader's request
//             timeout, the reader treats it as a drop and retries;
//  - kTamper: the response arrives with a broken authentication tag —
//             surfaced as kAuthFailed without touching the backend (what
//             the OramClient would report after a failed open_slot).
// Writes pass straight through: a session only reads, and the install and
// sync passes write to the store directly, never through a FaultyOram.
#pragma once

#include "faults/fault_plan.hpp"
#include "oram/path_oram.hpp"

namespace hardtape::faults {

class FaultyOram : public oram::OramAccessor {
 public:
  FaultyOram(oram::OramAccessor& backend, FaultPlan& plan, uint64_t stream)
      : backend_(backend), plan_(plan), stream_(stream) {}

  oram::AccessAttempt try_read(const oram::BlockId& id) override;
  oram::AccessAttempt try_write(const oram::BlockId& id, BytesView data) override {
    return backend_.try_write(id, data);
  }

 private:
  oram::OramAccessor& backend_;
  FaultPlan& plan_;
  uint64_t stream_;
  uint64_t reads_ = 0;  ///< op index of the next read in this stream
};

}  // namespace hardtape::faults
