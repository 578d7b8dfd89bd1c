#include "faults/faulty_oram.hpp"

namespace hardtape::faults {

oram::AccessAttempt FaultyOram::try_read(const oram::BlockId& id) {
  const FaultDecision decision = plan_.decide(FaultSite::kOramRead, stream_, reads_++);
  switch (decision.kind) {
    case FaultKind::kDrop:
      return oram::AccessAttempt{Status::kTimeout, std::nullopt, 0};
    case FaultKind::kTamper:
      return oram::AccessAttempt{Status::kAuthFailed, std::nullopt, 0};
    case FaultKind::kDelay: {
      oram::AccessAttempt attempt = backend_.try_read(id);
      attempt.sim_delay_ns += decision.delay_ns;
      return attempt;
    }
    default:
      return backend_.try_read(id);
  }
}

}  // namespace hardtape::faults
