#include "faults/crash_plan.hpp"

#include "common/random.hpp"
#include "faults/fault_plan.hpp"

namespace hardtape::faults {

namespace {

durability::CrashConfig base_config(Random& rng) {
  durability::CrashConfig out;
  out.resolve_seed = rng.uniform(~0ull - 1) + 1;  // never 0 (disarm sentinel-adjacent)
  return out;
}

}  // namespace

durability::CrashConfig CrashPlan::spec(uint64_t trial, uint32_t attempt,
                                        uint64_t total_ops) const {
  Random rng(seed_ ^ fault_stream(trial, attempt));
  durability::CrashConfig out = base_config(rng);
  out.crash_at_op = total_ops == 0 ? 1 : 1 + rng.uniform(total_ops);
  return out;
}

durability::CrashConfig CrashPlan::spec_at(uint64_t trial, uint32_t attempt,
                                           uint64_t crash_at_op) const {
  Random rng(seed_ ^ fault_stream(trial, attempt));
  durability::CrashConfig out = base_config(rng);
  out.crash_at_op = crash_at_op;
  return out;
}

}  // namespace hardtape::faults
