// Seeded crash-point planning: power loss under the fault_stream discipline.
//
// A crash trial is identified by (plan seed, trial index, attempt), and the
// whole crash — which filesystem operation dies, and how the unsynced bytes
// resolve — is a pure function of that identity, via the same
// fault_stream() mix the transient-fault layer uses. Re-running trial 17
// therefore reproduces the same torn journal byte-for-byte, which is what
// makes a failing crash-sweep entry a unit test instead of an anecdote.
// How the unsynced bytes may resolve (survival odds, torn tails, reordered
// write-back) is durability::CrashConfig's defaults; only the crash point
// and the resolution seed are drawn.
#pragma once

#include <cstdint>

#include "durability/vfs.hpp"

namespace hardtape::faults {

class CrashPlan {
 public:
  explicit CrashPlan(uint64_t seed) : seed_(seed) {}

  /// A CrashConfig aimed at a uniformly chosen op in [1, total_ops],
  /// deterministic in (seed, trial, attempt). `attempt` distinguishes
  /// repeated drills of the same trial, mirroring the engine's retry
  /// numbering.
  durability::CrashConfig spec(uint64_t trial, uint32_t attempt,
                               uint64_t total_ops) const;

  /// A CrashConfig pinned at a specific, already-chosen op (the targeted
  /// crash points: journal tail, checkpoint tmp write, epoch commit). Only
  /// the resolution seed is drawn from the stream.
  durability::CrashConfig spec_at(uint64_t trial, uint32_t attempt,
                                  uint64_t crash_at_op) const;

 private:
  uint64_t seed_;
};

}  // namespace hardtape::faults
