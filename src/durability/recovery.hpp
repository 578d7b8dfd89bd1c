// Crash recovery: newest valid checkpoint + fail-closed journal replay.
//
// replay() rebuilds the durable StoreImage a restarted chip would trust:
//
//   1. load the newest checkpoint that parses and checksums (or start from
//      an empty image at generation 0);
//   2. replay journal generations wal-g, wal-(g+1), ... in order, each
//      anchored on the sequence number the previous artifact ended at. The
//      first torn record, checksum failure, sequence break, or semantic
//      violation truncates replay THERE — and because sequence numbers chain
//      across generations, nothing after a truncation is trusted either;
//   3. abort any epoch still open at the end (its staged pages are
//      dropped), preserving the paper's safety invariant
//      `max page epoch <= committed store epoch`.
//
// What recovery deliberately does NOT do: talk to the node. Replay is a pure
// function of the disk image, so it is unit-testable against every crash the
// SimFs can produce; the (possibly stale) recovered root is then brought to
// head by the existing delta-sync path at warm-restart time.
#pragma once

#include <cstdint>
#include <string>

#include "durability/checkpoint.hpp"
#include "durability/vfs.hpp"

namespace hardtape::durability {

struct RecoveryStats {
  uint64_t checkpoint_generation = 0;
  bool used_checkpoint = false;
  uint64_t journals_replayed = 0;
  uint64_t records_replayed = 0;
  uint64_t bytes_truncated = 0;
  std::string stop_reason;   ///< empty = clean end of the journal chain
  uint64_t epochs_aborted = 0;  ///< uncommitted epochs dropped (incl. open tail)
  /// Generation the restarted store should write next (newest seen + 1), so
  /// a crash during post-recovery operation never overwrites evidence.
  uint64_t next_generation = 0;
};

struct RecoveredState {
  StoreImage image;
  RecoveryStats stats;
};

namespace Recovery {

RecoveredState replay(const SimFs& fs);

}  // namespace Recovery

}  // namespace hardtape::durability
