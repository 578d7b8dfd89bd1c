// HevmCore: one dedicated hardware EVM instance (paper Sections I, IV-B).
//
// "Dedicated" is the security design: each core owns an isolated layer-1/2
// memory set and is exclusively assigned to at most one user's bundle per
// session — no context switches, no shared-hardware side channels (threat
// A2). The core bundles the semantic interpreter with one observer
// (HevmObserver: the pipeline cycle model, the layer-2 pager, step capture
// and opcode tracing); release() models the hardware reset that clears all
// on-chip memories (Fig. 3 step 10).
//
// Host cost follows the work of each transaction, not the session's: a
// transaction's storage writes come from the overlay's record of the slots
// that transaction wrote (OverlayState::tx_storage_writes), and the
// interpreter reuses one stack per call depth across the session's frames
// (DESIGN.md §14).
#pragma once

#include <memory>
#include <optional>

#include "evm/interpreter.hpp"
#include "hevm/cycle_observer.hpp"
#include "sim/clock.hpp"

namespace hardtape::hevm {

/// Per-transaction trace returned to the user (Fig. 3 step 9: ReturnData,
/// gas cost, balances transferred, storage modifications). storage_writes
/// lists the slots whose value this transaction changed to something other
/// than the base state's, sorted by (address, key).
struct TxTraceReport {
  evm::VmStatus status = evm::VmStatus::kSuccess;
  Bytes return_data;
  uint64_t gas_used = 0;
  Address create_address{};
  std::vector<state::OverlayState::StorageWrite> storage_writes;
  std::vector<evm::LogEntry> logs;  ///< of the frames that did not revert
  std::vector<evm::Step> steps;     ///< populated when record_steps
  uint64_t sim_time_ns = 0;         ///< HEVM time for this tx
  friend bool operator==(const TxTraceReport&, const TxTraceReport&) = default;
};

struct BundleReport {
  std::vector<TxTraceReport> transactions;
  std::vector<std::pair<Address, u256>> final_balances;  ///< net changes
  uint64_t sim_time_ns = 0;
  uint64_t instructions = 0;
  memlayer::MemLayerStats memory_stats;
  std::vector<memlayer::SwapEvent> swap_events;
  bool aborted = false;  ///< Memory Overflow Error ended the bundle early
  friend bool operator==(const BundleReport&, const BundleReport&) = default;
};

class HevmCore {
 public:
  struct Config {
    memlayer::MemLayerConfig l2{};
    bool record_steps = false;  ///< step-level traces (§VI-B comparisons)
    /// Optional obs tracing: per-opcode retire events from this core, plus
    /// the layer-2 pager's swap events (the ring is threaded into the
    /// MemLayerConfig at assign()). Null = tracing off, zero overhead.
    obs::TraceRing* trace = nullptr;
  };

  HevmCore(int core_id, sim::SimClock& clock, Config config)
      : core_id_(core_id), clock_(clock), config_(config) {}
  HevmCore(int core_id, sim::SimClock& clock)
      : HevmCore(core_id, clock, Config{}) {}

  int core_id() const { return core_id_; }
  bool busy() const { return session_.has_value(); }

  /// Exclusively assigns this core to a user session. The session key seals
  /// layer-3 pages. Throws UsageError when the core is busy (the Hypervisor
  /// must queue instead — Fig. 3 step 3).
  void assign(const state::StateReader& base, evm::BlockContext block,
              const crypto::AesKey128& session_key, uint64_t noise_seed);

  /// Runs a bundle start-to-finish. The core stalls on every off-chip
  /// interaction (no context switch), so the returned sim time is the full
  /// occupancy of the core.
  BundleReport execute_bundle(const std::vector<evm::Transaction>& txs);

  /// Resets the core to idle and clears all on-chip state (step 10).
  void release();

  /// The overlay of the active session (for inspecting pre-execution
  /// results in tests; never persisted).
  state::OverlayState& overlay();

 private:
  struct Session {
    std::unique_ptr<state::OverlayState> overlay;
    std::unique_ptr<evm::Interpreter> interpreter;
    std::unique_ptr<HevmObserver> observer;
  };

  int core_id_;
  sim::SimClock& clock_;
  Config config_;
  std::optional<Session> session_;
};

}  // namespace hardtape::hevm
