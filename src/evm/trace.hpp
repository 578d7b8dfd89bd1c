// Execution tracing (paper Fig. 3 step 9 and Section VI-B).
//
// The interpreter reports what it executes through one ExecutionObserver.
// Each execution role attaches exactly one: the HEVM core its pipeline cycle
// model over the layer-2 pager (hevm::HevmObserver), the software roles
// their per-op cost model (hevm::SoftwareCycleObserver), and the Table I
// bench the frame-statistics collector below. The roles that compare traces
// record the step-level trace (PC, opcode, gas, depth, stack size) checked
// against the ground-truth node for the correctness experiment (§VI-B), the
// equivalent of quicknode's debug_traceTransaction. Logs are not an event:
// they come back in TxResult, rolled back with the frames that revert.
#pragma once

#include "common/u256.hpp"
#include "evm/opcodes.hpp"
#include "evm/types.hpp"

namespace hardtape::evm {

/// Which memory-like structure an access touches (paper Table I columns).
enum class MemoryLike : uint8_t { kCode, kInput, kMemory, kReturnData };
const char* to_string(MemoryLike m);

/// One instruction about to execute: the on_step event and the step-level
/// trace record compared against ground truth in §VI-B.
struct Step {
  uint64_t pc = 0;
  uint8_t opcode = 0;
  uint64_t gas_left = 0;
  int depth = 0;
  size_t stack_size = 0;
  friend bool operator==(const Step&, const Step&) = default;
};

/// Observer of interpreter events. All callbacks default to no-ops; override
/// what you need. One observer instance per bundle (never shared across
/// HEVMs — dedicated hardware, paper Section IV-B).
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  virtual void on_step(const Step&) {}

  /// Byte-range access to one of the memory-likes of the current frame.
  virtual void on_memory_access(MemoryLike, uint64_t /*offset*/, uint64_t /*size*/,
                                bool /*is_write*/) {}

  /// SLOAD/SSTORE-level storage access. `cold` per EIP-2929 warm/cold.
  virtual void on_storage_access(const Address&, const u256& /*key*/,
                                 bool /*is_write*/, bool /*cold*/) {}

  /// Code body fetched to start executing an account.
  virtual void on_code_load(const Address&, size_t /*code_size*/) {}

  struct FrameInfo {
    uint64_t input_size = 0;
    int depth = 0;
  };
  virtual void on_frame_enter(const FrameInfo&) {}

  struct FrameExitInfo {
    uint64_t output_size = 0;
    uint64_t memory_size = 0;  ///< high-water Memory size of the frame
  };
  virtual void on_frame_exit(const FrameExitInfo&) {}
};

/// Frame-statistics collector backing the Table I reproduction: memory-like
/// sizes per frame, storage slots touched per frame, call depth per tx.
class FrameStatsCollector : public ExecutionObserver {
 public:
  struct FrameStats {
    uint64_t code_size = 0;
    uint64_t input_size = 0;
    uint64_t memory_size = 0;   // high-water MSIZE
    uint64_t return_size = 0;
    uint64_t storage_slots = 0; // distinct slots accessed
    int depth = 0;
  };

  void on_frame_enter(const FrameInfo& f) override;
  void on_frame_exit(const FrameExitInfo& f) override;
  void on_code_load(const Address& a, size_t n) override;
  void on_storage_access(const Address& a, const u256& k, bool w, bool c) override;
  void on_memory_access(MemoryLike m, uint64_t off, uint64_t size, bool w) override;

  /// Completed frames, in exit order.
  const std::vector<FrameStats>& frames() const { return finished_; }
  /// Max call depth seen since the last clear() (one tx by convention).
  int max_depth() const { return max_depth_; }
  void clear();

 private:
  struct LiveFrame {
    FrameStats stats;
    std::vector<u256> touched_slots;
  };
  std::vector<LiveFrame> stack_;
  std::vector<FrameStats> finished_;
  int max_depth_ = 0;
  uint64_t pending_code_size_ = 0;
};

}  // namespace hardtape::evm
