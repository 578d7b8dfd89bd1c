// The EVM interpreter — semantic core shared by every execution role.
//
// One interpreter for every execution role (DESIGN.md §6): the "Geth role"
// (software node baseline) and the HEVM (hardware pre-executor) both execute
// this interpreter; each attaches its one ExecutionObserver (its cost model,
// and for the HEVM the layer-2 pager). Trace equality between the two roles
// is the §VI-B correctness experiment.
//
// Supported ISA: the full Cancun-era opcode set (PUSH0, MCOPY, TLOAD/TSTORE,
// EIP-2929 warm/cold gas, EIP-2200/3529 SSTORE gas and refunds, EIP-150
// 63/64 forwarding, EIP-3860 initcode limits, EIP-6780 SELFDESTRUCT).
// Precompiles: ecrecover (0x1), sha256 (0x2), identity (0x4).
#pragma once

#include <memory>
#include <vector>

#include "evm/stack_memory.hpp"
#include "evm/trace.hpp"
#include "evm/types.hpp"
#include "state/overlay.hpp"

namespace hardtape::evm {

class Interpreter {
 public:
  Interpreter(state::OverlayState& state, BlockContext block)
      : state_(state), block_(std::move(block)) {}

  /// Attach the role's observer (cost model, pager, step capture). Not
  /// owned; may be null.
  void set_observer(ExecutionObserver* observer) { observer_ = observer; }

  /// Hard cap on one frame's Memory size in bytes; exceeding it aborts the
  /// bundle with kMemoryOverflow. Models the paper's rule that a frame
  /// reaching half of the 1 MB layer-2 memory is treated as an attack
  /// (Section IV-B). Zero disables the check (the Geth role).
  void set_frame_memory_limit(uint64_t bytes) { frame_memory_limit_ = bytes; }

  /// Executes a complete transaction against the overlay: nonce and balance
  /// checks, intrinsic gas, execution, refund and fee settlement. The result
  /// carries the logs of the frames that did not revert.
  TxResult execute_transaction(const Transaction& tx);

  /// Low-level message call (exposed for tests and precompile benches).
  struct Message {
    Address code_address{};  ///< account whose code runs
    Address recipient{};     ///< storage/balance context ("address" opcode)
    Address sender{};
    Address origin{};
    u256 value{};
    u256 gas_price{1};
    Bytes input{};
    uint64_t gas = 0;
    int depth = 0;
    bool is_static = false;
    // Creation:
    bool is_create = false;
    Bytes init_code{};
  };
  CallResult call(const Message& msg);

  /// Final state of the outermost frame, captured independently of observers
  /// (CallResult only exposes status/output/gas). Used by the observer fuzz
  /// to check that attaching an observer never changes stack or memory.
  struct FrameDebug {
    std::vector<u256> stack;  ///< bottom first
    Bytes memory;
    VmStatus status = VmStatus::kSuccess;
    uint64_t gas_left = 0;
  };
  /// When non-null, every frame exit overwrites *debug; after call() returns
  /// it holds the outermost frame (which exits last). Not owned; may be null.
  void set_frame_debug(FrameDebug* debug) { frame_debug_ = debug; }

  const BlockContext& block() const { return block_; }
  state::OverlayState& state() { return state_; }

 private:
  struct Frame;

  // A point to roll back to when a frame fails: the overlay's journal and
  // the log list, taken and reverted together so that a reverted frame's
  // logs vanish with its state changes (go-ethereum journals AddLog too).
  struct Checkpoint {
    state::OverlayState::Snapshot state;
    size_t logs;
  };
  Checkpoint checkpoint() const { return {state_.snapshot(), logs_.size()}; }
  void revert_to(const Checkpoint& checkpoint);

  CallResult run_frame(const Message& msg, BytesView code);
  /// The switch dispatch loop: executes f from its pc until the frame halts.
  void dispatch_loop(Frame& f);
  CallResult run_create(const Message& msg);
  CallResult run_precompile(const Message& msg);
  static bool is_precompile(const Address& addr);

  // Opcode group handlers returning false when the frame must terminate
  // (status recorded in the frame).
  void do_call_family(Frame& f, Opcode op);
  void do_create_family(Frame& f, Opcode op);
  void do_sstore(Frame& f);

  // Opcode bodies with dynamic gas, state access, or observer events
  // (defined inline in frame.hpp). Each runs after dispatch_loop has charged
  // its opcode's static gas.
  void op_exp(Frame& f);
  void op_sha3(Frame& f);
  void op_balance(Frame& f);
  void op_calldataload(Frame& f);
  void op_calldatacopy(Frame& f);
  void op_codecopy(Frame& f);
  void op_extcodesize(Frame& f);
  void op_extcodecopy(Frame& f);
  void op_returndatacopy(Frame& f);
  void op_extcodehash(Frame& f);
  void op_blockhash(Frame& f);
  void op_mload(Frame& f);
  void op_mstore(Frame& f);
  void op_mstore8(Frame& f);
  void op_sload(Frame& f);
  void op_tload(Frame& f);
  void op_tstore(Frame& f);
  void op_mcopy(Frame& f);
  void op_log(Frame& f, size_t topic_count);
  void op_return_revert(Frame& f, bool is_revert);
  void op_selfdestruct(Frame& f);

  state::OverlayState& state_;
  BlockContext block_;
  ExecutionObserver* observer_ = nullptr;
  FrameDebug* frame_debug_ = nullptr;
  uint64_t frame_memory_limit_ = 0;
  bool bundle_aborted_ = false;  // sticky kMemoryOverflow
  std::vector<LogEntry> logs_;   // this transaction's logs, up to the last revert
  // One operand stack per call depth (index = Message::depth), made on the
  // first frame at that depth and reused by every later one. A frame's
  // callees run one level deeper, so no two live frames share a stack.
  std::vector<std::unique_ptr<Stack>> stacks_;
};

}  // namespace hardtape::evm
