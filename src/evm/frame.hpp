// Internal header of the interpreter (interpreter.cpp): the per-call Frame,
// the gas constants not covered by the static opcode table, and the opcode
// bodies with dynamic gas or observable side effects. The bodies are inline
// Interpreter members so the dispatch switch can inline them.
//
// A frame's set-up costs what the frame uses, not what its code or the stack
// SRAM could hold: it borrows its depth's Stack from the Interpreter rather
// than allocating one, and it finds JUMPDESTs by a scan that runs only as far
// as the furthest jump the frame takes (the workload's contracts are padded
// to Table I sizes of several KB, while their jumps land in the first tens of
// bytes; DESIGN.md §14).
#pragma once

#include <algorithm>
#include <cstring>

#include "crypto/keccak.hpp"
#include "evm/interpreter.hpp"

namespace hardtape::evm {

// Gas constants not covered by the static opcode table.
constexpr uint64_t kGasTxBase = 21000;
constexpr uint64_t kGasTxDataZero = 4;
constexpr uint64_t kGasTxDataNonZero = 16;
constexpr uint64_t kGasTxCreate = 32000;
constexpr uint64_t kGasInitcodeWord = 2;       // EIP-3860
constexpr uint64_t kGasColdAccount = 2600;     // EIP-2929
constexpr uint64_t kGasWarmAccess = 100;
constexpr uint64_t kGasColdSload = 2100;
constexpr uint64_t kGasSstoreSet = 20000;      // EIP-2200
constexpr uint64_t kGasSstoreReset = 2900;     // 5000 - COLD_SLOAD_COST
constexpr uint64_t kGasSstoreClearsRefund = 4800;  // EIP-3529
constexpr uint64_t kGasSstoreSentry = 2300;
constexpr uint64_t kGasCallValue = 9000;
constexpr uint64_t kGasCallStipend = 2300;
constexpr uint64_t kGasNewAccount = 25000;
constexpr uint64_t kGasSelfdestructNewAccount = 25000;
constexpr uint64_t kGasCopyWord = 3;
constexpr uint64_t kGasKeccakWord = 6;
constexpr uint64_t kGasLogByte = 8;
constexpr uint64_t kGasLogTopic = 375;
constexpr uint64_t kGasExpByte = 50;
constexpr uint64_t kGasCodeDeposit = 200;      // per byte
constexpr uint64_t kMaxCodeSize = 24576;       // EIP-170
constexpr uint64_t kMaxInitcodeSize = 49152;   // EIP-3860
constexpr int kMaxCallDepth = 1024;

// Any memory reference beyond this is treated as out-of-gas without doing
// the quadratic-cost arithmetic (the cost would exceed any block gas limit).
constexpr uint64_t kMemoryHardCap = uint64_t{1} << 41;

inline uint64_t memory_gas(uint64_t words) {
  // kMemoryHardCap admits up to 2^36 words, but words*words wraps uint64 from
  // 2^32 words on — an unchecked product would charge ~0 gas for a petabyte
  // expansion. Saturate: any sane gas limit fails long before this.
  if (words >= (uint64_t{1} << 32)) return UINT64_MAX;
  const uint64_t quadratic = words * words / 512;
  const uint64_t linear = 3 * words;
  return quadratic > UINT64_MAX - linear ? UINT64_MAX : linear + quadratic;
}

// ---------------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------------

struct Interpreter::Frame {
  const Message& msg;
  BytesView code;
  Stack& stack;  // the Interpreter's stack for this call depth
  EvmMemory memory;
  uint64_t pc = 0;
  uint64_t gas = 0;
  Bytes return_data;  // output of the most recent sub-call
  Bytes output;       // RETURN / REVERT payload
  VmStatus status = VmStatus::kSuccess;
  bool halted = false;

  Frame(const Message& m, BytesView c, Stack& s) : msg(m), code(c), stack(s), gas(m.gas) {
    stack.clear();
  }

  /// True when `dest` is a JUMPDEST on an instruction boundary (not inside
  /// a PUSH immediate). Walks instruction boundaries from where the previous
  /// call stopped, and only up to `dest`.
  bool valid_jump(const u256& dest) {
    if (!dest.fits_u64() || dest.as_u64() >= code.size()) return false;
    const uint64_t d = dest.as_u64();
    if (code[d] != static_cast<uint8_t>(Opcode::JUMPDEST)) return false;
    if (scanned_ <= d) {
      if (jumpdests_.size() <= d / 64) jumpdests_.resize(d / 64 + 1, 0);
      do {
        const uint8_t op = code[scanned_];
        if (op == static_cast<uint8_t>(Opcode::JUMPDEST)) {
          jumpdests_[scanned_ / 64] |= uint64_t{1} << (scanned_ % 64);
        }
        scanned_ += is_push(op) ? 1 + push_size(op) : 1;
      } while (scanned_ <= d);
    }
    // The scan may have stepped over `dest` inside a PUSH immediate beyond
    // the words marked so far: such a `dest` is no boundary.
    return d / 64 < jumpdests_.size() && ((jumpdests_[d / 64] >> (d % 64)) & 1) != 0;
  }

  void fail(VmStatus s) {
    status = s;
    halted = true;
    if (s != VmStatus::kRevert) gas = 0;  // failures consume all gas
  }

  bool charge(uint64_t amount) {
    if (gas < amount) {
      fail(VmStatus::kOutOfGas);
      return false;
    }
    gas -= amount;
    return true;
  }

  /// Charges expansion so memory covers [offset, offset+len). Converts the
  /// 256-bit operands, failing with out-of-gas on absurd ranges.
  bool charge_memory(const u256& offset, const u256& len, uint64_t& off_out,
                     uint64_t& len_out) {
    if (len.is_zero()) {
      off_out = 0;
      len_out = 0;
      return true;
    }
    if (!offset.fits_u64() || !len.fits_u64()) {
      fail(VmStatus::kOutOfGas);
      return false;
    }
    off_out = offset.as_u64();
    len_out = len.as_u64();
    const uint64_t end = off_out + len_out;
    if (end < off_out || end > kMemoryHardCap) {
      fail(VmStatus::kOutOfGas);
      return false;
    }
    const uint64_t current_words = EvmMemory::word_count(memory.size());
    const uint64_t new_words = EvmMemory::word_count(end);
    if (new_words > current_words) {
      const uint64_t cost = memory_gas(new_words) - memory_gas(current_words);
      if (!charge(cost)) return false;
      memory.expand(off_out, len_out);
    }
    return true;
  }

 private:
  // Bit i set: byte i is a JUMPDEST on an instruction boundary. Complete for
  // [0, scanned_), the next boundary the scan has not yet looked at.
  std::vector<uint64_t> jumpdests_;
  uint64_t scanned_ = 0;
};

// ---------------------------------------------------------------------------
// Opcode bodies with dynamic gas, state access, or observer events. Each
// body runs AFTER dispatch_loop has charged the static gas of its opcode.
// ---------------------------------------------------------------------------

inline void Interpreter::op_exp(Frame& f) {
  const u256 base = f.stack.pop(), exponent = f.stack.pop();
  const uint64_t exp_bytes = (exponent.bit_length() + 7) / 8;
  if (!f.charge(kGasExpByte * exp_bytes)) return;
  f.stack.push(u256::exp(base, exponent));
}

inline void Interpreter::op_sha3(Frame& f) {
  const u256 offset = f.stack.pop(), len = f.stack.pop();
  uint64_t off64, len64;
  if (!f.charge_memory(offset, len, off64, len64)) return;
  if (!f.charge(kGasKeccakWord * EvmMemory::word_count(len64))) return;
  if (observer_) observer_->on_memory_access(MemoryLike::kMemory, off64, len64, false);
  f.stack.push(crypto::keccak256(f.memory.view(off64, len64)).to_u256());
}

inline void Interpreter::op_balance(Frame& f) {
  const Address addr = Address::from_u256(f.stack.pop());
  const bool cold = state_.access_account(addr);
  if (!f.charge(cold ? kGasColdAccount : kGasWarmAccess)) return;
  f.stack.push(state_.balance(addr));
}

inline void Interpreter::op_calldataload(Frame& f) {
  const u256 offset = f.stack.pop();
  uint8_t word[32] = {};
  if (offset.fits_u64()) {
    const uint64_t off = offset.as_u64();
    // Overflow-safe bounds: for offsets near 2^64, `off + i` wraps uint64 and
    // a `off + i < size` guard reads the *start* of calldata instead of
    // zero-padding past its end.
    if (off < f.msg.input.size()) {
      const size_t n = std::min<uint64_t>(32, f.msg.input.size() - off);
      std::memcpy(word, f.msg.input.data() + off, n);
    }
    if (observer_) observer_->on_memory_access(MemoryLike::kInput, off, 32, false);
  }
  f.stack.push(u256::from_be_bytes(word));
}

inline void Interpreter::op_calldatacopy(Frame& f) {
  const u256 dst = f.stack.pop(), src = f.stack.pop(), len = f.stack.pop();
  uint64_t dst64, len64;
  if (!f.charge_memory(dst, len, dst64, len64)) return;
  if (!f.charge(kGasCopyWord * EvmMemory::word_count(len64))) return;
  const uint64_t src64 = src.as_u64_saturating();
  f.memory.store_padded(dst64, f.msg.input, src64, len64);
  if (observer_ && len64 > 0) {
    observer_->on_memory_access(MemoryLike::kInput, src64, len64, false);
    observer_->on_memory_access(MemoryLike::kMemory, dst64, len64, true);
  }
}

inline void Interpreter::op_codecopy(Frame& f) {
  const u256 dst = f.stack.pop(), src = f.stack.pop(), len = f.stack.pop();
  uint64_t dst64, len64;
  if (!f.charge_memory(dst, len, dst64, len64)) return;
  if (!f.charge(kGasCopyWord * EvmMemory::word_count(len64))) return;
  const uint64_t src64 = src.as_u64_saturating();
  f.memory.store_padded(dst64, f.code, src64, len64);
  if (observer_ && len64 > 0) {
    observer_->on_memory_access(MemoryLike::kCode, src64, len64, false);
    observer_->on_memory_access(MemoryLike::kMemory, dst64, len64, true);
  }
}

inline void Interpreter::op_extcodesize(Frame& f) {
  const Address addr = Address::from_u256(f.stack.pop());
  const bool cold = state_.access_account(addr);
  if (!f.charge(cold ? kGasColdAccount : kGasWarmAccess)) return;
  f.stack.push(u256{state_.code(addr).size()});
}

inline void Interpreter::op_extcodecopy(Frame& f) {
  const Address addr = Address::from_u256(f.stack.pop());
  const u256 dst = f.stack.pop(), src = f.stack.pop(), len = f.stack.pop();
  const bool cold = state_.access_account(addr);
  if (!f.charge(cold ? kGasColdAccount : kGasWarmAccess)) return;
  uint64_t dst64, len64;
  if (!f.charge_memory(dst, len, dst64, len64)) return;
  if (!f.charge(kGasCopyWord * EvmMemory::word_count(len64))) return;
  const uint64_t src64 = src.as_u64_saturating();
  const Bytes ext_code = state_.code(addr);
  f.memory.store_padded(dst64, ext_code, src64, len64);
  if (observer_ && len64 > 0) {
    // Source-side read first, then the destination write — the same order
    // CODECOPY/CALLDATACOPY emit, so audit traces see the ext-code fetch.
    observer_->on_memory_access(MemoryLike::kCode, src64, len64, false);
    observer_->on_memory_access(MemoryLike::kMemory, dst64, len64, true);
  }
}

inline void Interpreter::op_returndatacopy(Frame& f) {
  const u256 dst = f.stack.pop(), src = f.stack.pop(), len = f.stack.pop();
  // Unlike other copies, out-of-range reads are a hard failure.
  if (!src.fits_u64() || !len.fits_u64() ||
      src.as_u64() + len.as_u64() < src.as_u64() ||
      src.as_u64() + len.as_u64() > f.return_data.size()) {
    f.fail(VmStatus::kOutOfGas);
    return;
  }
  uint64_t dst64, len64;
  if (!f.charge_memory(dst, len, dst64, len64)) return;
  if (!f.charge(kGasCopyWord * EvmMemory::word_count(len64))) return;
  f.memory.store_padded(dst64, f.return_data, src.as_u64(), len64);
  if (observer_ && len64 > 0) {
    observer_->on_memory_access(MemoryLike::kReturnData, src.as_u64(), len64, false);
    observer_->on_memory_access(MemoryLike::kMemory, dst64, len64, true);
  }
}

inline void Interpreter::op_extcodehash(Frame& f) {
  const Address addr = Address::from_u256(f.stack.pop());
  const bool cold = state_.access_account(addr);
  if (!f.charge(cold ? kGasColdAccount : kGasWarmAccess)) return;
  if (!state_.exists(addr)) {
    f.stack.push(u256{});
  } else {
    f.stack.push(state_.code_hash(addr).to_u256());
  }
}

inline void Interpreter::op_blockhash(Frame& f) {
  const u256 number = f.stack.pop();
  u256 hash{};
  if (number.fits_u64()) {
    const uint64_t n = number.as_u64();
    if (n < block_.number && block_.number - n <= 256) {
      if (block_.block_hash) {
        hash = block_.block_hash(n).to_u256();
      } else {
        hash = crypto::keccak256(u256{n}.to_be_bytes_vec()).to_u256();
      }
    }
  }
  f.stack.push(hash);
}

inline void Interpreter::op_mload(Frame& f) {
  const u256 offset = f.stack.pop();
  uint64_t off64, len64;
  if (!f.charge_memory(offset, u256{32}, off64, len64)) return;
  if (observer_) observer_->on_memory_access(MemoryLike::kMemory, off64, 32, false);
  f.stack.push(f.memory.load_word(off64));
}

inline void Interpreter::op_mstore(Frame& f) {
  const u256 offset = f.stack.pop(), value = f.stack.pop();
  uint64_t off64, len64;
  if (!f.charge_memory(offset, u256{32}, off64, len64)) return;
  f.memory.store_word(off64, value);
  if (observer_) observer_->on_memory_access(MemoryLike::kMemory, off64, 32, true);
}

inline void Interpreter::op_mstore8(Frame& f) {
  const u256 offset = f.stack.pop(), value = f.stack.pop();
  uint64_t off64, len64;
  if (!f.charge_memory(offset, u256{1}, off64, len64)) return;
  f.memory.store_byte(off64, static_cast<uint8_t>(value.as_u64() & 0xff));
  if (observer_) observer_->on_memory_access(MemoryLike::kMemory, off64, 1, true);
}

inline void Interpreter::op_sload(Frame& f) {
  const u256 key = f.stack.pop();
  const bool cold = state_.access_storage(f.msg.recipient, key);
  if (observer_) observer_->on_storage_access(f.msg.recipient, key, false, cold);
  if (!f.charge(cold ? kGasColdSload : kGasWarmAccess)) return;
  f.stack.push(state_.storage(f.msg.recipient, key));
}

inline void Interpreter::op_tload(Frame& f) {
  const u256 key = f.stack.pop();
  if (observer_) observer_->on_storage_access(f.msg.recipient, key, false, false);
  f.stack.push(state_.transient_storage(f.msg.recipient, key));
}

inline void Interpreter::op_tstore(Frame& f) {
  if (f.msg.is_static) {
    f.fail(VmStatus::kStaticModeViolation);
    return;
  }
  const u256 key = f.stack.pop(), value = f.stack.pop();
  if (observer_) observer_->on_storage_access(f.msg.recipient, key, true, false);
  state_.set_transient_storage(f.msg.recipient, key, value);
}

inline void Interpreter::op_mcopy(Frame& f) {
  const u256 dst = f.stack.pop(), src = f.stack.pop(), len = f.stack.pop();
  uint64_t dst64, len64, src64, len_src;
  if (!f.charge_memory(dst, len, dst64, len64)) return;
  if (!f.charge_memory(src, len, src64, len_src)) return;
  if (!f.charge(kGasCopyWord * EvmMemory::word_count(len64))) return;
  f.memory.copy_within(dst64, src64, len64);
  if (observer_ && len64 > 0) {
    observer_->on_memory_access(MemoryLike::kMemory, src64, len64, false);
    observer_->on_memory_access(MemoryLike::kMemory, dst64, len64, true);
  }
}

inline void Interpreter::op_log(Frame& f, size_t topic_count) {
  if (f.msg.is_static) {
    f.fail(VmStatus::kStaticModeViolation);
    return;
  }
  const u256 offset = f.stack.pop(), len = f.stack.pop();
  LogEntry log;
  log.address = f.msg.recipient;
  for (size_t i = 0; i < topic_count; ++i) log.topics.push_back(f.stack.pop());
  uint64_t off64, len64;
  if (!f.charge_memory(offset, len, off64, len64)) return;
  if (!f.charge(kGasLogTopic * topic_count + kGasLogByte * len64)) return;
  const BytesView payload = f.memory.view(off64, len64);
  log.data.assign(payload.begin(), payload.end());
  if (observer_ && len64 > 0) {
    observer_->on_memory_access(MemoryLike::kMemory, off64, len64, false);
  }
  logs_.push_back(std::move(log));
}

inline void Interpreter::op_return_revert(Frame& f, bool is_revert) {
  const u256 offset = f.stack.pop(), len = f.stack.pop();
  uint64_t off64, len64;
  if (!f.charge_memory(offset, len, off64, len64)) return;
  const BytesView payload = f.memory.view(off64, len64);
  f.output.assign(payload.begin(), payload.end());
  if (observer_ && len64 > 0) {
    observer_->on_memory_access(MemoryLike::kReturnData, 0, len64, true);
  }
  if (is_revert) {
    f.status = VmStatus::kRevert;
  }
  f.halted = true;
}

inline void Interpreter::op_selfdestruct(Frame& f) {
  if (f.msg.is_static) {
    f.fail(VmStatus::kStaticModeViolation);
    return;
  }
  const Address beneficiary = Address::from_u256(f.stack.pop());
  const bool cold = state_.access_account(beneficiary);
  uint64_t cost = cold ? kGasColdAccount : 0;
  if (!state_.exists(beneficiary) && !state_.balance(f.msg.recipient).is_zero()) {
    cost += kGasSelfdestructNewAccount;
  }
  if (!f.charge(cost)) return;
  state_.selfdestruct(f.msg.recipient, beneficiary);
  f.halted = true;
}

}  // namespace hardtape::evm
