#include "evm/interpreter.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "crypto/keccak.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "evm/frame.hpp"
#include "trie/rlp.hpp"

namespace hardtape::evm {

namespace {

Address create_address(const Address& sender, uint64_t nonce) {
  using namespace trie;
  const Bytes rlp = rlp_encode_list(
      {rlp_encode_bytes(sender.view()), rlp_encode_u256(u256{nonce})});
  const H256 h = crypto::keccak256(rlp);
  Address out;
  std::memcpy(out.bytes.data(), h.bytes.data() + 12, 20);
  return out;
}

Address create2_address(const Address& sender, const u256& salt, BytesView init_code) {
  Bytes preimage;
  preimage.reserve(1 + 20 + 32 + 32);
  preimage.push_back(0xff);
  append(preimage, sender.view());
  append(preimage, salt.to_be_bytes_vec());
  append(preimage, crypto::keccak256(init_code).view());
  const H256 h = crypto::keccak256(preimage);
  Address out;
  std::memcpy(out.bytes.data(), h.bytes.data() + 12, 20);
  return out;
}

}  // namespace

const char* to_string(VmStatus s) {
  switch (s) {
    case VmStatus::kSuccess: return "success";
    case VmStatus::kRevert: return "revert";
    case VmStatus::kOutOfGas: return "out-of-gas";
    case VmStatus::kInvalidInstruction: return "invalid-instruction";
    case VmStatus::kUndefinedInstruction: return "undefined-instruction";
    case VmStatus::kStackUnderflow: return "stack-underflow";
    case VmStatus::kStackOverflow: return "stack-overflow";
    case VmStatus::kBadJumpDestination: return "bad-jump-destination";
    case VmStatus::kStaticModeViolation: return "static-mode-violation";
    case VmStatus::kCallDepthExceeded: return "call-depth-exceeded";
    case VmStatus::kInsufficientBalance: return "insufficient-balance";
    case VmStatus::kNonceMismatch: return "nonce-mismatch";
    case VmStatus::kCreateCollision: return "create-collision";
    case VmStatus::kMemoryOverflow: return "memory-overflow";
  }
  return "unknown";
}

const char* to_string(MemoryLike m) {
  switch (m) {
    case MemoryLike::kCode: return "code";
    case MemoryLike::kInput: return "input";
    case MemoryLike::kMemory: return "memory";
    case MemoryLike::kReturnData: return "return";
  }
  return "unknown";
}

uint64_t Transaction::intrinsic_gas() const {
  uint64_t gas = kGasTxBase;
  for (uint8_t b : data) gas += b == 0 ? kGasTxDataZero : kGasTxDataNonZero;
  if (!to.has_value()) {
    gas += kGasTxCreate;
    gas += kGasInitcodeWord * EvmMemory::word_count(data.size());
  }
  return gas;
}

// ---------------------------------------------------------------------------
// Precompiles
// ---------------------------------------------------------------------------

bool Interpreter::is_precompile(const Address& addr) {
  for (size_t i = 0; i < 19; ++i) {
    if (addr.bytes[i] != 0) return false;
  }
  const uint8_t id = addr.bytes[19];
  return id == 0x01 || id == 0x02 || id == 0x04 || id == 0x05;
}

CallResult Interpreter::run_precompile(const Message& msg) {
  const uint8_t id = msg.code_address.bytes[19];
  const uint64_t words = EvmMemory::word_count(msg.input.size());
  CallResult result;
  result.gas_left = msg.gas;

  auto charge = [&](uint64_t cost) {
    if (result.gas_left < cost) {
      result.status = VmStatus::kOutOfGas;
      result.gas_left = 0;
      return false;
    }
    result.gas_left -= cost;
    return true;
  };

  switch (id) {
    case 0x01: {  // ecrecover(hash, v, r, s) -> address
      if (!charge(3000)) return result;
      const Bytes input = right_pad(msg.input, 128);
      const H256 hash = H256::from(BytesView{input.data(), 32});
      const u256 v = u256::from_be_bytes(BytesView{input.data() + 32, 32});
      crypto::Signature sig;
      sig.r = u256::from_be_bytes(BytesView{input.data() + 64, 32});
      sig.s = u256::from_be_bytes(BytesView{input.data() + 96, 32});
      if (v != u256{27} && v != u256{28}) return result;  // empty output
      sig.recovery_id = static_cast<uint8_t>(v.as_u64() - 27);
      const auto pubkey = crypto::ecdsa_recover(hash, sig);
      if (!pubkey) return result;
      const Address addr = crypto::pubkey_to_address(*pubkey);
      result.output = right_pad(BytesView{}, 32);
      std::memcpy(result.output.data() + 12, addr.bytes.data(), 20);
      return result;
    }
    case 0x02: {  // sha256
      if (!charge(60 + 12 * words)) return result;
      const H256 h = crypto::sha256(msg.input);
      result.output.assign(h.bytes.begin(), h.bytes.end());
      return result;
    }
    case 0x04: {  // identity
      if (!charge(15 + 3 * words)) return result;
      result.output = msg.input;
      return result;
    }
    case 0x05: {  // modexp (EIP-198/2565), operands bounded to 32 bytes
      const Bytes header = right_pad(msg.input, 96);
      const u256 base_len = u256::from_be_bytes(BytesView{header.data(), 32});
      const u256 exp_len = u256::from_be_bytes(BytesView{header.data() + 32, 32});
      const u256 mod_len = u256::from_be_bytes(BytesView{header.data() + 64, 32});
      if (base_len > u256{32} || exp_len > u256{32} || mod_len > u256{32}) {
        // Arbitrary-precision inputs are out of this implementation's scope
        // (EVM words are the paper's workload); fail like an OOG precompile.
        result.status = VmStatus::kOutOfGas;
        result.gas_left = 0;
        return result;
      }
      const size_t bl = base_len.as_u64(), el = exp_len.as_u64(), ml = mod_len.as_u64();
      const Bytes body = right_pad(msg.input.size() > 96
                                       ? BytesView{msg.input.data() + 96,
                                                   msg.input.size() - 96}
                                       : BytesView{},
                                   bl + el + ml);
      const u256 base = u256::from_be_bytes(BytesView{body.data(), bl});
      const u256 exponent = u256::from_be_bytes(BytesView{body.data() + bl, el});
      const u256 modulus = u256::from_be_bytes(BytesView{body.data() + bl + el, ml});
      // Simplified EIP-2565 pricing for word-sized operands.
      if (!charge(std::max<uint64_t>(200, 16 * std::max<uint64_t>(1, exponent.bit_length())))) {
        return result;
      }
      u256 acc{};
      if (!modulus.is_zero()) {
        acc = u256{1} % modulus;
        u256 b = base % modulus;
        const unsigned bits = exponent.bit_length();
        for (unsigned i = 0; i < bits; ++i) {
          if (exponent.bit(i)) acc = u256::mulmod(acc, b, modulus);
          b = u256::mulmod(b, b, modulus);
        }
      }
      const auto be = acc.to_be_bytes();
      result.output.assign(be.end() - static_cast<long>(ml), be.end());
      return result;
    }
    default:
      throw UsageError("not a precompile");
  }
}

// ---------------------------------------------------------------------------
// Message call entry
// ---------------------------------------------------------------------------

CallResult Interpreter::call(const Message& msg) {
  if (msg.depth > kMaxCallDepth) {
    return {VmStatus::kCallDepthExceeded, {}, 0, {}};
  }
  if (msg.is_create) return run_create(msg);

  const auto snapshot = state_.snapshot();
  if (!msg.value.is_zero()) {
    if (!state_.sub_balance(msg.sender, msg.value)) {
      return {VmStatus::kInsufficientBalance, {}, 0, {}};
    }
    state_.add_balance(msg.recipient, msg.value);
  }

  CallResult result;
  if (is_precompile(msg.code_address)) {
    result = run_precompile(msg);
  } else {
    const Bytes code = state_.code(msg.code_address);
    if (observer_) observer_->on_code_load(msg.code_address, code.size());
    if (code.empty()) {
      result = {VmStatus::kSuccess, {}, msg.gas, {}};
    } else {
      result = run_frame(msg, code);
    }
  }

  if (!is_success(result.status)) state_.revert_to(snapshot);
  return result;
}

CallResult Interpreter::run_create(const Message& msg) {
  const uint64_t sender_nonce = state_.nonce(msg.sender);
  // CREATE derives the address from (sender, nonce); CREATE2 pre-computes it
  // from the salt and passes it in via msg.recipient.
  const Address new_address = msg.recipient.is_zero()
                                  ? create_address(msg.sender, sender_nonce)
                                  : msg.recipient;
  state_.set_nonce(msg.sender, sender_nonce + 1);
  state_.access_account(new_address);

  // Collision: existing nonce or code at the target address.
  if (state_.nonce(new_address) != 0 || !state_.code(new_address).empty()) {
    return {VmStatus::kCreateCollision, {}, 0, {}};
  }

  const auto snapshot = state_.snapshot();
  state_.mark_created(new_address);
  state_.set_nonce(new_address, 1);
  if (!msg.value.is_zero()) {
    if (!state_.sub_balance(msg.sender, msg.value)) {
      state_.revert_to(snapshot);
      return {VmStatus::kInsufficientBalance, {}, 0, {}};
    }
    state_.add_balance(new_address, msg.value);
  }

  Message init_msg = msg;
  init_msg.code_address = new_address;
  init_msg.recipient = new_address;
  init_msg.input.clear();
  if (observer_) observer_->on_code_load(new_address, msg.init_code.size());
  CallResult result = run_frame(init_msg, msg.init_code);

  if (is_success(result.status)) {
    const uint64_t deposit = kGasCodeDeposit * result.output.size();
    if (result.output.size() > kMaxCodeSize ||
        (!result.output.empty() && result.output[0] == 0xEF) ||
        result.gas_left < deposit) {
      result = {VmStatus::kOutOfGas, {}, 0, {}};
      state_.revert_to(snapshot);
      return result;
    }
    result.gas_left -= deposit;
    state_.set_code(new_address, result.output);
    result.output.clear();
    result.create_address = new_address;
  } else {
    state_.revert_to(snapshot);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Transaction entry
// ---------------------------------------------------------------------------

TxResult Interpreter::execute_transaction(const Transaction& tx) {
  state_.begin_transaction();
  bundle_aborted_ = false;

  TxResult result;
  const uint64_t intrinsic = tx.intrinsic_gas();
  if (tx.gas_limit < intrinsic) {
    result.status = VmStatus::kOutOfGas;
    result.gas_used = tx.gas_limit;
    return result;
  }
  if (tx.nonce.has_value() && *tx.nonce != state_.nonce(tx.from)) {
    result.status = VmStatus::kNonceMismatch;
    return result;
  }
  const u256 upfront = u256{tx.gas_limit} * tx.gas_price;
  if (state_.balance(tx.from) < upfront + tx.value) {
    result.status = VmStatus::kInsufficientBalance;
    return result;
  }
  [[maybe_unused]] const bool ok = state_.sub_balance(tx.from, upfront);

  // Pre-warm per EIP-2929/3651: sender, target and coinbase.
  state_.access_account(tx.from);
  state_.access_account(block_.coinbase);
  if (tx.to) state_.access_account(*tx.to);

  Message msg;
  msg.sender = tx.from;
  msg.origin = tx.from;
  msg.value = tx.value;
  msg.gas_price = tx.gas_price;
  msg.gas = tx.gas_limit - intrinsic;
  msg.depth = 1;
  if (tx.to) {
    state_.set_nonce(tx.from, state_.nonce(tx.from) + 1);
    msg.code_address = *tx.to;
    msg.recipient = *tx.to;
    msg.input = tx.data;
  } else {
    msg.is_create = true;
    msg.init_code = tx.data;
  }

  const CallResult call_result = call(msg);
  result.status = call_result.status;
  result.output = call_result.output;
  result.create_address = call_result.create_address;

  const uint64_t used_before_refund = tx.gas_limit - call_result.gas_left;
  const uint64_t refund =
      is_success(call_result.status)
          ? std::min(state_.refund(), used_before_refund / 5)  // EIP-3529
          : 0;
  result.gas_refunded = refund;
  result.gas_used = used_before_refund - refund;

  state_.add_balance(tx.from, u256{tx.gas_limit - result.gas_used} * tx.gas_price);
  state_.add_balance(block_.coinbase, u256{result.gas_used} * tx.gas_price);
  return result;
}

// ---------------------------------------------------------------------------
// The dispatch loop
// ---------------------------------------------------------------------------

CallResult Interpreter::run_frame(const Message& msg, BytesView code) {
  // call() caps the depth at kMaxCallDepth, so at most 1,025 stacks exist.
  if (msg.depth < 0) throw UsageError("evm: negative call depth");
  const auto depth = static_cast<size_t>(msg.depth);
  if (stacks_.size() <= depth) stacks_.resize(depth + 1);
  if (!stacks_[depth]) stacks_[depth] = std::make_unique<Stack>();
  Frame f(msg, code, *stacks_[depth]);

  if (observer_) {
    observer_->on_frame_enter({msg.code_address, msg.recipient, msg.value,
                               msg.input.size(), msg.gas, msg.depth,
                               msg.is_create, msg.is_static});
  }

  dispatch_loop(f);

  if (observer_) {
    observer_->on_frame_exit({f.status, msg.gas - f.gas, f.output.size(),
                              f.memory.size(), msg.depth});
  }
  if (frame_debug_) {
    frame_debug_->stack = f.stack.items();
    const BytesView mem = f.memory.view(0, f.memory.size());
    frame_debug_->memory.assign(mem.begin(), mem.end());
    frame_debug_->status = f.status;
    frame_debug_->gas_left = f.gas;
  }
  return {f.status, std::move(f.output), f.gas, {}};
}

void Interpreter::dispatch_loop(Frame& f) {
  const Message& msg = f.msg;
  while (!f.halted) {
    if (f.pc >= f.code.size()) {
      f.halted = true;  // running off the end == STOP
      break;
    }
    const uint8_t op_byte = f.code[f.pc];
    const OpInfo& info = opcode_info(op_byte);

    if (observer_) {
      observer_->on_step({f.pc, op_byte, f.gas, msg.depth, f.stack.size(),
                          f.stack.empty() ? u256{} : f.stack.peek()});
    }

    if (!info.defined) {
      f.fail(VmStatus::kUndefinedInstruction);
      break;
    }
    if (f.stack.size() < info.stack_in) {
      f.fail(VmStatus::kStackUnderflow);
      break;
    }
    if (f.stack.size() - info.stack_in + info.stack_out > Stack::kLimit) {
      f.fail(VmStatus::kStackOverflow);
      break;
    }
    if (!f.charge(info.base_gas)) break;

    const auto op = static_cast<Opcode>(op_byte);
    uint64_t next_pc = f.pc + 1 + info.immediate_size;

    switch (op) {
      case Opcode::STOP:
        f.halted = true;
        break;

      // --- arithmetic ---
      case Opcode::ADD: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a + b);
        break;
      }
      case Opcode::MUL: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a * b);
        break;
      }
      case Opcode::SUB: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a - b);
        break;
      }
      case Opcode::DIV: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a / b);
        break;
      }
      case Opcode::SDIV: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(u256::sdiv(a, b));
        break;
      }
      case Opcode::MOD: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a % b);
        break;
      }
      case Opcode::SMOD: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(u256::smod(a, b));
        break;
      }
      case Opcode::ADDMOD: {
        const u256 a = f.stack.pop(), b = f.stack.pop(), m = f.stack.pop();
        f.stack.push(u256::addmod(a, b, m));
        break;
      }
      case Opcode::MULMOD: {
        const u256 a = f.stack.pop(), b = f.stack.pop(), m = f.stack.pop();
        f.stack.push(u256::mulmod(a, b, m));
        break;
      }
      case Opcode::EXP:
        op_exp(f);
        break;
      case Opcode::SIGNEXTEND: {
        const u256 index = f.stack.pop(), value = f.stack.pop();
        f.stack.push(u256::signextend(index, value));
        break;
      }

      // --- comparison / bitwise ---
      case Opcode::LT: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(u256{a < b ? 1u : 0u});
        break;
      }
      case Opcode::GT: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(u256{a > b ? 1u : 0u});
        break;
      }
      case Opcode::SLT: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(u256{u256::slt(a, b) ? 1u : 0u});
        break;
      }
      case Opcode::SGT: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(u256{u256::slt(b, a) ? 1u : 0u});
        break;
      }
      case Opcode::EQ: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(u256{a == b ? 1u : 0u});
        break;
      }
      case Opcode::ISZERO:
        f.stack.push(u256{f.stack.pop().is_zero() ? 1u : 0u});
        break;
      case Opcode::AND: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a & b);
        break;
      }
      case Opcode::OR: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a | b);
        break;
      }
      case Opcode::XOR: {
        const u256 a = f.stack.pop(), b = f.stack.pop();
        f.stack.push(a ^ b);
        break;
      }
      case Opcode::NOT:
        f.stack.push(~f.stack.pop());
        break;
      case Opcode::BYTE: {
        const u256 index = f.stack.pop(), value = f.stack.pop();
        f.stack.push(u256::byte(index, value));
        break;
      }
      case Opcode::SHL: {
        const u256 shift = f.stack.pop(), value = f.stack.pop();
        f.stack.push(shift >= u256{256} ? u256{}
                                        : value << static_cast<unsigned>(shift.as_u64()));
        break;
      }
      case Opcode::SHR: {
        const u256 shift = f.stack.pop(), value = f.stack.pop();
        f.stack.push(shift >= u256{256} ? u256{}
                                        : value >> static_cast<unsigned>(shift.as_u64()));
        break;
      }
      case Opcode::SAR: {
        const u256 shift = f.stack.pop(), value = f.stack.pop();
        f.stack.push(u256::sar(value, shift));
        break;
      }

      // --- keccak ---
      case Opcode::SHA3:
        op_sha3(f);
        break;

      // --- environment ---
      case Opcode::ADDRESS:
        f.stack.push(msg.recipient.to_u256());
        break;
      case Opcode::BALANCE:
        op_balance(f);
        break;
      case Opcode::ORIGIN:
        f.stack.push(msg.origin.to_u256());
        break;
      case Opcode::CALLER:
        f.stack.push(msg.sender.to_u256());
        break;
      case Opcode::CALLVALUE:
        f.stack.push(msg.value);
        break;
      case Opcode::CALLDATALOAD:
        op_calldataload(f);
        break;
      case Opcode::CALLDATASIZE:
        f.stack.push(u256{msg.input.size()});
        break;
      case Opcode::CALLDATACOPY:
        op_calldatacopy(f);
        break;
      case Opcode::CODESIZE:
        f.stack.push(u256{f.code.size()});
        break;
      case Opcode::CODECOPY:
        op_codecopy(f);
        break;
      case Opcode::GASPRICE:
        f.stack.push(msg.gas_price);
        break;
      case Opcode::EXTCODESIZE:
        op_extcodesize(f);
        break;
      case Opcode::EXTCODECOPY:
        op_extcodecopy(f);
        break;
      case Opcode::RETURNDATASIZE:
        f.stack.push(u256{f.return_data.size()});
        break;
      case Opcode::RETURNDATACOPY:
        op_returndatacopy(f);
        break;
      case Opcode::EXTCODEHASH:
        op_extcodehash(f);
        break;

      // --- block context ---
      case Opcode::BLOCKHASH:
        op_blockhash(f);
        break;
      case Opcode::COINBASE:
        f.stack.push(block_.coinbase.to_u256());
        break;
      case Opcode::TIMESTAMP:
        f.stack.push(u256{block_.timestamp});
        break;
      case Opcode::NUMBER:
        f.stack.push(u256{block_.number});
        break;
      case Opcode::PREVRANDAO:
        f.stack.push(block_.prev_randao);
        break;
      case Opcode::GASLIMIT:
        f.stack.push(u256{block_.gas_limit});
        break;
      case Opcode::CHAINID:
        f.stack.push(block_.chain_id);
        break;
      case Opcode::SELFBALANCE:
        f.stack.push(state_.balance(msg.recipient));
        break;
      case Opcode::BASEFEE:
        f.stack.push(block_.base_fee);
        break;

      // --- stack / memory / storage / flow ---
      case Opcode::POP:
        f.stack.pop();
        break;
      case Opcode::MLOAD:
        op_mload(f);
        break;
      case Opcode::MSTORE:
        op_mstore(f);
        break;
      case Opcode::MSTORE8:
        op_mstore8(f);
        break;
      case Opcode::SLOAD:
        op_sload(f);
        break;
      case Opcode::SSTORE:
        do_sstore(f);
        break;
      case Opcode::JUMP: {
        const u256 dest = f.stack.pop();
        if (!f.valid_jump(dest)) {
          f.fail(VmStatus::kBadJumpDestination);
          break;
        }
        next_pc = dest.as_u64();
        break;
      }
      case Opcode::JUMPI: {
        const u256 dest = f.stack.pop(), condition = f.stack.pop();
        if (!condition.is_zero()) {
          if (!f.valid_jump(dest)) {
            f.fail(VmStatus::kBadJumpDestination);
            break;
          }
          next_pc = dest.as_u64();
        }
        break;
      }
      case Opcode::PC:
        f.stack.push(u256{f.pc});
        break;
      case Opcode::MSIZE:
        f.stack.push(u256{f.memory.size()});
        break;
      case Opcode::GAS:
        f.stack.push(u256{f.gas});
        break;
      case Opcode::JUMPDEST:
        break;
      case Opcode::TLOAD:
        op_tload(f);
        break;
      case Opcode::TSTORE:
        op_tstore(f);
        break;
      case Opcode::MCOPY:
        op_mcopy(f);
        break;

      // --- logs ---
      case Opcode::LOG0:
      case Opcode::LOG1:
      case Opcode::LOG2:
      case Opcode::LOG3:
      case Opcode::LOG4:
        op_log(f, static_cast<size_t>(op_byte - 0xa0));
        break;

      // --- halting ---
      case Opcode::RETURN:
      case Opcode::REVERT:
        op_return_revert(f, op == Opcode::REVERT);
        break;
      case Opcode::INVALID:
        f.fail(VmStatus::kInvalidInstruction);
        break;
      case Opcode::SELFDESTRUCT:
        op_selfdestruct(f);
        break;

      case Opcode::CREATE:
      case Opcode::CREATE2:
        do_create_family(f, op);
        break;
      case Opcode::CALL:
      case Opcode::CALLCODE:
      case Opcode::DELEGATECALL:
      case Opcode::STATICCALL:
        do_call_family(f, op);
        break;

      default: {
        // PUSH / DUP / SWAP ranges.
        if (is_push(op_byte)) {
          // The n immediate bytes, right-aligned in a big-endian word; bytes
          // past the end of the code read as zero.
          const size_t n = push_size(op_byte);
          uint8_t word[32] = {};
          const uint64_t start = f.pc + 1;
          if (start < f.code.size()) {
            std::memcpy(word + 32 - n, f.code.data() + start,
                        std::min<uint64_t>(n, f.code.size() - start));
          }
          f.stack.push(u256::from_be_bytes(word));
        } else if (op_byte >= 0x80 && op_byte <= 0x8f) {
          f.stack.dup(static_cast<size_t>(op_byte - 0x80));
        } else if (op_byte >= 0x90 && op_byte <= 0x9f) {
          f.stack.swap_top(static_cast<size_t>(op_byte - 0x90 + 1));
        } else {
          f.fail(VmStatus::kUndefinedInstruction);
        }
        break;
      }
    }

    if (frame_memory_limit_ != 0 && f.memory.size() > frame_memory_limit_ &&
        f.status == VmStatus::kSuccess) {
      // Paper §IV-B: one frame exceeding half the layer-2 capacity aborts the
      // bundle with a Memory Overflow Error.
      f.fail(VmStatus::kMemoryOverflow);
      bundle_aborted_ = true;
    }
    if (bundle_aborted_ && f.status == VmStatus::kSuccess) {
      f.fail(VmStatus::kMemoryOverflow);
    }
    if (!f.halted) f.pc = next_pc;
  }
}

// ---------------------------------------------------------------------------
// SSTORE (EIP-2200 + EIP-3529)
// ---------------------------------------------------------------------------

void Interpreter::do_sstore(Frame& f) {
  if (f.msg.is_static) {
    f.fail(VmStatus::kStaticModeViolation);
    return;
  }
  if (f.gas <= kGasSstoreSentry) {
    f.fail(VmStatus::kOutOfGas);
    return;
  }
  const u256 key = f.stack.pop(), value = f.stack.pop();
  const Address& addr = f.msg.recipient;

  const bool cold = state_.access_storage(addr, key);
  if (observer_) observer_->on_storage_access(addr, key, true, cold);
  if (cold && !f.charge(kGasColdSload)) return;

  const u256 current = state_.storage(addr, key);
  const u256 original = state_.original_storage(addr, key);

  uint64_t cost;
  if (value == current) {
    cost = kGasWarmAccess;
  } else if (current == original) {
    cost = original.is_zero() ? kGasSstoreSet : kGasSstoreReset;
    if (!original.is_zero() && value.is_zero()) {
      state_.add_refund(kGasSstoreClearsRefund);
    }
  } else {
    cost = kGasWarmAccess;  // dirty slot
    if (!original.is_zero()) {
      if (current.is_zero()) state_.sub_refund(kGasSstoreClearsRefund);
      if (value.is_zero()) state_.add_refund(kGasSstoreClearsRefund);
    }
    if (value == original) {
      if (original.is_zero()) {
        state_.add_refund(kGasSstoreSet - kGasWarmAccess);
      } else {
        state_.add_refund(kGasSstoreReset - kGasWarmAccess);
      }
    }
  }
  if (!f.charge(cost)) return;
  state_.set_storage(addr, key, value);
}

// ---------------------------------------------------------------------------
// CALL family
// ---------------------------------------------------------------------------

void Interpreter::do_call_family(Frame& f, Opcode op) {
  const u256 gas_requested = f.stack.pop();
  const Address target = Address::from_u256(f.stack.pop());
  u256 value{};
  if (op == Opcode::CALL || op == Opcode::CALLCODE) value = f.stack.pop();
  const u256 in_off = f.stack.pop(), in_len = f.stack.pop();
  const u256 out_off = f.stack.pop(), out_len = f.stack.pop();

  if (op == Opcode::CALL && f.msg.is_static && !value.is_zero()) {
    f.fail(VmStatus::kStaticModeViolation);
    return;
  }

  // Access cost for the target account.
  const bool cold = state_.access_account(target);
  if (observer_) observer_->on_account_access(target, cold);
  if (!f.charge(cold ? kGasColdAccount : kGasWarmAccess)) return;

  // Memory expansion for both regions.
  uint64_t in_off64, in_len64, out_off64, out_len64;
  if (!f.charge_memory(in_off, in_len, in_off64, in_len64)) return;
  if (!f.charge_memory(out_off, out_len, out_off64, out_len64)) return;

  const bool transfers_value = op == Opcode::CALL && !value.is_zero();
  uint64_t extra = 0;
  if (!value.is_zero() && (op == Opcode::CALL || op == Opcode::CALLCODE)) {
    extra += kGasCallValue;
  }
  if (transfers_value && !state_.exists(target) && !is_precompile(target)) {
    extra += kGasNewAccount;
  }
  if (!f.charge(extra)) return;

  // EIP-150: forward at most 63/64 of the remaining gas.
  const uint64_t cap = f.gas - f.gas / 64;
  uint64_t gas_forward =
      gas_requested.fits_u64() ? std::min(gas_requested.as_u64(), cap) : cap;
  if (!f.charge(gas_forward)) return;
  uint64_t callee_gas = gas_forward;
  if (!value.is_zero() && (op == Opcode::CALL || op == Opcode::CALLCODE)) {
    callee_gas += kGasCallStipend;  // free stipend, not charged to the caller
  }

  // Balance check before recursing: a failed transfer costs no forwarded gas.
  if (!value.is_zero() && state_.balance(f.msg.recipient) < value &&
      op != Opcode::DELEGATECALL) {
    f.gas += gas_forward;
    f.return_data.clear();
    f.stack.push(u256{});
    return;
  }
  if (f.msg.depth + 1 > kMaxCallDepth) {
    f.gas += gas_forward;
    f.return_data.clear();
    f.stack.push(u256{});
    return;
  }

  Message sub;
  sub.origin = f.msg.origin;
  sub.gas_price = f.msg.gas_price;
  sub.gas = callee_gas;
  sub.depth = f.msg.depth + 1;
  const BytesView input_view = f.memory.view(in_off64, in_len64);
  sub.input.assign(input_view.begin(), input_view.end());
  if (observer_ && in_len64 > 0) {
    observer_->on_memory_access(MemoryLike::kMemory, in_off64, in_len64, false);
  }

  switch (op) {
    case Opcode::CALL:
      sub.code_address = target;
      sub.recipient = target;
      sub.sender = f.msg.recipient;
      sub.value = value;
      sub.is_static = f.msg.is_static;
      break;
    case Opcode::CALLCODE:
      sub.code_address = target;
      sub.recipient = f.msg.recipient;  // runs in our context
      sub.sender = f.msg.recipient;
      sub.value = value;  // checked, not moved (self-transfer)
      sub.is_static = f.msg.is_static;
      break;
    case Opcode::DELEGATECALL:
      sub.code_address = target;
      sub.recipient = f.msg.recipient;
      sub.sender = f.msg.sender;  // propagates caller & value
      sub.value = f.msg.value;
      sub.is_static = f.msg.is_static;
      break;
    case Opcode::STATICCALL:
      sub.code_address = target;
      sub.recipient = target;
      sub.sender = f.msg.recipient;
      sub.is_static = true;
      break;
    default:
      throw UsageError("not a call opcode");
  }

  // CALLCODE/DELEGATECALL run the code against our own storage; no balance
  // moves in the sub-call. CALL moves value inside call().
  CallResult result;
  if (op == Opcode::CALL) {
    result = call(sub);
  } else {
    // Inline the non-transferring variant.
    const auto snapshot = state_.snapshot();
    if (is_precompile(sub.code_address)) {
      result = run_precompile(sub);
    } else {
      const Bytes code = state_.code(sub.code_address);
      if (observer_) observer_->on_code_load(sub.code_address, code.size());
      result = code.empty() ? CallResult{VmStatus::kSuccess, {}, sub.gas, {}}
                            : run_frame(sub, code);
    }
    if (!is_success(result.status)) state_.revert_to(snapshot);
  }

  // Copy the callee's output into the out region and expose it as returndata.
  f.return_data = result.output;
  const uint64_t copy_len = std::min<uint64_t>(out_len64, result.output.size());
  if (copy_len > 0) {
    f.memory.store_padded(out_off64, result.output, 0, copy_len);
    if (observer_) observer_->on_memory_access(MemoryLike::kMemory, out_off64, copy_len, true);
  }
  f.gas += result.gas_left;
  f.stack.push(u256{is_success(result.status) ? 1u : 0u});

  if (result.status == VmStatus::kMemoryOverflow || bundle_aborted_) {
    // Memory Overflow aborts the whole bundle; it cannot be swallowed by a
    // caller the way an ordinary revert can (§IV-B).
    bundle_aborted_ = true;
    f.fail(VmStatus::kMemoryOverflow);
  }
}

// ---------------------------------------------------------------------------
// CREATE family
// ---------------------------------------------------------------------------

void Interpreter::do_create_family(Frame& f, Opcode op) {
  if (f.msg.is_static) {
    f.fail(VmStatus::kStaticModeViolation);
    return;
  }
  const u256 value = f.stack.pop();
  const u256 offset = f.stack.pop(), len = f.stack.pop();
  u256 salt{};
  if (op == Opcode::CREATE2) salt = f.stack.pop();

  uint64_t off64, len64;
  if (!f.charge_memory(offset, len, off64, len64)) return;
  if (len64 > kMaxInitcodeSize) {
    f.fail(VmStatus::kOutOfGas);
    return;
  }
  uint64_t word_cost = kGasInitcodeWord * EvmMemory::word_count(len64);
  if (op == Opcode::CREATE2) {
    word_cost += kGasKeccakWord * EvmMemory::word_count(len64);  // hashing the initcode
  }
  if (!f.charge(word_cost)) return;

  if (!value.is_zero() && state_.balance(f.msg.recipient) < value) {
    f.return_data.clear();
    f.stack.push(u256{});
    return;
  }
  if (f.msg.depth + 1 > kMaxCallDepth) {
    f.return_data.clear();
    f.stack.push(u256{});
    return;
  }

  const uint64_t gas_forward = f.gas - f.gas / 64;  // EIP-150
  if (!f.charge(gas_forward)) return;

  Message sub;
  sub.sender = f.msg.recipient;
  sub.origin = f.msg.origin;
  sub.gas_price = f.msg.gas_price;
  sub.value = value;
  sub.gas = gas_forward;
  sub.depth = f.msg.depth + 1;
  sub.is_create = true;
  const BytesView init_view = f.memory.view(off64, len64);
  sub.init_code.assign(init_view.begin(), init_view.end());
  if (observer_ && len64 > 0) {
    observer_->on_memory_access(MemoryLike::kMemory, off64, len64, false);
  }
  if (op == Opcode::CREATE2) {
    sub.recipient = create2_address(f.msg.recipient, salt, sub.init_code);
  }

  const CallResult result = call(sub);
  f.gas += result.gas_left;
  if (is_success(result.status)) {
    f.return_data.clear();
    f.stack.push(result.create_address.to_u256());
  } else {
    // REVERT exposes its payload via returndata; other failures do not.
    f.return_data = result.status == VmStatus::kRevert ? result.output : Bytes{};
    f.stack.push(u256{});
  }
  if (result.status == VmStatus::kMemoryOverflow || bundle_aborted_) {
    bundle_aborted_ = true;
    f.fail(VmStatus::kMemoryOverflow);
  }
}

}  // namespace hardtape::evm
