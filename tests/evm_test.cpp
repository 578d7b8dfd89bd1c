// EVM interpreter tests: opcode semantics, gas accounting, call/create
// mechanics, precompiles, the assembler, and tracing.
#include <gtest/gtest.h>

#include <optional>

#include "common/errors.hpp"
#include "common/random.hpp"
#include "crypto/secp256k1.hpp"
#include "evm/assembler.hpp"
#include "evm/interpreter.hpp"
#include "evm/trace.hpp"
#include "hevm/cycle_observer.hpp"
#include "state/overlay.hpp"

namespace hardtape::evm {
namespace {

Address addr(uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

const Address kCaller = addr(0xAA);
const Address kContract = addr(0xCC);

// How each semantic test runs the interpreter: with an observer attached,
// as the HEVM's cost models attach one, or on the bare loop with none.
// Observers must never change semantics, so every test passes both ways.
enum class Observation : uint8_t { kObserved, kBare };

// Default observer of the observed runs: counts frames that entered and have
// not yet exited, so every call can check that each frame reports its exit.
class OpenFrameCounter : public ExecutionObserver {
 public:
  void on_frame_enter(const FrameInfo&) override { ++open_; }
  void on_frame_exit(const FrameExitInfo&) override { --open_; }
  int open() const { return open_; }

 private:
  int open_ = 0;
};

// Test fixture: a funded caller, one deployable contract slot, an
// interpreter over an overlay, observed or bare per the test parameter.
class EvmTest : public ::testing::TestWithParam<Observation> {
 protected:
  EvmTest() {
    base_.put_account(kCaller, state::Account{.balance = u256::from_string("1000000000000000000")});
    rebuild();
  }

  // The overlay caches code on first read (correct: code is immutable within
  // a session), so each run() starts from a fresh overlay + interpreter to
  // let tests re-deploy at kContract.
  void rebuild() {
    overlay_opt_.emplace(base_);
    BlockContext block;
    block.number = 19145194;
    block.timestamp = 1706600000;
    block.coinbase = addr(0xFE);
    interp_opt_.emplace(*overlay_opt_, std::move(block));
    interp_opt_->set_observer(observer_ != nullptr ? observer_ : default_observer());
    interp_opt_->set_frame_memory_limit(frame_memory_limit_);
    interp_opt_->set_frame_debug(frame_debug_);
  }

  // The observer attached when the test sets none of its own.
  OpenFrameCounter* default_observer() {
    return GetParam() == Observation::kObserved ? &open_frames_ : nullptr;
  }

  state::OverlayState& overlay_get() { return *overlay_opt_; }
  Interpreter& interp_get() { return *interp_opt_; }

  void set_observer(ExecutionObserver* obs) {
    observer_ = obs;
    interp_opt_->set_observer(obs);
  }
  void set_frame_memory_limit(uint64_t bytes) {
    frame_memory_limit_ = bytes;
    interp_opt_->set_frame_memory_limit(bytes);
  }

  // Deploys `code` at kContract and calls it.
  CallResult run(const Bytes& code, Bytes input = {}, u256 value = {},
                 uint64_t gas = 10'000'000) {
    base_.put_code(kContract, code);
    rebuild();
    Interpreter::Message msg;
    msg.code_address = kContract;
    msg.recipient = kContract;
    msg.sender = kCaller;
    msg.origin = kCaller;
    msg.value = value;
    msg.input = std::move(input);
    msg.gas = gas;
    msg.depth = 1;
    if (!value.is_zero()) {
      // Fund the transfer path like a real call would.
      overlay_get().add_balance(kCaller, value);
    }
    CallResult result = interp_get().call(msg);
    EXPECT_EQ(open_frames_.open(), 0) << "a frame never reported its exit";
    return result;
  }

  CallResult run_asm(std::string_view source, Bytes input = {}) {
    return run(assemble(source), std::move(input));
  }

  // Runs code that is expected to RETURN a 32-byte word; returns it.
  u256 run_word(std::string_view source, Bytes input = {}) {
    const CallResult r = run_asm(source, std::move(input));
    EXPECT_EQ(r.status, VmStatus::kSuccess) << to_string(r.status);
    EXPECT_EQ(r.output.size(), 32u);
    return u256::from_be_bytes(r.output);
  }

  state::InMemoryState base_;
  std::optional<state::OverlayState> overlay_opt_;
  std::optional<Interpreter> interp_opt_;
  ExecutionObserver* observer_ = nullptr;
  OpenFrameCounter open_frames_;
  uint64_t frame_memory_limit_ = 0;
  Interpreter::FrameDebug* frame_debug_ = nullptr;  // kept across rebuild()
};

// The instance names date from when the suite also ran a second execution
// engine; they are kept so test ids stay stable. "Reference" is the observed
// run, "Fast" the bare loop.
INSTANTIATE_TEST_SUITE_P(
    Engines, EvmTest, ::testing::Values(Observation::kObserved, Observation::kBare),
    [](const ::testing::TestParamInfo<Observation>& info) {
      return info.param == Observation::kObserved ? "Reference" : "Fast";
    });

// Source snippet: RETURN the top of stack as one word.
constexpr std::string_view kReturnTop = R"(
  PUSH1 0x00
  MSTORE
  PUSH1 0x20
  PUSH1 0x00
  RETURN
)";

std::string ret(std::string_view body) {
  return std::string(body) + std::string(kReturnTop);
}

// --- assembler ---

TEST_P(EvmTest, AssemblerBasics) {
  const Bytes code = assemble("PUSH1 0x01 PUSH1 0x02 ADD STOP");
  EXPECT_EQ(code, (Bytes{0x60, 0x01, 0x60, 0x02, 0x01, 0x00}));
}

TEST_P(EvmTest, AssemblerAutoPushAndLabels) {
  const Bytes code = assemble(R"(
    PUSH @end    ; forward reference
    JUMP
    INVALID
  end:
    JUMPDEST
    STOP
  )");
  // PUSH2 0x0005 JUMP INVALID JUMPDEST STOP
  EXPECT_EQ(code, (Bytes{0x61, 0x00, 0x05, 0x56, 0xfe, 0x5b, 0x00}));
}

TEST_P(EvmTest, AssemblerWidePush) {
  const Bytes code = assemble("PUSH32 0xff PUSH 65536");
  EXPECT_EQ(code.size(), 1 + 32 + 1 + 3u);
  EXPECT_EQ(code[0], 0x7f);
  EXPECT_EQ(code[32], 0xff);
  EXPECT_EQ(code[33], 0x62);  // PUSH3
}

TEST_P(EvmTest, AssemblerErrors) {
  EXPECT_THROW(assemble("BOGUS"), UsageError);
  EXPECT_THROW(assemble("PUSH1"), UsageError);
  EXPECT_THROW(assemble("PUSH @missing JUMP"), UsageError);
  EXPECT_THROW(assemble("dup: dup:"), UsageError);  // duplicate label
  EXPECT_THROW(assemble("PUSH1 0x0100"), UsageError);  // too wide
}

TEST_P(EvmTest, DisassemblerRoundTrip) {
  const std::string text = disassemble(assemble("PUSH2 0x1234 MSTORE JUMPDEST STOP"));
  EXPECT_NE(text.find("PUSH2 0x1234"), std::string::npos);
  EXPECT_NE(text.find("JUMPDEST"), std::string::npos);
}

// --- arithmetic and logic ---

TEST_P(EvmTest, Arithmetic) {
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH1 4 ADD")), u256{7});
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH1 4 MUL")), u256{12});
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH1 10 SUB")), u256{7});  // 10 - 3
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH1 10 DIV")), u256{3});
  EXPECT_EQ(run_word(ret("PUSH1 0 PUSH1 10 DIV")), u256{});  // div by zero
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH1 10 MOD")), u256{1});
  EXPECT_EQ(run_word(ret("PUSH1 5 PUSH1 7 PUSH1 9 ADDMOD")), u256{1});  // (9+7)%5
  EXPECT_EQ(run_word(ret("PUSH1 5 PUSH1 7 PUSH1 9 MULMOD")), u256{3});  // (9*7)%5
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH1 2 EXP")), u256{8});  // 2^3
}

TEST_P(EvmTest, SignedArithmetic) {
  // -8 / 2 = -4
  EXPECT_EQ(run_word(ret("PUSH1 2 PUSH1 8 PUSH0 SUB SDIV")), u256{4}.neg());
  // -8 % 3 = -2
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH1 8 PUSH0 SUB SMOD")), u256{2}.neg());
  // SLT(-1, 0) = 1
  EXPECT_EQ(run_word(ret("PUSH0 PUSH1 1 PUSH0 SUB SLT")), u256{1});
  // SGT(1, -1) = 1
  EXPECT_EQ(run_word(ret("PUSH1 1 PUSH0 SUB PUSH1 1 SGT")), u256{1});
  // SAR(-8, 1) = -4
  EXPECT_EQ(run_word(ret("PUSH1 8 PUSH0 SUB PUSH1 1 SAR")), u256{4}.neg());
  // SIGNEXTEND byte 0 of 0xff = -1
  EXPECT_EQ(run_word(ret("PUSH1 0xff PUSH1 0 SIGNEXTEND")), ~u256{});
}

TEST_P(EvmTest, ComparisonAndBitwise) {
  EXPECT_EQ(run_word(ret("PUSH1 2 PUSH1 1 LT")), u256{1});
  EXPECT_EQ(run_word(ret("PUSH1 1 PUSH1 2 GT")), u256{1});
  EXPECT_EQ(run_word(ret("PUSH1 5 PUSH1 5 EQ")), u256{1});
  EXPECT_EQ(run_word(ret("PUSH0 ISZERO")), u256{1});
  EXPECT_EQ(run_word(ret("PUSH1 0x0f PUSH1 0x3c AND")), u256{0x0c});
  EXPECT_EQ(run_word(ret("PUSH1 0x0f PUSH1 0x30 OR")), u256{0x3f});
  EXPECT_EQ(run_word(ret("PUSH1 0x0f PUSH1 0x3c XOR")), u256{0x33});
  EXPECT_EQ(run_word(ret("PUSH0 NOT")), ~u256{});
  EXPECT_EQ(run_word(ret("PUSH1 1 PUSH1 4 SHL")), u256{16});  // 1 << 4
  EXPECT_EQ(run_word(ret("PUSH1 16 PUSH1 4 SHR")), u256{1});
  // BYTE 31 of 0x..ff is 0xff.
  EXPECT_EQ(run_word(ret("PUSH1 0xff PUSH1 31 BYTE")), u256{0xff});
}

TEST_P(EvmTest, Sha3Opcode) {
  // keccak256 of one zero word, computed in-EVM vs. host-side.
  const u256 expected = crypto::keccak256(Bytes(32, 0)).to_u256();
  EXPECT_EQ(run_word(ret("PUSH1 0x20 PUSH1 0x00 SHA3")), expected);
}

// --- stack ops ---

TEST_P(EvmTest, DupSwapPop) {
  EXPECT_EQ(run_word(ret("PUSH1 7 DUP1 ADD")), u256{14});
  EXPECT_EQ(run_word(ret("PUSH1 2 PUSH1 1 SWAP1 SUB")), u256{1});  // swap -> 2 - 1
  EXPECT_EQ(run_word(ret("PUSH1 9 PUSH1 5 POP")), u256{9});
  // DUP16 reaches deep.
  std::string deep;
  for (int i = 1; i <= 16; ++i) deep += "PUSH1 " + std::to_string(i) + " ";
  deep += "DUP16";
  EXPECT_EQ(run_word(ret(deep)), u256{1});
}

TEST_P(EvmTest, StackUnderflowAndOverflow) {
  EXPECT_EQ(run_asm("ADD").status, VmStatus::kStackUnderflow);
  std::string overflow = "begin: JUMPDEST PUSH1 1 PUSH @begin JUMP";
  EXPECT_EQ(run_asm(overflow).status, VmStatus::kStackOverflow);
}

// --- control flow ---

TEST_P(EvmTest, JumpAndJumpi) {
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 1
    PUSH @skip
    JUMPI
    INVALID
  skip:
    JUMPDEST
    PUSH1 42
  )")), u256{42});
  // Untaken JUMPI falls through.
  EXPECT_EQ(run_word(ret(R"(
    PUSH0
    PUSH @target
    JUMPI
    PUSH1 7
    PUSH @end
    JUMP
  target:
    JUMPDEST
    PUSH1 9
  end:
    JUMPDEST
  )")), u256{7});
}

// "PUSH32 0x" followed by `byte_hex` 32 times.
std::string push32_of(std::string_view byte_hex) {
  std::string out = "PUSH32 0x";
  for (int i = 0; i < 32; ++i) out += byte_hex;
  return out + "\n";
}

TEST_P(EvmTest, InvalidJumpDestinations) {
  EXPECT_EQ(run_asm("PUSH1 0x01 JUMP STOP").status, VmStatus::kBadJumpDestination);
  // Jump into PUSH immediate data that happens to contain 0x5b.
  EXPECT_EQ(run_asm("PUSH1 0x03 JUMP PUSH1 0x5b STOP").status,
            VmStatus::kBadJumpDestination);
  EXPECT_EQ(run_asm("PUSH2 0xffff JUMP").status, VmStatus::kBadJumpDestination);
  // 0x5b bytes inside a PUSH32 immediate that ends the code (bytes 4..35):
  // its first byte and its last, the code's last byte.
  EXPECT_EQ(run_asm("PUSH1 4 JUMP " + push32_of("5b")).status, VmStatus::kBadJumpDestination);
  EXPECT_EQ(run_asm("PUSH1 35 JUMP " + push32_of("5b")).status, VmStatus::kBadJumpDestination);
  // A PUSH2 cut short by the end of the code: its opcode and its one
  // immediate byte, 0x5b.
  EXPECT_EQ(run(Bytes{0x60, 0x03, 0x56, 0x61, 0x5b}).status, VmStatus::kBadJumpDestination);
  EXPECT_EQ(run(Bytes{0x60, 0x04, 0x56, 0x61, 0x5b}).status, VmStatus::kBadJumpDestination);
  // Destinations of 2^64 or more, 2^64 + 12 among them: byte 12 holds a
  // JUMPDEST that 12 itself reaches.
  EXPECT_EQ(run_asm("PUSH9 0x01000000000000000c JUMP INVALID JUMPDEST").status,
            VmStatus::kBadJumpDestination);
  EXPECT_EQ(run_asm("PUSH9 0x00000000000000000c JUMP INVALID JUMPDEST").status,
            VmStatus::kSuccess);
  EXPECT_EQ(run_asm(push32_of("ff") + "JUMP JUMPDEST").status, VmStatus::kBadJumpDestination);
}

TEST_P(EvmTest, JumpValidityAcrossOneFramesScan) {
  // A valid jump near the start, then one into PUSH data past everything
  // the first jump needed to look at.
  Bytes into_data{0x60, 0x04, 0x56, 0xfe, 0x5b,  // PUSH1 4 JUMP INVALID JUMPDEST
                  0x60, 0x09, 0x56,              // PUSH1 9 JUMP
                  0x61, 0x5b, 0x5b, 0x00};       // PUSH2 0x5b5b STOP
  EXPECT_EQ(run(into_data).status, VmStatus::kBadJumpDestination);
  into_data[6] = 0x0a;
  EXPECT_EQ(run(into_data).status, VmStatus::kBadJumpDestination);

  // A far forward jump over 0x5b-filled PUSH32 data, then a backward one.
  EXPECT_EQ(run_word(ret(R"(
    PUSH @far
    JUMP
  back:
    JUMPDEST
    PUSH1 42
    PUSH @done
    JUMP
  )" + push32_of("5b") + push32_of("5b") + push32_of("5b") + R"(
  far:
    JUMPDEST
    PUSH @back
    JUMP
  done:
    JUMPDEST
  )")), u256{42});

  // A JUMPI that is not taken never checks its destination.
  EXPECT_EQ(run_word(ret("PUSH0 PUSH1 0x01 JUMPI PUSH1 7")), u256{7});
  EXPECT_EQ(run_word(ret("PUSH0 PUSH9 0x010000000000000000 JUMPI PUSH1 7")), u256{7});
  EXPECT_EQ(run_word(ret("PUSH0 PUSH2 0xffff JUMPI PUSH1 7")), u256{7});

  // A JUMPDEST in the code's last byte.
  EXPECT_EQ(run_asm("PUSH1 4 JUMP INVALID JUMPDEST").status, VmStatus::kSuccess);
}

TEST_P(EvmTest, TruncatedPushReadsZeroPastTheCode) {
  Interpreter::FrameDebug frame;
  frame_debug_ = &frame;
  EXPECT_EQ(run(Bytes{0x61, 0x12}).status, VmStatus::kSuccess);  // PUSH2, one byte
  EXPECT_EQ(frame.stack, std::vector<u256>{u256{0x1200}});
  Bytes push32(32, 0x01);
  push32[0] = 0x7f;  // PUSH32 with 31 of its 32 immediate bytes
  EXPECT_EQ(run(push32).status, VmStatus::kSuccess);
  std::string expected = "0x";
  for (int i = 0; i < 31; ++i) expected += "01";
  EXPECT_EQ(frame.stack, std::vector<u256>{u256::from_string(expected + "00")});
}

TEST_P(EvmTest, RunningOffCodeEndIsStop) {
  EXPECT_EQ(run_asm("PUSH1 1 PUSH1 2 ADD").status, VmStatus::kSuccess);
}

TEST_P(EvmTest, InvalidAndUndefinedOpcodes) {
  const CallResult r1 = run(Bytes{0xfe});
  EXPECT_EQ(r1.status, VmStatus::kInvalidInstruction);
  EXPECT_EQ(r1.gas_left, 0u);  // consumes all gas
  const CallResult r2 = run(Bytes{0x21});  // undefined opcode
  EXPECT_EQ(r2.status, VmStatus::kUndefinedInstruction);
}

// --- memory ---

TEST_P(EvmTest, MemoryOps) {
  EXPECT_EQ(run_word(ret(
                "PUSH1 0xab PUSH1 0x40 MSTORE8 PUSH1 0x40 MLOAD PUSH1 248 SHR")),
            u256{0xab});
  // MSIZE expands in words.
  EXPECT_EQ(run_word(ret("PUSH1 0 PUSH1 0x21 MSTORE8 MSIZE")), u256{0x40});
  // MCOPY.
  EXPECT_EQ(run_word(R"(
    PUSH1 0x99 PUSH1 0x00 MSTORE      ; mem[0..32] = 0x99
    PUSH1 0x20 PUSH1 0x00 PUSH1 0x40 MCOPY  ; copy 32 bytes 0 -> 0x40
    PUSH1 0x40 MLOAD
    PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
  )"), u256{0x99});
}

TEST_P(EvmTest, MemoryExpansionGasCharged) {
  // Same program, bigger memory touch -> more gas.
  const CallResult small = run_asm("PUSH1 1 PUSH1 0x00 MSTORE STOP");
  const CallResult big = run_asm("PUSH1 1 PUSH2 0x2000 MSTORE STOP");
  EXPECT_EQ(small.status, VmStatus::kSuccess);
  EXPECT_EQ(big.status, VmStatus::kSuccess);
  EXPECT_GT(small.gas_left, big.gas_left);
}

TEST_P(EvmTest, AbsurdMemoryOffsetIsOutOfGas) {
  EXPECT_EQ(run_asm("PUSH1 1 PUSH32 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff MSTORE").status,
            VmStatus::kOutOfGas);
}

TEST_P(EvmTest, TerabyteMemoryOffsetIsOutOfGasBeforeExpansion) {
  // Regression for the memory_gas uint64 overflow: a 2^40-byte offset needs
  // ~2^35 words, so the unchecked quadratic term words*words wrapped uint64
  // and charged only the linear ~1.03e11 gas. Under a gas limit that can
  // afford the linear term, the wrapped cost would have admitted a ~1 TiB
  // expansion (the 2^41 hard cap does not catch 2^40). The saturated
  // memory_gas must fail with out-of-gas before any expansion happens.
  const CallResult r = run(assemble("PUSH1 1 PUSH 0x10000000000 MSTORE STOP"),
                           {}, {}, /*gas=*/200'000'000'000ull);
  EXPECT_EQ(r.status, VmStatus::kOutOfGas);
}

// --- signed arithmetic / shift edge cases ---

TEST_P(EvmTest, SdivIntMinByMinusOne) {
  // INT256_MIN / -1 overflows two's complement; EVM defines the result as
  // INT256_MIN itself.
  const u256 int_min = u256{1} << 255;
  EXPECT_EQ(run_word(ret("PUSH0 NOT PUSH1 1 PUSH1 255 SHL SDIV")), int_min);
  // And the matching SMOD is 0.
  EXPECT_EQ(run_word(ret("PUSH0 NOT PUSH1 1 PUSH1 255 SHL SMOD")), u256{});
}

TEST_P(EvmTest, SmodTakesSignOfDividend) {
  //  8 smod -3 = 2 (sign follows the dividend, not the divisor)
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH0 SUB PUSH1 8 SMOD")), u256{2});
  // -8 smod -3 = -2
  EXPECT_EQ(run_word(ret("PUSH1 3 PUSH0 SUB PUSH1 8 PUSH0 SUB SMOD")),
            u256{2}.neg());
}

TEST_P(EvmTest, SignExtendHighIndices) {
  // Index 31 treats the full word as already sign-extended: identity.
  const u256 neg = u256{5}.neg();
  EXPECT_EQ(run_word(ret("PUSH1 5 PUSH0 SUB PUSH1 31 SIGNEXTEND")), neg);
  EXPECT_EQ(run_word(ret("PUSH1 0x7f PUSH1 31 SIGNEXTEND")), u256{0x7f});
  // Index >= 32 is out of range: identity, NOT sign extension from byte 0.
  EXPECT_EQ(run_word(ret("PUSH1 0xff PUSH1 32 SIGNEXTEND")), u256{0xff});
  EXPECT_EQ(run_word(ret("PUSH1 0xff PUSH2 0x0100 SIGNEXTEND")), u256{0xff});
}

TEST_P(EvmTest, SarShiftOfWordSizeOrMore) {
  // Arithmetic shift >= 256 of a negative value saturates to -1 (all ones),
  // of a non-negative value to 0.
  EXPECT_EQ(run_word(ret("PUSH1 1 PUSH0 SUB PUSH2 0x0100 SAR")), ~u256{});
  EXPECT_EQ(run_word(ret("PUSH1 1 PUSH0 SUB PUSH2 0xffff SAR")), ~u256{});
  EXPECT_EQ(run_word(ret("PUSH1 5 PUSH2 0x0100 SAR")), u256{});
}

TEST_P(EvmTest, ExpFullWidthExponent) {
  // Exponent with bit length 256 (top bit set). 2^(2^255) mod 2^256 = 0.
  EXPECT_EQ(run_word(ret("PUSH1 1 PUSH1 255 SHL PUSH1 2 EXP")), u256{});
  // (-1)^(2^256 - 1): odd exponent, so the result stays -1.
  EXPECT_EQ(run_word(ret("PUSH0 NOT PUSH0 NOT EXP")), ~u256{});
  // 1^(anything) = 1 even when the exponent metering walks all 32 bytes.
  EXPECT_EQ(run_word(ret("PUSH0 NOT PUSH1 1 EXP")), u256{1});
}

// --- calldata / code / returndata ---

TEST_P(EvmTest, CalldataOps) {
  Bytes input = from_hex("00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff");
  EXPECT_EQ(run_word(ret("PUSH1 0 CALLDATALOAD"), input),
            u256::from_be_bytes(input));
  EXPECT_EQ(run_word(ret("CALLDATASIZE"), input), u256{32});
  // Out-of-range load zero-pads.
  EXPECT_EQ(run_word(ret("PUSH1 0x30 CALLDATALOAD"), input), u256{});
  // CALLDATACOPY.
  EXPECT_EQ(run_word(R"(
    PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 CALLDATACOPY
    PUSH1 0x00 MLOAD
    PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
  )", input), u256::from_be_bytes(input));
}

TEST_P(EvmTest, CodeSizeAndCopy) {
  const Bytes code = assemble(ret("CODESIZE"));
  base_.put_code(kContract, code);
  EXPECT_EQ(run(code).output, u256{code.size()}.to_be_bytes_vec());
}

// --- environment ---

TEST_P(EvmTest, EnvironmentOpcodes) {
  EXPECT_EQ(run_word(ret("ADDRESS")), kContract.to_u256());
  EXPECT_EQ(run_word(ret("CALLER")), kCaller.to_u256());
  EXPECT_EQ(run_word(ret("ORIGIN")), kCaller.to_u256());
  EXPECT_EQ(run_word(ret("NUMBER")), u256{19145194});
  EXPECT_EQ(run_word(ret("TIMESTAMP")), u256{1706600000});
  EXPECT_EQ(run_word(ret("CHAINID")), u256{1});
  EXPECT_EQ(run_word(ret("COINBASE")), addr(0xFE).to_u256());
  EXPECT_EQ(run_word(ret("GASLIMIT")), u256{30'000'000});
  EXPECT_EQ(run_word(ret("BASEFEE")), u256{7});
}

TEST_P(EvmTest, CallValueAndSelfBalance) {
  const CallResult r = run(assemble(ret("CALLVALUE")), {}, u256{12345});
  EXPECT_EQ(u256::from_be_bytes(r.output), u256{12345});
  // The transferred value is visible via SELFBALANCE.
  const CallResult r2 = run(assemble(ret("SELFBALANCE")), {}, u256{777});
  EXPECT_EQ(u256::from_be_bytes(r2.output), u256{777});
}

TEST_P(EvmTest, BalanceOpcode) {
  base_.put_account(addr(0x55), state::Account{.balance = u256{424242}});
  const std::string src = "PUSH20 0x" + to_hex(addr(0x55).view()) + " BALANCE";
  EXPECT_EQ(run_word(ret(src)), u256{424242});
}

TEST_P(EvmTest, ExtCodeOps) {
  base_.put_code(addr(0x66), Bytes{0x60, 0x01, 0x00});
  const std::string target = "PUSH20 0x" + to_hex(addr(0x66).view());
  EXPECT_EQ(run_word(ret(target + " EXTCODESIZE")), u256{3});
  EXPECT_EQ(run_word(ret(target + " EXTCODEHASH")),
            crypto::keccak256(Bytes{0x60, 0x01, 0x00}).to_u256());
  // Nonexistent account hashes to zero.
  EXPECT_EQ(run_word(ret("PUSH20 0x00000000000000000000000000000000000000de EXTCODEHASH")),
            u256{});
}

// --- storage ---

TEST_P(EvmTest, SloadSstore) {
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 0x2a PUSH1 0x01 SSTORE
    PUSH1 0x01 SLOAD
  )")), u256{42});
  EXPECT_EQ(overlay_get().storage(kContract, u256{1}), u256{42});
}

TEST_P(EvmTest, SstoreGasWarmVsCold) {
  // Two stores to different cold slots vs. two stores to the same slot.
  const CallResult two_cold = run_asm(
      "PUSH1 1 PUSH1 0x01 SSTORE PUSH1 1 PUSH1 0x02 SSTORE STOP");
  state::OverlayState fresh(base_);
  Interpreter interp2(fresh, BlockContext{});
  Interpreter::Message msg2;
  msg2.code_address = kContract;
  msg2.recipient = kContract;
  msg2.sender = kCaller;
  msg2.gas = 10'000'000;
  msg2.depth = 1;
  base_.put_code(kContract, assemble("PUSH1 1 PUSH1 0x01 SSTORE PUSH1 2 PUSH1 0x01 SSTORE STOP"));
  const CallResult warm_second = interp2.call(msg2);
  EXPECT_LT(two_cold.gas_left, warm_second.gas_left);
}

TEST_P(EvmTest, SstoreRefundOnClear) {
  base_.put_storage(kContract, u256{5}, u256{99});
  const CallResult r = run_asm("PUSH0 PUSH1 0x05 SSTORE STOP");
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(overlay_get().refund(), 4800u);
}

TEST_P(EvmTest, SstoreSentryGas) {
  // SSTORE with <= 2300 gas left must fail (EIP-2200 sentry).
  const Bytes code = assemble("PUSH1 1 PUSH1 1 SSTORE STOP");
  base_.put_code(kContract, code);
  Interpreter::Message msg;
  msg.code_address = kContract;
  msg.recipient = kContract;
  msg.sender = kCaller;
  msg.gas = 2300 + 6;  // 2 pushes charged, then sentry trips
  msg.depth = 1;
  EXPECT_EQ(interp_get().call(msg).status, VmStatus::kOutOfGas);
}

TEST_P(EvmTest, TransientStorage) {
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 0x63 PUSH1 0x07 TSTORE
    PUSH1 0x07 TLOAD
  )")), u256{0x63});
  // Not persisted to regular storage.
  EXPECT_EQ(overlay_get().storage(kContract, u256{7}), u256{});
}

// --- return / revert ---

TEST_P(EvmTest, RevertReturnsPayloadAndKeepsGas) {
  const CallResult r = run_asm(R"(
    PUSH1 0xee PUSH1 0x00 MSTORE
    PUSH1 0x20 PUSH1 0x00 REVERT
  )");
  EXPECT_EQ(r.status, VmStatus::kRevert);
  EXPECT_EQ(u256::from_be_bytes(r.output), u256{0xee});
  EXPECT_GT(r.gas_left, 0u);
}

TEST_P(EvmTest, RevertRollsBackState) {
  const CallResult r = run_asm("PUSH1 9 PUSH1 1 SSTORE PUSH1 0 PUSH1 0 REVERT");
  EXPECT_EQ(r.status, VmStatus::kRevert);
  EXPECT_EQ(overlay_get().storage(kContract, u256{1}), u256{});
}

// --- calls ---

TEST_P(EvmTest, CallTransfersValueAndReturnsData) {
  // Callee returns CALLVALUE.
  base_.put_code(addr(0x77), assemble(ret("CALLVALUE")));
  base_.put_account(kContract, state::Account{.balance = u256{100000}});
  const std::string src = R"(
    PUSH1 0x20   ; retLen
    PUSH1 0x00   ; retOff
    PUSH1 0x00   ; argLen
    PUSH1 0x00   ; argOff
    PUSH2 0x1234 ; value
    PUSH20 0x0000000000000000000000000000000000000077
    PUSH3 0xffffff
    CALL
    POP
    PUSH1 0x20 PUSH1 0x00 RETURN
  )";
  const CallResult r = run_asm(src);
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(u256::from_be_bytes(r.output), u256{0x1234});
  EXPECT_EQ(overlay_get().balance(addr(0x77)), u256{0x1234});
}

TEST_P(EvmTest, CallToEmptyAccountSucceeds) {
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x00000000000000000000000000000000000000e1
    PUSH2 0xffff
    CALL
  )")), u256{1});
}

TEST_P(EvmTest, FailedCalleeRevertBubblesReturnData) {
  base_.put_code(addr(0x78), assemble(R"(
    PUSH1 0xbd PUSH1 0x00 MSTORE
    PUSH1 0x20 PUSH1 0x00 REVERT
  )"));
  const CallResult r = run_asm(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x0000000000000000000000000000000000000078
    PUSH3 0xffffff
    CALL
    PUSH1 0x00 MSTORE                     ; success flag (0)
    RETURNDATASIZE PUSH1 0x00 PUSH1 0x20 RETURNDATACOPY
    PUSH1 0x40 PUSH1 0x00 RETURN
  )");
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  ASSERT_EQ(r.output.size(), 64u);
  EXPECT_EQ(u256::from_be_bytes(BytesView{r.output.data(), 32}), u256{});      // flag 0
  EXPECT_EQ(u256::from_be_bytes(BytesView{r.output.data() + 32, 32}), u256{0xbd});
}

TEST_P(EvmTest, CalleeStateRevertedOnFailure) {
  base_.put_code(addr(0x79), assemble("PUSH1 5 PUSH1 9 SSTORE INVALID"));
  const CallResult r = run_asm(ret(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x0000000000000000000000000000000000000079
    PUSH3 0xffffff
    CALL
  )"));
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(u256::from_be_bytes(r.output), u256{});  // call failed
  EXPECT_EQ(overlay_get().storage(addr(0x79), u256{9}), u256{});  // rolled back
}

TEST_P(EvmTest, DelegatecallRunsInCallerContext) {
  // The library writes to slot 3; under DELEGATECALL the write lands in the
  // caller's storage and CALLER is preserved.
  base_.put_code(addr(0x7A), assemble("PUSH1 0x11 PUSH1 0x03 SSTORE CALLER PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN"));
  const CallResult r = run_asm(R"(
    PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x000000000000000000000000000000000000007a
    PUSH3 0xffffff
    DELEGATECALL
    POP
    PUSH1 0x20 PUSH1 0x00 RETURN
  )");
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(Address::from_u256(u256::from_be_bytes(r.output)), kCaller);
  EXPECT_EQ(overlay_get().storage(kContract, u256{3}), u256{0x11});
  EXPECT_EQ(overlay_get().storage(addr(0x7A), u256{3}), u256{});
}

TEST_P(EvmTest, StaticcallBlocksWrites) {
  base_.put_code(addr(0x7B), assemble("PUSH1 1 PUSH1 1 SSTORE STOP"));
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x000000000000000000000000000000000000007b
    PUSH3 0xffffff
    STATICCALL
  )")), u256{});  // callee failed with static violation
  EXPECT_EQ(overlay_get().storage(addr(0x7B), u256{1}), u256{});
}

TEST_P(EvmTest, StaticcallAllowsReads) {
  base_.put_storage(addr(0x7C), u256{2}, u256{0x5a});
  base_.put_code(addr(0x7C), assemble(ret("PUSH1 0x02 SLOAD")));
  const CallResult r = run_asm(R"(
    PUSH1 0x20 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x000000000000000000000000000000000000007c
    PUSH3 0xffffff
    STATICCALL
    POP
    PUSH1 0x20 PUSH1 0x00 RETURN
  )");
  EXPECT_EQ(u256::from_be_bytes(r.output), u256{0x5a});
}

TEST_P(EvmTest, InsufficientBalanceCallPushesZero) {
  // Contract has no balance; CALL with value must fail locally.
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH2 0xffff
    PUSH20 0x00000000000000000000000000000000000000e2
    PUSH2 0xffff
    CALL
  )")), u256{});
}

TEST_P(EvmTest, CallDepthLimit) {
  // Self-recursive call; must bottom out at depth 1024 without crashing.
  const std::string src = ret(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x00000000000000000000000000000000000000cc
    GAS
    CALL
  )");
  const CallResult r = run_asm(src);
  EXPECT_EQ(r.status, VmStatus::kSuccess);
}

TEST_P(EvmTest, CallerStackSurvivesEveryCallKind) {
  // Each callee runs one level deeper on its own stack, which it fills
  // from slot 0; the caller's 0x1111 must still be on top afterwards.
  base_.put_code(addr(0xDD), assemble("PUSH1 1 PUSH1 2 PUSH1 3 STOP"));
  EXPECT_EQ(run_word(ret(R"(
    PUSH2 0x1111
    PUSH0 PUSH0 PUSH0 PUSH0 PUSH0 PUSH1 0xdd GAS CALL POP
    PUSH0 PUSH0 PUSH0 PUSH0 PUSH0 PUSH1 0xdd GAS CALLCODE POP
    PUSH0 PUSH0 PUSH0 PUSH0 PUSH1 0xdd GAS DELEGATECALL POP
    PUSH0 PUSH0 PUSH0 PUSH0 PUSH1 0xdd GAS STATICCALL POP
    PUSH0 PUSH0 PUSH0 CREATE POP
  )")), u256{0x1111});
}

TEST_P(EvmTest, EachFrameStartsOnAnEmptyStack) {
  // The callee fills all 1,024 slots and stops; a second call at the same
  // depth, which reuses that depth's stack, must start empty again and not
  // overflow. Both calls succeed: 1 + 1.
  Bytes fill(Stack::kLimit, 0x5f);  // PUSH0 x 1024, then STOP
  fill.push_back(0x00);
  base_.put_code(addr(0xDD), fill);
  EXPECT_EQ(run_word(ret(R"(
    PUSH0 PUSH0 PUSH0 PUSH0 PUSH0 PUSH1 0xdd GAS CALL
    PUSH0 PUSH0 PUSH0 PUSH0 PUSH0 PUSH1 0xdd GAS CALL
    ADD
  )")), u256{2});
}

// --- create ---

TEST_P(EvmTest, CreateDeploysRunnableCode) {
  // Init code returns the runtime code `PUSH1 0x2a ...ret word` (returns 42).
  const Bytes runtime = assemble(ret("PUSH1 0x2a"));
  const std::string init_src = "PUSH32 0x" + to_hex(right_pad(runtime, 32)) +
                               " PUSH1 0x00 MSTORE PUSH1 " +
                               std::to_string(runtime.size()) +
                               " PUSH1 0x00 RETURN";
  const Bytes init = assemble(init_src);
  ASSERT_LE(init.size(), 64u);
  // Stage the init code into memory with two word stores, then CREATE.
  const Bytes lo(init.begin(), init.begin() + std::min<size_t>(32, init.size()));
  const Bytes hi(init.begin() + std::min<size_t>(32, init.size()), init.end());
  const std::string src =
      "PUSH32 0x" + to_hex(right_pad(lo, 32)) + " PUSH1 0x00 MSTORE " +
      "PUSH32 0x" + to_hex(right_pad(hi, 32)) + " PUSH1 0x20 MSTORE " +
      "PUSH1 " + std::to_string(init.size()) + " PUSH1 0x00 PUSH1 0x00 CREATE " +
      "PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN";
  const CallResult r = run_asm(src);
  ASSERT_EQ(r.status, VmStatus::kSuccess);
  const Address deployed = Address::from_u256(u256::from_be_bytes(r.output));
  EXPECT_FALSE(deployed.is_zero());
  EXPECT_EQ(overlay_get().code(deployed), runtime);
  EXPECT_EQ(overlay_get().nonce(deployed), 1u);
  // Deployer nonce bumped.
  EXPECT_EQ(overlay_get().nonce(kContract), 1u);
}

TEST_P(EvmTest, CreateAddressKnownVector) {
  // Well-known: the first contract of 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0
  // (nonce 0) is the famous 0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d.
  state::InMemoryState base;
  const Address sender = Address::from_hex("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0");
  base.put_account(sender, state::Account{.balance = u256{1} << 60});
  state::OverlayState overlay(base);
  Interpreter interp(overlay, BlockContext{});
  Transaction tx;
  tx.from = sender;
  tx.to = std::nullopt;
  tx.data = assemble("PUSH1 0x00 PUSH1 0x00 RETURN");  // deploy empty code
  const TxResult r = interp.execute_transaction(tx);
  ASSERT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(r.create_address.hex(), "0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d");
}

TEST_P(EvmTest, Create2AddressDeterministic) {
  const std::string create2 = R"(
    PUSH1 0x00        ; empty init code -> empty contract
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x07        ; salt... wait: order is value, offset, len, salt
  )";
  // CREATE2 stack: value, offset, length, salt (salt popped last).
  const std::string src = ret(R"(
    PUSH1 0x07   ; salt
    PUSH1 0x00   ; length
    PUSH1 0x00   ; offset
    PUSH1 0x00   ; value
    CREATE2
  )");
  const u256 addr1 = run_word(src);
  // Second create at the same salt collides.
  const u256 addr2 = run_word(ret(R"(
    PUSH1 0x07 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CREATE2
    POP
    PUSH1 0x07 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 CREATE2
  )"));
  EXPECT_FALSE(addr1.is_zero());
  EXPECT_TRUE(addr2.is_zero());  // collision pushes 0
}

TEST_P(EvmTest, CreateRevertedInitcodePushesZero) {
  // Init code is the single byte 0xfd (REVERT with an empty stack ->
  // failure), so CREATE must push zero.
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 0xfd PUSH1 0x00 MSTORE8
    PUSH1 0x01   ; length
    PUSH1 0x00   ; offset
    PUSH1 0x00   ; value (popped first)
    CREATE
  )")), u256{});
}

TEST_P(EvmTest, CreateRejectsEfPrefix) {
  // Init code returning 0xEF-prefixed runtime must fail (EIP-3541).
  const Bytes init = assemble("PUSH1 0xef PUSH1 0x00 MSTORE8 PUSH1 0x01 PUSH1 0x00 RETURN");
  const std::string src = ret(
      "PUSH32 0x" + to_hex(right_pad(init, 32)) + " PUSH1 0x00 MSTORE PUSH1 " +
      std::to_string(init.size()) + " PUSH1 0x00 PUSH1 0x00 CREATE");
  EXPECT_EQ(run_word(src), u256{});
}

// --- selfdestruct ---

TEST_P(EvmTest, SelfdestructMovesBalance) {
  base_.put_account(kContract, state::Account{.balance = u256{5000}});
  const CallResult r = run_asm(
      "PUSH20 0x00000000000000000000000000000000000000b1 SELFDESTRUCT");
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(overlay_get().balance(addr(0xb1)), u256{5000});
  EXPECT_EQ(overlay_get().balance(kContract), u256{});
}

// --- precompiles ---

TEST_P(EvmTest, Sha256Precompile) {
  const Bytes input = {'a', 'b', 'c'};
  const CallResult r = run_asm(R"(
    PUSH1 0x61 PUSH1 0x00 MSTORE8
    PUSH1 0x62 PUSH1 0x01 MSTORE8
    PUSH1 0x63 PUSH1 0x02 MSTORE8
    PUSH1 0x20 PUSH1 0x40 PUSH1 0x03 PUSH1 0x00
    PUSH1 0x02       ; sha256 precompile
    PUSH2 0xffff
    STATICCALL
    POP
    PUSH1 0x20 PUSH1 0x40 RETURN
  )");
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(to_hex(r.output),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(EvmTest, IdentityPrecompile) {
  Bytes input = from_hex("deadbeef");
  const CallResult r = run_asm(R"(
    PUSH1 0x04 PUSH1 0x00 PUSH1 0x00 CALLDATACOPY
    PUSH1 0x04 PUSH1 0x20 PUSH1 0x04 PUSH1 0x00
    PUSH1 0x04       ; identity precompile
    PUSH2 0xffff
    STATICCALL
    POP
    PUSH1 0x04 PUSH1 0x20 RETURN
  )", input);
  EXPECT_EQ(to_hex(r.output), "deadbeef");
}

TEST_P(EvmTest, EcrecoverPrecompile) {
  // Host-side: sign a hash, then recover in-EVM.
  const crypto::PrivateKey key(u256{0xbeef});
  const H256 hash = crypto::keccak256("sign me");
  const crypto::Signature sig = key.sign(hash);
  Bytes input;
  append(input, hash.view());
  append(input, u256{uint64_t{27} + sig.recovery_id}.to_be_bytes_vec());
  append(input, sig.r.to_be_bytes_vec());
  append(input, sig.s.to_be_bytes_vec());
  const CallResult r = run_asm(R"(
    PUSH1 0x80 PUSH1 0x00 PUSH1 0x00 CALLDATACOPY
    PUSH1 0x20 PUSH1 0x80 PUSH1 0x80 PUSH1 0x00
    PUSH1 0x01       ; ecrecover
    PUSH2 0xffff
    STATICCALL
    POP
    PUSH1 0x20 PUSH1 0x80 RETURN
  )", input);
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(Address::from_u256(u256::from_be_bytes(r.output)),
            crypto::pubkey_to_address(key.public_key()));
}

TEST_P(EvmTest, ModexpPrecompile) {
  // 3^5 mod 7 = 5, via the 0x05 precompile.
  Bytes input;
  append(input, u256{1}.to_be_bytes_vec());  // base_len
  append(input, u256{1}.to_be_bytes_vec());  // exp_len
  append(input, u256{1}.to_be_bytes_vec());  // mod_len
  input.push_back(3);
  input.push_back(5);
  input.push_back(7);
  const CallResult r = run_asm(R"(
    PUSH1 0x63 PUSH1 0x00 PUSH1 0x00 CALLDATACOPY
    PUSH1 0x01 PUSH1 0x80 PUSH1 0x63 PUSH1 0x00
    PUSH1 0x05       ; modexp
    PUSH2 0xffff
    STATICCALL
    POP
    PUSH1 0x01 PUSH1 0x80 RETURN
  )", input);
  ASSERT_EQ(r.status, VmStatus::kSuccess);
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 5);
}

TEST_P(EvmTest, ModexpWordSizedOperands) {
  // Fermat: a^(p-1) mod p == 1 for prime p (secp256k1's field prime).
  const u256 p = crypto::secp256k1::field_prime();
  Bytes input;
  append(input, u256{32}.to_be_bytes_vec());
  append(input, u256{32}.to_be_bytes_vec());
  append(input, u256{32}.to_be_bytes_vec());
  append(input, u256{0xabcdef}.to_be_bytes_vec());      // base
  append(input, (p - u256{1}).to_be_bytes_vec());       // exponent
  append(input, p.to_be_bytes_vec());                   // modulus
  const CallResult r = run_asm(R"(
    PUSH2 0x00c0 PUSH1 0x00 PUSH1 0x00 CALLDATACOPY
    PUSH1 0x20 PUSH2 0x0100 PUSH2 0x00c0 PUSH1 0x00
    PUSH1 0x05
    PUSH3 0xffffff
    STATICCALL
    POP
    PUSH1 0x20 PUSH2 0x0100 RETURN
  )", input);
  ASSERT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(u256::from_be_bytes(r.output), u256{1});
}

TEST_P(EvmTest, ModexpZeroModulusYieldsZero) {
  Bytes input;
  append(input, u256{1}.to_be_bytes_vec());
  append(input, u256{1}.to_be_bytes_vec());
  append(input, u256{1}.to_be_bytes_vec());
  input.push_back(3);
  input.push_back(5);
  input.push_back(0);  // modulus 0
  const CallResult r = run_asm(R"(
    PUSH1 0x63 PUSH1 0x00 PUSH1 0x00 CALLDATACOPY
    PUSH1 0x01 PUSH1 0x80 PUSH1 0x63 PUSH1 0x00
    PUSH1 0x05 PUSH2 0xffff STATICCALL
    POP
    PUSH1 0x01 PUSH1 0x80 RETURN
  )", input);
  ASSERT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(r.output[0], 0);
}

// --- transactions ---

TEST_P(EvmTest, PlainTransferCosts21000) {
  Transaction tx;
  tx.from = kCaller;
  tx.to = addr(0x99);
  tx.value = u256{1000};
  tx.gas_limit = 100000;
  const TxResult r = interp_get().execute_transaction(tx);
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_EQ(r.gas_used, 21000u);
  EXPECT_EQ(overlay_get().balance(addr(0x99)), u256{1000});
  EXPECT_EQ(overlay_get().nonce(kCaller), 1u);
}

TEST_P(EvmTest, TransactionFeesSettle) {
  Transaction tx;
  tx.from = kCaller;
  tx.to = addr(0x99);
  tx.gas_limit = 50000;
  tx.gas_price = u256{3};
  const u256 before = overlay_get().balance(kCaller);
  const TxResult r = interp_get().execute_transaction(tx);
  EXPECT_EQ(overlay_get().balance(kCaller), before - u256{r.gas_used} * u256{3});
  EXPECT_EQ(overlay_get().balance(addr(0xFE)), u256{r.gas_used} * u256{3});  // coinbase
}

TEST_P(EvmTest, TransactionNonceChecks) {
  Transaction tx;
  tx.from = kCaller;
  tx.to = addr(0x99);
  tx.nonce = 5;  // account nonce is 0
  EXPECT_EQ(interp_get().execute_transaction(tx).status, VmStatus::kNonceMismatch);
  tx.nonce = 0;
  EXPECT_EQ(interp_get().execute_transaction(tx).status, VmStatus::kSuccess);
  // Nonce advanced; replay fails.
  EXPECT_EQ(interp_get().execute_transaction(tx).status, VmStatus::kNonceMismatch);
}

TEST_P(EvmTest, TransactionInsufficientBalance) {
  Transaction tx;
  tx.from = addr(0x01);  // empty account
  tx.to = addr(0x99);
  tx.value = u256{1};
  EXPECT_EQ(interp_get().execute_transaction(tx).status, VmStatus::kInsufficientBalance);
}

TEST_P(EvmTest, TransactionIntrinsicGasTooLow) {
  Transaction tx;
  tx.from = kCaller;
  tx.to = addr(0x99);
  tx.gas_limit = 20000;
  EXPECT_EQ(interp_get().execute_transaction(tx).status, VmStatus::kOutOfGas);
}

TEST_P(EvmTest, IntrinsicGasCountsCalldata) {
  Transaction tx;
  tx.data = Bytes{0x00, 0x00, 0x01, 0x02};  // 2 zero + 2 nonzero
  tx.to = addr(0x99);
  EXPECT_EQ(tx.intrinsic_gas(), 21000u + 2 * 4 + 2 * 16);
  tx.to = std::nullopt;
  EXPECT_EQ(tx.intrinsic_gas(), 21000u + 2 * 4 + 2 * 16 + 32000 + 2);
}

TEST_P(EvmTest, RefundCappedAtFifth) {
  // Clear two pre-existing slots: refund 9600, but cap = gas_used / 5.
  base_.put_storage(kContract, u256{1}, u256{1});
  base_.put_storage(kContract, u256{2}, u256{1});
  base_.put_code(kContract, assemble("PUSH0 PUSH1 1 SSTORE PUSH0 PUSH1 2 SSTORE STOP"));
  Transaction tx;
  tx.from = kCaller;
  tx.to = kContract;
  tx.gas_limit = 200000;
  const TxResult r = interp_get().execute_transaction(tx);
  EXPECT_EQ(r.status, VmStatus::kSuccess);
  EXPECT_GT(r.gas_refunded, 0u);
  EXPECT_LE(r.gas_refunded, (r.gas_used + r.gas_refunded) / 5);
}

// --- HarDTAPE memory overflow ---

TEST_P(EvmTest, FrameMemoryLimitTriggersMemoryOverflow) {
  set_frame_memory_limit(512 * 1024);  // half of 1 MB layer 2 (§IV-B)
  const CallResult r = run_asm("PUSH1 1 PUSH3 0x100000 MSTORE STOP");  // touch 1 MB
  EXPECT_EQ(r.status, VmStatus::kMemoryOverflow);
}

TEST_P(EvmTest, MemoryOverflowCannotBeCaughtByCaller) {
  set_frame_memory_limit(512 * 1024);
  // Callee blows the limit; caller tries to swallow the failure.
  base_.put_code(addr(0x7D), assemble("PUSH1 1 PUSH3 0x100000 MSTORE STOP"));
  const CallResult r = run_asm(ret(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x000000000000000000000000000000000000007d
    PUSH4 0xffffffff
    CALL
  )"));
  EXPECT_EQ(r.status, VmStatus::kMemoryOverflow);
}

TEST_P(EvmTest, NoLimitWhenDisabled) {
  const CallResult r = run_asm("PUSH1 1 PUSH3 0x100000 MSTORE STOP");
  EXPECT_EQ(r.status, VmStatus::kSuccess);
}

// --- tracing ---

// The HEVM core's observer with a default cost model and layer 2, recording
// steps.
hevm::HevmObserver hevm_observer(sim::SimClock& clock) {
  return hevm::HevmObserver(clock, sim::HevmCostModel{}, memlayer::MemLayerConfig{},
                            crypto::AesKey128{}, /*record_steps=*/true, /*trace=*/nullptr);
}

TEST_P(EvmTest, RecordedStepsFollowProgram) {
  sim::SimClock clock;
  hevm::HevmObserver observer = hevm_observer(clock);
  set_observer(&observer);
  run_asm("PUSH1 1 PUSH1 2 ADD STOP");
  const std::vector<Step> steps = observer.take_steps();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0].opcode, 0x60);
  EXPECT_EQ(steps[2].opcode, 0x01);  // ADD
  EXPECT_EQ(steps[2].stack_size, 2u);
  EXPECT_EQ(steps[3].opcode, 0x00);  // STOP
  // Gas decreases monotonically within a frame.
  EXPECT_GT(steps[0].gas_left, steps[3].gas_left);
  EXPECT_EQ(observer.instructions(), 4u);
  EXPECT_TRUE(observer.take_steps().empty());  // taken once
}

TEST_P(EvmTest, FrameStatsCollectorSeesNestedCalls) {
  FrameStatsCollector stats;
  set_observer(&stats);
  base_.put_code(addr(0x7E), assemble(ret("PUSH1 0x05 SLOAD")));
  run_asm(ret(R"(
    PUSH1 0x20 PUSH1 0x00 PUSH1 0x04 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x000000000000000000000000000000000000007e
    PUSH3 0xffffff
    CALL
  )"));
  ASSERT_EQ(stats.frames().size(), 2u);  // callee exits first
  EXPECT_EQ(stats.max_depth(), 2);
  const auto& callee = stats.frames()[0];
  EXPECT_EQ(callee.depth, 2);
  EXPECT_EQ(callee.input_size, 4u);
  EXPECT_EQ(callee.storage_slots, 1u);
  EXPECT_GT(callee.code_size, 0u);
}

// Runs one transaction from kCaller to `to`.
TxResult call_tx(Interpreter& interp, const Address& to) {
  Transaction tx;
  tx.from = kCaller;
  tx.to = to;
  tx.gas_limit = 1'000'000;
  return interp.execute_transaction(tx);
}

// Logs reach whoever reads the transaction's result, observed or not.
TEST_P(EvmTest, LogsReachObserver) {
  base_.put_code(kContract, assemble(R"(
    PUSH1 0xaa PUSH1 0x00 MSTORE
    PUSH1 0x99             ; topic
    PUSH1 0x20 PUSH1 0x00  ; data
    LOG1
    STOP
  )"));
  const TxResult r = call_tx(interp_get(), kContract);
  ASSERT_EQ(r.status, VmStatus::kSuccess);
  ASSERT_EQ(r.logs.size(), 1u);
  EXPECT_EQ(r.logs[0].address, kContract);
  ASSERT_EQ(r.logs[0].topics.size(), 1u);
  EXPECT_EQ(r.logs[0].topics[0], u256{0x99});
  EXPECT_EQ(u256::from_be_bytes(r.logs[0].data), u256{0xaa});
}

// A frame that fails takes its logs with it on every rollback path: a
// DELEGATECALL (rolled back inside the caller's frame) and a CREATE whose
// init code logs and reverts. The surviving logs keep their order.
TEST_P(EvmTest, RevertedFramesDropTheirLogs) {
  base_.put_code(addr(0x7D), assemble("PUSH1 0x02 PUSH0 PUSH0 LOG1 PUSH0 PUSH0 REVERT"));
  const Bytes init = assemble("PUSH1 0x03 PUSH0 PUSH0 LOG1 PUSH0 PUSH0 REVERT");
  base_.put_code(kContract, assemble(
      "PUSH1 0x01 PUSH0 PUSH0 LOG1 "
      "PUSH0 PUSH0 PUSH0 PUSH0 PUSH20 0x000000000000000000000000000000000000007d "
      "GAS DELEGATECALL POP "
      "PUSH32 0x" + to_hex(right_pad(init, 32)) + " PUSH0 MSTORE PUSH1 " +
      std::to_string(init.size()) + " PUSH0 PUSH0 CREATE POP "
      "PUSH1 0x04 PUSH0 PUSH0 LOG1 STOP"));
  const TxResult r = call_tx(interp_get(), kContract);
  ASSERT_EQ(r.status, VmStatus::kSuccess);
  ASSERT_EQ(r.logs.size(), 2u);
  EXPECT_EQ(r.logs[0].topics, std::vector<u256>{u256{1}});
  EXPECT_EQ(r.logs[1].topics, std::vector<u256>{u256{4}});
}

TEST_P(EvmTest, StaticContextBlocksLogs) {
  base_.put_code(addr(0x7F), assemble("PUSH1 0x00 PUSH1 0x00 LOG0 STOP"));
  EXPECT_EQ(run_word(ret(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x000000000000000000000000000000000000007f
    PUSH3 0xffffff
    STATICCALL
  )")), u256{});
}

// --- CALLDATALOAD offset-overflow regression ---

TEST_P(EvmTest, CalldataloadOffsetNear2e64ZeroPads) {
  // Offset 2^64 - 16: with wrapping `off + i` bounds, the guard passes for
  // i >= 16 and the word picks up the *start* of calldata instead of the
  // zero padding past its end.
  Bytes input(32, 0xAB);
  EXPECT_TRUE(run_word(ret(R"(
    PUSH8 0xfffffffffffffff0
    CALLDATALOAD
  )"), std::move(input)).is_zero());
}

TEST_P(EvmTest, CalldataloadTailStillZeroPads) {
  Bytes input(32, 0);
  input[16] = 0x12;
  // Offset 16 of a 32-byte input: high half is data, low half zero-padded.
  const u256 word = run_word(ret(R"(
    PUSH1 0x10
    CALLDATALOAD
  )"), std::move(input));
  EXPECT_EQ(word, u256{0x12} << 248);
}

TEST_P(EvmTest, CalldataloadHugeOffsetIsZero) {
  Bytes input(64, 0xFF);
  EXPECT_TRUE(run_word(ret(R"(
    PUSH9 0x010000000000000000
    CALLDATALOAD
  )"), std::move(input)).is_zero());
}

// --- seeded observer fuzz over the full opcode set ---

struct FuzzRun {
  CallResult result;
  Interpreter::FrameDebug frame;
};

// Executes the code at kContract over a fresh overlay, with or without an
// observer attached.
FuzzRun run_program(state::InMemoryState& base, const Bytes& input, uint64_t gas,
                    bool observed, uint64_t mem_limit) {
  state::OverlayState overlay(base);
  BlockContext block;
  block.number = 19145194;
  block.timestamp = 1706600000;
  block.coinbase = addr(0xFE);
  Interpreter interp(overlay, std::move(block));
  interp.set_frame_memory_limit(mem_limit);
  FuzzRun out;
  sim::SimClock clock;
  hevm::HevmObserver observer = hevm_observer(clock);
  if (observed) interp.set_observer(&observer);
  interp.set_frame_debug(&out.frame);
  Interpreter::Message msg;
  msg.code_address = kContract;
  msg.recipient = kContract;
  msg.sender = kCaller;
  msg.origin = kCaller;
  msg.input = input;
  msg.gas = gas;
  msg.depth = 1;
  out.result = interp.call(msg);
  return out;
}

// Emits a mostly-plausible random program: valid opcodes with fed stacks,
// liberal JUMPDESTs so random jumps sometimes land, plus raw random bytes
// for undefined-opcode coverage.
Bytes random_program(Random& rng) {
  Bytes code;
  const size_t target = rng.uniform_range(16, 192);
  const auto emit = [&](std::initializer_list<uint8_t> bytes) {
    for (uint8_t b : bytes) code.push_back(b);
  };
  const uint8_t alu[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                         0x09, 0x0a, 0x0b, 0x10, 0x11, 0x12, 0x13, 0x14,
                         0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d};
  const uint8_t env[] = {0x30, 0x32, 0x33, 0x34, 0x35, 0x36, 0x38, 0x3a,
                         0x3d, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46,
                         0x47, 0x48, 0x58, 0x59, 0x5a};
  const uint8_t state_ops[] = {0x31, 0x3b, 0x3f, 0x54, 0x55, 0x5c, 0x5d, 0x20};
  const uint8_t mem_ops[] = {0x51, 0x52, 0x53, 0x5e, 0x37, 0x39, 0x3c, 0x3e};
  const uint8_t calls[] = {0xf0, 0xf1, 0xf2, 0xf4, 0xf5, 0xfa};
  const uint8_t halts[] = {0x00, 0xf3, 0xfd, 0xfe, 0xff};
  while (code.size() < target) {
    switch (rng.uniform(100)) {
      case 0: case 1: case 2: case 3: case 4: case 5: case 6: case 7:
      case 8: case 9: case 10: case 11: case 12: case 13: case 14: case 15:
      case 16: case 17:  // small PUSH1 (feeds offsets and jump targets)
        emit({0x60, static_cast<uint8_t>(rng.uniform(192))});
        break;
      case 18: case 19: case 20: case 21: case 22: case 23: {  // PUSHn random
        const auto n = static_cast<uint8_t>(rng.uniform_range(1, 8));
        code.push_back(static_cast<uint8_t>(0x5f + n));
        for (uint8_t i = 0; i < n; ++i)
          code.push_back(static_cast<uint8_t>(rng.uniform(256)));
        break;
      }
      case 24:  // PUSH32 full word
        code.push_back(0x7f);
        for (int i = 0; i < 32; ++i)
          code.push_back(static_cast<uint8_t>(rng.uniform(256)));
        break;
      case 25: case 26: case 27: case 28: case 29: case 30: case 31:
      case 32: case 33: case 34: case 35: case 36: case 37: case 38:
      case 39: case 40: case 41: case 42: case 43: case 44:  // ALU
        code.push_back(alu[rng.uniform(sizeof alu)]);
        break;
      case 45: case 46: case 47: case 48: case 49: case 50: case 51:
      case 52:  // DUP/SWAP
        code.push_back(static_cast<uint8_t>(0x80 + rng.uniform(32)));
        break;
      case 53: case 54: case 55: case 56: case 57: case 58:  // POP / PUSH0
        code.push_back(rng.uniform(2) == 0 ? 0x50 : 0x5f);
        break;
      case 59: case 60: case 61: case 62: case 63: case 64: case 65:
      case 66:  // environment / gas / msize / pc
        code.push_back(env[rng.uniform(sizeof env)]);
        break;
      case 67: case 68: case 69: case 70: case 71: case 72:  // memory
        emit({0x60, static_cast<uint8_t>(rng.uniform(96))});
        code.push_back(mem_ops[rng.uniform(sizeof mem_ops)]);
        break;
      case 73: case 74: case 75: case 76:  // storage / keccak / ext
        code.push_back(state_ops[rng.uniform(sizeof state_ops)]);
        break;
      case 77: case 78: case 79: case 80: case 81: case 82: case 83:
      case 84: case 85:  // JUMPDEST: liberal landing pads
        code.push_back(0x5b);
        break;
      case 86: case 87: case 88: case 89: case 90:  // jump
        emit({0x60, static_cast<uint8_t>(rng.uniform(192))});
        code.push_back(rng.uniform(2) == 0 ? 0x56 : 0x57);
        break;
      case 91: case 92:  // LOG0-4
        code.push_back(static_cast<uint8_t>(0xa0 + rng.uniform(5)));
        break;
      case 93: case 94:  // call family
        code.push_back(calls[rng.uniform(sizeof calls)]);
        break;
      case 95:  // halting
        code.push_back(halts[rng.uniform(sizeof halts)]);
        break;
      default:  // raw byte: undefined-opcode and decoder robustness
        code.push_back(static_cast<uint8_t>(rng.uniform(256)));
        break;
    }
  }
  return code;
}

// Observers watch execution; they must never change it. Every random program
// runs unobserved and observed by the HEVM core's own observer (cycle model,
// layer-2 pager, step capture), and the two runs must agree on status, gas
// remainder, output, and the outermost frame's final stack and memory.
TEST(EvmObserverFuzz, ObserversNeverChangeSemantics) {
  state::InMemoryState base;
  base.put_account(kCaller,
                   state::Account{.balance = u256::from_string("1000000000000000000")});
  base.put_account(kContract, state::Account{.balance = u256{999}});
  base.put_code(addr(0x7F),
                assemble("PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN"));
  Random rng(0x48617244'54415045ull);  // seeded: deterministic in CI
  constexpr int kPrograms = 300;
  const uint64_t gas_limits[] = {500, 5'000, 100'000};
  for (int p = 0; p < kPrograms; ++p) {
    const Bytes code = random_program(rng);
    const Bytes input = rng.bytes(rng.uniform(64));
    const uint64_t gas = gas_limits[p % 3];
    const uint64_t mem_limit = p % 7 == 0 ? 4096 : 0;
    base.put_code(kContract, code);
    SCOPED_TRACE("program " + std::to_string(p) + " code=" + to_hex(code));
    const FuzzRun plain = run_program(base, input, gas, /*observed=*/false, mem_limit);
    const FuzzRun watched = run_program(base, input, gas, /*observed=*/true, mem_limit);
    ASSERT_EQ(plain.result.status, watched.result.status)
        << to_string(plain.result.status) << " vs " << to_string(watched.result.status);
    ASSERT_EQ(plain.result.gas_left, watched.result.gas_left);
    ASSERT_EQ(to_hex(plain.result.output), to_hex(watched.result.output));
    ASSERT_EQ(plain.frame.status, watched.frame.status);
    ASSERT_EQ(plain.frame.gas_left, watched.frame.gas_left);
    ASSERT_TRUE(plain.frame.stack == watched.frame.stack) << "final stacks diverge";
    ASSERT_EQ(to_hex(plain.frame.memory), to_hex(watched.frame.memory));
  }
}

}  // namespace
}  // namespace hardtape::evm
