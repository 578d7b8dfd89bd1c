// Conformance suites:
//  - the full EIP-2200/EIP-3529 SSTORE gas & refund case matrix, measured
//    in-EVM with the GAS opcode (parameterized),
//  - u256 algebraic properties over randomized inputs (parameterized seeds),
//  - Path ORAM durability across a (block_size, Z, capacity) grid.
#include <gtest/gtest.h>

#include "evm/assembler.hpp"
#include "evm/interpreter.hpp"
#include "oram/path_oram.hpp"
#include "state/overlay.hpp"

namespace hardtape {
namespace {

// ---------------------------------------------------------------------------
// SSTORE gas matrix
// ---------------------------------------------------------------------------

struct SstoreCase {
  const char* name;
  uint64_t original;  // value in the base state
  uint64_t current;   // value written earlier in the SAME tx (0 = skip write)
  bool prewarm;       // SLOAD the slot first (warm, non-dirty cases)
  uint64_t next;      // the measured SSTORE's value
  uint64_t expect_gas;
  uint64_t expect_refund;
};

// Berlin/London parameters: warm base 100, set 20000, reset 2900,
// clear refund 4800, cold surcharge 2100 (avoided via prewarm/dirty writes).
const SstoreCase kSstoreCases[] = {
    {"noop_same_value", 5, 0, true, 5, 100, 0},
    {"clean_set_from_zero", 0, 0, true, 7, 20000, 0},
    {"clean_clear_nonzero", 5, 0, true, 0, 2900, 4800},
    {"clean_change_nonzero", 5, 0, true, 7, 2900, 0},
    {"dirty_change_again", 5, 7, false, 9, 100, 0},
    {"dirty_clear_after_change", 5, 7, false, 0, 100, 4800},
    {"dirty_restore_original_nonzero", 5, 7, false, 5, 100, 2800},
    {"dirty_set_after_clear", 5, 0xFFFF, false, 3, 100, 0},  // current!=0 path
    {"dirty_restore_original_zero", 0, 7, false, 0, 100, 19900},
    {"dirty_clear_was_cleared", 5, 0, false, 3, 100, 0},  // see body: C==0 via write
};

// Prints a case as its (original, current, next) values. Without this, gtest
// prints the raw struct bytes, whose name pointer differs from run to run,
// so the test ids would not be stable.
void PrintTo(const SstoreCase& c, std::ostream* os) {
  *os << "{" << c.original << ", " << c.current << ", " << c.next << "}";
}

class SstoreGasTest : public ::testing::TestWithParam<SstoreCase> {};

INSTANTIATE_TEST_SUITE_P(Eip2200, SstoreGasTest, ::testing::ValuesIn(kSstoreCases),
                         [](const auto& info) { return info.param.name; });

TEST_P(SstoreGasTest, GasAndRefundMatchSpec) {
  const SstoreCase& c = GetParam();
  Address contract, caller;
  contract.bytes[19] = 0xCC;
  caller.bytes[19] = 0xAA;

  state::InMemoryState base;
  base.put_account(caller, state::Account{.balance = u256{1} << 40});
  if (c.original != 0) base.put_storage(contract, u256{1}, u256{c.original});

  // Program: [prelude to reach the target current/warm state]
  //          GAS; PUSH new; PUSH key; SSTORE; GAS; SWAP1 SUB; return word.
  std::string src;
  if (c.prewarm) {
    src += "PUSH1 0x01 SLOAD POP\n";  // warm the slot, O == C
  } else {
    // Dirty the slot within the same transaction: C = c.current.
    src += "PUSH2 " + std::to_string(c.current) + " PUSH1 0x01 SSTORE\n";
  }
  src += R"(
    GAS
    PUSH2 )" + std::to_string(c.next) + R"( PUSH1 0x01 SSTORE
    GAS
    SWAP1 SUB
    PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
  )";
  base.put_code(contract, evm::assemble(src));

  state::OverlayState overlay(base);
  evm::Interpreter interp(overlay, evm::BlockContext{});
  const uint64_t refund_before_tx = 0;
  evm::Interpreter::Message msg;
  msg.code_address = contract;
  msg.recipient = contract;
  msg.sender = caller;
  msg.gas = 1'000'000;
  msg.depth = 1;
  // Match execute_transaction()'s per-tx reset.
  overlay.begin_transaction();
  const auto result = interp.call(msg);
  ASSERT_EQ(result.status, evm::VmStatus::kSuccess) << evm::to_string(result.status);

  // Between the two GAS reads: PUSH2(3) + PUSH1(3) + SSTORE(X) + GAS(2).
  const uint64_t measured = u256::from_be_bytes(result.output).as_u64() - 8;
  EXPECT_EQ(measured, c.expect_gas) << c.name;
  EXPECT_EQ(overlay.refund() - refund_before_tx, c.expect_refund) << c.name;
}

// ---------------------------------------------------------------------------
// u256 properties
// ---------------------------------------------------------------------------

class U256PropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, U256PropertyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST_P(U256PropertyTest, RingAxioms) {
  Random rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const u256 a(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    const u256 b(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    const u256 c(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    ASSERT_EQ(a + b, b + a);
    ASSERT_EQ((a + b) + c, a + (b + c));
    ASSERT_EQ(a * b, b * a);
    ASSERT_EQ((a * b) * c, a * (b * c));
    ASSERT_EQ(a * (b + c), a * b + a * c);
    ASSERT_EQ(a + u256{}, a);
    ASSERT_EQ(a * u256{1}, a);
    ASSERT_EQ(a - a, u256{});
    ASSERT_EQ(a + a.neg(), u256{});
  }
}

TEST_P(U256PropertyTest, ShiftsAndMasks) {
  Random rng(GetParam() * 31);
  for (int i = 0; i < 200; ++i) {
    const u256 a(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    const unsigned s = static_cast<unsigned>(rng.uniform(256));
    ASSERT_EQ((a << s) >> s, a & (~u256{} >> s));
    ASSERT_EQ((a >> s) << s, a & (~u256{} << s));
    ASSERT_EQ(a ^ a, u256{});
    ASSERT_EQ(a & a, a);
    ASSERT_EQ(a | a, a);
    ASSERT_EQ(~~a, a);
    // Shift-by-multiplication equivalence for small shifts.
    const unsigned k = static_cast<unsigned>(rng.uniform(63));
    ASSERT_EQ(a << k, a * u256::exp(u256{2}, u256{k}));
  }
}

TEST_P(U256PropertyTest, DivModAgainstMultiplication) {
  Random rng(GetParam() * 127 + 1);
  for (int i = 0; i < 200; ++i) {
    const u256 a(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    u256 b(0, rng.uniform(2) ? rng.next_u64() : 0, rng.next_u64(), rng.next_u64() | 1);
    const auto [q, r] = u256::divmod(a, b);
    ASSERT_EQ(q * b + r, a);
    ASSERT_LT(r, b);
    // mulmod consistency with mul for small operands.
    const u256 small_a{rng.next_u64()};
    const u256 small_b{rng.next_u64()};
    const u256 m{rng.next_u64() | 1};
    ASSERT_EQ(u256::mulmod(small_a, small_b, m), (small_a * small_b) % m);
    ASSERT_EQ(u256::addmod(small_a, small_b, m), (small_a + small_b) % m);
  }
}

TEST_P(U256PropertyTest, SignedOpsAgainstInt128) {
  Random rng(GetParam() * 7919);
  for (int i = 0; i < 300; ++i) {
    // Sample small signed values, compute in __int128, compare.
    const auto sa = static_cast<int64_t>(rng.next_u64());
    const auto sb = static_cast<int64_t>(rng.next_u64() | 1);
    const u256 a = sa >= 0 ? u256{static_cast<uint64_t>(sa)}
                           : u256{static_cast<uint64_t>(-sa)}.neg();
    const u256 b = sb >= 0 ? u256{static_cast<uint64_t>(sb)}
                           : u256{static_cast<uint64_t>(-sb)}.neg();
    const __int128 q = static_cast<__int128>(sa) / sb;
    const __int128 r = static_cast<__int128>(sa) % sb;
    const u256 expect_q = q >= 0 ? u256{static_cast<uint64_t>(q)}
                                 : u256{static_cast<uint64_t>(-q)}.neg();
    const u256 expect_r = r >= 0 ? u256{static_cast<uint64_t>(r)}
                                 : u256{static_cast<uint64_t>(-r)}.neg();
    ASSERT_EQ(u256::sdiv(a, b), expect_q) << sa << "/" << sb;
    ASSERT_EQ(u256::smod(a, b), expect_r) << sa << "%" << sb;
    ASSERT_EQ(u256::slt(a, b), sa < sb);
  }
}

TEST_P(U256PropertyTest, StringRoundTrip) {
  Random rng(GetParam() * 57);
  for (int i = 0; i < 100; ++i) {
    const u256 a(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
    ASSERT_EQ(u256::from_string(a.to_string()), a);
    ASSERT_EQ(u256::from_string("0x" + a.to_hex()), a);
    ASSERT_EQ(u256::from_be_bytes(a.to_be_bytes()), a);
  }
}

// ---------------------------------------------------------------------------
// ORAM durability grid
// ---------------------------------------------------------------------------

struct OramGridCase {
  size_t block_size;
  size_t bucket_capacity;
  size_t capacity;
};

class OramGridTest : public ::testing::TestWithParam<OramGridCase> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, OramGridTest,
    ::testing::Values(OramGridCase{32, 4, 64}, OramGridCase{64, 4, 256},
                      OramGridCase{64, 5, 256}, OramGridCase{128, 4, 1024},
                      OramGridCase{256, 6, 128}),
    [](const auto& info) {
      return "b" + std::to_string(info.param.block_size) + "_z" +
             std::to_string(info.param.bucket_capacity) + "_n" +
             std::to_string(info.param.capacity);
    });

TEST_P(OramGridTest, ChurnPreservesData) {
  const OramGridCase& c = GetParam();
  oram::OramServer server(oram::OramConfig{.block_size = c.block_size,
                                           .bucket_capacity = c.bucket_capacity,
                                           .capacity = c.capacity,
                                           .max_stash_blocks = 4 * c.capacity});
  crypto::AesKey128 key{};
  key[0] = 0x44;
  oram::OramClient client(server, key, 77, oram::SealMode::kChaChaHmac);

  const size_t blocks = c.capacity / 2;  // 50% load
  Random rng(c.capacity + c.bucket_capacity);
  std::unordered_map<uint64_t, uint8_t> expected;
  auto bid = [](uint64_t i) {
    return crypto::keccak256(u256{i}.to_be_bytes_vec()).to_u256();
  };
  for (uint64_t i = 0; i < blocks; ++i) {
    const auto v = static_cast<uint8_t>(rng.next_u64());
    client.write(bid(i), Bytes{v});
    expected[i] = v;
  }
  for (int step = 0; step < 300; ++step) {
    const uint64_t i = rng.uniform(blocks);
    if (rng.uniform(3) == 0) {
      const auto v = static_cast<uint8_t>(rng.next_u64());
      client.write(bid(i), Bytes{v});
      expected[i] = v;
    } else {
      const auto back = client.read(bid(i));
      ASSERT_TRUE(back.has_value());
      ASSERT_EQ((*back)[0], expected[i]);
    }
  }
  EXPECT_FALSE(client.stash_overflowed());
}

}  // namespace
}  // namespace hardtape
