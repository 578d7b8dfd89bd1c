// Functional tests for the hand-assembled workload contracts and the
// Table-I-calibrated block generator.
#include <gtest/gtest.h>

#include "evm/interpreter.hpp"
#include "evm/trace.hpp"
#include "state/overlay.hpp"
#include "workload/generator.hpp"

namespace hardtape::workload {
namespace {

Address addr(uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

class ContractTest : public ::testing::Test {
 protected:
  ContractTest() {
    world_.set_balance(alice_, u256{1} << 64);
    world_.set_balance(bob_, u256{1} << 32);
  }

  evm::TxResult send(const Address& from, const Address& to, Bytes data,
                     u256 value = {}, uint64_t gas = 5'000'000,
                     evm::ExecutionObserver* observer = nullptr) {
    state::OverlayState overlay(world_);
    evm::Interpreter interp(overlay, evm::BlockContext{});
    if (observer) interp.set_observer(observer);
    evm::Transaction tx;
    tx.from = from;
    tx.to = to;
    tx.data = std::move(data);
    tx.value = value;
    tx.gas_limit = gas;
    tx.gas_price = u256{};  // zero-fee so balance assertions stay exact
    const evm::TxResult result = interp.execute_transaction(tx);
    // Commit effects so sequential sends see each other.
    for (const auto& [a, balance] : overlay.balance_changes()) world_.set_balance(a, balance);
    for (const auto& w : overlay.storage_writes()) world_.set_storage(w.addr, w.key, w.value);
    world_.set_nonce(from, overlay.nonce(from));
    return result;
  }

  state::WorldState world_;
  Address alice_ = addr(0xA1);
  Address bob_ = addr(0xB0);
};

TEST_F(ContractTest, Erc20TransferMovesBalance) {
  const Address token = addr(0x10);
  world_.set_code(token, erc20_code());
  world_.set_storage(token, alice_.to_u256(), u256{1000});

  const auto result = send(alice_, token, erc20_transfer(bob_, u256{300}));
  ASSERT_EQ(result.status, evm::VmStatus::kSuccess);
  EXPECT_EQ(u256::from_be_bytes(result.output), u256{1});  // returns true
  EXPECT_EQ(world_.storage(token, alice_.to_u256()), u256{700});
  EXPECT_EQ(world_.storage(token, bob_.to_u256()), u256{300});
}

TEST_F(ContractTest, Erc20TransferEmitsEvent) {
  const Address token = addr(0x10);
  world_.set_code(token, erc20_code());
  world_.set_storage(token, alice_.to_u256(), u256{1000});
  const auto result = send(alice_, token, erc20_transfer(bob_, u256{5}));
  ASSERT_EQ(result.logs.size(), 1u);
  const auto& log = result.logs[0];
  EXPECT_EQ(log.address, token);
  ASSERT_EQ(log.topics.size(), 3u);
  EXPECT_EQ(Address::from_u256(log.topics[1]), alice_);
  EXPECT_EQ(Address::from_u256(log.topics[2]), bob_);
  EXPECT_EQ(u256::from_be_bytes(log.data), u256{5});
}

TEST_F(ContractTest, Erc20InsufficientBalanceReverts) {
  const Address token = addr(0x10);
  world_.set_code(token, erc20_code());
  world_.set_storage(token, alice_.to_u256(), u256{10});
  const auto result = send(alice_, token, erc20_transfer(bob_, u256{11}));
  EXPECT_EQ(result.status, evm::VmStatus::kRevert);
  EXPECT_EQ(world_.storage(token, alice_.to_u256()), u256{10});
}

TEST_F(ContractTest, Erc20MintAndBalanceOf) {
  const Address token = addr(0x10);
  world_.set_code(token, erc20_code());
  ASSERT_EQ(send(alice_, token, erc20_mint(bob_, u256{777})).status,
            evm::VmStatus::kSuccess);
  EXPECT_EQ(world_.storage(token, bob_.to_u256()), u256{777});
  EXPECT_EQ(world_.storage(token, u256{}), u256{777});  // totalSupply
  const auto result = send(alice_, token, erc20_balance_of(bob_));
  EXPECT_EQ(u256::from_be_bytes(result.output), u256{777});
}

TEST_F(ContractTest, Erc20UnknownSelectorReverts) {
  const Address token = addr(0x10);
  world_.set_code(token, erc20_code());
  EXPECT_EQ(send(alice_, token, calldata_selector(0x12345678)).status,
            evm::VmStatus::kRevert);
}

TEST_F(ContractTest, DexSwapConstantProduct) {
  const Address token = addr(0x10);
  const Address dex = addr(0x20);
  world_.set_code(token, erc20_code());
  world_.set_code(dex, dex_pair_code());
  world_.set_storage(dex, u256{kDexReserve0Slot}, u256{1'000'000});
  world_.set_storage(dex, u256{kDexReserve1Slot}, u256{1'000'000});
  world_.set_storage(dex, u256{kDexToken1Slot}, token.to_u256());
  world_.set_storage(token, dex.to_u256(), u256{1'000'000});  // inventory

  const auto result = send(alice_, dex, dex_swap(u256{10'000}));
  ASSERT_EQ(result.status, evm::VmStatus::kSuccess);
  // out = r1*in/(r0+in) = 1e6*1e4 / 1.01e6 = 9900 (floor).
  const u256 out = u256::from_be_bytes(result.output);
  EXPECT_EQ(out, u256{9900});
  EXPECT_EQ(world_.storage(dex, u256{kDexReserve0Slot}), u256{1'010'000});
  EXPECT_EQ(world_.storage(dex, u256{kDexReserve1Slot}), u256{1'000'000 - 9900});
  // Token paid out to the swapper.
  EXPECT_EQ(world_.storage(token, alice_.to_u256()), u256{9900});
  // Fee/price accounting slots updated (8 records per swap frame).
  EXPECT_EQ(world_.storage(dex, u256{4}), u256{1});       // swapCount
  EXPECT_EQ(world_.storage(dex, u256{5}), u256{9900});    // cumVolumeOut
  EXPECT_EQ(world_.storage(dex, u256{6}), u256{3});       // feeAccum
}

TEST_F(ContractTest, DexAddLiquidity) {
  const Address dex = addr(0x20);
  world_.set_code(dex, dex_pair_code());
  ASSERT_EQ(send(alice_, dex, dex_add_liquidity(u256{100}, u256{200})).status,
            evm::VmStatus::kSuccess);
  EXPECT_EQ(world_.storage(dex, u256{kDexReserve0Slot}), u256{100});
  EXPECT_EQ(world_.storage(dex, u256{kDexReserve1Slot}), u256{200});
}

TEST_F(ContractTest, PonziForwardsToPreviousInvestor) {
  const Address ponzi = addr(0x30);
  world_.set_code(ponzi, ponzi_code());

  ASSERT_EQ(send(alice_, ponzi, calldata_selector(kSelInvest), u256{1000}).status,
            evm::VmStatus::kSuccess);
  EXPECT_EQ(Address::from_u256(world_.storage(ponzi, u256{})), alice_);
  EXPECT_EQ(world_.storage(ponzi, alice_.to_u256()), u256{1000});
  EXPECT_EQ(world_.account(ponzi)->balance, u256{1000});

  const u256 alice_before = world_.account(alice_)->balance;
  ASSERT_EQ(send(bob_, ponzi, calldata_selector(kSelInvest), u256{2000}).status,
            evm::VmStatus::kSuccess);
  // Alice got half of Bob's investment.
  EXPECT_EQ(world_.account(alice_)->balance, alice_before + u256{1000});
  EXPECT_EQ(Address::from_u256(world_.storage(ponzi, u256{})), bob_);
}

TEST_F(ContractTest, RouterChainsToRequestedDepth) {
  const Address token = addr(0x10);
  const Address router = addr(0x40);
  world_.set_code(token, erc20_code());
  world_.set_code(router, router_code());
  world_.set_storage(token, router.to_u256(), u256{100000});

  evm::FrameStatsCollector stats;
  const auto result =
      send(alice_, router, router_route(3, token, bob_, u256{42}), {}, 5'000'000, &stats);
  ASSERT_EQ(result.status, evm::VmStatus::kSuccess);
  // depth parameter 3 -> router frames at depth 1..4, token frame at depth 5.
  EXPECT_EQ(stats.max_depth(), 5);
  EXPECT_EQ(world_.storage(token, bob_.to_u256()), u256{42});
}

TEST_F(ContractTest, RollupWritesSequentialSlots) {
  const Address rollup = addr(0x50);
  world_.set_code(rollup, rollup_batcher_code());
  const u256 base = u256{1} << 16;
  ASSERT_EQ(send(alice_, rollup, rollup_submit(base, 40)).status,
            evm::VmStatus::kSuccess);
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(world_.storage(rollup, base + u256{i}), u256{i + 1}) << i;
  }
  EXPECT_EQ(world_.storage(rollup, base + u256{40}), u256{});
}

TEST_F(ContractTest, HoneypotTakesDepositsBlocksWithdrawals) {
  const Address pot = addr(0x60);
  world_.set_code(pot, honeypot_code());
  ASSERT_EQ(send(alice_, pot, calldata_selector(kSelDeposit), u256{5000}).status,
            evm::VmStatus::kSuccess);
  EXPECT_EQ(world_.storage(pot, alice_.to_u256()), u256{5000});
  // The trap: withdraw reverts because the hidden flag is unset.
  EXPECT_EQ(send(alice_, pot, calldata_selector(kSelWithdraw)).status,
            evm::VmStatus::kRevert);
  // With the flag set (the scammer's private path), it pays out.
  world_.set_storage(pot, u256{kHoneypotFlagSlot}, u256{1});
  const u256 before = world_.account(alice_)->balance;
  ASSERT_EQ(send(alice_, pot, calldata_selector(kSelWithdraw)).status,
            evm::VmStatus::kSuccess);
  EXPECT_EQ(world_.account(alice_)->balance, before + u256{5000});
}

TEST_F(ContractTest, PaddedCodeStillRuns) {
  const Address token = addr(0x10);
  world_.set_code(token, pad_code(erc20_code(), 20 * 1024));
  world_.set_storage(token, alice_.to_u256(), u256{10});
  EXPECT_EQ(world_.code(token).size(), 20 * 1024u);
  EXPECT_EQ(send(alice_, token, erc20_transfer(bob_, u256{10})).status,
            evm::VmStatus::kSuccess);
}

// --- generator ---

TEST(Generator, DeployPopulatesWorld) {
  state::WorldState world;
  WorkloadGenerator gen;
  gen.deploy(world);
  EXPECT_EQ(gen.users().size(), 64u);
  EXPECT_EQ(gen.tokens().size(), 12u);
  EXPECT_EQ(gen.dexes().size(), 6u);
  EXPECT_FALSE(world.code(gen.tokens()[0]).empty());
  EXPECT_FALSE(world.code(gen.rollup()).empty());
  EXPECT_GT(world.account(gen.users()[0])->balance, u256{});
}

TEST(Generator, BlocksAreDeterministicPerSeed) {
  state::WorldState w1, w2;
  WorkloadGenerator g1(GeneratorConfig{.seed = 7});
  WorkloadGenerator g2(GeneratorConfig{.seed = 7});
  g1.deploy(w1);
  g2.deploy(w2);
  const auto b1 = g1.generate_block();
  const auto b2 = g2.generate_block();
  ASSERT_EQ(b1.size(), b2.size());
  for (size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(b1[i].from, b2[i].from);
    EXPECT_EQ(b1[i].data, b2[i].data);
  }
}

TEST(Generator, TransactionsExecuteSuccessfully) {
  state::WorldState world;
  WorkloadGenerator gen(GeneratorConfig{.txs_per_block = 60});
  gen.deploy(world);
  state::OverlayState overlay(world);
  evm::Interpreter interp(overlay, evm::BlockContext{});
  int success = 0, total = 0;
  for (const auto& tx : gen.generate_block()) {
    const auto result = interp.execute_transaction(tx);
    ++total;
    if (result.status == evm::VmStatus::kSuccess) ++success;
  }
  // The vast majority must succeed (reverts possible via ponzi value edge cases).
  EXPECT_GT(success, total * 9 / 10) << success << "/" << total;
}

TEST(Generator, CodeSizesFollowTableOne) {
  WorkloadGenerator gen;
  int lt1k = 0, k1_4 = 0, k4_12 = 0, k12_64 = 0;
  constexpr int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    const size_t size = gen.sample_code_size();
    if (size < 1024) ++lt1k;
    else if (size < 4 * 1024) ++k1_4;
    else if (size < 12 * 1024) ++k4_12;
    else ++k12_64;
  }
  // Table I(a) code column: 9.5% / 25.3% / 39.6% / 25.6% with slack.
  EXPECT_NEAR(lt1k * 100.0 / kSamples, 9.5, 3.0);
  EXPECT_NEAR(k1_4 * 100.0 / kSamples, 25.3, 4.0);
  EXPECT_NEAR(k4_12 * 100.0 / kSamples, 39.6, 4.0);
  EXPECT_NEAR(k12_64 * 100.0 / kSamples, 25.6, 4.0);
}

TEST(Generator, CallDepthDistributionShape) {
  state::WorldState world;
  WorkloadGenerator gen(GeneratorConfig{.txs_per_block = 150});
  gen.deploy(world);
  state::OverlayState overlay(world);
  evm::Interpreter interp(overlay, evm::BlockContext{});
  evm::FrameStatsCollector stats;
  interp.set_observer(&stats);

  int depth1 = 0, depth2_5 = 0, depth6_10 = 0, deeper = 0, total = 0;
  for (const auto& tx : gen.generate_block()) {
    stats.clear();
    interp.execute_transaction(tx);
    const int depth = std::max(stats.max_depth(), 1);
    ++total;
    if (depth == 1) ++depth1;
    else if (depth <= 5) ++depth2_5;
    else if (depth <= 10) ++depth6_10;
    else ++deeper;
  }
  // Table I(b) depth column: 40.8% / 52.6% / 6.3% / 0.3% — the shape we
  // check is ordering and rough mass, not exact percentages.
  EXPECT_GT(depth1, total / 5);
  EXPECT_GT(depth2_5, depth6_10);
  EXPECT_GT(depth6_10, deeper);
}

}  // namespace
}  // namespace hardtape::workload
