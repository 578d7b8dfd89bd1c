// Tests for the HEVM core: dedicated-core semantics, cycle accounting,
// bundle execution, the resource model (§VI-A), and the software baselines.
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "evm/assembler.hpp"
#include "hevm/baseline.hpp"
#include "hevm/hevm_core.hpp"
#include "hevm/resource_model.hpp"
#include "workload/contracts.hpp"

namespace hardtape::hevm {
namespace {

Address addr(uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

crypto::AesKey128 key() {
  crypto::AesKey128 k{};
  k[0] = 1;
  return k;
}

class HevmCoreTest : public ::testing::Test {
 protected:
  HevmCoreTest() : core_(0, clock_) {
    base_.set_balance(addr(0xAA), u256{1} << 80);
    base_.set_code(addr(0x10), workload::erc20_code());
    base_.set_storage(addr(0x10), addr(0xAA).to_u256(), u256{100000});
  }

  evm::Transaction transfer_tx() {
    evm::Transaction tx;
    tx.from = addr(0xAA);
    tx.to = addr(0x10);
    tx.data = workload::erc20_transfer(addr(0xBB), u256{50});
    tx.gas_limit = 500'000;
    return tx;
  }

  sim::SimClock clock_;
  state::WorldState base_;
  HevmCore core_;
};

TEST_F(HevmCoreTest, ExecutesBundleAndReportsTraces) {
  core_.assign(base_, evm::BlockContext{}, key(), 7);
  const BundleReport report = core_.execute_bundle({transfer_tx(), transfer_tx()});
  ASSERT_EQ(report.transactions.size(), 2u);
  EXPECT_EQ(report.transactions[0].status, evm::VmStatus::kSuccess);
  EXPECT_EQ(report.transactions[1].status, evm::VmStatus::kSuccess);
  EXPECT_GT(report.transactions[0].gas_used, 21000u);
  EXPECT_GT(report.instructions, 0u);
  EXPECT_GT(report.sim_time_ns, 0u);
  EXPECT_FALSE(report.aborted);
  // Traces report the token transfer's storage writes.
  EXPECT_FALSE(report.transactions[0].storage_writes.empty());
  ASSERT_EQ(report.transactions[0].logs.size(), 1u);
  // Txs in a bundle see each other: second transfer moved another 50.
  EXPECT_EQ(core_.overlay().storage(addr(0x10), addr(0xBB).to_u256()), u256{100});
}

TEST_F(HevmCoreTest, DedicatedCoreRefusesDoubleAssignment) {
  core_.assign(base_, evm::BlockContext{}, key(), 1);
  EXPECT_TRUE(core_.busy());
  EXPECT_THROW(core_.assign(base_, evm::BlockContext{}, key(), 2), UsageError);
  core_.release();
  EXPECT_FALSE(core_.busy());
  EXPECT_NO_THROW(core_.assign(base_, evm::BlockContext{}, key(), 3));
}

TEST_F(HevmCoreTest, ReleaseDiscardsWorldStateChanges) {
  core_.assign(base_, evm::BlockContext{}, key(), 1);
  core_.execute_bundle({transfer_tx()});
  core_.release();
  // Fig. 3 step 10: pre-execution writes never persist.
  EXPECT_EQ(base_.storage(addr(0x10), addr(0xBB).to_u256()), u256{});
  EXPECT_THROW(core_.overlay(), UsageError);
  EXPECT_THROW(core_.execute_bundle({transfer_tx()}), UsageError);
}

TEST_F(HevmCoreTest, SimTimeScalesWithWork) {
  core_.assign(base_, evm::BlockContext{}, key(), 1);
  const auto small = core_.execute_bundle({transfer_tx()});
  core_.release();
  core_.assign(base_, evm::BlockContext{}, key(), 1);
  std::vector<evm::Transaction> big(8, transfer_tx());
  const auto large = core_.execute_bundle(big);
  core_.release();
  EXPECT_GT(large.sim_time_ns, small.sim_time_ns);
  EXPECT_GT(large.instructions, small.instructions);
}

TEST_F(HevmCoreTest, MemoryOverflowAbortsBundle) {
  HevmCore::Config config;
  config.l2.l2_bytes = 64 * 1024;  // tiny layer 2: limit = 32 KB per frame
  HevmCore small_core(1, clock_, config);
  base_.set_code(addr(0x20), evm::assemble("PUSH1 1 PUSH3 0x00ffff MSTORE STOP"));
  evm::Transaction tx;
  tx.from = addr(0xAA);
  tx.to = addr(0x20);
  tx.gas_limit = 10'000'000;
  small_core.assign(base_, evm::BlockContext{}, key(), 1);
  const auto report = small_core.execute_bundle({tx, transfer_tx()});
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.transactions[0].status, evm::VmStatus::kMemoryOverflow);
  // The rest of the bundle is not executed.
  EXPECT_EQ(report.transactions.size(), 1u);
}

TEST_F(HevmCoreTest, StepTracesRecordedWhenEnabled) {
  HevmCore::Config config;
  config.record_steps = true;
  HevmCore tracing_core(2, clock_, config);
  tracing_core.assign(base_, evm::BlockContext{}, key(), 1);
  const auto report = tracing_core.execute_bundle({transfer_tx()});
  EXPECT_FALSE(report.transactions[0].steps.empty());
}

// --- §VI-B correctness methodology: HEVM trace == software-node trace ---

TEST_F(HevmCoreTest, HevmTraceMatchesGethRoleTrace) {
  HevmCore::Config config;
  config.record_steps = true;
  HevmCore hevm_core(3, clock_, config);
  hevm_core.assign(base_, evm::BlockContext{}, key(), 1);
  const auto hevm_report = hevm_core.execute_bundle({transfer_tx()});

  sim::SimClock geth_clock;
  GethRole geth(base_, evm::BlockContext{}, geth_clock, /*record_steps=*/true);
  const auto geth_result = geth.execute(transfer_tx());

  // Step-by-step equality: PC, opcode, gas, depth, stack size.
  ASSERT_EQ(hevm_report.transactions[0].steps.size(), geth_result.steps.size());
  for (size_t i = 0; i < geth_result.steps.size(); ++i) {
    ASSERT_EQ(hevm_report.transactions[0].steps[i], geth_result.steps[i]) << "step " << i;
  }
  EXPECT_EQ(hevm_report.transactions[0].gas_used, geth_result.tx.gas_used);
}

// --- baselines ---

TEST_F(HevmCoreTest, GethRoleFasterPerOpButSameSemantics) {
  sim::SimClock geth_clock, tsc_clock;
  GethRole geth(base_, evm::BlockContext{}, geth_clock);
  TscVeeRole tsc(base_, evm::BlockContext{}, tsc_clock);
  const auto geth_result = geth.execute(transfer_tx());
  const auto tsc_result = tsc.execute(transfer_tx());
  EXPECT_EQ(geth_result.tx.status, evm::VmStatus::kSuccess);
  EXPECT_EQ(tsc_result.tx.status, evm::VmStatus::kSuccess);
  EXPECT_EQ(geth_result.tx.gas_used, tsc_result.tx.gas_used);
  EXPECT_GT(geth_result.sim_time_ns, 0u);
  EXPECT_GT(tsc_result.sim_time_ns, 0u);
}

// --- resource model (§VI-A) ---

TEST(ResourceModel, MatchesPaperTotals) {
  const auto totals = ResourceModel::hevm_total();
  EXPECT_EQ(totals.luts, 103388u);
  EXPECT_EQ(totals.ffs, 37104u);
  EXPECT_EQ(totals.bram_kb, 509u);
}

TEST(ResourceModel, ThreeHevmsPerChip) {
  EXPECT_EQ(ResourceModel::max_hevms_per_chip(), 3);
  // A hypothetical chip with double the LUTs fits more.
  ResourceModel::Chip big;
  big.luts *= 2;
  EXPECT_GE(ResourceModel::max_hevms_per_chip(big), 6);
}

TEST(ResourceModel, HypervisorFitsOnChipMemory) {
  const ResourceModel::HypervisorMemory mem;
  EXPECT_EQ(mem.total_kb(), 248u);
  EXPECT_TRUE(mem.fits());
}

}  // namespace
}  // namespace hardtape::hevm
