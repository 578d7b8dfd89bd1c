// Tests for the HEVM core: dedicated-core semantics, cycle accounting,
// bundle execution, the resource model (§VI-A), and the software baselines.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/errors.hpp"
#include "evm/assembler.hpp"
#include "hevm/baseline.hpp"
#include "hevm/hevm_core.hpp"
#include "hevm/resource_model.hpp"
#include "obs/trace.hpp"
#include "workload/contracts.hpp"
#include "workload/generator.hpp"

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

  evm::Transaction call_tx(uint8_t to, Bytes data = {}) {
    evm::Transaction tx;
    tx.from = addr(0xAA);
    tx.to = addr(to);
    tx.data = std::move(data);
    tx.gas_limit = 1'000'000;
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

// --- the per-transaction storage write set ---

using Writes = std::vector<state::OverlayState::StorageWrite>;

// Stores each (key, value) word pair of its calldata, in order.
constexpr std::string_view kStoreEachPair = R"(
    PUSH0
  loop:
    JUMPDEST
    DUP1 CALLDATASIZE GT ISZERO
    PUSH @end JUMPI
    DUP1 PUSH1 0x20 ADD CALLDATALOAD
    DUP2 CALLDATALOAD
    SSTORE
    PUSH1 0x40 ADD
    PUSH @loop JUMP
  end:
    JUMPDEST
    STOP
)";

// CALLs `callee` with no input, value or output and drops the success flag.
std::string call_and_pop(uint8_t callee) {
  return "PUSH0 PUSH0 PUSH0 PUSH0 PUSH0 PUSH1 " + std::to_string(callee) + " GAS CALL POP\n";
}

class TxWriteSetTest : public HevmCoreTest {
 protected:
  static constexpr uint8_t kStore = 0x20;

  TxWriteSetTest() {
    base_.set_code(addr(kStore), evm::assemble(kStoreEachPair));
    base_.set_storage(addr(kStore), u256{2}, u256{7});
  }

  evm::Transaction store_tx(std::vector<std::pair<uint64_t, uint64_t>> pairs) {
    Bytes data;
    for (const auto& [key, value] : pairs) {
      append(data, u256{key}.to_be_bytes_vec());
      append(data, u256{value}.to_be_bytes_vec());
    }
    return call_tx(kStore, std::move(data));
  }


  // Runs the bundle in one session and returns each transaction's writes.
  std::vector<Writes> run(const std::vector<evm::Transaction>& txs) {
    core_.assign(base_, evm::BlockContext{}, key(), 1);
    const BundleReport report = core_.execute_bundle(txs);
    core_.release();
    std::vector<Writes> out;
    for (const TxTraceReport& tx : report.transactions) {
      EXPECT_EQ(tx.status, evm::VmStatus::kSuccess);
      out.push_back(tx.storage_writes);
    }
    return out;
  }

  static state::OverlayState::StorageWrite write(uint8_t contract, uint64_t key,
                                                 uint64_t value) {
    return {addr(contract), u256{key}, u256{value}};
  }
};

TEST_F(TxWriteSetTest, RewritingAnEarlierTransactionsValueReportsNothing) {
  const auto writes = run({store_tx({{1, 0xA}}), store_tx({{1, 0xA}}), store_tx({{1, 0xB}})});
  EXPECT_EQ(writes[0], (Writes{write(kStore, 1, 0xA)}));
  EXPECT_EQ(writes[1], Writes{});
  EXPECT_EQ(writes[2], (Writes{write(kStore, 1, 0xB)}));
}

TEST_F(TxWriteSetTest, WritingBackTheBaseValueReportsNothing) {
  // Slot 2 holds 7 in the base state; slot 1 holds zero.
  const auto writes = run({store_tx({{2, 8}, {1, 5}}), store_tx({{2, 7}}), store_tx({{1, 0}}),
                           store_tx({{2, 7}, {1, 0}})});
  EXPECT_EQ(writes[0], (Writes{write(kStore, 1, 5), write(kStore, 2, 8)}));
  EXPECT_EQ(writes[1], Writes{});
  EXPECT_EQ(writes[2], Writes{});
  EXPECT_EQ(writes[3], Writes{});
}

TEST_F(TxWriteSetTest, WritesOfARevertedSubCallReportNothing) {
  // 0x21 writes its slot 5 and reverts; 0x22 calls it, writes its own slot
  // 1, and calls it again.
  base_.set_code(addr(0x21), evm::assemble("PUSH1 0x77 PUSH1 5 SSTORE PUSH0 PUSH0 REVERT"));
  base_.set_code(addr(0x22), evm::assemble(call_and_pop(0x21) +
                                           "PUSH1 0x42 PUSH1 1 SSTORE\n" +
                                           call_and_pop(0x21) + "STOP"));
  const auto writes = run({call_tx(0x22), store_tx({{4, 4}}), call_tx(0x22)});
  EXPECT_EQ(writes[0], (Writes{write(0x22, 1, 0x42)}));
  EXPECT_EQ(writes[1], (Writes{write(kStore, 4, 4)}));
  EXPECT_EQ(writes[2], Writes{});

  // A transaction whose own frame writes and then reverts.
  core_.assign(base_, evm::BlockContext{}, key(), 1);
  const BundleReport report = core_.execute_bundle({store_tx({{5, 1}}), call_tx(0x21)});
  core_.release();
  EXPECT_EQ(report.transactions[1].status, evm::VmStatus::kRevert);
  EXPECT_EQ(report.transactions[1].storage_writes, Writes{});
}

TEST_F(TxWriteSetTest, TwoWritesInOneTransactionReportTheLast) {
  const auto writes = run({store_tx({{3, 1}, {3, 2}}), store_tx({{3, 9}, {3, 2}}),
                           store_tx({{3, 0}, {3, 6}, {2, 1}, {2, 7}})});
  EXPECT_EQ(writes[0], (Writes{write(kStore, 3, 2)}));
  EXPECT_EQ(writes[1], Writes{});  // back to the value the previous tx wrote
  EXPECT_EQ(writes[2], (Writes{write(kStore, 3, 6)}));
}

TEST_F(TxWriteSetTest, WritesToSeveralContractsAreSortedByAddressThenKey) {
  // Written in neither (address, key) order nor its reverse.
  base_.set_code(addr(0x31), evm::assemble("PUSH1 0x13 PUSH1 4 SSTORE STOP"));
  base_.set_code(addr(0x32), evm::assemble("PUSH1 0x12 PUSH1 3 SSTORE "
                                           "PUSH1 0x11 PUSH1 7 SSTORE STOP"));
  base_.set_code(addr(0x40), evm::assemble("PUSH1 0x15 PUSH1 2 SSTORE "
                                           "PUSH1 0x14 PUSH1 9 SSTORE\n" +
                                           call_and_pop(0x31) + call_and_pop(0x32) + "STOP"));
  const auto writes = run({store_tx({{9, 1}}), call_tx(0x40)});
  EXPECT_EQ(writes[0], (Writes{write(kStore, 9, 1)}));
  EXPECT_EQ(writes[1], (Writes{write(0x31, 4, 0x13), write(0x32, 3, 0x12),
                               write(0x32, 7, 0x11), write(0x40, 2, 0x15),
                               write(0x40, 9, 0x14)}));
}

// The write set as HevmCore computed it before OverlayState kept it: the
// session's net writes after the transaction, minus every (slot, value) pair
// that was already among them before it.
Writes writes_by_session_diff(const Writes& before, const Writes& after) {
  Writes out;
  for (const auto& write : after) {
    if (std::find(before.begin(), before.end(), write) == before.end()) out.push_back(write);
  }
  return out;
}

TEST(TxWriteSetDifferential, MatchesTheSessionDiffOnTableIBundles) {
  // 200 bundles of 8 Table I transactions, each bundle in a fresh session as
  // the engine runs them. Core `whole` runs each bundle in one call; core
  // `stepped` runs the same session one transaction per call, so the
  // reference diff can read the overlay between transactions.
  workload::WorkloadGenerator generator(workload::GeneratorConfig{.seed = 7,
                                                                  .txs_per_block = 200});
  state::WorldState world;
  generator.deploy(world);
  const auto blocks = generator.generate_evaluation_set(8);
  sim::SimClock whole_clock, stepped_clock;
  HevmCore whole(0, whole_clock), stepped(1, stepped_clock);
  size_t bundles = 0, transactions = 0, nonempty = 0, carried = 0;
  for (const auto& block : blocks) {
    for (size_t first = 0; first + 8 <= block.size(); first += 8) {
      const std::vector<evm::Transaction> bundle(block.begin() + first,
                                                 block.begin() + first + 8);
      whole.assign(world, evm::BlockContext{}, key(), bundles);
      stepped.assign(world, evm::BlockContext{}, key(), bundles);
      const BundleReport report = whole.execute_bundle(bundle);
      ASSERT_EQ(report.transactions.size(), bundle.size());
      for (size_t i = 0; i < bundle.size(); ++i) {
        const Writes before = stepped.overlay().storage_writes();
        const BundleReport one = stepped.execute_bundle({bundle[i]});
        const Writes after = stepped.overlay().storage_writes();
        const Writes expected = writes_by_session_diff(before, after);
        ASSERT_EQ(one.transactions.at(0).storage_writes, expected)
            << "bundle " << bundles << " tx " << i;
        ASSERT_EQ(report.transactions[i].storage_writes, expected)
            << "bundle " << bundles << " tx " << i;
        ++transactions;
        nonempty += expected.empty() ? 0 : 1;
        carried += after.size() > expected.size() ? 1 : 0;
      }
      whole.release();
      stepped.release();
      ++bundles;
    }
  }
  EXPECT_EQ(bundles, 200u);
  EXPECT_EQ(transactions, 1600u);
  // The sets are mostly non-empty, and most transactions run on top of
  // earlier transactions' writes that their own set must leave out.
  EXPECT_GT(nonempty, transactions / 2);
  EXPECT_GT(carried, transactions / 2);
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

// --- logs of reverted frames ---

// LOG1 with an empty payload and the one topic `topic`.
std::string log1(uint8_t topic) {
  return "PUSH1 " + std::to_string(topic) + " PUSH0 PUSH0 LOG1\n";
}

// A frame that fails takes its logs with it, as go-ethereum's journal does,
// on the HEVM core and the Geth role alike.
TEST_F(HevmCoreTest, BothRolesDropTheLogsOfRevertedFrames) {
  base_.set_code(addr(0x31), evm::assemble(log1(0x31) + "STOP"));
  base_.set_code(addr(0x32), evm::assemble(log1(0x32) + "PUSH0 PUSH0 REVERT"));
  // Calls 0x31, whose frame logs and succeeds, then reverts itself.
  base_.set_code(addr(0x33), evm::assemble(call_and_pop(0x31) + "PUSH0 PUSH0 REVERT"));
  // Logs, calls 0x32 (logs, then reverts), logs again, and succeeds.
  base_.set_code(addr(0x34), evm::assemble(log1(1) + call_and_pop(0x32) + log1(3) + "STOP"));
  const std::vector<evm::Transaction> txs = {call_tx(0x33), call_tx(0x32), call_tx(0x34)};
  core_.assign(base_, evm::BlockContext{}, key(), 1);
  const BundleReport report = core_.execute_bundle(txs);
  ASSERT_EQ(report.transactions.size(), txs.size());
  sim::SimClock geth_clock;
  GethRole geth(base_, evm::BlockContext{}, geth_clock);
  std::vector<evm::TxResult> geth_results;
  for (const evm::Transaction& tx : txs) geth_results.push_back(geth.execute(tx).tx);

  for (size_t i = 0; i < txs.size(); ++i) {
    SCOPED_TRACE("tx " + std::to_string(i));
    EXPECT_EQ(report.transactions[i].status, geth_results[i].status);
    EXPECT_EQ(report.transactions[i].logs, geth_results[i].logs);
  }
  // A callee's logs vanish when its caller reverts.
  EXPECT_EQ(report.transactions[0].status, evm::VmStatus::kRevert);
  EXPECT_TRUE(report.transactions[0].logs.empty());
  // A frame's own logs vanish when it reverts.
  EXPECT_EQ(report.transactions[1].status, evm::VmStatus::kRevert);
  EXPECT_TRUE(report.transactions[1].logs.empty());
  // A success keeps only the logs outside its reverted sub-call, in order.
  EXPECT_EQ(report.transactions[2].status, evm::VmStatus::kSuccess);
  const std::vector<evm::LogEntry> expected = {
      {.address = addr(0x34), .topics = {u256{1}}},
      {.address = addr(0x34), .topics = {u256{3}}}};
  EXPECT_EQ(report.transactions[2].logs, expected);
}

// §VI-B compares logs too: on Table I bundles the HEVM core and the Geth
// role agree on every transaction's status, gas, return data and logs.
TEST(HevmGethAgreement, LogsMatchOnTableIBundles) {
  workload::WorkloadGenerator generator(workload::GeneratorConfig{.seed = 7,
                                                                  .txs_per_block = 200});
  state::WorldState world;
  generator.deploy(world);
  const auto block = generator.generate_evaluation_set(1).at(0);
  sim::SimClock clock, geth_clock;
  HevmCore core(0, clock);
  size_t compared = 0, logs = 0;
  for (size_t first = 0; first + 8 <= block.size(); first += 8) {
    const std::vector<evm::Transaction> bundle(block.begin() + first, block.begin() + first + 8);
    core.assign(world, evm::BlockContext{}, key(), first);
    const BundleReport report = core.execute_bundle(bundle);
    core.release();
    GethRole geth(world, evm::BlockContext{}, geth_clock);
    for (size_t i = 0; i < report.transactions.size(); ++i) {
      SCOPED_TRACE("bundle at " + std::to_string(first) + " tx " + std::to_string(i));
      const TxTraceReport& hevm_tx = report.transactions[i];
      const evm::TxResult geth_tx = geth.execute(bundle[i]).tx;
      ASSERT_EQ(hevm_tx.status, geth_tx.status);
      ASSERT_EQ(hevm_tx.gas_used, geth_tx.gas_used);
      ASSERT_EQ(hevm_tx.return_data, geth_tx.output);
      ASSERT_EQ(hevm_tx.logs, geth_tx.logs);
      ++compared;
      logs += hevm_tx.logs.size();
    }
  }
  EXPECT_EQ(compared, 200u);
  EXPECT_GT(logs, compared / 4);  // the check is not vacuous
}

// --- the traced event stream ---

// FNV-1a over the eight little-endian bytes of `value`.
uint64_t fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Pins every opcode-retire and swap event of one traced Table I bundle:
// category, code, simulated time and arguments. An opcode event stamped
// before its instruction is charged, or a swap stamped before its frame
// switch is, moves sim_ns and the digest. The core's layer 2 is 32 KB so
// that frames spill to layer 3 and swaps interleave with the opcodes.
TEST(HevmTraceStream, OpcodeAndSwapEventsArePinned) {
  workload::WorkloadGenerator generator(workload::GeneratorConfig{.seed = 7,
                                                                  .txs_per_block = 200});
  state::WorldState world;
  generator.deploy(world);
  const auto block = generator.generate_evaluation_set(1).at(0);
  const std::vector<evm::Transaction> bundle(block.begin(), block.begin() + 8);
  obs::TraceSink sink(obs::TraceSink::Config{.ring_capacity = 1 << 20,
                                             .capture_wall_time = false});
  obs::TraceRing& ring = sink.ring(0);
  sim::SimClock clock;
  HevmCore::Config config;
  config.l2.l2_bytes = 32 * 1024;
  config.trace = &ring;
  HevmCore core(0, clock, config);
  core.assign(world, evm::BlockContext{}, key(), 11);
  const BundleReport report = core.execute_bundle(bundle);
  ASSERT_FALSE(report.aborted);
  ASSERT_EQ(ring.dropped(), 0u);

  uint64_t digest = 0xcbf29ce484222325ull, opcodes = 0, swaps = 0;
  for (const obs::TraceEvent& event : ring.events()) {
    ASSERT_TRUE(event.category == obs::TraceCategory::kOpcode ||
                event.category == obs::TraceCategory::kSwap);
    ++(event.category == obs::TraceCategory::kOpcode ? opcodes : swaps);
    for (const uint64_t field : {static_cast<uint64_t>(event.category),
                                 static_cast<uint64_t>(event.code), event.sim_ns, event.a,
                                 event.b, event.c}) {
      digest = fnv1a(digest, field);
    }
  }
  EXPECT_EQ(opcodes, report.instructions);
  EXPECT_EQ(swaps, report.swap_events.size());
  EXPECT_GT(swaps, 0u);
  // The stream's digest when the cycle model, the pager and the opcode tracer
  // were separate observers.
  EXPECT_EQ(digest, 0x5613850abb7f842dull);
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
