// Reproduces Section VI-B: pre-execution correctness. The HEVM's step-level
// traces (PC, opcode, gas, depth, stack size — the debug_traceTransaction
// fields), status, gas, return data and logs are compared against the
// ground-truth software node ("Geth role") for the whole evaluation set.
// Rollup transactions may legitimately abort with the Memory Overflow Error;
// those are reported separately, as in the paper ("support for these
// contracts is left as future work").
#include "bench_common.hpp"
#include "hevm/baseline.hpp"
#include "hevm/hevm_core.hpp"

using namespace hardtape;

int main() {
  bench::EvaluationSetup setup(/*block_count=*/4, /*txs_per_block=*/50);
  // Append giant rollup transactions whose single frame exceeds half of the
  // 1 MB layer-2 memory — the paper's Memory Overflow case (§VI-B).
  {
    std::vector<evm::Transaction> rollup_block;
    for (int i = 0; i < 3; ++i) {
      evm::Transaction tx;
      tx.from = setup.generator.users()[0];
      tx.to = setup.generator.rollup();
      tx.data = workload::rollup_submit(u256{1} << 32, 8, /*extra_payload=*/600 * 1024);
      tx.gas_limit = 25'000'000;
      rollup_block.push_back(tx);
    }
    setup.blocks.push_back(rollup_block);
  }

  sim::SimClock clock;
  hevm::HevmCore::Config core_config;
  core_config.record_steps = true;
  hevm::HevmCore core(0, clock, core_config);
  crypto::AesKey128 session_key{};

  // Ground truth role shares state but runs independently.
  sim::SimClock geth_clock;
  hevm::GethRole geth(setup.node.world(), setup.node.block_context(), geth_clock,
                      /*record_steps=*/true);

  uint64_t compared = 0, identical = 0, mismatched = 0, overflows = 0;
  uint64_t steps_compared = 0;

  for (const auto& block : setup.blocks) {
    for (const auto& tx : block) {
      // Each tx as its own bundle against pristine state (both sides reset).
      core.assign(setup.node.world(), setup.node.block_context(), session_key, compared);
      const auto hevm_report = core.execute_bundle({tx});
      core.release();
      hevm::GethRole fresh_geth(setup.node.world(), setup.node.block_context(),
                                geth_clock, true);
      const auto geth_result = fresh_geth.execute(tx);

      ++compared;
      const auto& hevm_tx = hevm_report.transactions[0];
      if (hevm_tx.status == evm::VmStatus::kMemoryOverflow) {
        ++overflows;  // rollup exceeding the layer-2 frame limit (§VI-B)
        continue;
      }
      bool equal = hevm_tx.steps.size() == geth_result.steps.size() &&
                   hevm_tx.gas_used == geth_result.tx.gas_used &&
                   hevm_tx.status == geth_result.tx.status &&
                   hevm_tx.return_data == geth_result.tx.output &&
                   hevm_tx.logs == geth_result.tx.logs;
      if (equal) {
        for (size_t i = 0; i < hevm_tx.steps.size(); ++i) {
          if (!(hevm_tx.steps[i] == geth_result.steps[i])) {
            equal = false;
            break;
          }
        }
        steps_compared += hevm_tx.steps.size();
      }
      equal ? ++identical : ++mismatched;
    }
  }

  bench::Table table({"metric", "value"});
  table.add_row({"transactions compared", std::to_string(compared)});
  table.add_row({"trace-identical", std::to_string(identical)});
  table.add_row({"mismatched", std::to_string(mismatched)});
  table.add_row({"Memory Overflow (rollups, excluded)", std::to_string(overflows)});
  table.add_row({"total steps compared", std::to_string(steps_compared)});
  table.print("Section VI-B: HEVM vs ground-truth node traces");

  std::printf("\n%s: all executable transactions produce identical traces.\n",
              mismatched == 0 ? "PASS" : "FAIL");
  return mismatched == 0 ? 0 : 1;
}
