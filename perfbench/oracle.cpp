#include "oracle.hpp"

#include "hevm/baseline.hpp"

namespace perfbench {

OutcomeRecord record_of(const service::SessionOutcome& outcome) {
  OutcomeRecord record;
  record.bundle_id = outcome.bundle_id;
  record.status = outcome.status;
  record.state_root = outcome.state_root;
  record.instructions = outcome.report.instructions;
  record.swaps = outcome.report.swap_events.size();
  record.txs.reserve(outcome.report.transactions.size());
  for (const hevm::TxTraceReport& tx : outcome.report.transactions) {
    record.txs.push_back({tx.status, tx.gas_used, tx.return_data});
  }
  return record;
}

std::string Oracle::check(const std::vector<evm::Transaction>& bundle,
                          const OutcomeRecord& record) {
  const std::string id = "bundle " + std::to_string(record.bundle_id);
  if (record.status != Status::kOk) return id + ": status " + to_string(record.status);
  if (record.state_root != record.pinned.state_root) {
    return id + ": executed against a root other than the engine's pin";
  }
  const auto key = std::make_pair(record.bundle_index, record.state_root);
  auto it = replays_.find(key);
  if (it == replays_.end()) {
    const auto world = node_.world_at(record.state_root);
    if (world == nullptr) return id + ": pinned root unknown to the node";
    sim::SimClock clock;
    hevm::GethRole geth(*world, node_.block_context_at(record.pinned), clock);
    std::vector<TxDigest> expected;
    for (const evm::Transaction& tx : bundle) {
      const evm::TxResult result = geth.execute(tx).tx;
      expected.push_back({result.status, result.gas_used, result.output});
    }
    it = replays_.emplace(key, std::move(expected)).first;
  }
  const std::vector<TxDigest>& expected = it->second;
  if (expected.size() != record.txs.size()) {
    return id + ": " + std::to_string(record.txs.size()) + " tx reports, ground truth has " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const TxDigest& got = record.txs[i];
    if (got.status != expected[i].status || got.gas_used != expected[i].gas_used ||
        got.return_data != expected[i].return_data) {
      return id + ": tx " + std::to_string(i) + " differs from the ground truth";
    }
  }
  return {};
}

}  // namespace perfbench
