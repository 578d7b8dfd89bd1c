// Correctness oracle: the paper's §VI-B ground truth.
//
// Every bundle outcome is replayed, outside the timed phase, through
// hevm::GethRole against the world and block context the outcome was pinned
// to, and compared per transaction on status, gas and return data. A
// bundle runs against one immutable snapshot, so each distinct (bundle,
// pinned block) pair is replayed once and every outcome is held to it.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "node/node.hpp"
#include "service/engine.hpp"

namespace perfbench {

using namespace hardtape;

struct TxDigest {
  evm::VmStatus status = evm::VmStatus::kSuccess;
  uint64_t gas_used = 0;
  Bytes return_data;
};

/// What the benchmark keeps of one outcome.
struct OutcomeRecord {
  uint64_t bundle_id = 0;
  size_t bundle_index = 0;          ///< into the workload's bundle list
  Status status = Status::kOk;
  H256 state_root{};                ///< the snapshot the session read
  node::BlockHeader pinned;         ///< engine pin right after admission
  std::vector<TxDigest> txs;
  uint64_t instructions = 0;
  uint64_t swaps = 0;
};

OutcomeRecord record_of(const service::SessionOutcome& outcome);

class Oracle {
 public:
  explicit Oracle(const node::NodeSimulator& node) : node_(node) {}

  /// Replays (or reuses the replay of) `record`'s bundle and returns an
  /// empty string when the outcome matches, else what differed.
  std::string check(const std::vector<evm::Transaction>& bundle, const OutcomeRecord& record);

  size_t replays() const { return replays_.size(); }

 private:
  const node::NodeSimulator& node_;
  std::map<std::pair<size_t, H256>, std::vector<TxDigest>> replays_;
};

}  // namespace perfbench
