// Synthetic Mainnet workload generator, calibrated to the paper's Table I.
//
// The paper evaluates on Ethereum Mainnet blocks #19145194-#19145293 (~100
// blocks, ~200 transactions each). We reproduce the *statistics* of that
// evaluation set — per-frame memory-like sizes, storage records per frame,
// call depth per transaction — by sampling transaction profiles from the
// Table I marginals and instantiating them over a deployed population of
// ERC-20 / DEX / Ponzi / router / rollup contracts whose code sizes follow
// the Table I code-size distribution.
#pragma once

#include "common/random.hpp"
#include "evm/types.hpp"
#include "state/world_state.hpp"
#include "workload/contracts.hpp"

namespace hardtape::workload {

struct GeneratorConfig {
  uint64_t seed = 19145194;
  size_t user_accounts = 64;
  size_t erc20_contracts = 12;
  size_t dex_pairs = 6;
  size_t routers = 4;
  size_t txs_per_block = 200;  ///< mainnet: ~200 tx / block (paper §II-A)
};

/// Transaction profile mix. Defaults approximate the Table I marginals:
/// depth-1 txs ~40%, depth 2-5 ~53%, deeper ~7%; most frames touch <= 4
/// storage records, some 5-16; rollups produce the storage/input tails.
struct ProfileMix {
  double plain_transfer = 0.06;  // depth 1, no storage
  double erc20_transfer = 0.20;  // depth 1, 2-3 records
  double erc20_mint = 0.03;      // depth 1, 2-3 records
  double dex_swap = 0.36;        // depth 2, ~8 records in the pair frame
  double ponzi_invest = 0.04;    // depth 1, 2-3 records + value forwarding
  double router_chain = 0.15;    // depth 2-16 (sampled), few records/frame
  double small_batch = 0.06;     // depth 1, 5-16 records (settlement-style)
  double rollup_batch = 0.02;    // depth 1, 16+ records, large calldata
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(GeneratorConfig config = {}, ProfileMix mix = {});

  /// Deploys the contract population and funds the user accounts.
  void deploy(state::WorldState& world);

  /// One block's worth of transactions (callable repeatedly; nonces are not
  /// set, letting the executor use the account's current nonce).
  std::vector<evm::Transaction> generate_block();

  /// The whole evaluation set: `block_count` blocks.
  std::vector<std::vector<evm::Transaction>> generate_evaluation_set(size_t block_count);

  const std::vector<Address>& users() const { return users_; }
  const std::vector<Address>& tokens() const { return tokens_; }
  const std::vector<Address>& dexes() const { return dexes_; }
  const std::vector<Address>& routers() const { return routers_; }
  const Address& ponzi() const { return ponzi_; }
  const Address& rollup() const { return rollup_; }
  const Address& honeypot() const { return honeypot_; }

  /// Samples a code size from the Table I "code" column distribution.
  size_t sample_code_size();

 private:
  Address fresh_address();
  evm::Transaction make_tx(const Address& from, const Address& to, Bytes data,
                           const u256& value = u256{}, uint64_t gas = 2'000'000);

  GeneratorConfig config_;
  ProfileMix mix_;
  Random rng_;
  uint64_t next_address_ = 1;
  std::vector<Address> users_;
  std::vector<Address> tokens_;
  std::vector<Address> dexes_;
  std::vector<Address> routers_;
  Address ponzi_{};
  Address rollup_{};
  Address honeypot_{};
};

}  // namespace hardtape::workload
