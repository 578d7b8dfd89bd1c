#include "workload/generator.hpp"

#include "crypto/keccak.hpp"

namespace hardtape::workload {

WorkloadGenerator::WorkloadGenerator(GeneratorConfig config, ProfileMix mix)
    : config_(config), mix_(mix), rng_(config.seed) {}

Address WorkloadGenerator::fresh_address() {
  // Deterministic, well-spread addresses.
  const H256 h = crypto::keccak256(u256{next_address_++}.to_be_bytes_vec());
  Address addr;
  std::memcpy(addr.bytes.data(), h.bytes.data() + 12, 20);
  return addr;
}

size_t WorkloadGenerator::sample_code_size() {
  // Table I(a), "code" column: <1k 9.5%, 1-4k 25.3%, 4-12k 39.6%,
  // 12-64k 25.6%, >64k 0%.
  const double p = rng_.uniform_double();
  if (p < 0.095) return 256 + rng_.uniform(700);
  if (p < 0.095 + 0.253) return 1024 + rng_.uniform(3 * 1024);
  if (p < 0.095 + 0.253 + 0.396) return 4 * 1024 + rng_.uniform(8 * 1024);
  return 12 * 1024 + rng_.uniform(12 * 1024);  // cap at 24k (EIP-170)
}

void WorkloadGenerator::deploy(state::WorldState& world) {
  const u256 kUserFunds = u256::from_string("1000000000000000000000");  // 1000 ETH

  for (size_t i = 0; i < config_.user_accounts; ++i) {
    const Address user = fresh_address();
    world.set_balance(user, kUserFunds);
    users_.push_back(user);
  }

  for (size_t i = 0; i < config_.erc20_contracts; ++i) {
    const Address token = fresh_address();
    world.set_code(token, pad_code(erc20_code(), sample_code_size()));
    // Pre-mint balances for every user (balance slot = user address).
    for (const Address& user : users_) {
      world.set_storage(token, user.to_u256(), u256{1'000'000'000});
    }
    tokens_.push_back(token);
  }

  for (size_t i = 0; i < config_.dex_pairs; ++i) {
    const Address dex = fresh_address();
    world.set_code(dex, pad_code(dex_pair_code(), sample_code_size()));
    const Address token1 = tokens_[i % tokens_.size()];
    world.set_storage(dex, u256{kDexReserve0Slot}, u256{10'000'000'000ull});
    world.set_storage(dex, u256{kDexReserve1Slot}, u256{10'000'000'000ull});
    world.set_storage(dex, u256{kDexToken1Slot}, token1.to_u256());
    // The pair holds token1 inventory to pay out swaps.
    world.set_storage(token1, dex.to_u256(), u256{1'000'000'000'000ull});
    dexes_.push_back(dex);
  }

  for (size_t i = 0; i < config_.routers; ++i) {
    const Address router = fresh_address();
    world.set_code(router, pad_code(router_code(), sample_code_size()));
    // Routers hold token balances so their leaf transfers succeed.
    for (const Address& token : tokens_) {
      world.set_storage(token, router.to_u256(), u256{1'000'000'000'000ull});
    }
    routers_.push_back(router);
  }

  ponzi_ = fresh_address();
  world.set_code(ponzi_, pad_code(ponzi_code(), 1024 + rng_.uniform(2048)));
  rollup_ = fresh_address();
  world.set_code(rollup_, pad_code(rollup_batcher_code(), 4096 + rng_.uniform(6144)));
  honeypot_ = fresh_address();
  world.set_code(honeypot_, pad_code(honeypot_code(), 2048));
}

evm::Transaction WorkloadGenerator::make_tx(const Address& from, const Address& to,
                                            Bytes data, const u256& value,
                                            uint64_t gas) {
  evm::Transaction tx;
  tx.from = from;
  tx.to = to;
  tx.data = std::move(data);
  tx.value = value;
  tx.gas_limit = gas;
  tx.gas_price = u256{10};
  return tx;
}

std::vector<evm::Transaction> WorkloadGenerator::generate_block() {
  std::vector<evm::Transaction> txs;
  txs.reserve(config_.txs_per_block);

  for (size_t i = 0; i < config_.txs_per_block; ++i) {
    const Address& from = users_[rng_.uniform(users_.size())];
    const Address& to_user = users_[rng_.uniform(users_.size())];
    double p = rng_.uniform_double();

    if ((p -= mix_.plain_transfer) < 0) {
      txs.push_back(make_tx(from, to_user, {}, u256{1 + rng_.uniform(1000)}, 50'000));
      continue;
    }
    if ((p -= mix_.erc20_transfer) < 0) {
      const Address& token = tokens_[rng_.uniform(tokens_.size())];
      txs.push_back(make_tx(from, token,
                            erc20_transfer(to_user, u256{1 + rng_.uniform(10'000)})));
      continue;
    }
    if ((p -= mix_.erc20_mint) < 0) {
      const Address& token = tokens_[rng_.uniform(tokens_.size())];
      txs.push_back(make_tx(from, token,
                            erc20_mint(to_user, u256{1 + rng_.uniform(10'000)})));
      continue;
    }
    if ((p -= mix_.dex_swap) < 0) {
      const Address& dex = dexes_[rng_.uniform(dexes_.size())];
      txs.push_back(make_tx(from, dex, dex_swap(u256{100 + rng_.uniform(100'000)})));
      continue;
    }
    if ((p -= mix_.ponzi_invest) < 0) {
      txs.push_back(make_tx(from, ponzi_, calldata_selector(kSelInvest),
                            u256{1000 + rng_.uniform(100'000)}));
      continue;
    }
    if ((p -= mix_.router_chain) < 0) {
      // Depth sampled to shape the Table I call-depth tail: mostly 2-5,
      // sometimes 6-10, rarely deeper.
      // Route parameter d yields a call depth of d+2 frames; sampled to
      // shape Table I's depth tail (2-5 common, 6-10 ~6%, >10 rare).
      const double dp = rng_.uniform_double();
      uint64_t depth;
      if (dp < 0.60) depth = rng_.uniform_range(0, 3);
      else if (dp < 0.96) depth = rng_.uniform_range(4, 8);
      else depth = rng_.uniform_range(9, 14);
      const Address& router = routers_[rng_.uniform(routers_.size())];
      const Address& token = tokens_[rng_.uniform(tokens_.size())];
      txs.push_back(make_tx(from, router,
                            router_route(depth, token, to_user, u256{1 + rng_.uniform(100)}),
                            u256{}, 5'000'000));
      continue;
    }
    if ((p -= mix_.small_batch) < 0) {
      // Settlement-style batch: 5-16 consecutive storage records, moderate
      // calldata (drives Table I(b)'s 5-16 bucket and the 1-4k memory tail).
      const uint64_t count = rng_.uniform_range(5, 16);
      const size_t payload = 256 + rng_.uniform(3 * 1024);
      const u256 base = u256{rng_.next_u64()} << 5;
      txs.push_back(make_tx(from, rollup_, rollup_submit(base, count, payload),
                            u256{}, 4'000'000));
      continue;
    }
    // Rollup batch (the remaining probability mass).
    const uint64_t count = 16 + rng_.uniform(120);
    const size_t payload = 512 + rng_.uniform(3000);
    const u256 base = u256{rng_.next_u64()} << 5;  // group-aligned base key
    txs.push_back(make_tx(from, rollup_, rollup_submit(base, count, payload),
                          u256{}, 8'000'000));
  }
  return txs;
}

std::vector<std::vector<evm::Transaction>> WorkloadGenerator::generate_evaluation_set(
    size_t block_count) {
  std::vector<std::vector<evm::Transaction>> blocks;
  blocks.reserve(block_count);
  for (size_t i = 0; i < block_count; ++i) blocks.push_back(generate_block());
  return blocks;
}

}  // namespace hardtape::workload
