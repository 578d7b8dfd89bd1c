// HFT scenario (the paper's motivating user, Sections I and VI-C): a
// high-frequency trader tests a multi-step DEX strategy as a bundle before
// committing it on-chain. Two properties matter to them:
//
//   1. the traces expose the strategy's net effect (token deltas, gas) so a
//      losing bundle is never broadcast, and
//   2. the pre-execution leaks nothing the SP could front-run: every
//      world-state query went through the ORAM, so the SP sees only uniform
//      path accesses — we print exactly what the SP observed.
//
// The example also demonstrates the warm-session effect the paper compares
// against TSC-VEE: repeated bundles on the same contracts find their data
// locally after the first access.
#include <cstdio>

#include "service/engine.hpp"
#include "workload/generator.hpp"

using namespace hardtape;

int main() {
  std::printf("== HarDTAPE HFT bundle example ==\n\n");

  node::NodeSimulator node;
  workload::WorkloadGenerator gen(workload::GeneratorConfig{
      .user_accounts = 4, .erc20_contracts = 2, .dex_pairs = 2, .routers = 1});
  gen.deploy(node.world());
  node.produce_block({});

  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
  config.seal_mode = oram::SealMode::kChaChaHmac;
  config.oram_shards = 1;  // one tree, so one server holds the SP's whole view
  config.perform_channel_crypto = true;
  service::PreExecutionEngine engine(node, config);
  if (engine.synchronize() != Status::kOk) return 1;

  const Address trader = gen.users()[0];
  const Address dex_a = gen.dexes()[0];
  const Address dex_b = gen.dexes()[1];

  // The strategy: swap into token1 on DEX A, add the proceeds as liquidity
  // pressure on DEX B, then swap back — a toy triangular probe.
  auto make_bundle = [&](uint64_t size_in) {
    std::vector<evm::Transaction> bundle;
    evm::Transaction leg1;
    leg1.from = trader;
    leg1.to = dex_a;
    leg1.data = workload::dex_swap(u256{size_in});
    leg1.gas_limit = 2'000'000;
    bundle.push_back(leg1);
    evm::Transaction leg2;
    leg2.from = trader;
    leg2.to = dex_b;
    leg2.data = workload::dex_swap(u256{size_in / 2});
    leg2.gas_limit = 2'000'000;
    bundle.push_back(leg2);
    return bundle;
  };

  std::printf("probing three bundle sizes before going on-chain:\n\n");
  std::printf("%-12s %-14s %-14s %-12s %-12s\n", "size_in", "leg1 out", "leg2 out",
              "gas total", "ms (sim)");
  const std::vector<uint64_t> sizes = {10'000, 100'000, 1'000'000};
  std::vector<std::vector<evm::Transaction>> probes;
  for (const uint64_t size : sizes) probes.push_back(make_bundle(size));
  const auto outcomes = engine.execute_serial(probes);
  for (size_t i = 0; i < sizes.size(); ++i) {
    const uint64_t size = sizes[i];
    const auto& outcome = outcomes[i];
    const auto& txs = outcome.report.transactions;
    if (txs.size() != 2 || txs[0].status != evm::VmStatus::kSuccess) {
      std::printf("%-12llu bundle failed: %s\n", static_cast<unsigned long long>(size),
                  evm::to_string(txs.empty() ? evm::VmStatus::kSuccess : txs[0].status));
      continue;
    }
    const u256 out1 = u256::from_be_bytes(txs[0].return_data);
    const u256 out2 = u256::from_be_bytes(txs[1].return_data);
    std::printf("%-12llu %-14s %-14s %-12llu %-12.1f\n",
                static_cast<unsigned long long>(size), out1.to_string().c_str(),
                out2.to_string().c_str(),
                static_cast<unsigned long long>(txs[0].gas_used + txs[1].gas_used),
                static_cast<double>(outcome.end_to_end_ns) / 1e6);
  }

  // What did the SP see? Only the ORAM's uniform path reads.
  const auto& leaves = engine.oram_store().server(0).observed_leaves();
  std::printf("\nthe SP's complete view of the last bundles (uniform ORAM paths):\n  ");
  const size_t show = std::min<size_t>(leaves.size(), 16);
  for (size_t i = leaves.size() - show; i < leaves.size(); ++i) {
    std::printf("L%llu ", static_cast<unsigned long long>(leaves[i]));
  }
  std::printf("...\n  (%llu total path accesses; no addresses, no keys, no types)\n",
              static_cast<unsigned long long>(leaves.size()));

  // Warm-session effect: within one bundle, the second leg's queries hit the
  // pages already fetched for the first when they share contracts.
  std::vector<evm::Transaction> warm_bundle = make_bundle(5'000);
  auto more = make_bundle(6'000);
  warm_bundle.insert(warm_bundle.end(), more.begin(), more.end());
  const auto warm = engine.execute_serial({warm_bundle}).at(0);
  std::printf("\n4-leg bundle on the same pairs: %llu ORAM queries, %llu on-chip page"
              " hits\n  (data is found locally after first access — the paper's"
              " TSC-VEE comparison case)\n",
              static_cast<unsigned long long>(warm.query_stats.oram_queries),
              static_cast<unsigned long long>(warm.query_stats.local_reads));
  return 0;
}
