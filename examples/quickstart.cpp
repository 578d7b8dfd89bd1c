// Quickstart: the full HarDTAPE flow in one file.
//
//   1. An SP runs a node and a HarDTAPE engine in the -full configuration.
//   2. The chain state is synchronized into the Path ORAM (with Merkle
//      proofs verified against the trusted block).
//   3. A user verifies the device's attestation report.
//   4. The user pre-executes a token-transfer bundle.
//   5. The returned trace shows gas, return data and storage modifications —
//      and the on-chain state is untouched.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "crypto/secp256k1.hpp"
#include "service/engine.hpp"
#include "workload/generator.hpp"

using namespace hardtape;

int main() {
  std::printf("== HarDTAPE quickstart ==\n\n");

  // --- the service provider's side ---
  node::NodeSimulator node;
  workload::WorkloadGenerator gen(workload::GeneratorConfig{
      .user_accounts = 4, .erc20_contracts = 1, .dex_pairs = 1, .routers = 1});
  gen.deploy(node.world());
  node.produce_block({});
  std::printf("node at block #%llu, state root %s...\n",
              static_cast<unsigned long long>(node.head().number),
              node.head().state_root.hex().substr(0, 16).c_str());

  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 2048};
  config.seal_mode = oram::SealMode::kChaChaHmac;
  config.perform_channel_crypto = true;  // run the real channel AEAD + ECDSA
  service::PreExecutionEngine engine(node, config);

  if (engine.synchronize() != Status::kOk) {
    std::printf("FATAL: node served data failing Merkle verification\n");
    return 1;
  }
  std::printf("world state verified and loaded into the ORAM (%llu pages)\n\n",
              static_cast<unsigned long long>(engine.snapshot().sync_pages_installed));

  // --- the user's side: verify the device before trusting it ---
  const crypto::PrivateKey user_key = crypto::PrivateKey::from_seed(Bytes{1, 2, 3});
  const H256 nonce = crypto::keccak256("quickstart-nonce");
  const auto session = engine.hypervisor().begin_session(nonce, user_key.public_key());
  const bool attested = hypervisor::verify_attestation(
      engine.manufacturer().root_public_key(),
      engine.hypervisor().firmware_measurement(), nonce, session.report);
  std::printf("attestation report verified: %s\n", attested ? "yes" : "NO - abort!");
  if (!attested) return 1;
  engine.hypervisor().end_session(session.session_id);

  // --- pre-execute a bundle: transfer 500 tokens ---
  evm::Transaction tx;
  tx.from = gen.users()[0];
  tx.to = gen.tokens()[0];
  tx.data = workload::erc20_transfer(gen.users()[1], u256{500});
  tx.gas_limit = 300'000;

  const auto outcome = engine.execute_serial({{tx}}).at(0);  // one dedicated HEVM
  const auto& trace = outcome.report.transactions.at(0);
  std::printf("\npre-execution trace:\n");
  std::printf("  status        : %s\n", evm::to_string(trace.status));
  std::printf("  gas used      : %llu\n", static_cast<unsigned long long>(trace.gas_used));
  std::printf("  return data   : 0x%s\n", to_hex(trace.return_data).c_str());
  std::printf("  logs          : %zu (Transfer event)\n", trace.logs.size());
  std::printf("  storage writes:\n");
  for (const auto& write : trace.storage_writes) {
    std::printf("    %s slot %s... = %s\n", write.addr.hex().substr(0, 12).c_str(),
                write.key.to_hex().substr(0, 12).c_str(), write.value.to_string().c_str());
  }
  std::printf("  simulated end-to-end time: %.1f ms (ORAM: %llu queries)\n",
              static_cast<double>(outcome.end_to_end_ns) / 1e6,
              static_cast<unsigned long long>(outcome.query_stats.oram_queries));

  // --- nothing persisted ---
  std::printf("\non-chain balance of recipient after pre-execution: %s (unchanged)\n",
              node.world().storage(gen.tokens()[0], gen.users()[1].to_u256()).to_string().c_str());
  std::printf("\nOK.\n");
  return 0;
}
