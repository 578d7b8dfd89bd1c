// Why the ORAM matters: a side-by-side of what the service provider
// observes with and without access-pattern protection (threat A7,
// Section IV-D). This is the MEV scenario from the paper's introduction: if
// the SP can see WHICH token a user's pre-executed swap touches, it can
// front-run the real transaction.
#include <cstdio>
#include <map>

#include "node/sync.hpp"
#include "oram/paged_state.hpp"
#include "service/pre_execution.hpp"
#include "workload/generator.hpp"

using namespace hardtape;

int main() {
  std::printf("== ORAM access patterns: the adversary's view ==\n\n");

  node::NodeSimulator node;
  workload::WorkloadGenerator gen(workload::GeneratorConfig{
      .user_accounts = 4, .erc20_contracts = 3, .dex_pairs = 1, .routers = 1});
  gen.deploy(node.world());

  // The user's secret intention: trade token #2.
  const Address secret_target = gen.tokens()[2];
  const Address decoy = gen.tokens()[0];

  // --- 1. without ORAM: queries name addresses and keys ---
  std::printf("WITHOUT ORAM, the SP's query log for one pre-execution:\n");
  std::printf("  GET code    %s   <-- the target token, in cleartext\n",
              secret_target.hex().c_str());
  std::printf("  GET storage %s slot(balance[user])\n", secret_target.hex().c_str());
  std::printf("  GET storage %s slot(balance[recipient])\n", secret_target.hex().c_str());
  std::printf("  => the SP knows the token and can front-run the trade.\n\n");

  // --- 2. with ORAM: uniform, re-randomized path accesses ---
  oram::OramServer server(oram::OramConfig{.block_size = oram::kPageSize,
                                           .capacity = 2048});
  crypto::AesKey128 oram_key{};
  oram_key[0] = 0x5e;
  oram::OramClient client(server, oram_key, 7, oram::SealMode::kChaChaHmac);
  // Block sync: verify the node's state against the trusted root, then fill
  // the tree in one bulk load (not an access: the SP sees no path yet).
  const node::PinnedBlock head = node.pinned_head();
  node::BlockSynchronizer sync(node, head.header.state_root);
  oram::Pages pages;
  if (sync.verify_all(pages) != Status::kOk) {
    std::printf("block sync failed\n");
    return 1;
  }
  client.bulk_load(pages);
  std::printf("loaded %zu verified 1 KB pages into the ORAM\n\n", pages.size());

  server.clear_observations();
  // Three sessions read the SECRET token's balance twice and the decoy's
  // once. Each session has its own state reader, every query routed through
  // the ORAM; its page cache ends with the session.
  const state::WorldState nothing_local;
  for (const Address& token : {secret_target, secret_target, decoy}) {
    const service::RoutedStateReader session(nothing_local, &client,
                                             service::SecurityConfig::full(), {});
    session.storage(token, gen.users()[0].to_u256());
  }

  std::printf("WITH ORAM, the same three queries appear as:\n");
  for (uint64_t leaf : server.observed_leaves()) {
    std::printf("  READ+REWRITE path to leaf %llu (%llu bytes, re-encrypted)\n",
                static_cast<unsigned long long>(leaf),
                static_cast<unsigned long long>(server.bytes_per_access()));
  }
  std::printf("  => same block accessed twice maps to fresh random leaves;\n"
              "     code pages and storage records are the same 1 KB shape.\n\n");

  // --- 3. the statistics an adversary would try to build ---
  std::printf("leaf histogram over 2000 repeated accesses to ONE hot block:\n");
  server.clear_observations();
  const auto hot = oram::page_id(oram::PageType::kStorageGroup, secret_target,
                                 oram::storage_group(gen.users()[0].to_u256()));
  for (int i = 0; i < 2000; ++i) client.read(hot);
  std::map<uint64_t, int> histogram;
  for (uint64_t leaf : server.observed_leaves()) histogram[leaf / 256] += 1;
  for (const auto& [bucket, count] : histogram) {
    std::printf("  leaves %4llu-%4llu: %-4d ",
                static_cast<unsigned long long>(bucket * 256),
                static_cast<unsigned long long>(bucket * 256 + 255), count);
    for (int i = 0; i < count / 25; ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("  => flat: the hottest block in the workload is statistically\n"
              "     indistinguishable from any other (Path ORAM remapping).\n\n");

  std::printf("stash high-water during the run: %zu blocks (bounded, on-chip)\n",
              client.stash_high_water());
  return 0;
}
