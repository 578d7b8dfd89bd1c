// Node simulator and block-synchronization tests (threat A6: fake on-chain
// data must be rejected at sync time).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/keccak.hpp"
#include "durability/vfs.hpp"
#include "node/node.hpp"
#include "node/sync.hpp"
#include "oram/epoch.hpp"
#include "service/pre_execution.hpp"
#include "trie/mpt.hpp"
#include "trie/paged_node_store.hpp"
#include "trie/rlp.hpp"
#include "workload/contracts.hpp"
#include "workload/generator.hpp"

namespace hardtape::node {
namespace {

Address addr(uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

crypto::AesKey128 key() {
  crypto::AesKey128 k{};
  k[5] = 9;
  return k;
}

// The session's state reader with every query routed to `oram`: the HEVM's
// own read path over what a sync installed. Its local world is empty, so
// every answer comes from the ORAM.
service::RoutedStateReader oram_reader(oram::OramAccessor& oram) {
  static const state::WorldState kNothingLocal;
  return service::RoutedStateReader(kNothingLocal, &oram, service::SecurityConfig::full(),
                                    {});
}

TEST(Node, GenesisChain) {
  NodeSimulator node;
  EXPECT_EQ(node.chain().size(), 1u);
  EXPECT_EQ(node.head().number, 0u);
}

TEST(Node, ProduceBlockAdvancesChainAndState) {
  NodeSimulator node;
  node.world().set_balance(addr(1), u256{1'000'000});
  evm::Transaction tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = u256{500};
  tx.gas_limit = 30'000;
  tx.gas_price = u256{};

  const H256 root_before = node.world().state_root();
  const BlockHeader header = node.produce_block({tx});
  EXPECT_EQ(header.number, 1u);
  EXPECT_EQ(node.head().number, 1u);
  EXPECT_NE(header.state_root, root_before);
  EXPECT_EQ(header.parent_hash, node.chain()[0].hash());
  EXPECT_EQ(node.world().account(addr(2))->balance, u256{500});
  ASSERT_EQ(node.last_receipts().size(), 1u);
  EXPECT_EQ(node.last_receipts()[0].status, evm::VmStatus::kSuccess);
  // Mainnet cadence.
  EXPECT_EQ(header.timestamp, node.chain()[0].timestamp + 12);
}

TEST(Node, BlockExecutionCommitsContractEffects) {
  NodeSimulator node;
  node.world().set_balance(addr(1), u256{1} << 64);
  node.world().set_code(addr(0x10), workload::erc20_code());
  node.world().set_storage(addr(0x10), addr(1).to_u256(), u256{1000});

  evm::Transaction tx;
  tx.from = addr(1);
  tx.to = addr(0x10);
  tx.data = workload::erc20_transfer(addr(2), u256{400});
  tx.gas_limit = 500'000;
  tx.gas_price = u256{};
  node.produce_block({tx});
  EXPECT_EQ(node.world().storage(addr(0x10), addr(2).to_u256()), u256{400});
  EXPECT_EQ(node.world().storage(addr(0x10), addr(1).to_u256()), u256{600});
}

TEST(Node, HeaderHashCoversContents) {
  BlockHeader a;
  a.number = 5;
  BlockHeader b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.gas_used = 1;
  EXPECT_NE(a.hash(), b.hash());
}

// --- chain integrity (PR 4 satellite) ---

TEST(Node, ChainLinkageHoldsAcrossBlocks) {
  NodeSimulator node;
  node.world().set_balance(addr(1), u256{1} << 32);
  for (int i = 0; i < 5; ++i) {
    evm::Transaction tx;
    tx.from = addr(1);
    tx.to = addr(2);
    tx.value = u256{static_cast<uint64_t>(i + 1)};
    tx.gas_limit = 30'000;
    node.produce_block({tx});
  }
  const auto chain = node.chain();
  ASSERT_EQ(chain.size(), 6u);
  for (size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i].number, i) << "block " << i;
    if (i > 0) {
      EXPECT_EQ(chain[i].parent_hash, chain[i - 1].hash()) << "block " << i;
      EXPECT_EQ(chain[i].timestamp, chain[i - 1].timestamp + 12);
    }
  }
}

TEST(Node, StateRootProgressesWithStateAndRepeatsWithoutIt) {
  NodeSimulator node;
  node.world().set_balance(addr(1), u256{1} << 32);
  evm::Transaction tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = u256{7};
  tx.gas_limit = 30'000;
  const BlockHeader b1 = node.produce_block({tx});
  const BlockHeader b2 = node.produce_block({});  // empty: state unchanged
  tx.value = u256{9};
  const BlockHeader b3 = node.produce_block({tx});
  EXPECT_NE(b1.state_root, node.chain()[0].state_root);
  EXPECT_EQ(b2.state_root, b1.state_root);
  EXPECT_NE(b3.state_root, b2.state_root);
  // Headers still diverge even when roots repeat (parent hash, timestamp).
  EXPECT_NE(b2.hash(), b1.hash());
}

// Golden value: pins the RLP header encoding. If this changes, every
// previously trusted block hash changes meaning — bump it only with a
// deliberate, documented format change.
TEST(Node, HeaderHashGoldenValue) {
  BlockHeader header;
  header.number = 7;
  header.parent_hash = crypto::keccak256("parent");
  header.state_root = crypto::keccak256("state");
  header.tx_root = crypto::keccak256("txs");
  header.timestamp = 1'700'000'084;
  header.gas_used = 21'000;
  EXPECT_EQ(header.hash().hex(), "ecec6bb8ec6da430a6ce57a1e636e2cd3ff95f4fca930ca60188946e3a65adaa");
}

// --- live-chain schedule: tick() and reorgs (PR 4 tentpole) ---

evm::Transaction simple_transfer(uint8_t from_tag, uint8_t to_tag, uint64_t value) {
  evm::Transaction tx;
  tx.from = addr(from_tag);
  tx.to = addr(to_tag);
  tx.value = u256{value};
  tx.gas_limit = 30'000;
  return tx;
}

TEST(NodeSchedule, TickRequiresSchedule) {
  NodeSimulator node;
  EXPECT_THROW(node.tick({}), UsageError);
}

TEST(NodeSchedule, DeterministicReplay) {
  // Two nodes with the same seed and the same per-tick transactions build
  // bit-identical chains, reorgs included.
  const ChainSchedule schedule{.seed = 42, .reorg_rate = 0.3, .max_reorg_depth = 3};
  NodeSimulator a, b;
  for (NodeSimulator* node : {&a, &b}) {
    node->world().set_balance(addr(1), u256{1} << 40);
    node->set_schedule(schedule);
  }
  for (int i = 0; i < 40; ++i) {
    const auto txs = {simple_transfer(1, 2, 10 + static_cast<uint64_t>(i))};
    const auto ra = a.tick(txs);
    const auto rb = b.tick(txs);
    EXPECT_EQ(ra.reorged, rb.reorged) << "tick " << i;
    EXPECT_EQ(ra.depth, rb.depth) << "tick " << i;
    EXPECT_EQ(ra.head.hash(), rb.head.hash()) << "tick " << i;
  }
  EXPECT_EQ(a.reorgs(), b.reorgs());
  EXPECT_GT(a.reorgs(), 0u);
  EXPECT_EQ(a.head().hash(), b.head().hash());
}

TEST(NodeSchedule, TickAdvancesHeadByOneEvenThroughReorgs) {
  NodeSimulator node;
  node.world().set_balance(addr(1), u256{1} << 40);
  node.set_schedule({.seed = 7, .reorg_rate = 1.0, .max_reorg_depth = 2});
  node.produce_block({simple_transfer(1, 2, 5)});
  const uint64_t start = node.head_number();
  for (int i = 0; i < 6; ++i) {
    const auto result = node.tick({simple_transfer(1, 2, 100 + static_cast<uint64_t>(i))});
    EXPECT_TRUE(result.reorged);
    EXPECT_EQ(node.head_number(), start + static_cast<uint64_t>(i) + 1);
  }
  EXPECT_EQ(node.reorgs(), 6u);
  EXPECT_GT(node.orphaned_blocks(), 0u);
}

TEST(NodeSchedule, ReorgOrphansRootButKeepsSnapshotAnswerable) {
  NodeSimulator node;
  node.world().set_balance(addr(1), u256{1} << 40);
  node.set_schedule({.seed = 3, .reorg_rate = 1.0, .max_reorg_depth = 1});
  const BlockHeader doomed = node.produce_block({simple_transfer(1, 2, 50)});
  ASSERT_TRUE(node.is_canonical_root(doomed.state_root));

  // The forced reorg replaces `doomed` with a sibling running a different
  // transaction, so the fork's state genuinely diverges.
  const auto result = node.tick({simple_transfer(1, 3, 51)});
  ASSERT_TRUE(result.reorged);
  EXPECT_FALSE(node.is_canonical_root(doomed.state_root));
  EXPECT_TRUE(node.is_canonical_root(node.head().state_root));

  // The orphaned snapshot is still pinned and still proves its own history:
  // the trusted side discovers the orphaning, it does not lose the data.
  const auto old_world = node.world_at(doomed.state_root);
  ASSERT_NE(old_world, nullptr);
  EXPECT_EQ(old_world->account(addr(2))->balance, u256{50});
  const auto response = node.fetch_account(addr(2), doomed.state_root);
  const auto check = trie::MerklePatriciaTrie::verify_proof(
      doomed.state_root, crypto::keccak256(addr(2).view()).view(), response.proof);
  EXPECT_TRUE(check.valid);
  // While the new canonical chain never credited addr(2).
  EXPECT_EQ(node.world().storage(addr(2), u256{}), u256{});
  EXPECT_FALSE(node.world().account(addr(2)).has_value());
}

TEST(NodeSchedule, PinnedQueriesUnknownRootFailClosed) {
  NodeSimulator node;
  node.produce_block({});
  const H256 bogus = crypto::keccak256("never a block");
  EXPECT_EQ(node.world_at(bogus), nullptr);
  const auto response = node.fetch_account(addr(1), bogus);
  EXPECT_TRUE(response.proof.empty());  // empty proof: verification rejects
  const auto check = trie::MerklePatriciaTrie::verify_proof(
      bogus, crypto::keccak256(addr(1).view()).view(), response.proof);
  EXPECT_FALSE(check.valid);
}

TEST(NodeSchedule, PinnedHeadSeesSetupMutations) {
  // Test/bench setup mutates world() after construction; pinned_head() must
  // re-pin genesis to that state instead of the empty construction-time one.
  NodeSimulator node;
  node.world().set_balance(addr(9), u256{123});
  const PinnedBlock pin = node.pinned_head();
  ASSERT_NE(pin.world, nullptr);
  EXPECT_EQ(pin.header.state_root, node.world().state_root());
  EXPECT_EQ(pin.world->account(addr(9))->balance, u256{123});
}

class SyncTest : public ::testing::Test {
 protected:
  SyncTest()
      : server_(oram::OramConfig{.block_size = oram::kPageSize, .capacity = 512}),
        client_(server_, key(), 3, oram::SealMode::kChaChaHmac) {
    node_.world().set_balance(addr(1), u256{777});
    node_.world().set_code(addr(2), workload::erc20_code());
    node_.world().set_storage(addr(2), u256{5}, u256{55});
    node_.world().set_storage(addr(2), u256{37}, u256{3737});
    node_.produce_block({});
  }

  NodeSimulator node_;
  oram::OramServer server_;
  oram::OramClient client_;
};

TEST_F(SyncTest, HonestNodeSyncsAndServes) {
  BlockSynchronizer sync(node_, node_.head().state_root);
  oram::Pages pages;
  ASSERT_EQ(sync.verify_all(pages), Status::kOk);
  EXPECT_EQ(sync.verified_accounts(), 2u);
  EXPECT_EQ(sync.verified_slots(), 2u);
  EXPECT_GT(pages.size(), 3u);

  // The staged pages, bulk-loaded, serve correct data through the ORAM.
  client_.bulk_load(pages);
  const auto oram_state = oram_reader(client_);
  EXPECT_EQ(oram_state.account(addr(1))->balance, u256{777});
  EXPECT_EQ(oram_state.storage(addr(2), u256{5}), u256{55});
  EXPECT_EQ(oram_state.storage(addr(2), u256{37}), u256{3737});
  EXPECT_EQ(oram_state.code(addr(2)), node_.world().code(addr(2)));
}

TEST_F(SyncTest, DishonestNodeRejected) {
  node_.set_dishonest(true);
  BlockSynchronizer sync(node_, node_.head().state_root);
  oram::Pages pages;
  EXPECT_EQ(sync.verify_all(pages), Status::kBadProof);
  // Nothing was staged, so nothing can be installed.
  EXPECT_TRUE(pages.empty());
  EXPECT_EQ(sync.verified_accounts(), 0u);
}

TEST_F(SyncTest, DishonestStorageRejected) {
  // Both accounts verify; the node's answer for slot 5 does not.
  BlockSynchronizer sync(node_, node_.head().state_root);
  sync.set_storage_proof_tamper(
      [](const Address& a, const u256& key) { return a == addr(2) && key == u256{5}; });
  oram::Pages pages;
  EXPECT_EQ(sync.verify_all(pages), Status::kBadProof);
  EXPECT_EQ(sync.verified_accounts(), 2u);
  EXPECT_EQ(sync.verified_slots(), 0u);
  EXPECT_TRUE(pages.empty());
}

TEST_F(SyncTest, WrongTrustedRootRejectsEverything) {
  BlockSynchronizer sync(node_, crypto::keccak256("some other chain"));
  oram::Pages pages;
  EXPECT_EQ(sync.verify_all(pages), Status::kBadProof);
  EXPECT_TRUE(pages.empty());
}

TEST_F(SyncTest, AbsentAccountSyncsAsAbsent) {
  // The next block deletes addr(1): the delta proves it absent and stages
  // an empty-meta page for it (balance zero, the empty code hash).
  const auto old_world = node_.world_at(node_.head().state_root);
  node_.world().delete_account(addr(1));
  node_.produce_block({});
  BlockSynchronizer sync(node_, node_.head().state_root);
  oram::Pages pages;
  ASSERT_EQ(sync.verify_delta(*old_world, pages), Status::kOk);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0].first,
            oram::page_id(oram::PageType::kAccountMeta, addr(1), u256{}));
  const auto meta = oram::AccountMetaPage::deserialize(pages[0].second);
  EXPECT_EQ(meta.account.balance, u256{});
  EXPECT_EQ(meta.account.code_hash, crypto::keccak256(Bytes{}));
}

// Fail-closed regression (PR 4 satellite): a proof failure on the SECOND
// storage group must leave nothing to install — not even the
// already-verified meta page or first group, nor any other account's pages.
// A partial install would mix verified and unverifiable state.
TEST_F(SyncTest, StorageGroupProofFailureInstallsNothingFromAccount) {
  BlockSynchronizer sync(node_, node_.head().state_root);
  // Keys {5, 37} span storage groups 0 and 1; corrupt only group 1's proof.
  sync.set_storage_proof_tamper(
      [](const Address&, const u256& key) { return key == u256{37}; });
  oram::Pages pages;
  EXPECT_EQ(sync.verify_all(pages), Status::kBadProof);
  EXPECT_EQ(sync.verified_slots(), 1u);  // slot 5 verified before 37 failed
  EXPECT_TRUE(pages.empty());
}

// --- incremental (delta) sync + epoch tagging (PR 4 tentpole) ---

class DeltaSyncTest : public ::testing::Test {
 protected:
  DeltaSyncTest()
      : server_(oram::OramConfig{.block_size = oram::kPageSize, .capacity = 1024}),
        client_(server_, key(), 11, oram::SealMode::kChaChaHmac) {
    node_.world().set_balance(addr(1), u256{1} << 40);
    node_.world().set_code(addr(0x10), workload::erc20_code());
    node_.world().set_storage(addr(0x10), addr(1).to_u256(), u256{1000});
    // A slot in a far-away group the delta must NOT have to re-verify.
    node_.world().set_storage(addr(0x10), u256{200}, u256{77});
    node_.produce_block({});

    BlockSynchronizer sync(node_, node_.head().state_root);
    registry_.begin(node_.head().state_root, node_.head().number);
    oram::Pages pages;
    EXPECT_EQ(sync.verify_all(pages), Status::kOk);
    client_.bulk_load(pages);
    for (const auto& page : pages) registry_.tag(page.first);
    registry_.commit();
    old_root_ = node_.head().state_root;
    old_world_ = node_.world_at(old_root_);

    // Block 2: an ERC20 transfer rewrites slots 1 and 2 (both in group 0).
    evm::Transaction tx;
    tx.from = addr(1);
    tx.to = addr(0x10);
    tx.data = workload::erc20_transfer(addr(2), u256{400});
    tx.gas_limit = 500'000;
    node_.produce_block({tx});
  }

  NodeSimulator node_;
  oram::OramServer server_;
  oram::OramClient client_;
  oram::EpochRegistry registry_;
  H256 old_root_;
  std::shared_ptr<const state::WorldState> old_world_;
};

TEST_F(DeltaSyncTest, DeltaReverifiesOnlyChangesAndServesNewState) {
  BlockSynchronizer delta(node_, node_.head().state_root);
  registry_.begin(node_.head().state_root, node_.head().number);
  BlockSynchronizer::DeltaReport report;
  oram::Pages pages;
  ASSERT_EQ(delta.verify_delta(*old_world_, pages, &report), Status::kOk);
  // A live tree takes the delta as one oblivious write per page.
  for (const auto& page : pages) {
    client_.write(page.first, page.second);
    registry_.tag(page.first);
  }
  registry_.commit();

  EXPECT_GE(report.accounts_changed, 1u);
  // Only the changed group's slots were re-proven; the untouched group-6
  // slot (key 200) was not.
  EXPECT_EQ(report.slots_reverified, 2u);
  EXPECT_GT(pages.size(), 0u);

  const auto oram_state = oram_reader(client_);
  EXPECT_EQ(oram_state.storage(addr(0x10), addr(1).to_u256()), u256{600});
  EXPECT_EQ(oram_state.storage(addr(0x10), addr(2).to_u256()), u256{400});
  // Untouched pages survive at their older epoch and still serve.
  EXPECT_EQ(oram_state.storage(addr(0x10), u256{200}), u256{77});

  // Epoch accounting: the second pass advanced the store epoch, and no page
  // claims an epoch newer than it.
  EXPECT_EQ(registry_.store_epoch(), 1u);
  EXPECT_LE(registry_.max_page_epoch(), registry_.store_epoch());
  const auto group0 =
      oram::page_id(oram::PageType::kStorageGroup, addr(0x10), u256{});
  EXPECT_EQ(registry_.page_epoch(group0).value(), 1u);
  const auto group6 =
      oram::page_id(oram::PageType::kStorageGroup, addr(0x10), u256{6});
  EXPECT_EQ(registry_.page_epoch(group6).value(), 0u);
}

TEST_F(DeltaSyncTest, MidDeltaProofFailureInstallsNothing) {
  BlockSynchronizer delta(node_, node_.head().state_root);
  // Accounts are processed in address order, so addr(1)'s meta verifies and
  // stages BEFORE the token's storage proof fails — atomicity means even
  // that already-verified page must not land.
  delta.set_storage_proof_tamper(
      [](const Address&, const u256& key) { return key == addr(2).to_u256(); });
  oram::Pages pages;
  EXPECT_EQ(delta.verify_delta(*old_world_, pages), Status::kBadProof);
  EXPECT_TRUE(pages.empty());  // nothing to install

  const auto oram_state = oram_reader(client_);
  // The store still serves the OLD state, wholesale: fail closed.
  EXPECT_EQ(oram_state.storage(addr(0x10), addr(1).to_u256()), u256{1000});
  EXPECT_EQ(oram_state.storage(addr(0x10), addr(2).to_u256()), u256{});
  EXPECT_EQ(oram_state.account(addr(1))->nonce, old_world_->account(addr(1))->nonce);
}

TEST_F(DeltaSyncTest, DeltaAgainstUnknownRootIsNotFound) {
  BlockSynchronizer delta(node_, crypto::keccak256("no such block"));
  oram::Pages pages;
  EXPECT_EQ(delta.verify_delta(*old_world_, pages), Status::kNotFound);
}

// --- concurrent proofs over a paged trie ---

TEST(NodeConcurrency, ParallelProofsOverPagedTrieVerifyAgainstHead) {
  // NodeSimulator serves fetch_account / fetch_storage under a SHARED lock,
  // so PagedNodeStore::get runs on several threads at once. A 2-page pool
  // makes those gets evict and reload pages while the other threads read;
  // this runs under TSan in CI (sanitize-tsan job), and every proof must
  // verify against the head root.
  durability::SimFs fs;
  trie::PagedNodeStore store(
      fs, pagedstore::PagedStoreConfig{.name = "node-trie", .buffer_pool_pages = 2},
      /*page_payload_bytes=*/512);
  NodeSimulator node({}, &store);
  constexpr uint8_t kAccounts = 24;
  constexpr uint64_t kSlots = 4;
  const auto expected = [](uint8_t tag, uint64_t slot) {
    return u256{100u * tag + slot + 1};
  };
  for (uint8_t tag = 1; tag <= kAccounts; ++tag) {
    node.world().set_balance(addr(tag), u256{1000u * tag});
    for (uint64_t slot = 0; slot < kSlots; ++slot) {
      node.world().set_storage(addr(tag), u256{slot}, expected(tag, slot));
    }
  }
  node.produce_block({});
  const H256 root = node.head().state_root;
  const uint64_t evictions_before = store.pool_stats().evictions;

  constexpr int kThreads = 4, kRounds = 3;
  std::atomic<uint64_t> verified{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (uint8_t i = 0; i < kAccounts; ++i) {
          const uint8_t tag = static_cast<uint8_t>(1 + (i + 6 * t) % kAccounts);
          const auto account = node.fetch_account(addr(tag));
          const auto account_check = trie::MerklePatriciaTrie::verify_proof(
              root, crypto::keccak256(addr(tag).view()).view(), account.proof);
          if (!account_check.valid || account_check.value != account.account_rlp) {
            failed.store(true);
            return;
          }
          const H256 storage_root =
              state::Account::rlp_decode(account.account_rlp).storage_root;
          for (uint64_t slot = 0; slot < kSlots; ++slot) {
            const auto storage = node.fetch_storage(addr(tag), u256{slot});
            const auto check = trie::MerklePatriciaTrie::verify_proof(
                storage_root, crypto::keccak256(u256{slot}.to_be_bytes_vec()).view(),
                storage.proof);
            if (!check.valid || !check.value.has_value() ||
                u256::from_be_bytes(trie::rlp_decode(*check.value).bytes()) !=
                    expected(tag, slot) ||
                storage.value != expected(tag, slot)) {
              failed.store(true);
              return;
            }
          }
          verified.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(verified.load(), uint64_t{kThreads} * kRounds * kAccounts);
  const auto pool = store.pool_stats();
  EXPECT_GT(pool.evictions, evictions_before);  // the proof gets paged
  EXPECT_EQ(pool.exhausted, 0u);
  EXPECT_EQ(pool.pinned, 0u);
}

TEST(EpochRegistry, TracksPassesAndPageTags) {
  oram::EpochRegistry reg;
  EXPECT_EQ(reg.store_epoch(), 0u);
  EXPECT_FALSE(reg.current().has_value());

  reg.begin(crypto::keccak256("r0"), 1);
  EXPECT_THROW(reg.begin(crypto::keccak256("r1"), 2), UsageError);
  reg.tag(u256{1});
  reg.tag(u256{2});
  reg.commit();
  EXPECT_EQ(reg.store_epoch(), 0u);
  EXPECT_EQ(reg.current()->block_number, 1u);

  reg.begin(crypto::keccak256("r1"), 2);
  reg.tag(u256{2});
  reg.commit();
  EXPECT_EQ(reg.store_epoch(), 1u);
  EXPECT_EQ(reg.page_epoch(u256{1}).value(), 0u);  // untouched: older tag
  EXPECT_EQ(reg.page_epoch(u256{2}).value(), 1u);  // re-installed: new tag
  EXPECT_FALSE(reg.page_epoch(u256{9}).has_value());
  EXPECT_EQ(reg.max_page_epoch(), reg.store_epoch());
  EXPECT_EQ(reg.distinct_pages(), 2u);
  EXPECT_EQ(reg.pages_tagged(), 3u);
  EXPECT_EQ(reg.at(0)->state_root, crypto::keccak256("r0"));
  EXPECT_THROW(reg.tag(u256{3}), UsageError);  // no pass open
}

TEST(SyncIntegration, FullWorkloadWorldSyncs) {
  // End-to-end: deploy the full workload population, produce a block, sync
  // everything, and spot-check through the ORAM.
  NodeSimulator node;
  workload::WorkloadGenerator gen(workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 1});
  gen.deploy(node.world());
  node.produce_block({});

  oram::OramServer server(
      oram::OramConfig{.block_size = oram::kPageSize, .capacity = 2048});
  oram::OramClient client(server, key(), 5, oram::SealMode::kChaChaHmac);
  BlockSynchronizer sync(node, node.head().state_root);
  oram::Pages pages;
  ASSERT_EQ(sync.verify_all(pages), Status::kOk);
  client.bulk_load(pages);

  const auto oram_state = oram_reader(client);
  const Address& token = gen.tokens()[0];
  const Address& user = gen.users()[0];
  EXPECT_EQ(oram_state.storage(token, user.to_u256()),
            node.world().storage(token, user.to_u256()));
  EXPECT_EQ(oram_state.code(token), node.world().code(token));
}

// --- seeded mutation fuzz of the proof verifier ---
//
// Cold sync gates one whole load on these checks, and the node feed is the
// SP's. A mutated proof must be rejected, or verify to exactly what the
// genuine proof proves — the true value, or the true absence — never to
// anything else.
TEST(ProofFuzz, MutatedProofsVerifyToTheTruthOrAreRejected) {
  NodeSimulator node;
  workload::WorkloadGenerator gen(workload::GeneratorConfig{
      .user_accounts = 6, .erc20_contracts = 2, .dex_pairs = 1, .routers = 1});
  gen.deploy(node.world());
  node.produce_block({});
  const H256 state_root = node.head().state_root;

  struct Case {
    H256 root;
    H256 key;
    trie::MerkleProof proof;
    std::optional<Bytes> truth;
  };
  std::vector<Case> cases;
  auto add_case = [&](const H256& root, const H256& key, trie::MerkleProof proof) {
    const auto genuine = trie::MerklePatriciaTrie::verify_proof(root, key.view(), proof);
    ASSERT_TRUE(genuine.valid);
    cases.push_back({root, key, std::move(proof), genuine.value});
  };
  std::vector<Address> accounts = node.world().all_accounts();
  accounts.push_back(addr(0xee));  // proven absent
  for (const Address& a : accounts) {
    add_case(state_root, crypto::keccak256(a.view()), node.fetch_account(a, state_root).proof);
    std::vector<u256> keys = node.world().storage_keys(a);
    if (keys.empty()) continue;
    keys.push_back(u256{0xdead});  // an absent slot of a live storage trie
    for (const u256& key : keys) {
      add_case(node.world().storage_root(a), crypto::keccak256(key.to_be_bytes_vec()),
               node.fetch_storage(a, key, state_root).proof);
    }
  }
  ASSERT_GT(cases.size(), 20u);

  Random rng(0xf022);
  constexpr size_t kIterations = 4000;
  size_t rejected = 0;
  for (size_t iteration = 0; iteration < kIterations; ++iteration) {
    const Case& c = cases[rng.uniform(cases.size())];
    trie::MerkleProof proof = c.proof;
    const size_t at = rng.uniform(proof.size());
    switch (rng.uniform(6)) {
      case 0:  // bit flip
        if (!proof[at].empty()) {
          proof[at][rng.uniform(proof[at].size())] ^=
              static_cast<uint8_t>(1u << rng.uniform(8));
        }
        break;
      case 1:  // truncation: of the node list, or of one node's bytes
        if (rng.uniform(2) == 0) {
          proof.resize(at);
        } else {
          proof[at].resize(rng.uniform(proof[at].size() + 1));
        }
        break;
      case 2:  // dropped node
        proof.erase(proof.begin() + static_cast<long>(at));
        break;
      case 3:  // duplicated node
        proof.insert(proof.begin() + static_cast<long>(at), proof[at]);
        break;
      case 4:  // swapped nodes
        std::swap(proof[at], proof[rng.uniform(proof.size())]);
        break;
      default: {  // a node spliced in from another key's proof
        const Case& other = cases[rng.uniform(cases.size())];
        proof[at] = other.proof[rng.uniform(other.proof.size())];
        break;
      }
    }
    const auto result = trie::MerklePatriciaTrie::verify_proof(c.root, c.key.view(), proof);
    if (!result.valid) {
      ++rejected;
      continue;
    }
    EXPECT_EQ(result.value, c.truth) << "iteration " << iteration;
  }
  // Most mutations break a hash link; the benign rest (a node swapped with
  // itself, a shared node spliced over its twin) still prove the truth.
  EXPECT_GT(rejected, kIterations / 2);
  EXPECT_LT(rejected, kIterations);
}

}  // namespace
}  // namespace hardtape::node
