// Path ORAM and paged-world-state tests, including the obliviousness
// property checks backing threat A7 and integrity checks backing A6.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <thread>

#include "crypto/keccak.hpp"
#include "oram/epoch.hpp"
#include "oram/paged_state.hpp"
#include "oram/path_oram.hpp"
#include "oram/sharded.hpp"

namespace hardtape::oram {
namespace {

crypto::AesKey128 test_key() {
  crypto::AesKey128 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i * 7 + 1);
  return key;
}

BlockId bid(uint64_t n) { return crypto::keccak256(u256{n}.to_be_bytes_vec()).to_u256(); }

class OramTest : public ::testing::TestWithParam<SealMode> {
 protected:
  OramTest()
      : server_(OramConfig{.block_size = 64, .bucket_capacity = 4, .capacity = 256,
                           .max_stash_blocks = 64}),
        client_(server_, test_key(), /*rng_seed=*/42, GetParam()) {}

  OramServer server_;
  OramClient client_;
};

// One seal, one instance: the suite stays parameterized so its test ids keep
// the "/ChaChaHmac" suffix they had when a second seal existed.
INSTANTIATE_TEST_SUITE_P(Seals, OramTest, ::testing::Values(SealMode::kChaChaHmac),
                         [](const auto&) { return "ChaChaHmac"; });

TEST_P(OramTest, WriteReadRoundTrip) {
  const Bytes data = {1, 2, 3, 4, 5};
  client_.write(bid(1), data);
  const auto back = client_.read(bid(1));
  ASSERT_TRUE(back.has_value());
  // Zero-padded to block size.
  EXPECT_EQ(back->size(), 64u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), back->begin()));
}

TEST_P(OramTest, ReadUnknownIdReturnsNullButStillAccesses) {
  const uint64_t before = server_.access_count();
  EXPECT_FALSE(client_.read(bid(999)).has_value());
  // A dummy access happened: absent keys are not silent.
  EXPECT_EQ(server_.access_count(), before + 1);
}

TEST_P(OramTest, OverwriteUpdates) {
  client_.write(bid(5), Bytes{0xaa});
  client_.write(bid(5), Bytes{0xbb});
  const auto back = client_.read(bid(5));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((*back)[0], 0xbb);
  EXPECT_EQ(client_.block_count(), 1u);
}

TEST_P(OramTest, ManyBlocksSurviveChurn) {
  // Fill to a reasonable load and hammer with random reads/writes; every
  // block must retain its latest value (no loss through stash/evict cycles).
  Random rng(7);
  std::unordered_map<uint64_t, uint8_t> expected;
  for (uint64_t i = 0; i < 128; ++i) {
    const uint8_t v = static_cast<uint8_t>(rng.next_u64());
    client_.write(bid(i), Bytes{v});
    expected[i] = v;
  }
  for (int round = 0; round < 500; ++round) {
    const uint64_t i = rng.uniform(128);
    if (rng.uniform(2) == 0) {
      const uint8_t v = static_cast<uint8_t>(rng.next_u64());
      client_.write(bid(i), Bytes{v});
      expected[i] = v;
    } else {
      const auto back = client_.read(bid(i));
      ASSERT_TRUE(back.has_value()) << "lost block " << i;
      EXPECT_EQ((*back)[0], expected[i]) << "stale block " << i;
    }
  }
  for (const auto& [i, v] : expected) {
    const auto back = client_.read(bid(i));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ((*back)[0], v);
  }
  EXPECT_FALSE(client_.stash_overflowed());
}

TEST_P(OramTest, StashStaysBounded) {
  Random rng(3);
  for (uint64_t i = 0; i < 200; ++i) client_.write(bid(i), Bytes{1});
  for (int i = 0; i < 1000; ++i) client_.read(bid(rng.uniform(200)));
  // Theory: stash is O(log n) w.h.p. for Z=4. Our bound is generous.
  EXPECT_LE(client_.stash_high_water(), 64u);
  EXPECT_FALSE(client_.stash_overflowed());
}

TEST_P(OramTest, ObservedLeavesAreUniform) {
  // The adversary's entire view is the leaf sequence; repeatedly accessing
  // the SAME block must still produce uniform leaves (the remap step).
  client_.write(bid(1), Bytes{1});
  server_.clear_observations();
  constexpr int kAccesses = 4096;
  for (int i = 0; i < kAccesses; ++i) client_.read(bid(1));

  const auto& leaves = server_.observed_leaves();
  ASSERT_EQ(leaves.size(), static_cast<size_t>(kAccesses));
  // Chi-squared uniformity test over the leaf space.
  const size_t buckets = server_.leaf_count();
  std::vector<int> counts(buckets, 0);
  for (uint64_t leaf : leaves) counts[leaf]++;
  const double expected = static_cast<double>(kAccesses) / static_cast<double>(buckets);
  double chi2 = 0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // dof = buckets-1 = 255; 99.9th percentile ~ 330. Flaky-proof margin.
  EXPECT_LT(chi2, 360.0) << "leaf sequence not uniform";
}

TEST_P(OramTest, AccessPatternIndependentOfTarget) {
  // Correlation check: the leaf observed at access t must not predict the
  // leaf at access t+1 when the same block is accessed twice in a row.
  client_.write(bid(1), Bytes{1});
  client_.write(bid(2), Bytes{2});
  server_.clear_observations();
  for (int i = 0; i < 2000; ++i) {
    client_.read(bid(1));
    client_.read(bid(1));  // back-to-back same block
  }
  const auto& leaves = server_.observed_leaves();
  // Count exact repeats at consecutive positions; uniform expectation 1/L.
  int repeats = 0;
  for (size_t i = 1; i < leaves.size(); i += 2) {
    if (leaves[i] == leaves[i - 1]) ++repeats;
  }
  const double expected = 2000.0 / static_cast<double>(server_.leaf_count());
  EXPECT_LT(repeats, expected * 4 + 16);  // no correlation blowup
}

TEST_P(OramTest, ResponsesAreFixedSize) {
  // Every path read returns exactly (depth+1) * Z slots regardless of what
  // is stored — the uniform-response property.
  client_.write(bid(1), Bytes{1});
  const auto path = server_.read_path(0);
  EXPECT_EQ(path.size(), (server_.depth() + 1) * 4);
  EXPECT_GT(server_.bytes_per_access(), 0u);
}

TEST_P(OramTest, TamperedSlotDetected) {
  client_.write(bid(1), Bytes{1});
  // Corrupt every slot the server holds; the next real access must throw.
  for (int i = 0; i < 64; ++i) {
    auto path = server_.read_path(static_cast<uint64_t>(i) % server_.leaf_count());
    bool corrupted = false;
    for (auto& slot : path) {
      if (!slot.ciphertext.empty()) {
        slot.ciphertext[0] ^= 1;
        corrupted = true;
      }
    }
    server_.write_path(static_cast<uint64_t>(i) % server_.leaf_count(), std::move(path));
    if (corrupted) break;
  }
  EXPECT_THROW(client_.read(bid(1)), HardtapeError);
}

TEST_P(OramTest, SealRoundTripAndTamper) {
  Random rng(1);
  const auto key = test_key();
  const Bytes pt = rng.bytes(96);
  const SealedSlot slot = seal_slot(GetParam(), key, rng, pt);
  EXPECT_NE(slot.ciphertext, pt);  // actually encrypted
  const auto back = open_slot(GetParam(), key, slot);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pt);
  // Every field the SP holds is covered: any one change fails closed.
  const std::vector<std::pair<const char*, std::function<void(SealedSlot&)>>> tampers = {
      {"nonce byte", [](SealedSlot& s) { s.nonce[7] ^= 1; }},
      {"first ciphertext byte", [](SealedSlot& s) { s.ciphertext.front() ^= 1; }},
      {"middle ciphertext byte", [](SealedSlot& s) { s.ciphertext[5] ^= 1; }},
      {"last ciphertext byte", [](SealedSlot& s) { s.ciphertext.back() ^= 0x80; }},
      {"first tag byte", [](SealedSlot& s) { s.tag[0] ^= 1; }},
      {"last tag byte", [](SealedSlot& s) { s.tag[15] ^= 1; }},
      {"one byte shorter", [](SealedSlot& s) { s.ciphertext.pop_back(); }},
      {"one byte longer", [](SealedSlot& s) { s.ciphertext.push_back(0); }},
  };
  for (const auto& [name, tamper] : tampers) {
    SealedSlot bad = slot;
    tamper(bad);
    EXPECT_FALSE(open_slot(GetParam(), key, bad).has_value()) << name;
  }
  // A different seal key fails closed too.
  crypto::AesKey128 other = key;
  other[15] ^= 1;
  EXPECT_FALSE(open_slot(GetParam(), other, slot).has_value());
}

TEST_P(OramTest, ReEncryptionChangesCiphertext) {
  // Reading the same block twice must leave different ciphertexts on the
  // server (randomized re-encryption) even though the data is unchanged.
  client_.write(bid(1), Bytes{1});
  auto snapshot1 = server_.read_path(0);
  client_.read(bid(1));
  client_.read(bid(1));
  auto snapshot2 = server_.read_path(0);
  // At least the root bucket (shared by all paths) must have been resealed.
  bool any_changed = false;
  for (size_t i = 0; i < 4; ++i) {  // root bucket slots
    if (snapshot1[i].ciphertext != snapshot2[i].ciphertext ||
        snapshot1[i].nonce != snapshot2[i].nonce) {
      any_changed = true;
    }
  }
  EXPECT_TRUE(any_changed);
}

TEST(OramServer, GeometryAndValidation) {
  OramServer server(OramConfig{.block_size = 32, .bucket_capacity = 4, .capacity = 100});
  EXPECT_EQ(server.leaf_count(), 128u);  // rounded up to a power of two
  EXPECT_EQ(server.depth(), 7u);
  EXPECT_EQ(server.bucket_count(), 255u);
  EXPECT_THROW(server.read_path(128), UsageError);
  EXPECT_THROW(server.write_path(0, {}), UsageError);
  EXPECT_THROW(OramServer(OramConfig{.capacity = 0}), UsageError);
}

TEST(OramClient, RejectsOversizedBlock) {
  OramServer server(OramConfig{.block_size = 32, .capacity = 16});
  OramClient client(server, test_key(), 1, SealMode::kChaChaHmac);
  EXPECT_THROW(client.write(bid(1), Bytes(33, 0)), UsageError);
}

TEST(OramClient, BulkRestoreRoundTripAndFollowOnAccesses) {
  OramServer server(OramConfig{.block_size = 64, .bucket_capacity = 4, .capacity = 256,
                               .max_stash_blocks = 64});
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  std::vector<std::pair<BlockId, Bytes>> pages;
  for (uint64_t i = 0; i < 100; ++i) {
    pages.emplace_back(bid(i), Bytes(8, static_cast<uint8_t>(i)));
  }
  int installs = 0;
  client.set_install_hook([&](const BlockId&, BytesView, uint64_t) { ++installs; });
  client.bulk_restore(pages);
  EXPECT_EQ(installs, 0);  // a restore is not an install: nothing to journal
  EXPECT_EQ(server.access_count(), 0u);  // and not an access: no observed paths
  EXPECT_EQ(client.block_count(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    const auto data = client.read(bid(i));
    ASSERT_TRUE(data.has_value()) << "block " << i;
    EXPECT_EQ(Bytes(data->begin(), data->begin() + 8), Bytes(8, static_cast<uint8_t>(i)));
  }
  // Restored blocks stay healthy under normal accesses (evict/remap churn).
  client.write(bid(3), Bytes(8, 0xaa));
  const auto updated = client.read(bid(3));
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(Bytes(updated->begin(), updated->begin() + 8), Bytes(8, 0xaa));
  EXPECT_FALSE(client.stash_overflowed());
}

TEST(OramClient, BulkRestoreRequiresFreshClient) {
  OramServer server(OramConfig{.block_size = 32, .capacity = 16});
  OramClient client(server, test_key(), 1, SealMode::kChaChaHmac);
  client.write(bid(1), Bytes{1});
  EXPECT_THROW(client.bulk_restore({{bid(2), Bytes{2}}}), UsageError);
}

TEST(OramServer, BulkLoadShapeValidated) {
  OramServer server(OramConfig{.block_size = 32, .bucket_capacity = 4, .capacity = 16});
  EXPECT_THROW(server.load_slots({}), UsageError);
}

TEST(OramClient, AccessHookFires) {
  OramServer server(OramConfig{.block_size = 32, .capacity = 16});
  OramClient client(server, test_key(), 1, SealMode::kChaChaHmac);
  int hooks = 0;
  client.set_access_hook([&] { ++hooks; });
  client.write(bid(1), Bytes{1});
  client.read(bid(1));
  client.read(bid(2));  // dummy access also counts
  EXPECT_EQ(hooks, 3);
}

// --- paged world state ---

Address acct(uint8_t tag) {
  Address a;
  a.bytes[19] = tag;
  return a;
}

TEST(PagedState, PageIdsAreDistinct) {
  const auto a = page_id(PageType::kAccountMeta, acct(1), u256{});
  const auto b = page_id(PageType::kStorageGroup, acct(1), u256{});
  const auto c = page_id(PageType::kCode, acct(1), u256{});
  const auto d = page_id(PageType::kCode, acct(1), u256{1});
  const auto e = page_id(PageType::kCode, acct(2), u256{});
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(c, d);
  EXPECT_NE(c, e);
}

TEST(PagedState, AccountMetaPageRoundTrip) {
  AccountMetaPage meta;
  meta.balance = u256::from_string("123456789123456789");
  meta.nonce = 42;
  meta.code_size = 12345;
  meta.code_hash = crypto::keccak256("code");
  const Bytes page = meta.serialize();
  EXPECT_EQ(page.size(), kPageSize);
  const AccountMetaPage back = AccountMetaPage::deserialize(page);
  EXPECT_EQ(back.balance, meta.balance);
  EXPECT_EQ(back.nonce, meta.nonce);
  EXPECT_EQ(back.code_size, meta.code_size);
  EXPECT_EQ(back.code_hash, meta.code_hash);
}

TEST(PagedState, StorageGroupPageRoundTrip) {
  StorageGroupPage group;
  for (size_t i = 0; i < kRecordsPerPage; ++i) group.values[i] = u256{i * 17};
  const Bytes page = group.serialize();
  EXPECT_EQ(page.size(), kPageSize);
  const StorageGroupPage back = StorageGroupPage::deserialize(page);
  EXPECT_EQ(back.values, group.values);
}

TEST(PagedState, BuildPagesGroupsConsecutiveKeys) {
  state::WorldState world;
  // Keys 0..40 -> groups 0 and 1. Key 1000 -> its own group.
  for (uint64_t k = 0; k <= 40; ++k) world.set_storage(acct(1), u256{k}, u256{k + 1});
  world.set_storage(acct(1), u256{1000}, u256{7});
  const PageCensus c = census(world);
  EXPECT_EQ(c.account_pages, 1u);
  EXPECT_EQ(c.storage_pages, 3u);  // groups 0, 1, 31 (1000/32)
  EXPECT_EQ(c.code_pages, 0u);
  EXPECT_EQ(build_pages(world).size(), c.total());
}

TEST(PagedState, BuildPagesSplitsCode) {
  state::WorldState world;
  world.set_code(acct(2), Bytes(2500, 0x5b));  // 3 pages
  const PageCensus c = census(world);
  EXPECT_EQ(c.code_pages, 3u);
  EXPECT_EQ(c.account_pages, 1u);
}

class OramWorldStateTest : public ::testing::Test {
 protected:
  OramWorldStateTest()
      : server_(OramConfig{.block_size = kPageSize, .capacity = 256}),
        client_(server_, test_key(), 11, SealMode::kChaChaHmac),
        oram_state_(client_) {
    world_.set_balance(acct(1), u256{5555});
    world_.set_nonce(acct(1), 3);
    world_.set_storage(acct(1), u256{7}, u256{777});
    world_.set_storage(acct(1), u256{39}, u256{3939});
    code_ = Bytes(1500, 0);
    for (size_t i = 0; i < code_.size(); ++i) code_[i] = static_cast<uint8_t>(i);
    world_.set_code(acct(1), code_);
    sync_world_state(world_, client_);
  }

  state::WorldState world_;
  OramServer server_;
  OramClient client_;
  OramWorldState oram_state_;
  Bytes code_;
};

TEST_F(OramWorldStateTest, AccountThroughOram) {
  const auto account = oram_state_.account(acct(1));
  ASSERT_TRUE(account.has_value());
  EXPECT_EQ(account->balance, u256{5555});
  EXPECT_EQ(account->nonce, 3u);
  EXPECT_FALSE(oram_state_.account(acct(9)).has_value());
}

TEST_F(OramWorldStateTest, StorageThroughOram) {
  EXPECT_EQ(oram_state_.storage(acct(1), u256{7}), u256{777});
  EXPECT_EQ(oram_state_.storage(acct(1), u256{39}), u256{3939});
  // Same group as key 7 but never written: zero.
  EXPECT_EQ(oram_state_.storage(acct(1), u256{8}), u256{});
  // Unknown group: zero (after a dummy access).
  EXPECT_EQ(oram_state_.storage(acct(1), u256{100000}), u256{});
}

TEST_F(OramWorldStateTest, CodeReassembledFromPages) {
  EXPECT_EQ(oram_state_.code(acct(1)), code_);
  EXPECT_TRUE(oram_state_.code(acct(9)).empty());
}

TEST_F(OramWorldStateTest, CodePageDirectAccess) {
  const auto page0 = oram_state_.code_page(acct(1), 0);
  ASSERT_TRUE(page0.has_value());
  EXPECT_TRUE(std::equal(code_.begin(), code_.begin() + 1024, page0->begin()));
}

TEST_F(OramWorldStateTest, QueryHookSeesUniformPages) {
  std::vector<PageType> types;
  oram_state_.set_query_hook(
      [&](PageType t, const Address&, const u256&) { types.push_back(t); });
  oram_state_.storage(acct(1), u256{7});
  oram_state_.code(acct(1));
  // storage: 1 query; code: 1 meta + 2 code pages.
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0], PageType::kStorageGroup);
  EXPECT_EQ(types[1], PageType::kAccountMeta);
  EXPECT_EQ(types[2], PageType::kCode);
  EXPECT_EQ(types[3], PageType::kCode);
}

TEST_F(OramWorldStateTest, EveryQueryIsOnePathAccess) {
  // The uniform-response property end-to-end: each world-state query maps to
  // exactly one ORAM access (same observable shape for all types).
  const uint64_t before = server_.access_count();
  oram_state_.storage(acct(1), u256{7});
  EXPECT_EQ(server_.access_count(), before + 1);
  oram_state_.account(acct(1));
  EXPECT_EQ(server_.access_count(), before + 2);
}

// --- EpochRegistry edge cases (satellite: direct unit tests, not via the
// engine paths). The registry is the chip-side source of truth recovery must
// agree with, so its pass-lifecycle rejections have to hold standalone. ---

TEST(EpochRegistryEdge, AbortAfterTagReleasesPages) {
  EpochRegistry reg;
  reg.begin(crypto::keccak256("e0"), 1);
  reg.tag(u256{10});
  reg.tag(u256{11});
  reg.abort();
  // The aborted pass never happened: no tags, no committed epoch.
  EXPECT_FALSE(reg.page_epoch(u256{10}).has_value());
  EXPECT_FALSE(reg.page_epoch(u256{11}).has_value());
  EXPECT_EQ(reg.distinct_pages(), 0u);
  EXPECT_FALSE(reg.current().has_value());
  EXPECT_EQ(reg.store_epoch(), 0u);
  // A later committed pass is unaffected and reuses the epoch number.
  reg.begin(crypto::keccak256("e0b"), 1);
  reg.tag(u256{10});
  reg.commit();
  EXPECT_EQ(reg.page_epoch(u256{10}).value(), 0u);
  EXPECT_EQ(reg.max_page_epoch(), reg.store_epoch());
}

TEST(EpochRegistryEdge, StagedTagsInvisibleUntilCommit) {
  EpochRegistry reg;
  reg.begin(crypto::keccak256("e0"), 1);
  reg.tag(u256{5});
  // Mid-pass, the invariant max_page_epoch <= store_epoch must already hold.
  EXPECT_FALSE(reg.page_epoch(u256{5}).has_value());
  EXPECT_LE(reg.max_page_epoch(), reg.store_epoch());
  reg.commit();
  EXPECT_EQ(reg.page_epoch(u256{5}).value(), 0u);
}

TEST(EpochRegistryEdge, DoubleCommitRejected) {
  EpochRegistry reg;
  reg.begin(crypto::keccak256("e0"), 1);
  reg.commit();
  EXPECT_THROW(reg.commit(), UsageError);
  EXPECT_THROW(reg.abort(), UsageError);  // nothing open to abort either
  EXPECT_EQ(reg.store_epoch(), 0u);       // the failed calls changed nothing
}

TEST(EpochRegistryEdge, BeginWhileOpenRejected) {
  EpochRegistry reg;
  reg.begin(crypto::keccak256("e0"), 1);
  EXPECT_THROW(reg.begin(crypto::keccak256("e1"), 2), UsageError);
  // The open pass is still the original one: committing lands root e0.
  reg.commit();
  EXPECT_EQ(reg.current()->state_root, crypto::keccak256("e0"));
  EXPECT_EQ(reg.current()->block_number, 1u);
}

namespace {
struct RecordingListener final : EpochListener {
  std::vector<std::string> events;
  void on_epoch_begin(uint64_t epoch, const H256&, uint64_t) override {
    events.push_back("begin:" + std::to_string(epoch));
  }
  void on_epoch_commit(uint64_t epoch) override {
    events.push_back("commit:" + std::to_string(epoch));
  }
  void on_epoch_abort(uint64_t epoch) override {
    events.push_back("abort:" + std::to_string(epoch));
  }
};
}  // namespace

TEST(EpochRegistryEdge, ListenerSeesTransitionsInOrder) {
  EpochRegistry reg;
  RecordingListener listener;
  reg.set_listener(&listener);
  reg.begin(crypto::keccak256("e0"), 1);
  reg.commit();
  reg.begin(crypto::keccak256("e1"), 2);
  reg.abort();
  EXPECT_EQ(listener.events,
            (std::vector<std::string>{"begin:0", "commit:0", "begin:1", "abort:1"}));
}

TEST(EpochRegistryEdge, RestoreSeedsPristineRegistryOnly) {
  EpochRegistry reg;
  std::vector<EpochRegistry::Pin> history{{0, crypto::keccak256("r0"), 1},
                                          {1, crypto::keccak256("r1"), 2}};
  std::unordered_map<BlockId, uint64_t, U256Hasher> tags;
  tags[u256{1}] = 0;
  tags[u256{2}] = 1;
  reg.restore(history, tags);
  EXPECT_EQ(reg.store_epoch(), 1u);
  EXPECT_EQ(reg.page_epoch(u256{2}).value(), 1u);
  EXPECT_EQ(reg.at(0)->state_root, crypto::keccak256("r0"));
  // Restored registry continues numbering where the history left off.
  EXPECT_EQ(reg.begin(crypto::keccak256("r2"), 3), 2u);
  reg.commit();
  // A registry with any life in it refuses a restore.
  EXPECT_THROW(reg.restore(history, tags), UsageError);
  EpochRegistry used;
  used.begin(crypto::keccak256("x"), 1);
  EXPECT_THROW(used.restore(history, tags), UsageError);
}

// ---------------------------------------------------------------------------
// ShardedOramStore (PR 6: the concurrent oblivious frontend's backend)
// ---------------------------------------------------------------------------

ShardedOramStore make_sharded(size_t shards, bool pin = false) {
  auto config = ShardedOramStore::partition(
      OramConfig{.block_size = 64, .capacity = 1024, .max_stash_blocks = 128}, shards);
  config.pin_shard_assignment = pin;
  return ShardedOramStore(std::move(config), test_key(), /*rng_seed=*/42,
                          SealMode::kChaChaHmac);
}

TEST(ShardedStore, PartitionGeometryAndPowerOfTwo) {
  const auto config = ShardedOramStore::partition(
      OramConfig{.block_size = 64, .capacity = 1024, .max_stash_blocks = 128}, 8);
  EXPECT_EQ(config.shard_count, 8u);
  // 2x multinomial slack over the even split, so a random block->shard
  // assignment cannot overflow a subtree.
  EXPECT_GE(config.shard.capacity * 8, 2 * 1024u);
  EXPECT_EQ(config.shard.block_size, 64u);
  EXPECT_THROW(make_sharded(6), UsageError);   // not a power of two
  EXPECT_NO_THROW(make_sharded(1));            // degenerate single tree
}

TEST(ShardedStore, WriteReadRoundTripAcrossMigrations) {
  auto store = make_sharded(8);
  std::vector<BlockId> ids;
  for (uint64_t i = 0; i < 32; ++i) {
    ids.push_back(bid(i));
    store.write(ids.back(), Bytes(64, static_cast<uint8_t>(i + 1)));
  }
  // Repeated reads migrate blocks between shards (~7/8 of accesses redraw to
  // a different subtree); the value must ride every handoff.
  for (int round = 0; round < 8; ++round) {
    for (uint64_t i = 0; i < ids.size(); ++i) {
      const auto data = store.read(ids[i]);
      ASSERT_TRUE(data.has_value());
      EXPECT_EQ((*data)[0], static_cast<uint8_t>(i + 1));
    }
  }
  const auto stats = store.snapshot();
  EXPECT_GT(stats.total_migrations, 0u);
  uint64_t shard_walk_sum = 0;
  for (const auto& shard : stats.shards) shard_walk_sum += shard.walks;
  EXPECT_EQ(shard_walk_sum, stats.total_walks);
  EXPECT_EQ(store.observed_walks().size(), stats.total_walks);
  EXPECT_FALSE(store.stash_overflowed());
}

TEST(ShardedStore, PinnedAssignmentNeverMigrates) {
  auto store = make_sharded(8, /*pin=*/true);
  const BlockId id = bid(7);
  store.write(id, Bytes(64, 0xab));
  const uint32_t home = store.shard_of(id);
  ASSERT_NE(home, ShardedOramStore::kNoShard);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.read(id).has_value());
    EXPECT_EQ(store.shard_of(id), home);
  }
  EXPECT_EQ(store.snapshot().total_migrations, 0u);
}

TEST(ShardedStore, UnknownIdDummyWalksAndStaysUnknown) {
  auto store = make_sharded(4);
  const auto before = store.snapshot().total_walks;
  EXPECT_FALSE(store.read(bid(999)).has_value());
  // The miss is not free: the adversary still sees one uniform walk.
  EXPECT_EQ(store.snapshot().total_walks, before + 1);
  EXPECT_EQ(store.shard_of(bid(999)), ShardedOramStore::kNoShard);
}

TEST(ShardedStore, BulkRestorePartitionsAndServes) {
  auto store = make_sharded(8);
  std::vector<std::pair<BlockId, Bytes>> pages;
  for (uint64_t i = 0; i < 64; ++i) {
    pages.emplace_back(bid(i), Bytes(64, static_cast<uint8_t>(i)));
  }
  store.bulk_restore(pages);
  EXPECT_EQ(store.block_count(), 64u);
  for (uint64_t i = 0; i < 64; ++i) {
    const auto data = store.read(bid(i));
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ((*data)[0], static_cast<uint8_t>(i));
  }
}

TEST(ShardedStore, InstallHookFiresOnWritesNotMigrations) {
  auto store = make_sharded(8);
  std::atomic<uint64_t> installs{0};
  store.set_install_hook([&](const BlockId&, BytesView, uint64_t) { ++installs; });
  for (uint64_t i = 0; i < 16; ++i) store.write(bid(i), Bytes(64, 1));
  EXPECT_EQ(installs.load(), 16u);
  // Reads migrate blocks between shards; a cross-shard move is not a logical
  // store mutation and must not be journaled.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 16; ++i) store.read(bid(i));
  }
  EXPECT_GT(store.snapshot().total_migrations, 0u);
  EXPECT_EQ(installs.load(), 16u);
}

TEST(ShardedStore, ConcurrentDistinctIdsAreLinearizable) {
  // The store's concurrency contract: distinct ids from many threads are
  // safe with no external locking. 8 threads × disjoint working sets,
  // read-modify-check loops; runs under TSan in CI (sanitize-tsan job).
  auto store = make_sharded(8);
  constexpr int kThreads = 8, kIdsPerThread = 8, kRounds = 12;
  for (uint64_t t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kIdsPerThread; ++i) {
      store.write(bid(t * 100 + i), Bytes(64, static_cast<uint8_t>(t * 16 + i)));
    }
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t i = 0; i < kIdsPerThread; ++i) {
          const auto data = store.read(bid(t * 100 + i));
          if (!data.has_value() || (*data)[0] != static_cast<uint8_t>(t * 16 + i)) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  const auto stats = store.snapshot();
  EXPECT_EQ(stats.total_walks, store.observed_walks().size());
  EXPECT_GE(stats.max_concurrent_walks, 1u);
  EXPECT_FALSE(store.stash_overflowed());
}

TEST(ShardedStore, ObservedWalksAreGloballyOrdered) {
  auto store = make_sharded(4);
  for (uint64_t i = 0; i < 8; ++i) store.write(bid(i), Bytes(64, 1));
  for (uint64_t i = 0; i < 8; ++i) store.read(bid(i));
  const auto walks = store.observed_walks();
  EXPECT_EQ(walks.size(), 16u);
  for (const auto& [shard, leaf] : walks) {
    EXPECT_LT(shard, 4u);
    EXPECT_LT(leaf, store.leaf_count());
  }
  store.clear_observations();
  EXPECT_TRUE(store.observed_walks().empty());
  // Stats survive the observation reset (they are diagnostics, not the
  // adversary view).
  EXPECT_EQ(store.snapshot().total_walks, 16u);
}

}  // namespace
}  // namespace hardtape::oram
