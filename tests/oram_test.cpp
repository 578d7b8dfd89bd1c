// Path ORAM and paged-world-state tests, including the obliviousness
// property checks backing threat A7 and integrity checks backing A6.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "common/codec.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"
#include "durability/vfs.hpp"
#include "node/sync.hpp"
#include "oram/epoch.hpp"
#include "oram/paged_state.hpp"
#include "oram/path_oram.hpp"
#include "oram/sharded.hpp"
#include "oram/slot_store.hpp"
#include "service/pre_execution.hpp"

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
  const auto path = server_.begin_walk(0);
  EXPECT_EQ(path.size(), (server_.depth() + 1) * 4);
  server_.end_walk();
  EXPECT_GT(server_.bytes_per_access(), 0u);
}

TEST_P(OramTest, TamperedSlotDetected) {
  client_.write(bid(1), Bytes{1});
  // Corrupt every slot the server holds; the next real access must throw.
  for (int i = 0; i < 64; ++i) {
    const auto path = server_.begin_walk(static_cast<uint64_t>(i) % server_.leaf_count());
    bool corrupted = false;
    for (SealedSlot* slot : path) {
      if (!slot->ciphertext.empty()) {
        slot->ciphertext[0] ^= 1;
        corrupted = true;
      }
    }
    server_.end_walk();
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
  const auto snapshot1 = server_.stored_bucket(0);
  client_.read(bid(1));
  client_.read(bid(1));
  const auto snapshot2 = server_.stored_bucket(0);
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
  EXPECT_THROW(server.begin_walk(128), UsageError);
  EXPECT_THROW(server.end_walk(), UsageError);  // no walk in flight
  EXPECT_THROW(OramServer(OramConfig{.capacity = 0}), UsageError);
}

TEST(OramClient, RejectsOversizedBlock) {
  OramServer server(OramConfig{.block_size = 32, .capacity = 16});
  OramClient client(server, test_key(), 1, SealMode::kChaChaHmac);
  EXPECT_THROW(client.write(bid(1), Bytes(33, 0)), UsageError);
}

TEST(OramServer, PagedBucketPageIsBucketPageBytes) {
  // The bucket page size memory budgets use is the page format's: one write
  // on a fresh paged tree writes one path, depth+1 bucket pages.
  durability::SimFs fs;
  OramServer server(OramConfig{.block_size = 1024, .capacity = 64,
                               .backend = SlotBackend::kPaged, .backing_fs = &fs});
  OramClient client(server, test_key(), 1, SealMode::kChaChaHmac);
  client.write(bid(1), Bytes{1});
  const auto pool = server.slot_pool_stats();
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(pool->evictions, 0u);
  EXPECT_EQ(pool->peak_resident_bytes,
            (server.depth() + 1) * PagedSlotStore::bucket_page_bytes(4, 1024));
  // A slot is its 12-byte nonce, 16-byte tag, 4-byte length and ciphertext
  // (the 32-byte block id, then the block); the link carries all but the
  // length.
  EXPECT_EQ(PagedSlotStore::bucket_page_bytes(4, 1024), 4 * 1088u);
  EXPECT_EQ(server.bytes_per_access(), 2 * (server.depth() + 1) * 4 * 1084u);
}

TEST(OramClient, BulkRestoreRoundTripAndFollowOnAccesses) {
  OramServer server(OramConfig{.block_size = 64, .bucket_capacity = 4, .capacity = 256,
                               .max_stash_blocks = 64});
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  Pages pages;
  for (uint64_t i = 0; i < 100; ++i) {
    pages.emplace_back(bid(i), Bytes(8, static_cast<uint8_t>(i)));
  }
  client.bulk_load(pages);
  EXPECT_EQ(server.access_count(), 0u);  // a load is not an access: no observed paths
  EXPECT_EQ(client.block_count(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    const auto data = client.read(bid(i));
    ASSERT_TRUE(data.has_value()) << "block " << i;
    EXPECT_EQ(Bytes(data->begin(), data->begin() + 8), Bytes(8, static_cast<uint8_t>(i)));
  }
  // Loaded blocks stay healthy under normal accesses (evict/remap churn).
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
  EXPECT_THROW(client.bulk_load({{bid(2), Bytes{2}}}), UsageError);
  OramClient fresh(server, test_key(), 2, SealMode::kChaChaHmac);
  EXPECT_THROW(fresh.bulk_load({{bid(2), Bytes{2}}, {bid(2), Bytes{3}}}), UsageError);
}

TEST(OramServer, BulkLoadShapeValidated) {
  // 16 leaves: 31 buckets of Z = 4. A load is the first k buckets in region
  // order, 0 < k <= 31.
  OramServer server(OramConfig{.block_size = 32, .bucket_capacity = 4, .capacity = 16});
  EXPECT_THROW(server.load_slots({}), UsageError);
  EXPECT_THROW(server.load_slots(std::vector<SealedSlot>(3 * 4 + 1)), UsageError);
  EXPECT_THROW(server.load_slots(std::vector<SealedSlot>(32 * 4)), UsageError);  // too many
  EXPECT_THROW(server.load_slots(std::vector<SealedSlot>(63 * 4)), UsageError);  // too deep
  server.load_slots(std::vector<SealedSlot>(2 * 4));   // the root and one level-1 bucket
  server.load_slots(std::vector<SealedSlot>(3 * 4));   // levels 0-1
  server.load_slots(std::vector<SealedSlot>(31 * 4));  // whole tree
  EXPECT_EQ(server.access_count(), 0u);
}

TEST(OramServer, RegionOrderIsLevelByLevelBitReversed) {
  // Level 2 is heap 3..6, level 3 heap 7..14: offsets in bit-reversed order.
  const std::vector<size_t> expected = {0, 1, 2, 3, 5, 4, 6, 7, 11, 9, 13, 8, 12, 10, 14, 15};
  for (size_t index = 0; index < expected.size(); ++index) {
    EXPECT_EQ(region_bucket(index), expected[index]) << "region index " << index;
  }
  for (size_t index = 0; index < 4096; ++index) {
    EXPECT_EQ(region_bucket(region_bucket(index)), index) << "region index " << index;
  }
}

// The SP's view of a tree after a bulk load: which slots hold ciphertext.
std::vector<bool> written_slots(const OramServer& server) {
  std::vector<bool> out;
  for (size_t bucket = 0; bucket < server.bucket_count(); ++bucket) {
    for (const SealedSlot& slot : server.stored_bucket(bucket)) {
      out.push_back(!slot.ciphertext.empty());
    }
  }
  return out;
}

TEST(OramClient, BulkLoadLayoutHidesTheLeaves) {
  // 175 pages, 1.25x = 219 slots: the first 55 buckets in region order of a
  // 2048-leaf tree, levels 0..4 (31 buckets) and 24 of level 5's 32 — in
  // bit-reversed order, all of level 5 but the offsets that are 3 mod 4.
  // The layout may depend on the page count alone.
  const OramConfig config{.block_size = 64, .bucket_capacity = 4, .capacity = 2048};
  const size_t z = config.bucket_capacity;
  const auto in_region = [](size_t bucket) {
    return bucket < 31 || (bucket < 63 && (bucket - 31) % 4 != 3);
  };
  Pages pages;
  std::map<u256, uint8_t> contents;
  for (uint64_t i = 0; i < 175; ++i) {
    pages.emplace_back(bid(i), Bytes(8, static_cast<uint8_t>(i)));
    contents[bid(i)] = static_cast<uint8_t>(i);
  }
  std::vector<std::vector<bool>> layouts;
  for (const uint64_t seed : {1, 2}) {
    OramServer server(config);
    OramClient client(server, test_key(), seed, SealMode::kChaChaHmac);
    client.bulk_load(pages);
    const std::vector<bool> layout = written_slots(server);
    for (size_t i = 0; i < layout.size(); ++i) {
      EXPECT_EQ(layout[i], in_region(i / z)) << "slot " << i << ", seed " << seed;
    }
    // Every region slot has the sealed shape, but only the loaded pages'
    // slots open, each to its page: the rest are free slots, keystream the
    // client never opens.
    std::set<u256> opened;
    for (size_t bucket = 0; bucket < 63; ++bucket) {
      if (!in_region(bucket)) continue;
      for (const SealedSlot& slot : server.stored_bucket(bucket)) {
        EXPECT_EQ(slot.ciphertext.size(), 32 + config.block_size);
        const auto pt = open_slot(SealMode::kChaChaHmac, test_key(), slot);
        if (!pt.has_value()) continue;
        const u256 id = u256::from_be_bytes(BytesView{pt->data(), 32});
        ASSERT_TRUE(contents.contains(id)) << "bucket " << bucket << ", seed " << seed;
        Bytes page(8, contents[id]);
        page.resize(config.block_size, 0);
        EXPECT_EQ(Bytes(pt->begin() + 32, pt->end()), page);
        EXPECT_TRUE(opened.insert(id).second) << "page sealed twice";
      }
    }
    EXPECT_EQ(opened.size() + client.stash_size(), pages.size()) << "seed " << seed;
    layouts.push_back(layout);
  }
  EXPECT_EQ(layouts[0], layouts[1]);
}

// The leak a leaf-revealing load opens: after a load that puts each page in
// its leaf's bucket, the first touch of a loaded page always walks to a leaf
// bucket the SP saw written, while a miss rarely does. Here both rates are
// those of walks landing where earlier walks wrote.
TEST(OramClient, FirstTouchAfterBulkLoadLooksLikeAMiss) {
  const OramConfig config{.block_size = 64, .bucket_capacity = 4, .capacity = 2048};
  constexpr uint64_t kPages = 175;
  Pages pages;
  for (uint64_t i = 0; i < kPages; ++i) pages.emplace_back(bid(i), Bytes(8, 1));
  // Walks (first touches of ids in [first, first + kPages)) that land on a
  // leaf bucket holding ciphertext before the walk.
  auto landings = [&](uint64_t seed, uint64_t first) {
    OramServer server(config);
    OramClient client(server, test_key(), seed, SealMode::kChaChaHmac);
    client.bulk_load(pages);
    const size_t first_leaf_bucket = server.leaf_count() - 1;
    std::vector<bool> written(server.leaf_count());
    for (uint64_t leaf = 0; leaf < server.leaf_count(); ++leaf) {
      for (const SealedSlot& slot : server.stored_bucket(first_leaf_bucket + leaf)) {
        if (!slot.ciphertext.empty()) written[leaf] = true;
      }
    }
    size_t hits = 0;
    for (uint64_t i = first; i < first + kPages; ++i) {
      (void)client.read(bid(i));
      const uint64_t leaf = server.observed_leaves().back();
      if (written[leaf]) ++hits;
      written[leaf] = true;  // the walk rewrote its whole path
    }
    return hits;
  };
  for (const uint64_t seed : {1, 2, 3}) {
    const size_t first_touches = landings(seed, 0);
    const size_t misses = landings(seed, 1'000'000);
    // ~kPages^2 / (2 * 2048) = 7.5 expected either way; a leaking load
    // reads 175 for first touches.
    EXPECT_LT(first_touches, 30u) << "seed " << seed;
    EXPECT_LT(misses, 30u) << "seed " << seed;
  }
}

// --- free slots: each walk opens only the slots its fill counts name ---

OramConfig walk_config() {
  return OramConfig{.block_size = 64, .bucket_capacity = 4, .capacity = 256,
                    .max_stash_blocks = 64};
}

// Acts as the SP on its own storage: applies `edit` to every stored slot
// once, through walks over its own slots that the client never sees.
void sp_edit_slots(OramServer& server,
                   const std::function<void(size_t bucket, size_t slot, SealedSlot&)>& edit) {
  const size_t z = server.config().bucket_capacity;
  std::vector<bool> seen(server.bucket_count());
  for (uint64_t leaf = 0; leaf < server.leaf_count(); ++leaf) {
    const auto path = server.begin_walk(leaf);
    for (size_t level = 0; level <= server.depth(); ++level) {
      const size_t bucket = server.bucket_index(leaf, level);
      if (seen[bucket]) continue;
      seen[bucket] = true;
      for (size_t slot = 0; slot < z; ++slot) edit(bucket, slot, *path[level * z + slot]);
    }
    server.end_walk();
  }
}

bool opens(const SealedSlot& slot) {
  return open_slot(SealMode::kChaChaHmac, test_key(), slot).has_value();
}

// Misses walk uniform leaves: every walk until the first through `bucket`
// must complete, and that one must fail closed.
void expect_first_walk_through_fails(const OramServer& server, OramClient& client,
                                     size_t bucket) {
  const size_t level = std::bit_width(bucket + 1) - 1;
  for (uint64_t k = 0;; ++k) {
    ASSERT_LT(k, 10'000u) << "no walk reached bucket " << bucket;
    const Status status = client.try_read(bid(1'000'000 + k)).status;
    const uint64_t leaf = server.observed_leaves().back();
    if (server.bucket_index(leaf, level) != bucket) {
      ASSERT_EQ(status, Status::kOk) << "walk " << k;
      continue;
    }
    EXPECT_EQ(status, Status::kAuthFailed) << "walk " << k;
    return;
  }
}

TEST(OramClient, EveryWalkRewritesEverySlotOfItsPath) {
  OramServer server(walk_config());
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  for (uint64_t i = 0; i < 64; ++i) client.write(bid(i), Bytes{static_cast<uint8_t>(i)});
  const size_t z = server.config().bucket_capacity;
  const std::vector<std::function<void()>> walks = {
      [&] { (void)client.read(bid(3)); },                  // a known block
      [&] { client.write(bid(4), Bytes{9}); },             // an update
      [&] { client.write(bid(500), Bytes{1}); },           // an install
      [&] { (void)client.read(bid(1'000'000)); },          // a miss
      [&] { (void)client.access_remove(bid(5)); },         // an out-migration
  };
  size_t real = 0, free = 0;
  for (size_t w = 0; w < walks.size(); ++w) {
    std::vector<std::vector<SealedSlot>> before;
    for (size_t b = 0; b < server.bucket_count(); ++b) before.push_back(server.stored_bucket(b));
    walks[w]();
    const uint64_t leaf = server.observed_leaves().back();
    for (size_t level = 0; level <= server.depth(); ++level) {
      const size_t bucket = server.bucket_index(leaf, level);
      const std::vector<SealedSlot> after = server.stored_bucket(bucket);
      for (size_t slot = 0; slot < z; ++slot) {
        const SealedSlot& old_slot = before[bucket][slot];
        EXPECT_NE(after[slot].nonce, old_slot.nonce) << "walk " << w << ", level " << level;
        EXPECT_NE(after[slot].ciphertext, old_slot.ciphertext) << "walk " << w;
        EXPECT_NE(after[slot].tag, old_slot.tag) << "walk " << w;
        EXPECT_EQ(after[slot].ciphertext.size(), 32 + server.config().block_size);
        ++(opens(after[slot]) ? real : free);
      }
    }
  }
  EXPECT_GT(real, 0u);
  EXPECT_GT(free, 0u);
}

TEST(OramClient, WalksNeverOpenAFreeSlot) {
  OramServer server(walk_config());
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  std::map<u256, uint8_t> expected;
  for (uint64_t i = 0; i < 64; ++i) {
    client.write(bid(i), Bytes{static_cast<uint8_t>(i + 1)});
    expected[bid(i)] = static_cast<uint8_t>(i + 1);
  }
  // Every free slot the SP holds altered — nonce, ciphertext and tag — before
  // each round of reads: no read notices.
  for (int round = 0; round < 3; ++round) {
    size_t tampered = 0;
    sp_edit_slots(server, [&](size_t, size_t, SealedSlot& slot) {
      if (slot.ciphertext.empty() || opens(slot)) return;
      slot.nonce[0] ^= 1;
      slot.ciphertext[5] ^= 1;
      slot.tag[15] ^= 1;
      ++tampered;
    });
    EXPECT_GT(tampered, 100u) << "round " << round;
    for (const auto& [id, value] : expected) {
      const AccessAttempt attempt = client.try_read(id);
      ASSERT_EQ(attempt.status, Status::kOk) << "round " << round;
      ASSERT_TRUE(attempt.data.has_value());
      EXPECT_EQ((*attempt.data)[0], value);
    }
    EXPECT_EQ(client.try_read(bid(1'000'000 + round)).status, Status::kOk);  // a miss
  }
  // One byte flipped in a slot that holds a block fails the next walk over it.
  std::optional<u256> victim;
  sp_edit_slots(server, [&](size_t, size_t, SealedSlot& slot) {
    if (victim.has_value() || slot.ciphertext.empty()) return;
    const auto pt = open_slot(SealMode::kChaChaHmac, test_key(), slot);
    if (!pt.has_value()) return;
    victim = u256::from_be_bytes(BytesView{pt->data(), 32});
    slot.ciphertext[40] ^= 1;
  });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(client.try_read(*victim).status, Status::kAuthFailed);
}

TEST(OramClient, EmptiedRealSlotFailsTheWalkThatReadsIt) {
  OramServer server(walk_config());
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  for (uint64_t i = 0; i < 64; ++i) client.write(bid(i), Bytes{static_cast<uint8_t>(i + 1)});
  // The shallowest slot holding a block; the SP empties it.
  size_t target_bucket = 0, target_slot = 0;
  bool found = false;
  for (size_t bucket = 0; bucket < server.bucket_count() && !found; ++bucket) {
    const std::vector<SealedSlot> slots = server.stored_bucket(bucket);
    for (size_t slot = 0; slot < slots.size() && !found; ++slot) {
      if (!slots[slot].ciphertext.empty() && opens(slots[slot])) {
        target_bucket = bucket;
        target_slot = slot;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  sp_edit_slots(server, [&](size_t bucket, size_t slot, SealedSlot& sealed) {
    if (bucket == target_bucket && slot == target_slot) sealed = SealedSlot{};
  });
  // Misses walk uniform leaves: those off the bucket succeed, and the first
  // over it fails closed rather than dropping the block it held.
  expect_first_walk_through_fails(server, client, target_bucket);
}

// --- blocks the client cannot account for fail the walk that opens them ---

// The model the seeded mixes below check reads against: a block's data
// zero-padded to the block size.
Bytes padded(BytesView data, size_t block_size) {
  Bytes out(data.begin(), data.end());
  out.resize(block_size, 0);
  return out;
}

// Whether `op` completes; a walk that fails closed throws IntegrityError.
bool completes(const std::function<void()>& op) {
  try {
    op();
    return true;
  } catch (const IntegrityError&) {
    return false;
  }
}

// An honest SP never serves a block the client cannot account for, so the
// checks that fail those walks never fire on one: over seeded mixes of every
// kind of access (bulk_load, reads, writes, read_modify_write, access_remove,
// adopt and misses) every walk completes and every read returns what was
// last written.
TEST(OramClient, HonestRunsOpenOnlyBlocksTheClientAccountsFor) {
  constexpr size_t kBlock = 64;
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    OramServer server(walk_config());
    OramClient client(server, test_key(), seed, SealMode::kChaChaHmac);
    std::map<BlockId, Bytes> model;
    Pages pages;
    for (uint64_t i = 0; i < 100; ++i) {
      pages.emplace_back(bid(i), Bytes(1 + i % kBlock, static_cast<uint8_t>(i)));
      model[bid(i)] = padded(pages.back().second, kBlock);
    }
    client.bulk_load(pages);
    Random rng(seed);
    std::vector<std::pair<BlockId, Bytes>> removed;
    for (uint64_t op = 0; op < 2000; ++op) {
      const BlockId id = bid(rng.uniform(150));  // ids 100..149 start unwritten
      const auto expected = [&]() -> std::optional<Bytes> {
        if (const auto it = model.find(id); it != model.end()) return it->second;
        return std::nullopt;
      }();
      switch (rng.uniform(6)) {
        case 0: {
          const AccessAttempt read = client.try_read(id);
          ASSERT_EQ(read.status, Status::kOk) << "op " << op;
          ASSERT_EQ(read.data, expected) << "op " << op;
          break;
        }
        case 1: {
          const Bytes data = rng.bytes(rng.uniform_range(1, kBlock));
          ASSERT_EQ(client.try_write(id, data).status, Status::kOk) << "op " << op;
          model[id] = padded(data, kBlock);
          break;
        }
        case 2: {
          const uint8_t mark = static_cast<uint8_t>(op | 1);
          std::optional<Bytes> before;
          ASSERT_TRUE(completes([&] {
            before = client.read_modify_write(id, [mark](std::optional<Bytes> old) {
              Bytes next = old.value_or(Bytes(kBlock, 0));
              next[0] ^= mark;
              return next;
            });
          })) << "op " << op;
          ASSERT_EQ(before, expected) << "op " << op;
          Bytes next = expected.value_or(Bytes(kBlock, 0));
          next[0] ^= mark;
          model[id] = next;
          break;
        }
        case 3:
          if (client.contains(id)) {
            std::optional<Bytes> data;
            ASSERT_TRUE(completes([&] { data = client.access_remove(id); })) << "op " << op;
            ASSERT_EQ(data, expected) << "op " << op;
            removed.emplace_back(id, std::move(*data));
            model.erase(id);
          }
          break;
        case 4:
          if (!removed.empty()) {
            auto [back_id, data] = std::move(removed.back());
            removed.pop_back();
            if (!client.contains(back_id)) {
              model[back_id] = data;
              client.adopt(back_id, std::move(data));
            }
          }
          break;
        default: {
          const AccessAttempt miss = client.try_read(bid(1'000'000 + op));
          ASSERT_EQ(miss.status, Status::kOk) << "op " << op;
          ASSERT_FALSE(miss.data.has_value()) << "op " << op;
          break;
        }
      }
    }
    EXPECT_FALSE(client.stash_overflowed());
  }
}

// The same through a 2-shard store, whose cross-shard moves run
// access_remove on one shard and adopt on the other.
TEST(ShardedStore, HonestRunsOpenOnlyBlocksTheClientsAccountFor) {
  constexpr size_t kBlock = 64;
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    ShardedOramStore store(
        ShardedOramStore::partition(
            OramConfig{.block_size = kBlock, .capacity = 512, .max_stash_blocks = 128}, 2),
        test_key(), seed, SealMode::kChaChaHmac);
    std::map<BlockId, Bytes> model;
    Pages pages;
    for (uint64_t i = 0; i < 100; ++i) {
      pages.emplace_back(bid(i), Bytes(1 + i % kBlock, static_cast<uint8_t>(i)));
      model[bid(i)] = padded(pages.back().second, kBlock);
    }
    store.bulk_load(pages);
    Random rng(seed);
    for (uint64_t op = 0; op < 2000; ++op) {
      const BlockId id = bid(rng.uniform(150));
      switch (rng.uniform(3)) {
        case 0: {
          const AccessAttempt read = store.try_read(id);
          ASSERT_EQ(read.status, Status::kOk) << "op " << op;
          const auto it = model.find(id);
          ASSERT_EQ(read.data, it == model.end() ? std::nullopt : std::optional(it->second))
              << "op " << op;
          break;
        }
        case 1: {
          const Bytes data = rng.bytes(rng.uniform_range(1, kBlock));
          ASSERT_EQ(store.try_write(id, data).status, Status::kOk) << "op " << op;
          model[id] = padded(data, kBlock);
          break;
        }
        default: {
          const AccessAttempt miss = store.try_read(bid(1'000'000 + op));
          ASSERT_EQ(miss.status, Status::kOk) << "op " << op;
          ASSERT_FALSE(miss.data.has_value()) << "op " << op;
          break;
        }
      }
    }
    EXPECT_GT(store.snapshot().total_migrations, 100u);
    EXPECT_FALSE(store.stash_overflowed());
  }
}

// Where each block of a written tree sits: (bucket, slot) -> its id, for
// every slot that opens under the test key.
std::map<std::pair<size_t, size_t>, BlockId> filled_slots(const OramServer& server) {
  std::map<std::pair<size_t, size_t>, BlockId> out;
  for (size_t bucket = 0; bucket < server.bucket_count(); ++bucket) {
    const std::vector<SealedSlot> slots = server.stored_bucket(bucket);
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      if (slots[slot].ciphertext.empty()) continue;
      if (const auto pt = open_slot(SealMode::kChaChaHmac, test_key(), slots[slot])) {
        out[{bucket, slot}] = u256::from_be_bytes(BytesView{pt->data(), 32});
      }
    }
  }
  return out;
}

bool is_ancestor(size_t ancestor, size_t bucket) {
  for (; bucket > ancestor; bucket = (bucket - 1) / 2) {
  }
  return bucket == ancestor;
}

// The SP copies an authentic filled slot over another filled slot. Each test
// below drives misses, which never read the block overwritten, and names the
// first walk that must fail; without the accounting checks every one of them
// completed, and the overwritten block surfaced only at its own next read.

TEST(OramClient, SlotCopiedOverItsAncestorFailsTheWalkThatOpensItTwice) {
  OramServer server(walk_config());
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  for (uint64_t i = 0; i < 200; ++i) client.write(bid(i), Bytes{static_cast<uint8_t>(i + 1)});
  const auto filled = filled_slots(server);
  // A filled slot, and a filled slot of one of its bucket's ancestors.
  std::optional<std::pair<size_t, size_t>> source, target;
  for (const auto& [deep, deep_id] : filled) {
    for (const auto& [shallow, shallow_id] : filled) {
      if (shallow.first != deep.first && is_ancestor(shallow.first, deep.first)) {
        source = deep;
        target = shallow;
        break;
      }
    }
    if (source.has_value()) break;
  }
  ASSERT_TRUE(source.has_value());
  const SealedSlot copy = server.stored_bucket(source->first)[source->second];
  sp_edit_slots(server, [&](size_t bucket, size_t slot, SealedSlot& sealed) {
    if (std::pair(bucket, slot) == *target) sealed = copy;
  });
  // Walks through the ancestor alone open one authentic copy on its path;
  // the first through the original bucket opens the block twice.
  expect_first_walk_through_fails(server, client, source->first);
}

TEST(OramClient, ReplayedOutMigratedSlotFailsTheWalkThatOpensIt) {
  OramServer server(walk_config());
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  for (uint64_t i = 0; i < 200; ++i) client.write(bid(i), Bytes{static_cast<uint8_t>(i + 1)});
  // The SP keeps a block's slot; the block then migrates out of this client.
  const auto [where, migrated] = *filled_slots(server).begin();
  const SealedSlot kept = server.stored_bucket(where.first)[where.second];
  ASSERT_TRUE(client.access_remove(migrated).has_value());
  ASSERT_FALSE(client.contains(migrated));
  // It replays that slot over the shallowest filled slot left.
  const auto target = filled_slots(server).begin()->first;
  sp_edit_slots(server, [&](size_t bucket, size_t slot, SealedSlot& sealed) {
    if (std::pair(bucket, slot) == target) sealed = kept;
  });
  expect_first_walk_through_fails(server, client, target.first);
}

TEST(OramClient, SlotCopiedOffItsPathFailsTheWalkThatOpensIt) {
  OramServer server(walk_config());
  OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
  for (uint64_t i = 0; i < 200; ++i) client.write(bid(i), Bytes{static_cast<uint8_t>(i + 1)});
  // A filled slot under the root's left child, copied over a filled slot
  // under its right child: no walk through the target passes the source, and
  // the block's own path never reaches the target.
  const auto filled = filled_slots(server);
  std::optional<std::pair<size_t, size_t>> source, target;
  for (const auto& [where, id] : filled) {
    if (!source.has_value() && where.first != 1 && is_ancestor(1, where.first)) source = where;
    if (!target.has_value() && where.first != 2 && is_ancestor(2, where.first)) target = where;
  }
  ASSERT_TRUE(source.has_value() && target.has_value());
  const SealedSlot copy = server.stored_bucket(source->first)[source->second];
  sp_edit_slots(server, [&](size_t bucket, size_t slot, SealedSlot& sealed) {
    if (std::pair(bucket, slot) == *target) sealed = copy;
  });
  expect_first_walk_through_fails(server, client, target->first);
}

// --- a walk that fails closed writes nothing ---

// A walk opens its path's filled slots into client memory and seals every
// slot back only once all of them opened, so one whose last filled slot
// fails its tag leaves every byte the SP stores as it was, in either store.
TEST(OramServer, FailedWalkLeavesEveryStoredByteAsItWas) {
  for (const SlotBackend backend : {SlotBackend::kRam, SlotBackend::kPaged}) {
    SCOPED_TRACE(backend == SlotBackend::kRam ? "kRam" : "kPaged");
    durability::SimFs fs;
    OramConfig config = walk_config();
    config.backend = backend;
    config.backing_fs = &fs;
    OramServer server(config);
    OramClient client(server, test_key(), 42, SealMode::kChaChaHmac);
    for (uint64_t i = 0; i < 64; ++i) client.write(bid(i), Bytes{static_cast<uint8_t>(i + 1)});
    // A block in a leaf bucket walks that leaf's path; pick one whose path
    // holds at least 2 blocks and flip a byte of the path's last filled slot,
    // the last the walk opens.
    const auto filled = filled_slots(server);
    const size_t first_leaf = server.leaf_count() - 1;
    std::optional<std::pair<size_t, size_t>> last;
    std::optional<BlockId> reader;
    for (const auto& [where, id] : filled) {
      size_t on_path = 0;
      for (const auto& [other, other_id] : filled) {
        if (is_ancestor(other.first, where.first)) ++on_path;
        if (other.first == where.first) last = other;  // filled_slots is ordered
      }
      if (where.first >= first_leaf && on_path >= 2) {
        reader = id;
        break;
      }
    }
    ASSERT_TRUE(reader.has_value());
    sp_edit_slots(server, [&](size_t bucket, size_t slot, SealedSlot& sealed) {
      if (std::pair(bucket, slot) == *last) sealed.ciphertext[40] ^= 1;
    });
    std::vector<std::vector<SealedSlot>> before;
    for (size_t b = 0; b < server.bucket_count(); ++b) before.push_back(server.stored_bucket(b));
    const uint64_t walks = server.access_count();
    EXPECT_EQ(client.try_read(*reader).status, Status::kAuthFailed);
    ASSERT_EQ(server.access_count(), walks + 1);
    EXPECT_EQ(server.observed_leaves().back(), last->first - first_leaf);
    for (size_t b = 0; b < server.bucket_count(); ++b) {
      const std::vector<SealedSlot> after = server.stored_bucket(b);
      for (size_t slot = 0; slot < after.size(); ++slot) {
        EXPECT_EQ(after[slot].nonce, before[b][slot].nonce) << "bucket " << b;
        EXPECT_EQ(after[slot].tag, before[b][slot].tag) << "bucket " << b;
        EXPECT_EQ(after[slot].ciphertext, before[b][slot].ciphertext) << "bucket " << b;
      }
    }
  }
}

// --- the SP's view, pinned ---

// One SHA-256 over everything the SP holds and saw: every bucket of every
// tree as stored (each slot's nonce, tag, ciphertext length and ciphertext,
// never-written slots included), then the walk sequence. Chained a bucket at
// a time.
class SpViewDigest {
 public:
  void add_tree(const OramServer& server) {
    for (size_t bucket = 0; bucket < server.bucket_count(); ++bucket) {
      Bytes bytes(digest_.bytes.begin(), digest_.bytes.end());
      for (const SealedSlot& slot : server.stored_bucket(bucket)) {
        append(bytes, slot.nonce);
        append(bytes, slot.tag);
        codec::put_u64(bytes, slot.ciphertext.size());
        append(bytes, slot.ciphertext);
      }
      digest_ = crypto::sha256(bytes);
    }
  }
  void add_walk(uint32_t shard, uint64_t leaf) {
    codec::put_u32(walks_, shard);
    codec::put_u64(walks_, leaf);
  }
  std::string hex() {
    Bytes bytes(digest_.bytes.begin(), digest_.bytes.end());
    append(bytes, walks_);
    return to_hex(crypto::sha256(bytes).bytes);
  }

 private:
  H256 digest_;
  Bytes walks_;
};

// The SP-view workload: 175 pages bulk-loaded into 1 KB blocks, the page
// count and block size of the end-to-end benchmark's shards.
Pages sp_view_pages() {
  Pages pages;
  Random rng(175);
  for (uint64_t i = 0; i < 175; ++i) {
    pages.emplace_back(bid(i), rng.bytes(rng.uniform_range(1, 1024)));
  }
  return pages;
}

// Every nonce, tag and ciphertext the SP stores and every leaf it sees, over
// a seeded mix of every kind of access: bulk_load, then reads, writes,
// read_modify_write, access_remove, adopt and misses. The constant pins the
// SP's view: any change to the DRBG stream, a nonce, the keystream or the
// walk order moves it, while a change to how the host computes the same
// bytes (DESIGN.md §10) must not.
TEST(OramClient, SpViewDigestIsPinned) {
  OramServer server(OramConfig{.block_size = 1024, .bucket_capacity = 4, .capacity = 2048});
  ASSERT_EQ(server.leaf_count(), 2048u);
  OramClient client(server, test_key(), /*rng_seed=*/2028, SealMode::kChaChaHmac);
  client.bulk_load(sp_view_pages());
  Random rng(90210);
  std::vector<std::pair<BlockId, Bytes>> removed;
  for (uint64_t op = 0; op < 1000; ++op) {
    const BlockId id = bid(rng.uniform(200));  // ids 175..199 start unwritten
    switch (rng.uniform(6)) {
      case 0:
        (void)client.read(id);
        break;
      case 1:
        client.write(id, rng.bytes(rng.uniform_range(1, 1024)));
        break;
      case 2: {
        const uint8_t mark = static_cast<uint8_t>(op);
        (void)client.read_modify_write(id, [mark](std::optional<Bytes> old) {
          Bytes next = old.value_or(Bytes(1, 0));
          next[0] ^= mark;
          return next;
        });
        break;
      }
      case 3:
        if (client.contains(id)) {
          auto data = client.access_remove(id);
          ASSERT_TRUE(data.has_value()) << "op " << op;
          removed.emplace_back(id, std::move(*data));
        }
        break;
      case 4:
        if (!removed.empty()) {
          auto [back_id, data] = std::move(removed.back());
          removed.pop_back();
          if (!client.contains(back_id)) client.adopt(back_id, std::move(data));
        }
        break;
      default:
        EXPECT_FALSE(client.read(bid(1'000'000 + op)).has_value());
        break;
    }
  }
  EXPECT_FALSE(client.stash_overflowed());
  SpViewDigest digest;
  digest.add_tree(server);
  for (const uint64_t leaf : server.observed_leaves()) digest.add_walk(0, leaf);
  EXPECT_EQ(digest.hex(), "31724a68288da52ceea723c5e7e7fa8e070279ce4bbd6e3283c17a8454480d67");
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
  meta.account.balance = u256::from_string("123456789123456789");
  meta.account.nonce = 42;
  meta.account.code_hash = crypto::keccak256("code");
  meta.code_size = 12345;
  const Bytes page = meta.serialize();
  EXPECT_EQ(page.size(), kPageSize);
  const AccountMetaPage back = AccountMetaPage::deserialize(page);
  EXPECT_EQ(back.account.balance, meta.account.balance);
  EXPECT_EQ(back.account.nonce, meta.account.nonce);
  EXPECT_EQ(back.code_size, meta.code_size);
  EXPECT_EQ(back.account.code_hash, meta.account.code_hash);
}

TEST(PagedState, StorageGroupPageRoundTrip) {
  // Keys 64..95 are group 2; each lands in its own record.
  StorageGroupPage group;
  for (uint64_t key = 64; key < 96; ++key) {
    EXPECT_EQ(storage_group(u256{key}), u256{2});
    group.set(u256{key}, u256{key * 17});
  }
  const Bytes page = group.serialize();
  EXPECT_EQ(page.size(), kPageSize);
  for (uint64_t key = 64; key < 96; ++key) {
    EXPECT_EQ(storage_record(page, u256{key}), u256{key * 17});
  }
}

// What a cold sync stages for the node's whole (pinned) state.
Pages verified_pages(node::NodeSimulator& node) {
  const node::PinnedBlock head = node.pinned_head();
  node::BlockSynchronizer sync(node, head.header.state_root);
  Pages pages;
  EXPECT_EQ(sync.verify_all(pages), Status::kOk);
  return pages;
}

// Staged pages of `addr` per type. Page ids are hashes, so each is matched
// against the ids of the low indices a small test world uses.
std::map<PageType, size_t> pages_by_type(const Pages& pages, const Address& addr) {
  std::map<PageType, size_t> out;
  for (const auto& page : pages) {
    for (const PageType type :
         {PageType::kAccountMeta, PageType::kStorageGroup, PageType::kCode}) {
      for (uint64_t index = 0; index < 64; ++index) {
        if (page.first == page_id(type, addr, u256{index})) ++out[type];
      }
    }
  }
  return out;
}

TEST(PagedState, BuildPagesGroupsConsecutiveKeys) {
  node::NodeSimulator node;
  // Keys 0..40 -> groups 0 and 1. Key 1000 -> its own group.
  for (uint64_t k = 0; k <= 40; ++k) node.world().set_storage(acct(1), u256{k}, u256{k + 1});
  node.world().set_storage(acct(1), u256{1000}, u256{7});
  const Pages pages = verified_pages(node);
  auto counts = pages_by_type(pages, acct(1));
  EXPECT_EQ(counts[PageType::kAccountMeta], 1u);
  EXPECT_EQ(counts[PageType::kStorageGroup], 3u);  // groups 0, 1, 31 (1000/32)
  EXPECT_EQ(counts[PageType::kCode], 0u);
  EXPECT_EQ(pages.size(), 4u);
  // Key 33 sits at record 1 of group 1.
  for (const auto& [id, data] : pages) {
    if (id == page_id(PageType::kStorageGroup, acct(1), u256{1})) {
      EXPECT_EQ(storage_record(data, u256{33}), u256{34});
    }
  }
}

TEST(PagedState, BuildPagesSplitsCode) {
  node::NodeSimulator node;
  node.world().set_code(acct(2), Bytes(2500, 0x5b));  // 3 pages
  auto counts = pages_by_type(verified_pages(node), acct(2));
  EXPECT_EQ(counts[PageType::kCode], 3u);
  EXPECT_EQ(counts[PageType::kAccountMeta], 1u);
}

// The synced world read back through the session's state reader with every
// query routed to the ORAM: the HEVM's own read path.
class OramWorldStateTest : public ::testing::Test {
 protected:
  OramWorldStateTest()
      : server_(OramConfig{.block_size = kPageSize, .capacity = 256}),
        client_(server_, test_key(), 11, SealMode::kChaChaHmac),
        reader_(local_, &client_, service::SecurityConfig::full(), {.clock = &clock_}) {
    state::WorldState& world = node_.world();
    world.set_balance(acct(1), u256{5555});
    world.set_nonce(acct(1), 3);
    world.set_storage(acct(1), u256{7}, u256{777});
    world.set_storage(acct(1), u256{39}, u256{3939});
    code_ = Bytes(1500, 0);
    for (size_t i = 0; i < code_.size(); ++i) code_[i] = static_cast<uint8_t>(i);
    world.set_code(acct(1), code_);
    client_.bulk_load(verified_pages(node_));
  }

  node::NodeSimulator node_;
  OramServer server_;
  OramClient client_;
  state::WorldState local_;  ///< empty: every answer must come from the ORAM
  sim::SimClock clock_;
  service::RoutedStateReader reader_;
  Bytes code_;
};

TEST_F(OramWorldStateTest, AccountThroughOram) {
  const auto account = reader_.account(acct(1));
  ASSERT_TRUE(account.has_value());
  EXPECT_EQ(account->balance, u256{5555});
  EXPECT_EQ(account->nonce, 3u);
  EXPECT_FALSE(reader_.account(acct(9)).has_value());
}

TEST_F(OramWorldStateTest, StorageThroughOram) {
  EXPECT_EQ(reader_.storage(acct(1), u256{7}), u256{777});
  EXPECT_EQ(reader_.storage(acct(1), u256{39}), u256{3939});
  // Same group as key 7 but never written: zero.
  EXPECT_EQ(reader_.storage(acct(1), u256{8}), u256{});
  // Unknown group: zero (after a dummy access).
  EXPECT_EQ(reader_.storage(acct(1), u256{100000}), u256{});
}

TEST_F(OramWorldStateTest, CodeReassembledFromPages) {
  EXPECT_EQ(reader_.code(acct(1)), code_);
  EXPECT_TRUE(reader_.code(acct(9)).empty());
}

TEST_F(OramWorldStateTest, CodePageDirectAccess) {
  // Code page i is addressable on its own: page 0 holds the first 1 KB, and
  // the last page is zero-padded to the uniform size.
  const auto page0 = client_.read(page_id(PageType::kCode, acct(1), u256{0}));
  ASSERT_TRUE(page0.has_value());
  EXPECT_TRUE(std::equal(code_.begin(), code_.begin() + 1024, page0->begin()));
  const auto page1 = client_.read(page_id(PageType::kCode, acct(1), u256{1}));
  ASSERT_TRUE(page1.has_value());
  ASSERT_EQ(page1->size(), kPageSize);
  const auto tail = page1->begin() + (code_.size() - 1024);
  EXPECT_TRUE(std::equal(code_.begin() + 1024, code_.end(), page1->begin()));
  EXPECT_TRUE(std::all_of(tail, page1->end(), [](uint8_t b) { return b == 0; }));
}

TEST_F(OramWorldStateTest, DemandTimelineSeesUniformPages) {
  reader_.storage(acct(1), u256{7});
  reader_.code(acct(1));
  // storage: 1 query; code: 1 meta + 2 code pages, each charged in order.
  const auto& stats = reader_.stats();
  ASSERT_EQ(stats.demand_timeline.size(), 4u);
  EXPECT_EQ(stats.demand_timeline[0].type, PageType::kStorageGroup);
  EXPECT_EQ(stats.demand_timeline[1].type, PageType::kAccountMeta);
  EXPECT_EQ(stats.demand_timeline[2].type, PageType::kCode);
  EXPECT_EQ(stats.demand_timeline[3].type, PageType::kCode);
  EXPECT_EQ(stats.oram_queries, 4u);
  EXPECT_EQ(stats.kv_queries, 2u);
  EXPECT_EQ(stats.code_queries, 2u);
}

TEST_F(OramWorldStateTest, EveryQueryIsOnePathAccess) {
  // The uniform-response property end-to-end: each world-state query maps to
  // exactly one ORAM access (same observable shape for all types).
  const uint64_t before = server_.access_count();
  reader_.storage(acct(1), u256{7});
  EXPECT_EQ(server_.access_count(), before + 1);
  reader_.account(acct(1));
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
// ShardedOramStore (PR 6: the concurrent sessions' shared store)
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
  Pages pages;
  for (uint64_t i = 0; i < 64; ++i) {
    pages.emplace_back(bid(i), Bytes(64, static_cast<uint8_t>(i)));
  }
  store.bulk_load(pages);
  EXPECT_EQ(store.block_count(), 64u);
  for (uint64_t i = 0; i < 64; ++i) {
    const auto data = store.read(bid(i));
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ((*data)[0], static_cast<uint8_t>(i));
  }
}

TEST(ShardedStore, BulkLoadRegionIsTheSameOnEveryShard) {
  // 8 shards draw a multinomial split of 300 pages, but every shard's region
  // is sized for ceil(300 / 8) = 38 pages: 1.25x needs 48 slots, so the
  // first 12 buckets in region order, levels 0..2 (heap 0..6) and 5 of
  // level 3's 8 (offsets 0, 4, 2, 6, 1 bit-reversed: heap 7, 11, 9, 13, 8).
  auto store = make_sharded(8);
  Pages pages;
  for (uint64_t i = 0; i < 300; ++i) pages.emplace_back(bid(i), Bytes(64, 1));
  store.bulk_load(pages);
  const std::vector<bool> first = written_slots(store.server(0));
  const size_t z = store.server(0).config().bucket_capacity;
  const std::set<size_t> region = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13};
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], region.contains(i / z)) << "slot " << i;
  }
  for (size_t s = 1; s < store.shard_count(); ++s) {
    EXPECT_EQ(written_slots(store.server(s)), first) << "shard " << s;
  }
  for (uint64_t i = 0; i < 300; i += 37) EXPECT_TRUE(store.read(bid(i)).has_value());
}

TEST(ShardedStore, ConcurrentDistinctIdsAreLinearizable) {
  // The store's concurrency contract: distinct ids from many threads are
  // safe with no external locking. 8 threads × disjoint working sets,
  // read-modify-check loops; runs under TSan in CI (sanitize-tsan job).
  // Over both slot backends: under kPaged the 8 shards' PagedStores spill
  // to one SimFs from parallel walks, each pool at the walk minimum so the
  // walks evict and reload buckets.
  for (const SlotBackend backend : {SlotBackend::kRam, SlotBackend::kPaged}) {
    SCOPED_TRACE(backend == SlotBackend::kRam ? "kRam" : "kPaged");
    durability::SimFs fs;
    ShardedOramStore store(
        ShardedOramStore::partition(OramConfig{.block_size = 64,
                                               .capacity = 1024,
                                               .max_stash_blocks = 128,
                                               .backend = backend,
                                               .backing_fs = &fs,
                                               .buffer_pool_pages = 0},
                                    8),
        test_key(), /*rng_seed=*/42, SealMode::kChaChaHmac);
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
    if (backend == SlotBackend::kPaged) {
      uint64_t evictions = 0;
      for (size_t i = 0; i < store.shard_count(); ++i) {
        const auto pool = store.server(i).slot_pool_stats();
        ASSERT_TRUE(pool.has_value());
        EXPECT_EQ(pool->exhausted, 0u);
        evictions += pool->evictions;
      }
      EXPECT_GT(evictions, 0u);
    }
  }
}

TEST(ShardedStore, ConcurrentSameIdReadsAllSeeTheBlock) {
  // The store serializes accesses to one id itself: every read migrates the
  // id's shard assignment, so an unserialized twin would route to a stale
  // shard and miss the block (kAuthFailed, or kOk claiming it absent).
  // 4 threads x 500 reads of one written id on 8 shards; runs under TSan in
  // CI (sanitize-tsan job).
  auto store = make_sharded(8);
  const BlockId id = bid(7);
  const Bytes written(64, 0xc3);
  store.write(id, written);
  const uint64_t walks_before = store.snapshot().total_walks;
  constexpr int kThreads = 4, kReads = 500;
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReads; ++i) {
        const AccessAttempt attempt = store.try_read(id);
        if (attempt.status != Status::kOk || attempt.data != written) failed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failed.load(), 0);
  // A waiting twin is never merged into the access ahead of it: every read
  // walks on its own, so the SP sees one walk per request.
  EXPECT_EQ(store.snapshot().total_walks, walks_before + kThreads * kReads);
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

// The sharded form of OramClient.SpViewDigestIsPinned: the same load and a
// read/write/miss mix through a 2-shard store, whose cross-shard moves run
// access_remove and adopt. The walk sequence is observed_walks().
TEST(ShardedStore, SpViewDigestIsPinned) {
  ShardedOramStore store(ShardedOramStore::partition(
                             OramConfig{.block_size = 1024, .bucket_capacity = 4,
                                        .capacity = 2048},
                             2),
                         test_key(), /*rng_seed=*/2028, SealMode::kChaChaHmac);
  ASSERT_EQ(store.leaf_count(), 2048u);
  store.bulk_load(sp_view_pages());
  Random rng(90210);
  for (uint64_t op = 0; op < 1000; ++op) {
    const BlockId id = bid(rng.uniform(200));
    switch (rng.uniform(3)) {
      case 0:
        (void)store.read(id);
        break;
      case 1:
        store.write(id, rng.bytes(rng.uniform_range(1, 1024)));
        break;
      default:
        EXPECT_FALSE(store.read(bid(1'000'000 + op)).has_value());
        break;
    }
  }
  EXPECT_GT(store.snapshot().total_migrations, 0u);
  SpViewDigest digest;
  for (size_t shard = 0; shard < store.shard_count(); ++shard) digest.add_tree(store.server(shard));
  for (const auto& [shard, leaf] : store.observed_walks()) digest.add_walk(shard, leaf);
  EXPECT_EQ(digest.hex(), "c0a7b3987da19a0392def9cdb4bf670e319021ca1654c4bd118603581747f23a");
}

}  // namespace
}  // namespace hardtape::oram
