// Paged state backend (DESIGN.md §16): the page table's pin/evict rules and
// fail-closed refusals (with a random-schedule property test), the page
// record codec under corruption, the PagedStore's fail-closed segment reads,
// and paged-vs-RAM differentials proving the backend swap changes WHERE bytes
// live, never WHAT the caller observes (trie roots and proofs, ORAM read
// results).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "crypto/keccak.hpp"
#include "durability/vfs.hpp"
#include "oram/path_oram.hpp"
#include "pagedstore/page.hpp"
#include "pagedstore/store.hpp"
#include "trie/mpt.hpp"
#include "trie/paged_node_store.hpp"

namespace hardtape::pagedstore {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------------------ page pool ----
// The frame rules of the store's one page table: LRU victims, pins, the
// fail-closed cap, and a refused operation that changes nothing.

PagedStoreConfig pool_config(size_t pages) {
  PagedStoreConfig config;
  config.name = "ps";
  config.buffer_pool_pages = pages;
  return config;
}

TEST(PagedStore, EvictsLeastRecentlyUsedUnpinned) {
  durability::SimFs fs;
  PagedStore store(fs, pool_config(3));
  store.put(u256{1}, bytes_of("a"));
  store.put(u256{2}, bytes_of("b"));
  store.put(u256{3}, bytes_of("c"));
  // Touch 1: it becomes the hottest; 2 is now the coldest unpinned frame.
  ASSERT_TRUE(store.get(u256{1}).has_value());
  store.put(u256{4}, bytes_of("d"));
  // The dirty victim was appended to a segment: it alone gained a locator.
  EXPECT_EQ(store.pool_stats().evictions, 1u);
  EXPECT_EQ(store.pool_stats().dirty_writebacks, 1u);
  EXPECT_EQ(store.pool_stats().resident, 3u);
  EXPECT_TRUE(store.durable_locator(u256{2}).has_value());
  EXPECT_FALSE(store.durable_locator(u256{1}).has_value());
  EXPECT_FALSE(store.durable_locator(u256{3}).has_value());
  EXPECT_FALSE(store.durable_locator(u256{4}).has_value());
  EXPECT_EQ(*store.get(u256{2}), bytes_of("b"));  // reloaded from its segment
}

TEST(PagedStore, PinnedFrameSkippedDuringEviction) {
  durability::SimFs fs;
  PagedStore store(fs, pool_config(2));
  store.put(u256{1}, bytes_of("pinned"));
  auto pinned = store.pin(u256{1});
  ASSERT_TRUE(pinned);
  store.put(u256{2}, bytes_of("b"));
  // 1 is the LRU frame but it is pinned: 2 must be the victim instead.
  store.put(u256{3}, bytes_of("c"));
  EXPECT_EQ(store.pool_stats().evictions, 1u);
  EXPECT_TRUE(store.durable_locator(u256{2}).has_value());
  EXPECT_FALSE(store.durable_locator(u256{1}).has_value());
  EXPECT_EQ(pinned.data(), bytes_of("pinned"));  // frame untouched
  EXPECT_EQ(*store.get(u256{2}), bytes_of("b"));
}

TEST(PagedStore, AllPinnedFailsClosed) {
  durability::SimFs fs;
  PagedStore store(fs, pool_config(2));
  store.put(u256{1}, bytes_of("a"));
  store.put(u256{2}, bytes_of("b"));
  store.put(u256{3}, bytes_of("c"));  // evicts 1 to its segment
  auto p2 = store.pin(u256{2});
  auto p3 = store.pin(u256{3});
  EXPECT_THROW(store.get(u256{1}), PoolExhaustedError);
  EXPECT_EQ(store.pool_stats().exhausted, 1u);
  EXPECT_EQ(store.pool_stats().resident, 2u);
  p2.release();
  // One unpinned frame is enough again.
  EXPECT_EQ(store.get(u256{1}), bytes_of("a"));
  EXPECT_EQ(p3.data(), bytes_of("c"));
}

TEST(PagedStore, RefusedPutOrCreateLeavesNoPage) {
  // A refusal is fail-closed, so it must leave the store as it found it: no
  // entry without a locator or frame, which get() could never load and which
  // would keep locators() refusing after every flush.
  durability::SimFs fs;
  PagedStore store(fs, pool_config(2));
  store.put(u256{1}, bytes_of("a"));
  store.put(u256{2}, bytes_of("b"));
  {
    auto p1 = store.pin(u256{1});
    auto p2 = store.pin(u256{2});
    EXPECT_THROW(store.put(u256{3}, bytes_of("c")), PoolExhaustedError);
    EXPECT_THROW(store.pin_or_create(u256{4}), PoolExhaustedError);
    EXPECT_EQ(store.pool_stats().exhausted, 2u);
  }
  EXPECT_FALSE(store.contains(u256{3}));
  EXPECT_FALSE(store.contains(u256{4}));
  EXPECT_EQ(store.page_count(), 2u);
  EXPECT_EQ(store.flush(/*fsync=*/true).pages, 2u);
  EXPECT_EQ(store.locators().size(), 2u);
  EXPECT_FALSE(store.get(u256{3}).has_value());
  EXPECT_FALSE(store.get(u256{4}).has_value());
}

TEST(PagedStore, RandomScheduleHoldsInvariants) {
  // Property test: under a seeded random schedule of put / pin-and-hold /
  // release / get, (a) residency never exceeds the cap, (b) a pinned frame
  // is never evicted (its payload stays bit-exact through arbitrary churn),
  // (c) every page reads back its last written payload however often it
  // was evicted and reloaded, and (d) `pinned` counts the distinct held ids.
  constexpr size_t kCapacity = 8;
  durability::SimFs fs;
  PagedStore store(fs, pool_config(kCapacity));
  std::map<u256, Bytes> model;  // id -> last written payload
  std::vector<std::pair<u256, PagedStore::PageRef>> held;

  Random rng(0x9a6e5);
  for (int step = 0; step < 4000; ++step) {
    const u256 id{1 + rng.uniform(64)};
    switch (rng.uniform(5)) {
      case 0: {  // put a fresh payload (dirty)
        if (held.size() >= kCapacity) break;
        model[id] = rng.bytes(16 + rng.uniform(48));
        store.put(id, model[id]);
        break;
      }
      case 1: {  // pin + hold for a while
        if (held.size() + 1 >= kCapacity) break;  // leave eviction room
        auto ref = store.pin(id);
        ASSERT_EQ(static_cast<bool>(ref), model.contains(id));
        if (!ref) break;
        EXPECT_EQ(ref.data(), model[id]);
        held.emplace_back(id, std::move(ref));
        break;
      }
      case 2: {  // release a random held pin
        if (held.empty()) break;
        const size_t victim = rng.uniform(held.size());
        // Re-check the payload survived everything since the pin was taken.
        EXPECT_EQ(held[victim].second.data(), model[held[victim].first]);
        held.erase(held.begin() + static_cast<ptrdiff_t>(victim));
        break;
      }
      case 3: {  // read back through the table, loading on a miss
        const auto got = store.get(id);
        ASSERT_EQ(got.has_value(), model.contains(id));
        if (got.has_value()) {
          EXPECT_EQ(*got, model[id]);
        }
        break;
      }
      case 4: {  // stats + invariant audit
        const auto stats = store.pool_stats();
        EXPECT_LE(stats.resident, kCapacity);
        std::set<u256> distinct;
        for (const auto& [pid, ref] : held) {
          distinct.insert(pid);
          EXPECT_EQ(ref.id(), pid);
          EXPECT_EQ(ref.data(), model[pid]);
        }
        EXPECT_EQ(stats.pinned, distinct.size());
        break;
      }
    }
  }
  held.clear();
  EXPECT_EQ(store.pool_stats().pinned, 0u);
  EXPECT_LE(store.pool_stats().resident, kCapacity);
  EXPECT_GT(store.pool_stats().evictions, 0u);  // the schedule actually churned
  EXPECT_EQ(store.page_count(), model.size());
  for (const auto& [pid, payload] : model) EXPECT_EQ(store.get(pid), payload);
}

TEST(PagedStore, GetCopiesAClippedSlice) {
  durability::SimFs fs;
  PagedStore store(fs, pool_config(1));
  store.put(u256{1}, bytes_of("0123456789"));
  store.put(u256{2}, bytes_of("evicts page 1"));
  EXPECT_EQ(store.get(u256{1}, 2, 3), bytes_of("234"));   // loaded on a miss
  EXPECT_EQ(store.get(u256{1}, 8, 5), bytes_of("89"));    // clipped at the end
  EXPECT_EQ(store.get(u256{1}, 12, 5), Bytes{});          // past the end
  EXPECT_FALSE(store.get(u256{3}, 0, 1).has_value());
}

TEST(PagedStore, BytesWrittenThroughAPinAreResident) {
  // PagedNodeStore grows its fill page through a PageRef, so the pool must
  // count a frame at the size its pin leaves it: a peak above zero, never a
  // wrapped count after such a page is evicted, and never above the cap.
  durability::SimFs fs;
  constexpr size_t kPages = 2;
  constexpr size_t kPayload = 512;
  trie::PagedNodeStore nodes(fs, pool_config(kPages), kPayload);
  Random rng(0x5e5);
  for (int i = 0; nodes.pool_stats().evictions < 4; ++i) {
    ASSERT_LT(i, 1000) << "the pool never evicted";
    const Bytes node = rng.bytes(40 + rng.uniform(60));
    nodes.put(crypto::keccak256(node), node);
    const uint64_t peak = nodes.pool_stats().peak_resident_bytes;
    ASSERT_GT(peak, 0u) << "put " << i;
    ASSERT_LE(peak, kPages * kPayload) << "put " << i;
  }
}

// ------------------------------------------------------------ page codec ----

TEST(PageCodec, EverySingleBitFlipIsRefused) {
  // The checksum covers every header byte too: magic, version, the reserved
  // field and the length, not just id, generation and payload.
  const Bytes payload = Random(0x9a9e).bytes(100);
  const Bytes record = encode_page(u256{0xabcdef}, 3, payload);
  ASSERT_EQ(record.size(), kPageHeaderSize + payload.size());
  ASSERT_TRUE(decode_page(record).has_value());
  for (size_t bit = 0; bit < record.size() * 8; ++bit) {
    Bytes flipped = record;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(decode_page(flipped).has_value()) << "bit " << bit;
  }
}

TEST(PageCodec, MutationFuzzNeverDecodesADifferentPage) {
  // Seeded bit flips, truncations and one-byte extensions: a mutated record
  // is refused, or (when flips cancel out) decodes to the original page.
  const u256 id{0x5eed};
  const Bytes payload = Random(0xfa22).bytes(100);
  const Bytes record = encode_page(id, 9, payload);
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    Bytes mutated = record;
    const uint64_t kind = rng.uniform(3);
    if (kind == 0 || kind == 2) {  // flip 1..3 random bits
      const uint64_t flips = 1 + rng.uniform(3);
      for (uint64_t i = 0; i < flips; ++i) {
        mutated[rng.uniform(mutated.size())] ^= static_cast<uint8_t>(1u << rng.uniform(8));
      }
    }
    if (kind == 1 || kind == 2) {  // truncate, or extend by one byte
      if (rng.uniform(2) == 0) {
        mutated.resize(rng.uniform(mutated.size()));
      } else {
        mutated.push_back(static_cast<uint8_t>(rng.uniform(256)));
      }
    }
    const auto page = decode_page(mutated);
    if (!page.has_value()) continue;
    EXPECT_EQ(mutated, record) << "seed " << seed;
    EXPECT_EQ(page->id, id) << "seed " << seed;
    EXPECT_EQ(page->generation, 9u) << "seed " << seed;
    EXPECT_EQ(page->payload, payload) << "seed " << seed;
  }
}

TEST(PageCodec, Version1RecordIsRefused) {
  // encode_page(0x1234, 7, "old page") in the version-1 layout: a 60-byte
  // header whose 8-byte checksum skipped magic, version, reserved and length.
  const Bytes v1 = from_hex(
      "47505448010000000000000000000000000000000000000000000000000000000000000000"
      "00123407000000000000000800000065cf22273f624c126f6c642070616765");
  EXPECT_FALSE(decode_page(v1).has_value());
  const auto current = decode_page(encode_page(u256{0x1234}, 7, bytes_of("old page")));
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->payload, bytes_of("old page"));
}

// ------------------------------------------------------------ PagedStore ----

TEST(PagedStore, PutGetRoundTripAcrossEviction) {
  durability::SimFs fs;
  PagedStoreConfig config;
  config.name = "ps";
  config.buffer_pool_pages = 2;  // tiny pool: most pages live on segments
  PagedStore store(fs, config);
  Random rng(0x77);
  std::map<u256, Bytes> model;
  for (uint64_t i = 0; i < 32; ++i) {
    const u256 id{i};
    model[id] = rng.bytes(64 + rng.uniform(128));
    store.put(id, model[id]);
  }
  EXPECT_EQ(store.page_count(), 32u);
  EXPECT_LE(store.pool_stats().resident, 2u);  // cap held while 32 pages live
  for (const auto& [id, payload] : model) {
    const auto got = store.get(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
  }
  EXPECT_FALSE(store.get(u256{999}).has_value());
}

TEST(PagedStore, CorruptSegmentRecordFailsClosed) {
  durability::SimFs fs;
  PagedStoreConfig config;
  config.name = "ps";
  config.buffer_pool_pages = 1;
  PagedStore store(fs, config);
  store.put(u256{1}, bytes_of("the page that gets corrupted on disk"));
  store.flush(/*fsync=*/true);
  store.put(u256{2}, bytes_of("evicts page 1 from the single-frame pool"));
  store.flush(/*fsync=*/true);

  // Flip one byte of page 1's persisted record (SimFs has no write-in-place,
  // so rewrite the whole segment with the flipped byte).
  const std::string seg = PagedStore::segment_path("ps", store.current_segment());
  Bytes raw = *fs.read(seg);
  raw[raw.size() / 4] ^= 0x01;
  fs.remove(seg);
  fs.append(seg, raw);
  fs.fsync(seg);
  fs.sync_dir();

  // At least one page's record is now corrupt; both reads must either
  // succeed bit-exact or refuse — never return doctored bytes.
  size_t refused = 0;
  for (uint64_t i = 1; i <= 2; ++i) {
    try {
      const auto got = store.get(u256{i});
      ASSERT_TRUE(got.has_value());
    } catch (const IntegrityError&) {
      ++refused;
    }
  }
  EXPECT_GE(refused, 1u);
}

TEST(PagedStore, RevertRestoresPriorVersion) {
  durability::SimFs fs;
  PagedStoreConfig config;
  config.name = "ps";
  PagedStore store(fs, config);
  store.put(u256{1}, bytes_of("v1"));
  store.force_persist(u256{1});
  const auto prior = store.durable_locator(u256{1});
  ASSERT_TRUE(prior.has_value());
  store.put(u256{1}, bytes_of("v2-uncommitted"));
  store.put(u256{2}, bytes_of("new-uncommitted"));
  store.revert_to(u256{1}, prior);
  store.revert_to(u256{2}, std::nullopt);
  EXPECT_EQ(*store.get(u256{1}), bytes_of("v1"));
  EXPECT_FALSE(store.contains(u256{2}));
}

// -------------------------------------------------- paged-vs-RAM: trie ----

TEST(PagedDifferential, TrieRootsAndProofsMatchRamBackend) {
  durability::SimFs fs;
  pagedstore::PagedStoreConfig config;
  config.name = "trie";
  config.buffer_pool_pages = 4;  // far below the node working set
  trie::PagedNodeStore paged(fs, config, /*page_payload_bytes=*/1024);
  trie::MerklePatriciaTrie ram_trie;           // seed behavior
  trie::MerklePatriciaTrie paged_trie(&paged);

  Random rng(0x7217e);
  std::vector<Bytes> keys;
  for (int step = 0; step < 600; ++step) {
    if (!keys.empty() && rng.uniform(5) == 0) {
      const Bytes& key = keys[rng.uniform(keys.size())];
      EXPECT_EQ(ram_trie.erase(key), paged_trie.erase(key));
    } else {
      Bytes key = rng.bytes(1 + rng.uniform(40));
      Bytes value = rng.bytes(1 + rng.uniform(90));
      ram_trie.put(key, value);
      paged_trie.put(key, value);
      keys.push_back(std::move(key));
    }
    if (step % 50 == 0) {
      ASSERT_EQ(ram_trie.root_hash(), paged_trie.root_hash()) << "step " << step;
    }
  }
  const H256 root = ram_trie.root_hash();
  ASSERT_EQ(root, paged_trie.root_hash());

  // Every key: identical lookups, and the PAGED trie's proofs verify against
  // the shared root — the proof walk pages nodes through the pool.
  for (const Bytes& key : keys) {
    const auto expect = ram_trie.get(key);
    EXPECT_EQ(paged_trie.get(key), expect);
    const auto proof = paged_trie.prove(key);
    const auto verdict = trie::MerklePatriciaTrie::verify_proof(root, key, proof);
    EXPECT_TRUE(verdict.valid);
    EXPECT_EQ(verdict.value, expect);
  }
  // The pool cap held even though the trie outgrew it many times over.
  EXPECT_LE(paged.pool_stats().resident, 4u);
  EXPECT_GT(paged.pool_stats().evictions, 0u);
}

// -------------------------------------------------- paged-vs-RAM: ORAM ----

crypto::AesKey128 test_key() {
  crypto::AesKey128 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i + 1);
  return key;
}

TEST(PagedDifferential, OramReadsMatchRamBackend) {
  durability::SimFs fs;
  oram::OramServer ram_server(oram::OramConfig{
      .block_size = 64, .bucket_capacity = 4, .capacity = 256});
  oram::OramServer paged_server(oram::OramConfig{
      .block_size = 64,
      .bucket_capacity = 4,
      .capacity = 256,
      .backend = oram::SlotBackend::kPaged,
      .backing_fs = &fs,
      .buffer_pool_pages = 0,  // raised to the walk minimum by the store
      .backing_name = "odiff"});
  oram::OramClient ram_client(ram_server, test_key(), 42,
                              oram::SealMode::kChaChaHmac);
  oram::OramClient paged_client(paged_server, test_key(), 42,
                                oram::SealMode::kChaChaHmac);

  Random rng(0x0a51);
  std::map<uint64_t, Bytes> model;
  for (int step = 0; step < 400; ++step) {
    const uint64_t key = rng.uniform(48);
    const oram::BlockId id{key};
    if (rng.uniform(3) == 0 || !model.contains(key)) {
      Bytes data = rng.bytes(64);
      ram_client.write(id, data);
      paged_client.write(id, data);
      model[key] = std::move(data);
    } else {
      const auto expect = model.at(key);
      const auto from_ram = ram_client.read(id);
      const auto from_paged = paged_client.read(id);
      ASSERT_TRUE(from_ram.has_value());
      ASSERT_TRUE(from_paged.has_value());
      EXPECT_EQ(*from_ram, expect);
      EXPECT_EQ(*from_paged, *from_ram);
    }
  }
  // Same seeds, same access sequence: the adversary's view (the observed
  // leaf sequence) is bit-identical too — the backend swap is invisible.
  EXPECT_EQ(paged_server.observed_leaves(), ram_server.observed_leaves());
  const auto pool = paged_server.slot_pool_stats();
  ASSERT_TRUE(pool.has_value());
  EXPECT_GT(pool->misses, 0u);  // buckets really paged through the pool
  EXPECT_FALSE(ram_server.slot_pool_stats().has_value());
}

}  // namespace
}  // namespace hardtape::pagedstore
