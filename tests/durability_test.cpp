// Crash-consistent durability (PR 5): the simulated filesystem's power-loss
// semantics, the WAL's fail-closed replay, checkpoint atomicity, recovery's
// staging state machine, the DurableStore mirror, and the engine's warm
// restart. Every crash here is seeded and replayable — a failing case is a
// unit test, not an anecdote.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/random.hpp"

#include "durability/checkpoint.hpp"
#include "durability/durable_store.hpp"
#include "durability/journal.hpp"
#include "durability/recovery.hpp"
#include "durability/vfs.hpp"
#include "faults/crash_plan.hpp"
#include "faults/fault_plan.hpp"
#include "pagedstore/page.hpp"
#include "pagedstore/store.hpp"
#include "service/engine.hpp"
#include "workload/generator.hpp"

namespace hardtape::durability {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------- SimFs ----

TEST(SimFs, AppendIsPendingUntilFsync) {
  SimFs fs;
  fs.append("f", bytes_of("hello"));
  EXPECT_EQ(fs.pending_bytes(), 5u);
  ASSERT_TRUE(fs.read("f").has_value());
  EXPECT_EQ(*fs.read("f"), bytes_of("hello"));  // working view sees it
  fs.fsync("f");
  EXPECT_EQ(fs.pending_bytes(), 0u);
}

TEST(SimFs, CrashDropsUnsyncedBytes) {
  SimFs fs;
  fs.append("f", bytes_of("durable"));
  fs.fsync("f");
  fs.sync_dir();
  CrashConfig crash;
  crash.unsynced_survival = 0.0;
  crash.allow_torn_tail = false;
  fs.append("f", bytes_of("lost"));
  crash.crash_at_op = fs.op_count() + 1;
  fs.arm(crash);
  fs.append("f", bytes_of("also lost"));  // the armed op: power out
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(fs.read("f").has_value());  // dead until restart
  fs.restart();
  EXPECT_EQ(*fs.read("f"), bytes_of("durable"));
}

TEST(SimFs, CrashResolutionIsDeterministic) {
  const auto run = [](uint64_t resolve_seed) {
    SimFs fs;
    fs.append("f", bytes_of("base"));
    fs.fsync("f");
    fs.sync_dir();
    for (int i = 0; i < 8; ++i) {
      fs.append("f", bytes_of("chunk" + std::to_string(i)));
    }
    CrashConfig crash;
    crash.crash_at_op = fs.op_count() + 1;
    crash.resolve_seed = resolve_seed;
    crash.unsynced_survival = 0.5;
    fs.arm(crash);
    fs.fsync("nonexistent");  // any op fires the crash
    fs.restart();
    return *fs.read("f");
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // different platter resolution
}

TEST(SimFs, UnsyncedCreateNeedsSyncDir) {
  SimFs fs;
  fs.append("f", bytes_of("data"));
  fs.fsync("f");  // bytes durable, name is not
  CrashConfig crash;
  crash.unsynced_survival = 0.0;
  crash.allow_reorder = false;
  crash.crash_at_op = fs.op_count() + 1;
  fs.arm(crash);
  fs.remove("unrelated");
  fs.restart();
  // The classic forgot-to-fsync-the-directory bug: the file is gone.
  EXPECT_FALSE(fs.exists("f"));
}

TEST(SimFs, RenameIsAtomic) {
  SimFs fs;
  fs.append("a", bytes_of("old"));
  fs.fsync("a");
  fs.sync_dir();
  fs.append("a.tmp", bytes_of("new"));
  fs.fsync("a.tmp");
  fs.sync_dir();
  CrashConfig crash;
  crash.unsynced_survival = 0.0;
  crash.allow_reorder = false;
  crash.crash_at_op = fs.op_count() + 2;  // die on the sync_dir after rename
  fs.arm(crash);
  fs.rename("a.tmp", "a");
  fs.sync_dir();
  fs.restart();
  // Rename never became durable: the OLD content is intact, not a mix.
  EXPECT_EQ(*fs.read("a"), bytes_of("old"));
}

TEST(SimFs, PartialPageWriteLeavesStrictPrefix) {
  // A lost page-sized append with partial_page_writes set resolves to a
  // seeded STRICT prefix of the page — never the whole page, never bytes
  // that were not written. This is the torn-partial-page shape the paged
  // store's checksum walk must refuse.
  Bytes page(4096);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<uint8_t>(i);
  const Bytes base = bytes_of("base");
  bool saw_nonempty_prefix = false;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SimFs fs;
    fs.append("f", base);
    fs.fsync("f");
    fs.sync_dir();
    fs.append("f", page);  // pending: the page that gets torn
    CrashConfig crash;
    crash.crash_at_op = fs.op_count() + 1;
    crash.resolve_seed = seed;
    crash.unsynced_survival = 0.0;  // the chunk is always LOST...
    crash.allow_torn_tail = false;
    crash.partial_page_writes = true;  // ...but may land a strict prefix
    fs.arm(crash);
    fs.fsync("nonexistent");
    fs.restart();
    const Bytes got = *fs.read("f");
    ASSERT_GE(got.size(), base.size());
    ASSERT_LT(got.size(), base.size() + page.size());  // strictly partial
    EXPECT_TRUE(std::equal(base.begin(), base.end(), got.begin()));
    const size_t keep = got.size() - base.size();
    EXPECT_TRUE(std::equal(page.begin(), page.begin() + static_cast<ptrdiff_t>(keep),
                           got.begin() + static_cast<ptrdiff_t>(base.size())));
    if (keep > 0) saw_nonempty_prefix = true;
  }
  EXPECT_TRUE(saw_nonempty_prefix);  // the mode actually fires across seeds
}

TEST(SimFs, PartialPageThenSurvivorLeavesGarbageSuffix) {
  // Lost-page prefix + a LATER surviving page: the torn page's missing
  // suffix becomes a garbage hole so the survivor lands at its true offset.
  Bytes page1(1024, 0x11);
  Bytes page2(1024, 0x22);
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SimFs fs;
    fs.append("f", page1);
    fs.append("f", page2);
    CrashConfig crash;
    crash.crash_at_op = fs.op_count() + 1;
    crash.resolve_seed = seed;
    crash.unsynced_survival = 0.5;
    crash.allow_torn_tail = false;
    crash.partial_page_writes = true;
    fs.arm(crash);
    fs.fsync("nonexistent");
    fs.restart();
    const auto got = fs.read("f");
    if (!got.has_value()) continue;  // the pending create did not survive
    if (got->size() < 2 * 1024) continue;  // page2 lost (or torn) too
    // page2 survived whole, so page1's region is exactly 1024 bytes:
    // a true prefix of 0x11s followed by seeded garbage — never silently
    // healed back into a full valid page unless it genuinely survived.
    ASSERT_EQ(got->size(), 2 * 1024u);
    EXPECT_TRUE(std::equal(page2.begin(), page2.end(), got->begin() + 1024));
  }
}

TEST(SimFs, SyncDirIsAReorderBarrier) {
  // Directory ops AFTER a sync_dir resolve with independent coins (metadata
  // reorder), but the barrier itself is absolute: the pre-barrier published
  // state is never torn or reordered-away by post-barrier ops.
  const Bytes data0 = bytes_of("published");
  const Bytes data1 = bytes_of("late file");
  std::set<std::pair<bool, bool>> outcomes;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SimFs fs;
    fs.append("g0", data0);
    fs.fsync("g0");
    fs.sync_dir();  // the barrier: g0 is fully published
    fs.remove("g0");        // pending post-barrier op A
    fs.append("g1", data1); // pending post-barrier op B (create)
    fs.fsync("g1");
    CrashConfig crash;
    crash.crash_at_op = fs.op_count() + 1;
    crash.resolve_seed = seed;
    crash.unsynced_survival = 0.5;
    crash.allow_reorder = true;
    fs.arm(crash);
    fs.sync_dir();  // armed op: crash fires before this barrier lands
    fs.restart();
    const bool has_g0 = fs.exists("g0");
    const bool has_g1 = fs.exists("g1");
    // g0 is either intact with its exact pre-barrier bytes or removed by
    // the surviving post-barrier remove — never a modified hybrid.
    if (has_g0) {
      EXPECT_EQ(*fs.read("g0"), data0);
    }
    if (has_g1) {
      EXPECT_EQ(*fs.read("g1"), data1);
    }
    outcomes.insert({has_g0, has_g1});
  }
  // The post-barrier ops really do resolve independently: across seeds we
  // see more than one (remove survived?, create survived?) combination.
  EXPECT_GT(outcomes.size(), 1u);
}

// -------------------------------------------------------------- Journal ----

Journal::ReplayResult replay_all(const SimFs& fs, const std::string& path,
                                 std::vector<JournalRecord>* out = nullptr) {
  return Journal::replay(fs, path, 0, [out](const JournalRecord& rec) {
    if (out != nullptr) out->push_back(rec);
    return true;
  });
}

TEST(JournalTest, RoundTripAllRecordTypes) {
  SimFs fs;
  Journal journal(fs, "wal-0", 0);
  const H256 root = crypto::keccak256(bytes_of("root"));
  journal.append_epoch_begin(0, root, 41);
  journal.append_bundle_admit(7);
  journal.append_page_install(u256{123}, bytes_of("page contents"));
  journal.append_epoch_commit(0);
  journal.append_bundle_resolve(7);
  journal.append_epoch_begin(1, root, 42);
  journal.append_epoch_abort(1);
  journal.sync();

  std::vector<JournalRecord> records;
  const auto result = replay_all(fs, "wal-0", &records);
  EXPECT_EQ(result.stop_reason, "");
  EXPECT_EQ(result.records, 7u);
  EXPECT_EQ(result.next_seq, 7u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[0].type, RecordType::kEpochBegin);
  EXPECT_EQ(records[0].root, root);
  EXPECT_EQ(records[0].block_number, 41u);
  EXPECT_EQ(records[1].bundle_id, 7u);
  EXPECT_EQ(records[2].page_id, u256{123});
  EXPECT_EQ(records[2].page_data, bytes_of("page contents"));
  EXPECT_EQ(records[6].type, RecordType::kEpochAbort);
}

TEST(JournalTest, TornTailTruncatesToValidPrefix) {
  SimFs fs;
  Journal journal(fs, "wal-0", 0);
  journal.append_bundle_admit(1);
  journal.append_bundle_admit(2);
  journal.sync();
  // A record cut mid-payload, as a torn last sector would leave it.
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kBundleAdmit));
  for (int i = 0; i < 8; ++i) p.push_back(3);
  Bytes torn = Journal::encode(2, p);
  torn.resize(torn.size() - 4);
  fs.append("wal-0", torn);
  fs.fsync("wal-0");

  const auto result = replay_all(fs, "wal-0");
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(result.stop_reason, "torn payload");
  EXPECT_GT(result.truncated_bytes, 0u);
}

TEST(JournalTest, ChecksumMismatchTruncates) {
  SimFs fs;
  Journal journal(fs, "wal-0", 0);
  journal.append_bundle_admit(1);
  journal.sync();
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kBundleAdmit));
  for (int i = 0; i < 8; ++i) p.push_back(9);
  Bytes corrupt = Journal::encode(1, p);
  corrupt.back() ^= 0x40;  // flip one payload bit after checksumming
  fs.append("wal-0", corrupt);
  fs.fsync("wal-0");

  const auto result = replay_all(fs, "wal-0");
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(result.stop_reason, "checksum mismatch");
}

TEST(JournalTest, SequenceBreakTruncates) {
  SimFs fs;
  Journal journal(fs, "wal-0", 0);
  journal.append_bundle_admit(1);
  journal.sync();
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kBundleAdmit));
  for (int i = 0; i < 8; ++i) p.push_back(9);
  fs.append("wal-0", Journal::encode(5, p));  // expected seq 1, carries 5
  fs.fsync("wal-0");

  const auto result = replay_all(fs, "wal-0");
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(result.stop_reason, "sequence break");
}

TEST(JournalTest, ConsumerRejectionTruncates) {
  SimFs fs;
  Journal journal(fs, "wal-0", 0);
  journal.append_bundle_admit(1);
  journal.append_bundle_admit(2);
  journal.append_bundle_admit(3);
  journal.sync();
  uint64_t seen = 0;
  const auto result =
      Journal::replay(fs, "wal-0", 0, [&seen](const JournalRecord& rec) {
        ++seen;
        return rec.bundle_id != 2;  // semantic rejection mid-stream
      });
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(result.stop_reason, "rejected by consumer");
}

TEST(JournalTest, MissingFileIsCleanEmptyReplay) {
  SimFs fs;
  const auto result = replay_all(fs, "wal-0");
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.stop_reason, "");
}

TEST(JournalTest, OversizeLengthFieldTruncates) {
  // A record whose length field exceeds kMaxRecordSize is corruption even
  // when the payload IS fully present with a valid checksum: replay must
  // clamp before framing, not attempt a giant read.
  SimFs fs;
  Journal journal(fs, "wal-0", 0);
  journal.append_bundle_admit(1);
  journal.sync();
  // Hand-build the oversize record (encode() itself refuses to).
  Bytes payload(kMaxRecordSize + 1, 0x5a);
  payload[0] = static_cast<uint8_t>(RecordType::kBundleAdmit);
  Bytes raw;
  codec::put_u32(raw, static_cast<uint32_t>(payload.size()));
  codec::put_u64(raw, /*seq=*/1);
  codec::put_u32(raw, codec::crc32c(payload, codec::crc32c(raw)));
  append(raw, payload);
  fs.append("wal-0", raw);
  fs.fsync("wal-0");

  const auto result = replay_all(fs, "wal-0");
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(result.stop_reason, "oversize record");
  EXPECT_GT(result.truncated_bytes, kMaxRecordSize);
}

TEST(JournalTest, EncodeRefusesOversizePayload) {
  const Bytes too_big(kMaxRecordSize + 1, 0);
  EXPECT_THROW(Journal::encode(0, too_big), UsageError);
  const Bytes at_limit(kMaxRecordSize, 0);
  EXPECT_NO_THROW(Journal::encode(0, at_limit));
}

TEST(JournalTest, KeccakChecksummedRecordIsRefused) {
  // bundle_admit(7) at seq 0 in the previous layout: u32 len | u64 seq |
  // 8-byte truncated keccak | payload. The reader frames a 16-byte header,
  // so the old record's checksum cannot match.
  SimFs fs;
  fs.append("wal-0", from_hex("090000000000000000000000b68a2d4148493802060700000000000000"));
  fs.fsync("wal-0");
  const auto result = replay_all(fs, "wal-0");
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.stop_reason, "checksum mismatch");
}

bool same_record(const JournalRecord& a, const JournalRecord& b) {
  return a.seq == b.seq && a.type == b.type && a.epoch == b.epoch &&
         a.root == b.root && a.block_number == b.block_number &&
         a.page_id == b.page_id && a.page_data == b.page_data &&
         a.bundle_id == b.bundle_id;
}

TEST(JournalTest, CorruptionFuzzIsFailClosed) {
  // Seeded fuzz over bit flips and torn tails: every mutated journal must
  // replay to a clean PREFIX of the pristine record stream — no crash, no
  // record the honest journal never contained, no resurrected suffix.
  SimFs fs;
  Journal journal(fs, "wal-0", 0);
  const H256 root = crypto::keccak256(bytes_of("fuzz root"));
  Random gen(0xfa22);
  for (uint64_t e = 0; e < 6; ++e) {
    journal.append_epoch_begin(e, root, 100 + e);
    journal.append_bundle_admit(e);
    journal.append_page_install(u256{e + 1}, gen.bytes(32 + gen.uniform(96)));
    journal.append_epoch_commit(e);
  }
  journal.sync();
  const Bytes pristine = *fs.read("wal-0");
  std::vector<JournalRecord> reference;
  ASSERT_EQ(replay_all(fs, "wal-0", &reference).stop_reason, "");
  ASSERT_EQ(reference.size(), 24u);

  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    Bytes mutated = pristine;
    const uint64_t kind = rng.uniform(3);
    if (kind == 0 || kind == 2) {  // flip 1..3 random bits
      const uint64_t flips = 1 + rng.uniform(3);
      for (uint64_t i = 0; i < flips; ++i) {
        mutated[rng.uniform(mutated.size())] ^=
            static_cast<uint8_t>(1u << rng.uniform(8));
      }
    }
    if (kind == 1 || kind == 2) {  // tear off a random tail
      mutated.resize(rng.uniform(mutated.size() + 1));
    }
    SimFs fuzzed;
    fuzzed.append("wal-f", mutated);
    fuzzed.fsync("wal-f");
    std::vector<JournalRecord> got;
    const auto result = replay_all(fuzzed, "wal-f", &got);
    ASSERT_LE(got.size(), reference.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_record(got[i], reference[i]))
          << "seed " << seed << " record " << i;
    }
    // Accounting must cover the whole file: accepted prefix + discarded tail.
    EXPECT_EQ(result.valid_bytes + result.truncated_bytes, mutated.size())
        << "seed " << seed;
  }
}

// ----------------------------------------------------------- Checkpoint ----

StoreImage sample_image() {
  StoreImage image;
  image.base_seq = 17;
  image.epoch_history.push_back({0, crypto::keccak256(bytes_of("r0")), 1});
  image.epoch_history.push_back({1, crypto::keccak256(bytes_of("r1")), 2});
  image.page_tags[u256{1}] = 0;
  image.page_tags[u256{2}] = 1;
  image.pages[u256{1}] = bytes_of("page one");
  image.pages[u256{2}] = bytes_of("page two");
  image.pending_bundles = {4, 6};
  image.next_bundle_id = 7;
  return image;
}

TEST(Checkpoint, SerializeParseRoundTrip) {
  const StoreImage image = sample_image();
  const auto parsed = checkpoint::parse(checkpoint::serialize(3, image));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base_seq, image.base_seq);
  EXPECT_EQ(parsed->next_bundle_id, image.next_bundle_id);
  ASSERT_EQ(parsed->epoch_history.size(), 2u);
  EXPECT_EQ(parsed->epoch_history[1].state_root, image.epoch_history[1].state_root);
  EXPECT_EQ(parsed->page_tags, image.page_tags);
  ASSERT_EQ(parsed->pages.size(), 2u);
  EXPECT_EQ(parsed->pages, image.pages);
  EXPECT_EQ(parsed->pending_bundles, image.pending_bundles);
}

TEST(Checkpoint, CorruptionRejected) {
  Bytes data = checkpoint::serialize(3, sample_image());
  for (const size_t index : {size_t{0}, data.size() / 2, data.size() - 1}) {
    Bytes mutated = data;
    mutated[index] ^= 0x01;
    EXPECT_FALSE(checkpoint::parse(mutated).has_value()) << "at byte " << index;
  }
  Bytes truncated = data;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(checkpoint::parse(truncated).has_value());
}

bool same_image(const StoreImage& a, const StoreImage& b) {
  if (a.epoch_history.size() != b.epoch_history.size()) return false;
  for (size_t i = 0; i < a.epoch_history.size(); ++i) {
    const auto& x = a.epoch_history[i];
    const auto& y = b.epoch_history[i];
    if (x.epoch != y.epoch || x.state_root != y.state_root ||
        x.block_number != y.block_number) {
      return false;
    }
  }
  return a.base_seq == b.base_seq && a.page_tags == b.page_tags && a.pages == b.pages &&
         a.pending_bundles == b.pending_bundles && a.next_bundle_id == b.next_bundle_id;
}

checkpoint::Manifest sample_manifest() {
  checkpoint::Manifest manifest;
  manifest.meta = sample_image();
  manifest.meta.pages.clear();
  manifest.store_name = "dstore";
  manifest.pages.push_back({u256{1}, {0, 0, 64}});
  manifest.pages.push_back({u256{2}, {1, 64, 72}});
  return manifest;
}

bool same_manifest(const checkpoint::Manifest& a, const checkpoint::Manifest& b) {
  if (a.pages.size() != b.pages.size()) return false;
  for (size_t i = 0; i < a.pages.size(); ++i) {
    if (a.pages[i].id != b.pages[i].id || a.pages[i].locator != b.pages[i].locator) {
      return false;
    }
  }
  return same_image(a.meta, b.meta) && a.store_name == b.store_name;
}

/// Seed `seed`'s mutation of `data`: 1..3 bit flips, a truncation or a
/// one-byte extension, or both.
Bytes mutate(const Bytes& data, uint64_t seed) {
  Random rng(seed);
  Bytes mutated = data;
  const uint64_t kind = rng.uniform(3);
  if (kind == 0 || kind == 2) {
    const uint64_t flips = 1 + rng.uniform(3);
    for (uint64_t i = 0; i < flips; ++i) {
      mutated[rng.uniform(mutated.size())] ^= static_cast<uint8_t>(1u << rng.uniform(8));
    }
  }
  if (kind == 1 || kind == 2) {
    if (rng.uniform(2) == 0) {
      mutated.resize(rng.uniform(mutated.size()));
    } else {
      mutated.push_back(static_cast<uint8_t>(rng.uniform(256)));
    }
  }
  return mutated;
}

TEST(Checkpoint, MutationFuzzIsFailClosed) {
  // Every single-bit flip of a full image or manifest is refused. A seeded
  // mutation is refused, or (when flips cancel out) parses to exactly what
  // was written — never to a different image.
  const StoreImage image = sample_image();
  const Bytes full = checkpoint::serialize(3, image);
  const checkpoint::Manifest manifest = sample_manifest();
  const Bytes listed = checkpoint::serialize_manifest(3, manifest);
  ASSERT_TRUE(checkpoint::parse(full).has_value());
  ASSERT_TRUE(checkpoint::parse_manifest(listed).has_value());
  for (size_t bit = 0; bit < full.size() * 8; ++bit) {
    Bytes flipped = full;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(checkpoint::parse(flipped).has_value()) << "image bit " << bit;
  }
  for (size_t bit = 0; bit < listed.size() * 8; ++bit) {
    Bytes flipped = listed;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(checkpoint::parse_manifest(flipped).has_value()) << "manifest bit " << bit;
  }
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const Bytes mutated_full = mutate(full, seed);
    if (const auto parsed = checkpoint::parse(mutated_full)) {
      EXPECT_EQ(mutated_full, full) << "seed " << seed;
      EXPECT_TRUE(same_image(*parsed, image)) << "seed " << seed;
    }
    const Bytes mutated_listed = mutate(listed, seed);
    if (const auto parsed = checkpoint::parse_manifest(mutated_listed)) {
      EXPECT_EQ(mutated_listed, listed) << "seed " << seed;
      EXPECT_TRUE(same_manifest(*parsed, manifest)) << "seed " << seed;
    }
  }
}

TEST(Checkpoint, Version3And4FilesAreRefused) {
  // Generation 1 of a one-epoch, one-page image, as a full image (version 3)
  // and as a manifest (version 4), in the previous layout with an 8-byte
  // truncated-keccak trailer.
  const Bytes v3 = from_hex(
      "4854434b5054303103000000010000000000000011000000000000000700000000000000"
      "010000000000000000000000882385b7bb5b36a04b53a28a7415b3dfb3f510dc59defbb7"
      "0c85c8a78c0a2b0801000000000000000100000000000000000000000000000000000000"
      "000000000000000000000000000000010000000000000000010000000000000000000000"
      "000000000000000000000000000000000000000000000001080000006f6c642070616765"
      "010000000400000000000000724624e916f8bb14");
  const Bytes v4 = from_hex(
      "4854434b5054303104000000010000000000000011000000000000000700000000000000"
      "060000006473746f7265010000000000000000000000882385b7bb5b36a04b53a28a7415"
      "b3dfb3f510dc59defbb70c85c8a78c0a2b08010000000000000001000000000000000000"
      "000000000000000000000000000000000000000000000000000100000000000000000100"
      "000000000000000000000000000000000000000000000000000000000000000000010000"
      "0000000000000000000000000000440000000100000004000000000000009dc119d13194"
      "11ef");
  EXPECT_FALSE(checkpoint::parse(v3).has_value());
  EXPECT_FALSE(checkpoint::parse_manifest(v4).has_value());
  for (const Bytes* old : {&v3, &v4}) {
    SimFs fs;
    fs.append(checkpoint::checkpoint_path(1), *old);
    fs.fsync(checkpoint::checkpoint_path(1));
    fs.sync_dir();
    EXPECT_FALSE(checkpoint::load_newest(fs).has_value());
    EXPECT_FALSE(Recovery::replay(fs).stats.used_checkpoint);
  }
}

TEST(Checkpoint, WriteIsAtomicUnderCrash) {
  // Crash on the rename's sync_dir, with all unsynced effects lost: the
  // published name must still hold the PREVIOUS generation, fully intact.
  SimFs fs;
  checkpoint::write(fs, 1, sample_image());
  StoreImage newer = sample_image();
  newer.next_bundle_id = 99;
  CrashConfig crash;
  crash.unsynced_survival = 0.0;
  crash.allow_reorder = false;
  crash.crash_at_op = fs.op_count() + 4;  // append, fsync, rename, SYNC_DIR
  fs.arm(crash);
  checkpoint::write(fs, 2, newer);
  fs.restart();
  const auto loaded = checkpoint::load_newest(fs);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->first, 1u);
  EXPECT_EQ(loaded->second.next_bundle_id, 7u);
}

TEST(Checkpoint, KeepsPreviousGenerationOnly) {
  SimFs fs;
  Journal(fs, checkpoint::journal_path(1), 0).append_bundle_admit(1);
  fs.fsync(checkpoint::journal_path(1));
  checkpoint::write(fs, 1, sample_image());
  checkpoint::write(fs, 2, sample_image());
  checkpoint::write(fs, 3, sample_image());
  EXPECT_FALSE(fs.exists(checkpoint::checkpoint_path(1)));
  EXPECT_FALSE(fs.exists(checkpoint::journal_path(1)));
  EXPECT_TRUE(fs.exists(checkpoint::checkpoint_path(2)));
  EXPECT_TRUE(fs.exists(checkpoint::checkpoint_path(3)));
}

// -------------------------------------------------------------- Recovery ----

TEST(RecoveryTest, EmptyFilesystemYieldsFreshImage) {
  SimFs fs;
  const auto rec = Recovery::replay(fs);
  EXPECT_FALSE(rec.stats.used_checkpoint);
  EXPECT_TRUE(rec.image.epoch_history.empty());
  EXPECT_TRUE(rec.image.pages.empty());
  EXPECT_EQ(rec.stats.next_generation, 1u);
}

TEST(RecoveryTest, CommittedEpochIsReplayed) {
  SimFs fs;
  Journal journal(fs, checkpoint::journal_path(0), 0);
  const H256 root = crypto::keccak256(bytes_of("root"));
  journal.append_epoch_begin(0, root, 10);
  journal.append_page_install(u256{42}, bytes_of("page"));
  journal.append_epoch_commit(0);
  journal.sync();

  const auto rec = Recovery::replay(fs);
  EXPECT_EQ(rec.stats.stop_reason, "");
  EXPECT_EQ(rec.stats.records_replayed, 3u);
  ASSERT_EQ(rec.image.epoch_history.size(), 1u);
  EXPECT_EQ(rec.image.epoch_history[0].state_root, root);
  EXPECT_EQ(rec.image.pages.at(u256{42}), bytes_of("page"));
  EXPECT_EQ(rec.image.page_tags.at(u256{42}), 0u);
  EXPECT_EQ(rec.stats.epochs_aborted, 0u);
}

TEST(RecoveryTest, UncommittedEpochIsAborted) {
  SimFs fs;
  Journal journal(fs, checkpoint::journal_path(0), 0);
  const H256 root = crypto::keccak256(bytes_of("root"));
  journal.append_epoch_begin(0, root, 10);
  journal.append_page_install(u256{1}, bytes_of("committed"));
  journal.append_epoch_commit(0);
  journal.append_epoch_begin(1, root, 11);
  journal.append_page_install(u256{2}, bytes_of("in flight"));
  // No commit: the crash ate it.
  journal.sync();

  const auto rec = Recovery::replay(fs);
  EXPECT_EQ(rec.stats.epochs_aborted, 1u);
  ASSERT_EQ(rec.image.epoch_history.size(), 1u);
  EXPECT_TRUE(rec.image.pages.contains(u256{1}));
  EXPECT_FALSE(rec.image.pages.contains(u256{2}));  // staged, never visible
  // The paper's safety invariant, recovered form: no page tagged past the
  // committed store epoch.
  for (const auto& [id, epoch] : rec.image.page_tags) {
    EXPECT_LE(epoch, rec.image.epoch_history.back().epoch);
  }
}

TEST(RecoveryTest, SemanticViolationTruncatesFailClosed) {
  SimFs fs;
  Journal journal(fs, checkpoint::journal_path(0), 0);
  journal.append_bundle_admit(1);
  // Install outside any epoch: wire-valid, semantically impossible.
  journal.append_page_install(u256{5}, bytes_of("rogue"));
  journal.append_bundle_admit(2);  // after the violation: untrusted
  journal.sync();

  const auto rec = Recovery::replay(fs);
  EXPECT_EQ(rec.stats.stop_reason, "rejected by consumer");
  EXPECT_EQ(rec.stats.records_replayed, 1u);
  EXPECT_TRUE(rec.image.pending_bundles.contains(1));
  EXPECT_FALSE(rec.image.pending_bundles.contains(2));
  EXPECT_TRUE(rec.image.pages.empty());
}

TEST(RecoveryTest, CheckpointPlusJournalChain) {
  SimFs fs;
  // Generation 1 checkpoint, then a wal-1 continuing from its base_seq.
  StoreImage base = sample_image();
  base.base_seq = 17;
  base.pending_bundles = {4};
  checkpoint::write(fs, 1, base);
  Journal journal(fs, checkpoint::journal_path(1), 17);
  journal.append_bundle_resolve(4);
  journal.append_bundle_admit(8);
  journal.sync();

  const auto rec = Recovery::replay(fs);
  EXPECT_TRUE(rec.stats.used_checkpoint);
  EXPECT_EQ(rec.stats.checkpoint_generation, 1u);
  EXPECT_EQ(rec.stats.records_replayed, 2u);
  EXPECT_FALSE(rec.image.pending_bundles.contains(4));  // resolved post-ckpt
  EXPECT_TRUE(rec.image.pending_bundles.contains(8));
  EXPECT_EQ(rec.image.next_bundle_id, 9u);
  EXPECT_EQ(rec.stats.next_generation, 2u);
  EXPECT_EQ(rec.image.pages.size(), 2u);  // carried by the checkpoint
}

TEST(RecoveryTest, JournalNotContinuingCheckpointIsRejected) {
  SimFs fs;
  StoreImage base = sample_image();
  base.base_seq = 17;
  checkpoint::write(fs, 1, base);
  Journal journal(fs, checkpoint::journal_path(1), 3);  // wrong anchor
  journal.append_bundle_admit(8);
  journal.sync();

  const auto rec = Recovery::replay(fs);
  EXPECT_EQ(rec.stats.stop_reason, "sequence break");
  EXPECT_FALSE(rec.image.pending_bundles.contains(8));
}

TEST(RecoveryTest, OutOfRangeNumberedNamesAreForeign) {
  // Numbered names whose digits overflow a u64, or name UINT64_MAX (which has
  // no successor generation), are foreign files on the operator's disk:
  // recovery and the paged store skip them instead of throwing.
  const auto write_journal = [](SimFs& fs) {
    Journal journal(fs, checkpoint::journal_path(0), 0);
    journal.append_epoch_begin(0, crypto::keccak256(bytes_of("root")), 10);
    journal.append_page_install(u256{42}, bytes_of("page"));
    journal.append_epoch_commit(0);
    journal.append_bundle_admit(3);
    journal.sync();
  };
  SimFs clean;
  write_journal(clean);
  SimFs cluttered;
  write_journal(cluttered);
  for (const std::string name :
       {"wal-99999999999999999999", "ckpt-99999999999999999999",
        "store.seg-99999999999999999999", "wal-18446744073709551615",
        "ckpt-18446744073709551615", "store.seg-18446744073709551615"}) {
    cluttered.append(name, bytes_of("foreign"));
    cluttered.fsync(name);
  }
  cluttered.sync_dir();

  const auto want = Recovery::replay(clean);
  const auto got = Recovery::replay(cluttered);
  EXPECT_EQ(got.stats.stop_reason, "");
  EXPECT_FALSE(got.stats.used_checkpoint);
  EXPECT_EQ(got.stats.records_replayed, want.stats.records_replayed);
  EXPECT_EQ(got.stats.next_generation, want.stats.next_generation);
  EXPECT_TRUE(same_image(got.image, want.image));

  pagedstore::PagedStoreConfig config;  // name "store"
  config.buffer_pool_pages = 1;        // the second put evicts the first
  pagedstore::PagedStore store(cluttered, config);
  store.put(u256{1}, bytes_of("spilled page"));
  store.put(u256{2}, bytes_of("resident page"));
  const auto spilled = store.get(u256{1});
  ASSERT_TRUE(spilled.has_value());
  EXPECT_EQ(*spilled, bytes_of("spilled page"));
  store.flush(/*fsync=*/true);
  store.gc_segments({});
  EXPECT_TRUE(cluttered.exists("store.seg-99999999999999999999"));
}

// ---------------------------------------------------------- DurableStore ----

TEST(DurableStoreTest, MirrorMatchesRecovery) {
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  const H256 root = crypto::keccak256(bytes_of("root"));
  store.on_epoch_begin(0, root, 5);
  store.log_page_install(u256{1}, bytes_of("page one"));
  store.log_bundle_admitted(0);
  store.on_epoch_commit(0);
  store.log_bundle_admitted(1);
  store.log_bundle_resolved(0);

  const auto rec = Recovery::replay(fs);
  EXPECT_EQ(rec.stats.stop_reason, "");
  const StoreImage mirror = store.image_snapshot();
  EXPECT_EQ(rec.image.pages.size(), mirror.pages.size());
  EXPECT_EQ(rec.image.page_tags, mirror.page_tags);
  EXPECT_EQ(rec.image.pending_bundles, mirror.pending_bundles);
  EXPECT_EQ(rec.image.next_bundle_id, mirror.next_bundle_id);
  ASSERT_EQ(rec.image.epoch_history.size(), 1u);
  EXPECT_EQ(rec.image.epoch_history[0].state_root, root);
}

TEST(DurableStoreTest, CrashMidEpochRecoversPreEpochImage) {
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  const H256 root = crypto::keccak256(bytes_of("root"));
  store.on_epoch_begin(0, root, 5);
  store.log_page_install(u256{1}, bytes_of("epoch zero"));
  store.on_epoch_commit(0);

  CrashConfig crash;
  crash.unsynced_survival = 0.5;
  crash.resolve_seed = 33;
  fs.arm([&] {
    CrashConfig c = crash;
    c.crash_at_op = fs.op_count() + 5;  // inside the second epoch's pass
    return c;
  }());
  store.on_epoch_begin(1, root, 6);
  store.log_page_install(u256{2}, bytes_of("epoch one"));
  store.log_page_install(u256{3}, bytes_of("epoch one b"));
  store.on_epoch_commit(1);  // some of this dies with the power
  EXPECT_TRUE(fs.crashed());
  fs.restart();

  const auto rec = Recovery::replay(fs);
  // Whatever survived, the recovered image is a committed prefix: either
  // epoch 1 committed entirely or it aborted entirely.
  ASSERT_FALSE(rec.image.epoch_history.empty());
  const uint64_t committed = rec.image.epoch_history.back().epoch;
  EXPECT_TRUE(rec.image.pages.contains(u256{1}));
  if (committed == 0) {
    EXPECT_FALSE(rec.image.pages.contains(u256{2}));
    EXPECT_FALSE(rec.image.pages.contains(u256{3}));
  } else {
    EXPECT_EQ(committed, 1u);
    EXPECT_TRUE(rec.image.pages.contains(u256{2}));
    EXPECT_TRUE(rec.image.pages.contains(u256{3}));
  }
  for (const auto& [id, epoch] : rec.image.page_tags) EXPECT_LE(epoch, committed);
}

TEST(DurableStoreTest, AutoCheckpointRollsGeneration) {
  SimFs fs;
  DurableStore store(fs, DurableConfig{.checkpoint_every_records = 4});
  const H256 root = crypto::keccak256(bytes_of("root"));
  for (uint64_t e = 0; e < 3; ++e) {
    store.on_epoch_begin(e, root, e);
    store.log_page_install(u256{e + 1}, bytes_of("page"));
    store.on_epoch_commit(e);
  }
  const auto stats = store.stats();
  EXPECT_GE(stats.checkpoints_written, 1u);
  EXPECT_GE(stats.generation, 1u);
  const auto rec = Recovery::replay(fs);
  EXPECT_TRUE(rec.stats.used_checkpoint);
  EXPECT_EQ(rec.image.epoch_history.size(), 3u);
  EXPECT_EQ(rec.image.pages.size(), 3u);
}

// ------------------------------------------------------------- CrashPlan ----

TEST(CrashPlanTest, PureInTrialAndAttempt) {
  faults::CrashPlan plan(9);
  const auto a = plan.spec(3, 1, 100);
  const auto b = plan.spec(3, 1, 100);
  EXPECT_EQ(a.crash_at_op, b.crash_at_op);
  EXPECT_EQ(a.resolve_seed, b.resolve_seed);
  const auto c = plan.spec(3, 2, 100);
  const auto d = plan.spec(4, 1, 100);
  EXPECT_TRUE(c.crash_at_op != a.crash_at_op || c.resolve_seed != a.resolve_seed);
  EXPECT_TRUE(d.crash_at_op != a.crash_at_op || d.resolve_seed != a.resolve_seed);
  EXPECT_GE(a.crash_at_op, 1u);
  EXPECT_LE(a.crash_at_op, 100u);
}

// ------------------------------------------------- engine warm restart ----

class DurableEngineTest : public ::testing::Test {
 protected:
  DurableEngineTest() {
    workload::WorkloadGenerator gen(workload::GeneratorConfig{
        .seed = 0xd0a1, .user_accounts = 8, .erc20_contracts = 4,
        .dex_pairs = 2, .routers = 2, .txs_per_block = 4});
    gen.deploy(node_.world());
    node_.produce_block({});
    const auto blocks = gen.generate_evaluation_set(4);
    for (const auto& block : blocks) txs_.insert(txs_.end(), block.begin(), block.end());
  }

  service::EngineConfig make_config(DurableStore* durable) {
    service::EngineConfig config;
    config.security = service::SecurityConfig::full();
    config.num_hevms = 2;
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096,
                                   .max_stash_blocks = 512};
    config.seal_mode = oram::SealMode::kChaChaHmac;
    config.perform_channel_crypto = false;
    config.durable = durable;
    return config;
  }

  node::NodeSimulator node_;
  std::vector<evm::Transaction> txs_;
};

TEST_F(DurableEngineTest, CleanRunJournalRecoversToPinnedState) {
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  service::PreExecutionEngine engine(node_, make_config(&store));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  engine.start();
  for (size_t i = 0; i < 6; ++i) engine.submit({txs_[i % txs_.size()]});
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 6u);

  const auto rec = Recovery::replay(fs);
  EXPECT_EQ(rec.stats.stop_reason, "");
  EXPECT_TRUE(rec.image.pending_bundles.empty());  // every bundle resolved
  EXPECT_EQ(rec.image.next_bundle_id, 6u);
  ASSERT_FALSE(rec.image.epoch_history.empty());
  EXPECT_EQ(rec.image.epoch_history.back().state_root,
            engine.pinned_header().state_root);
  EXPECT_FALSE(rec.image.pages.empty());
}

TEST_F(DurableEngineTest, WarmRestartContinuesNumberingAndInvariants) {
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  {
    service::PreExecutionEngine engine(node_, make_config(&store));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
    engine.start();
    for (size_t i = 0; i < 4; ++i) engine.submit({txs_[i % txs_.size()]});
    (void)engine.drain();
  }
  // The chain moves on while the pre-executor is down.
  node_.produce_block({txs_[5]});

  const auto rec = Recovery::replay(fs);
  SimFs fs2;
  DurableStore store2(fs2, DurableConfig{});
  store2.adopt(rec);
  service::PreExecutionEngine engine(node_, make_config(&store2));
  ASSERT_EQ(engine.warm_restart(rec), Status::kOk);
  // Warm restart delta-synced to the new head and the invariant holds.
  EXPECT_EQ(engine.pinned_header().state_root, node_.head().state_root);
  // The gap's pages went into the one bulk load with the image: no walks.
  EXPECT_EQ(engine.oram_store().snapshot().total_walks, 0u);
  EXPECT_GT(engine.snapshot().sync_pages_installed, 0u);
  EXPECT_LE(engine.epoch_registry().max_page_epoch(),
            engine.epoch_registry().store_epoch());
  engine.start();
  const auto admission = engine.submit({txs_[0]});
  EXPECT_EQ(admission.bundle_id, 4u);  // numbering continues across the crash
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, Status::kOk);
  EXPECT_EQ(engine.snapshot().warm_restarts, 1u);
}

TEST_F(DurableEngineTest, WarmRestartGapSyncFailsClosedOnATamperedProof) {
  // The crash gap's proofs come from the same SP-controlled node as a cold
  // sync's, so the node-feed adversary reaches them too: a tampered proof
  // must fail the warm restart closed instead of installing the gap.
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  {
    service::PreExecutionEngine engine(node_, make_config(&store));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
  }
  node_.produce_block({txs_[5]});  // one new block while the engine is down

  const auto rec = Recovery::replay(fs);
  SimFs fs2;
  DurableStore store2(fs2, DurableConfig{});
  store2.adopt(rec);
  faults::FaultPlan plan(faults::FaultPlanConfig{});
  plan.force(faults::FaultSite::kNodeFetch, /*stream=*/0, /*op=*/0,
             faults::FaultDecision{.kind = faults::FaultKind::kStaleProof});
  auto config = make_config(&store2);
  config.fault_plan = &plan;
  service::PreExecutionEngine engine(node_, config);
  EXPECT_EQ(engine.warm_restart(rec), Status::kBadProof);
  EXPECT_EQ(plan.injected(), 1u);
  EXPECT_LE(engine.epoch_registry().max_page_epoch(),
            engine.epoch_registry().store_epoch());
}

TEST_F(DurableEngineTest, WarmRestartGapFailureLoadsNothing) {
  // The gap is verified before the image is loaded: a tampered gap proof
  // leaves the store fresh, so a cold sync can follow on the same engine.
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  {
    service::PreExecutionEngine engine(node_, make_config(&store));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
  }
  node_.produce_block({txs_[5]});

  const auto rec = Recovery::replay(fs);
  ASSERT_FALSE(rec.image.pages.empty());
  SimFs fs2;
  DurableStore store2(fs2, DurableConfig{});
  store2.adopt(rec);
  faults::FaultPlan plan(faults::FaultPlanConfig{});
  plan.force(faults::FaultSite::kNodeFetch, /*stream=*/0, /*op=*/0,
             faults::FaultDecision{.kind = faults::FaultKind::kStaleProof});
  auto config = make_config(&store2);
  config.fault_plan = &plan;
  service::PreExecutionEngine engine(node_, config);
  EXPECT_EQ(engine.warm_restart(rec), Status::kBadProof);
  EXPECT_EQ(engine.oram_store().block_count(), 0u);
  EXPECT_EQ(engine.snapshot().pages_restored, 0u);
  EXPECT_EQ(engine.snapshot().sync_pages_installed, 0u);

  // The cold fallback, with the node honest again.
  plan.force(faults::FaultSite::kNodeFetch, /*stream=*/0, /*op=*/0, faults::FaultDecision{});
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  EXPECT_EQ(engine.oram_store().block_count(), engine.snapshot().sync_pages_installed);
  EXPECT_EQ(engine.pinned_header().state_root, node_.head().state_root);
  EXPECT_LE(engine.epoch_registry().max_page_epoch(),
            engine.epoch_registry().store_epoch());
  engine.start();
  engine.submit({txs_[0]});
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, Status::kOk);
}

TEST_F(DurableEngineTest, ResubmitReplaysPendingBundleSemanticallyIdentical) {
  // Baseline: what the bundle produces with no crash anywhere.
  service::SessionOutcome baseline;
  {
    service::PreExecutionEngine engine(node_, make_config(nullptr));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
    engine.start();
    engine.submit({txs_[1]});
    baseline = engine.drain()[0];
  }
  // Crashed run: the bundle was admitted durably but never resolved.
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  {
    service::PreExecutionEngine engine(node_, make_config(&store));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
    store.log_bundle_admitted(0);  // admitted; power died before execution
  }
  const auto rec = Recovery::replay(fs);
  ASSERT_TRUE(rec.image.pending_bundles.contains(0));

  SimFs fs2;
  DurableStore store2(fs2, DurableConfig{});
  store2.adopt(rec);
  service::PreExecutionEngine engine(node_, make_config(&store2));
  ASSERT_EQ(engine.warm_restart(rec), Status::kOk);
  engine.start();
  engine.resubmit(0, {txs_[1]}, /*attempt=*/1);
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].attempt, 1u);
  EXPECT_TRUE(service::outcomes_semantically_identical(outcomes[0], baseline));
  EXPECT_EQ(engine.snapshot().bundles_readmitted, 1u);
  // The re-admission resolved durably on the new store.
  const auto rec2 = Recovery::replay(fs2);
  EXPECT_FALSE(rec2.image.pending_bundles.contains(0));
}

TEST_F(DurableEngineTest, DurableDiskCarriesNoOramLeaf) {
  // The durable disk is the operator's. Engines that differ only in their
  // seed draw different ORAM leaves for the same pages, so if a leaf reached
  // a journal record, a checkpoint or a manifest, their disks would differ.
  // No bundles: admit and resolve marks interleave with worker timing and
  // carry no leaf.
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental checkpoints" : "full-image checkpoints");
    const DurableConfig durable_config{.checkpoint_every_records = 16,
                                       .incremental_checkpoints = incremental};
    SimFs fs_a;
    SimFs fs_b;
    DurableStore store_a(fs_a, durable_config);
    DurableStore store_b(fs_b, durable_config);
    const auto config = [&](DurableStore* durable, uint64_t seed) {
      service::EngineConfig config = make_config(durable);
      config.num_hevms = 1;
      config.seed = seed;
      return config;
    };
    service::PreExecutionEngine engine_a(node_, config(&store_a, 1));
    service::PreExecutionEngine engine_b(node_, config(&store_b, 2));
    ASSERT_EQ(engine_a.synchronize(), Status::kOk);
    ASSERT_EQ(engine_b.synchronize(), Status::kOk);
    const H256 synced_root = node_.head().state_root;
    node_.produce_block({txs_[incremental ? 6 : 5]});
    ASSERT_NE(node_.head().state_root, synced_root);
    ASSERT_EQ(engine_a.resync(), Status::kOk);
    ASSERT_EQ(engine_b.resync(), Status::kOk);
    ASSERT_GE(store_a.stats().checkpoints_written, 1u);

    ASSERT_EQ(fs_a.list(), fs_b.list());
    for (const std::string& path : fs_a.list()) {
      EXPECT_EQ(fs_a.read(path), fs_b.read(path)) << path << " differs between seeds";
    }
  }
}

// Every sealed slot in the ORAM segment files on `fs` — what an SP that keeps
// all it is handed holds. A segment is a run of page records; a page is one
// bucket of nonce(12) || tag(16) || u32 length || ciphertext slots.
// Never-written slots (length 0) carry no seal and are skipped.
std::set<Bytes> sealed_slots_on(const SimFs& fs) {
  constexpr size_t kPayloadLenAt = 4 + 2 + 2 + 32 + 8;  // magic .. generation
  std::set<Bytes> slots;
  for (const std::string& path : fs.list()) {
    const Bytes segment = *fs.read(path);
    for (size_t off = 0; off < segment.size();) {
      uint32_t payload_len = 0;
      std::memcpy(&payload_len, segment.data() + off + kPayloadLenAt, 4);
      const size_t record = pagedstore::kPageHeaderSize + payload_len;
      const auto page = pagedstore::decode_page(BytesView{segment.data() + off, record});
      if (!page.has_value()) {
        ADD_FAILURE() << "undecodable page record in " << path;
        return slots;
      }
      const Bytes& bucket = page->payload;
      for (size_t at = 0; at < bucket.size();) {
        uint32_t ciphertext_len = 0;
        std::memcpy(&ciphertext_len, bucket.data() + at + 28, 4);
        const size_t end = at + 32 + ciphertext_len;
        if (ciphertext_len != 0) slots.emplace(bucket.begin() + at, bucket.begin() + end);
        at = end;
      }
      off += record;
    }
  }
  return slots;
}

TEST_F(DurableEngineTest, WarmRestartNeverResealsASlotTheSpHolds) {
  // The restarted engine draws the same nonce streams from the same seed.
  // Unless each boot seals under its own key, it reseals equal plaintexts —
  // dummy slots above all — under (key, nonce) pairs of the first boot, and
  // the SP, which kept the first boot's segments, sees byte-identical slots.
  SimFs oram_fs;  // the SP's disk, under the paged slot backend
  const auto config = [&](DurableStore* durable) {
    service::EngineConfig config = make_config(durable);
    config.oram.backend = oram::SlotBackend::kPaged;
    config.oram.backing_fs = &oram_fs;
    config.oram.buffer_pool_pages = 1;  // raised to the walk set: most buckets spill
    return config;
  };
  SimFs fs;
  DurableStore store(fs, DurableConfig{});
  {
    service::PreExecutionEngine engine(node_, config(&store));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
    engine.start();
    for (size_t i = 0; i < 4; ++i) engine.submit({txs_[i % txs_.size()]});
    (void)engine.drain();
  }  // power loss
  // Copy now: the next boot's fresh slot store deletes leftover segments.
  const std::set<Bytes> first_boot = sealed_slots_on(oram_fs);

  const auto rec = Recovery::replay(fs);
  SimFs fs2;
  DurableStore store2(fs2, DurableConfig{});
  store2.adopt(rec);
  EXPECT_GT(store2.stats().generation, store.stats().generation);
  service::PreExecutionEngine engine(node_, config(&store2));
  ASSERT_EQ(engine.warm_restart(rec), Status::kOk);
  engine.start();
  for (size_t i = 0; i < 4; ++i) engine.submit({txs_[i % txs_.size()]});
  (void)engine.drain();
  const std::set<Bytes> second_boot = sealed_slots_on(oram_fs);

  ASSERT_GT(first_boot.size(), 1000u);
  ASSERT_GT(second_boot.size(), 1000u);
  size_t repeated = 0;
  for (const Bytes& slot : second_boot) repeated += first_boot.count(slot);
  EXPECT_EQ(repeated, 0u) << "second-boot slots byte-identical to first-boot ones (same "
                             "nonce, ciphertext and tag)";
}

}  // namespace
}  // namespace hardtape::durability
