// Tests for RLP and the Merkle Patricia Trie, including the Merkle proof
// path used when synchronizing blocks into the ORAM (threat A6).
#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "common/errors.hpp"
#include "common/random.hpp"
#include "crypto/keccak.hpp"
#include "mutants.hpp"
#include "trie/mpt.hpp"
#include "trie/rlp.hpp"

namespace hardtape::trie {
namespace {

Bytes str(std::string_view s) { return Bytes(s.begin(), s.end()); }

// --- RLP ---

TEST(Rlp, KnownEncodings) {
  // Canonical examples from the Ethereum wiki.
  EXPECT_EQ(to_hex(rlp_encode_bytes(str("dog"))), "83646f67");
  EXPECT_EQ(to_hex(rlp_encode_bytes(BytesView{})), "80");
  EXPECT_EQ(to_hex(rlp_encode_bytes(Bytes{0x0f})), "0f");
  EXPECT_EQ(to_hex(rlp_encode_bytes(Bytes{0x04, 0x00})), "820400");
  // ["cat", "dog"]
  EXPECT_EQ(to_hex(rlp_encode_list({rlp_encode_bytes(str("cat")), rlp_encode_bytes(str("dog"))})),
            "c88363617483646f67");
  // Empty list.
  EXPECT_EQ(to_hex(rlp_encode_list({})), "c0");
  // Long string (56 bytes) switches to length-of-length form.
  const Bytes long_str(56, 'a');
  const Bytes enc = rlp_encode_bytes(long_str);
  EXPECT_EQ(enc[0], 0xb8);
  EXPECT_EQ(enc[1], 56);
}

TEST(Rlp, IntegerEncoding) {
  EXPECT_EQ(to_hex(rlp_encode_u256(u256{})), "80");
  EXPECT_EQ(to_hex(rlp_encode_u256(u256{15})), "0f");
  EXPECT_EQ(to_hex(rlp_encode_u256(u256{1024})), "820400");
  // Minimal-length big-endian: no leading zeros.
  const Bytes enc = rlp_encode_u256(u256{1} << 248);
  EXPECT_EQ(enc.size(), 33u);
}

TEST(Rlp, DecodeRoundTrip) {
  RlpList inner;
  inner.emplace_back(str("cat"));
  inner.emplace_back(str("dog"));
  RlpList outer;
  outer.emplace_back(str("hello world, this is a longer string exceeding fifty-five bytes!!"));
  outer.emplace_back(std::move(inner));
  outer.emplace_back(Bytes{});
  const RlpItem original{std::move(outer)};

  const Bytes encoded = rlp_encode(original);
  const RlpItem decoded = rlp_decode(encoded);
  ASSERT_TRUE(decoded.is_list());
  ASSERT_EQ(decoded.list().size(), 3u);
  EXPECT_EQ(decoded.list()[1].list()[0].bytes(), str("cat"));
  EXPECT_EQ(decoded.list()[2].bytes(), Bytes{});
}

TEST(Rlp, DecodeRejectsMalformed) {
  EXPECT_THROW(rlp_decode(Bytes{}), DecodingError);
  EXPECT_THROW(rlp_decode(Bytes{0x83, 'a', 'b'}), DecodingError);       // truncated
  EXPECT_THROW(rlp_decode(Bytes{0x81, 0x05}), DecodingError);           // non-canonical single byte
  EXPECT_THROW(rlp_decode(Bytes{0x0f, 0x0f}), DecodingError);           // trailing bytes
  EXPECT_THROW(rlp_decode(Bytes{0xb8, 0x01, 0xff}), DecodingError);     // non-canonical length < 56
  EXPECT_THROW(rlp_decode(Bytes{0xc2, 0x83, 'a'}), DecodingError);      // list item overruns
}

// A seeded item tree up to three lists deep. String lengths cover every
// prefix class: empty, one byte below and above 0x80, short, and long
// (56+ bytes, length-of-length form); a list of long strings takes the long
// list form.
RlpItem random_item(Random& rng, int depth) {
  if (depth < 3 && rng.uniform(3) == 0) {
    RlpList list;
    const uint64_t count = rng.uniform(5);
    for (uint64_t i = 0; i < count; ++i) list.push_back(random_item(rng, depth + 1));
    return RlpItem(std::move(list));
  }
  static constexpr size_t kLengths[] = {0, 1, 1, 2, 7, 55, 56, 70};
  return RlpItem(rng.bytes(kLengths[rng.uniform(std::size(kLengths))]));
}

// Seeded mutation fuzz: every single-bit flip, one-byte insertion, one-byte
// deletion and truncation of 300 valid encodings is refused, or decodes to
// an item that encodes back to the mutant's exact bytes (RLP is canonical).
TEST(Rlp, MutationFuzzDecodesOnlyCanonicalItems) {
  Random rng(0x4c9);
  fuzz::MutantTally tally;
  for (int i = 0; i < 300; ++i) {
    const Bytes encoded = rlp_encode(random_item(rng, 0));
    ASSERT_EQ(rlp_encode(rlp_decode(encoded)), encoded) << "item " << i;
    fuzz::for_each_mutant(encoded, rng, [&](const Bytes& mutant) {
      std::optional<Bytes> reencoded;
      try {
        reencoded = rlp_encode(rlp_decode(mutant));
      } catch (const DecodingError&) {
      }
      tally.record(mutant, reencoded);
    });
  }
  EXPECT_EQ(tally.not_canonical, 0u) << tally.first_not_canonical;
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_LT(tally.decoded, tally.total);
  RecordProperty("mutants", static_cast<int>(tally.total));
  RecordProperty("decoded", static_cast<int>(tally.decoded));
}

// --- MPT ---

TEST(Mpt, EmptyTrieRoot) {
  MerklePatriciaTrie trie;
  // keccak256(rlp("")) — the canonical Ethereum empty-trie root.
  EXPECT_EQ(trie.root_hash().hex(),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.get(str("missing")).has_value());
}

TEST(Mpt, PutGetSingle) {
  MerklePatriciaTrie trie;
  trie.put(str("key"), str("value"));
  EXPECT_EQ(trie.get(str("key")), str("value"));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_FALSE(trie.get(str("kex")).has_value());
}

TEST(Mpt, OverwriteChangesRootDeterministically) {
  MerklePatriciaTrie trie;
  trie.put(str("a"), str("1"));
  const H256 r1 = trie.root_hash();
  trie.put(str("a"), str("2"));
  EXPECT_NE(trie.root_hash(), r1);
  trie.put(str("a"), str("1"));
  EXPECT_EQ(trie.root_hash(), r1);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(Mpt, RootIsInsertionOrderIndependent) {
  // The defining property of a Merkle trie: content-addressed state.
  std::vector<std::pair<Bytes, Bytes>> entries;
  Random rng(21);
  for (int i = 0; i < 50; ++i) {
    entries.emplace_back(rng.bytes(32), rng.bytes(1 + rng.uniform(40)));
  }
  MerklePatriciaTrie forward, backward;
  for (const auto& [k, v] : entries) forward.put(k, v);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) backward.put(it->first, it->second);
  EXPECT_EQ(forward.root_hash(), backward.root_hash());
}

TEST(Mpt, SharedPrefixesSplitCorrectly) {
  MerklePatriciaTrie trie;
  trie.put(str("doge"), str("coin"));
  trie.put(str("dog"), str("puppy"));
  trie.put(str("do"), str("verb"));
  trie.put(str("horse"), str("stallion"));
  EXPECT_EQ(trie.get(str("do")), str("verb"));
  EXPECT_EQ(trie.get(str("dog")), str("puppy"));
  EXPECT_EQ(trie.get(str("doge")), str("coin"));
  EXPECT_EQ(trie.get(str("horse")), str("stallion"));
  EXPECT_EQ(trie.size(), 4u);
}

TEST(Mpt, EraseRestoresPriorRoot) {
  MerklePatriciaTrie trie;
  trie.put(str("alpha"), str("1"));
  trie.put(str("beta"), str("2"));
  const H256 two_root = trie.root_hash();
  trie.put(str("gamma"), str("3"));
  EXPECT_TRUE(trie.erase(str("gamma")));
  EXPECT_EQ(trie.root_hash(), two_root);
  EXPECT_FALSE(trie.erase(str("gamma")));
  EXPECT_EQ(trie.size(), 2u);
}

TEST(Mpt, EraseToEmpty) {
  MerklePatriciaTrie trie;
  trie.put(str("x"), str("1"));
  EXPECT_TRUE(trie.erase(str("x")));
  EXPECT_EQ(trie.root_hash(), MerklePatriciaTrie::empty_root_hash());
  EXPECT_TRUE(trie.empty());
}

TEST(Mpt, RandomizedAgainstReferenceMap) {
  // Property test: the trie must agree with std::map under a random workload
  // of puts, overwrites and erases, and equal contents must give equal roots.
  Random rng(1234);
  MerklePatriciaTrie trie;
  std::map<Bytes, Bytes> reference;
  for (int step = 0; step < 600; ++step) {
    const uint64_t op = rng.uniform(10);
    Bytes key = rng.bytes(1 + rng.uniform(6));  // short keys force deep sharing
    if (op < 6) {
      Bytes value = rng.bytes(1 + rng.uniform(50));
      trie.put(key, value);
      reference[key] = value;
    } else if (op < 9 && !reference.empty()) {
      // Erase an existing key (pick pseudo-randomly).
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.uniform(reference.size())));
      EXPECT_TRUE(trie.erase(it->first));
      reference.erase(it);
    } else {
      EXPECT_FALSE(trie.erase(key) && !reference.contains(key));
      reference.erase(key);
    }
  }
  EXPECT_EQ(trie.size(), reference.size());
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(trie.get(k), v) << to_hex(k);
  }
  // Rebuild from scratch: roots must match.
  MerklePatriciaTrie rebuilt;
  for (const auto& [k, v] : reference) rebuilt.put(k, v);
  EXPECT_EQ(rebuilt.root_hash(), trie.root_hash());
}

TEST(Mpt, ProofOfMembership) {
  MerklePatriciaTrie trie;
  Random rng(9);
  std::vector<Bytes> keys;
  for (int i = 0; i < 40; ++i) {
    Bytes key = rng.bytes(32);
    trie.put(key, rng.bytes(20));
    keys.push_back(std::move(key));
  }
  const H256 root = trie.root_hash();
  for (const Bytes& key : keys) {
    const MerkleProof proof = trie.prove(key);
    const auto result = MerklePatriciaTrie::verify_proof(root, key, proof);
    EXPECT_TRUE(result.valid);
    ASSERT_TRUE(result.value.has_value());
    EXPECT_EQ(*result.value, *trie.get(key));
  }
}

TEST(Mpt, ProofOfAbsence) {
  MerklePatriciaTrie trie;
  Random rng(10);
  for (int i = 0; i < 40; ++i) trie.put(rng.bytes(32), str("v"));
  const H256 root = trie.root_hash();
  for (int i = 0; i < 20; ++i) {
    const Bytes absent_key = rng.bytes(32);
    const MerkleProof proof = trie.prove(absent_key);
    const auto result = MerklePatriciaTrie::verify_proof(root, absent_key, proof);
    EXPECT_TRUE(result.valid);
    EXPECT_FALSE(result.value.has_value());
  }
}

TEST(Mpt, ProofRejectsTampering) {
  MerklePatriciaTrie trie;
  trie.put(str("account1"), str("100"));
  trie.put(str("account2"), str("200"));
  const H256 root = trie.root_hash();
  MerkleProof proof = trie.prove(str("account1"));
  ASSERT_FALSE(proof.empty());

  // Bit-flip in any node invalidates the proof.
  for (size_t i = 0; i < proof.size(); ++i) {
    MerkleProof bad = proof;
    bad[i][bad[i].size() / 2] ^= 0x01;
    EXPECT_FALSE(MerklePatriciaTrie::verify_proof(root, str("account1"), bad).valid);
  }
  // Proof against a different root fails.
  const H256 other_root = crypto::keccak256("not the root");
  EXPECT_FALSE(MerklePatriciaTrie::verify_proof(other_root, str("account1"), proof).valid);
  // A membership proof cannot be replayed for a different key to fake a value.
  const auto replay = MerklePatriciaTrie::verify_proof(root, str("account2"), proof);
  EXPECT_FALSE(replay.valid && replay.value.has_value() && *replay.value == str("100"));
}

TEST(Mpt, ProofAgainstEmptyTrie) {
  MerklePatriciaTrie trie;
  const MerkleProof proof = trie.prove(str("anything"));
  EXPECT_TRUE(proof.empty());
  const auto result =
      MerklePatriciaTrie::verify_proof(MerklePatriciaTrie::empty_root_hash(), str("anything"), proof);
  EXPECT_TRUE(result.valid);
  EXPECT_FALSE(result.value.has_value());
  // Empty proof against a non-empty root is invalid.
  trie.put(str("k"), str("v"));
  EXPECT_FALSE(MerklePatriciaTrie::verify_proof(trie.root_hash(), str("k"), {}).valid);
}

TEST(Mpt, RejectsEmptyValue) {
  MerklePatriciaTrie trie;
  EXPECT_THROW(trie.put(str("k"), BytesView{}), UsageError);
}

TEST(Mpt, EthereumStyle32ByteKeys) {
  // World-state usage: keccak-hashed keys, RLP-encoded values.
  MerklePatriciaTrie trie;
  Random rng(77);
  for (int i = 0; i < 100; ++i) {
    const H256 key = crypto::keccak256(rng.bytes(20));
    trie.put(key.view(), rlp_encode_u256(u256{rng.next_u64()}));
  }
  EXPECT_EQ(trie.size(), 100u);
}

}  // namespace
}  // namespace hardtape::trie
