// Merkle Patricia Trie.
//
// Ethereum authenticates its world state with MPTrees: the state trie maps
// keccak(address) -> RLP(account), and each contract's storage trie maps
// keccak(slot) -> RLP(value). HarDTAPE relies on Merkle proofs exactly once
// per datum — when synchronizing freshly produced blocks from the (untrusted)
// Node into the ORAM (paper Section IV-C "Remark"); after that, the ORAM's
// AEAD slot seal protects integrity and no proofs are fetched during
// pre-execution, which is also what keeps the sync path free of
// access-pattern requirements.
//
// Node model: leaf [encodedPath, value], extension [encodedPath, childHash],
// branch [16 x childHash, value], with hex-prefix path encoding. Children are
// always referenced by their Keccak-256 hash (no sub-32-byte inlining; the
// trie is self-consistent, which is all the simulator requires — see
// DESIGN.md §1).
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/u256.hpp"
#include "trie/node_store.hpp"

namespace hardtape::trie {

/// A Merkle proof: the RLP encodings of the nodes on the path from the root
/// to the key (inclusive), in root-first order.
using MerkleProof = std::vector<Bytes>;

class MerklePatriciaTrie {
 public:
  /// Default: a private in-RAM node store (the seed behavior).
  MerklePatriciaTrie() = default;
  /// Routes node storage through `store` (not owned; must outlive the trie).
  /// Content-addressing makes sharing one store across tries safe.
  explicit MerklePatriciaTrie(NodeStore* store) : store_(store) {}

  // Copies of a trie with the default RAM store get their own store; copies
  // of an externally-backed trie share the external store (immutable,
  // content-addressed nodes make that sound).
  MerklePatriciaTrie(const MerklePatriciaTrie& o)
      : ram_(o.ram_),
        store_(o.store_ == &o.ram_ ? &ram_ : o.store_),
        root_(o.root_),
        size_(o.size_) {}
  MerklePatriciaTrie& operator=(const MerklePatriciaTrie& o) {
    if (this != &o) {
      ram_ = o.ram_;
      store_ = o.store_ == &o.ram_ ? &ram_ : o.store_;
      root_ = o.root_;
      size_ = o.size_;
    }
    return *this;
  }
  MerklePatriciaTrie(MerklePatriciaTrie&& o) noexcept
      : ram_(std::move(o.ram_)),
        store_(o.store_ == &o.ram_ ? &ram_ : o.store_),
        root_(o.root_),
        size_(o.size_) {}
  MerklePatriciaTrie& operator=(MerklePatriciaTrie&& o) noexcept {
    if (this != &o) {
      const bool own = o.store_ == &o.ram_;
      ram_ = std::move(o.ram_);
      store_ = own ? &ram_ : o.store_;
      root_ = o.root_;
      size_ = o.size_;
    }
    return *this;
  }

  /// Inserts or updates. Empty `value` is not allowed (use erase).
  void put(BytesView key, BytesView value);
  std::optional<Bytes> get(BytesView key) const;
  /// Removes the key; returns true if it was present.
  bool erase(BytesView key);

  /// Keccak-256 of the root node; the hash of an empty trie is
  /// keccak256(rlp("")) as in Ethereum.
  H256 root_hash() const;
  static H256 empty_root_hash();

  /// Generates a membership (or non-membership) proof for `key`.
  MerkleProof prove(BytesView key) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Verifies `proof` against `root`. Returns the value if the proof shows
  /// membership, an empty optional wrapped in Status-like semantics:
  ///  - {true, value}  : proof valid, key present with `value`
  ///  - {true, nullopt}: proof valid, key proven absent
  ///  - {false, ...}   : proof invalid (hash mismatch / malformed)
  struct VerifyResult {
    bool valid = false;
    std::optional<Bytes> value;
  };
  static VerifyResult verify_proof(const H256& root, BytesView key,
                                   const MerkleProof& proof);

 private:
  // Node storage: hash -> RLP encoding behind the NodeStore interface; stale
  // nodes are left behind on update (garbage, but harmless for the
  // simulator's lifetimes). Default = the private RAM store.
  RamNodeStore ram_;
  NodeStore* store_ = &ram_;
  H256 root_{};  // zero hash means "empty trie"
  size_t size_ = 0;

  using Nibbles = std::vector<uint8_t>;
  static Nibbles to_nibbles(BytesView key);

  // Recursive helpers operate on node hashes; zero hash = missing node.
  H256 insert(const H256& node_hash, const Nibbles& path, size_t depth, BytesView value);
  std::optional<Bytes> lookup(const H256& node_hash, const Nibbles& path, size_t depth) const;
  // Returns the new child hash (zero = removed entirely).
  H256 remove(const H256& node_hash, const Nibbles& path, size_t depth, bool& removed);
  H256 store_node(const Bytes& encoded);
  // By value: a paged backend may evict the page a reference would dangle
  // into. Nodes are ~100 bytes; the copy is noise next to the keccak above.
  Bytes load_node(const H256& hash) const;
};

}  // namespace hardtape::trie
