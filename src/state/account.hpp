// Ethereum account model (paper Section II-A).
//
// An account state has four fields: balance, nonce, storage (root) and code
// (hash). Contract accounts carry bytecode; externally-owned accounts have
// the empty code hash.
#pragma once

#include "common/u256.hpp"
#include "crypto/keccak.hpp"

namespace hardtape::state {

struct Account {
  u256 balance{};
  uint64_t nonce = 0;
  H256 code_hash = empty_code_hash();
  H256 storage_root{};  // zero = empty storage trie

  /// keccak256("") (c5d2…a470), hashed once per process.
  static H256 empty_code_hash() {
    static const H256 kHash = crypto::keccak256(BytesView{});
    return kHash;
  }

  bool has_code() const { return code_hash != empty_code_hash(); }
  bool is_empty() const {
    return balance.is_zero() && nonce == 0 && !has_code();
  }

  /// RLP: [nonce, balance, storageRoot, codeHash] (Yellow Paper order).
  Bytes rlp_encode() const;
  static Account rlp_decode(BytesView data);

  friend bool operator==(const Account&, const Account&) = default;
};

}  // namespace hardtape::state
