// Authoritative world state, as held by an Ethereum full node.
//
// Backed by Merkle Patricia Tries so the node simulator can produce the
// Merkle proofs HarDTAPE demands during block synchronization (threat A6).
// Pre-execution never mutates this state: the EVM runs against an
// OverlayState whose modifications are discarded when a bundle ends
// (paper Fig. 3 step 10).
#pragma once

#include <optional>
#include <unordered_map>

#include "common/u256.hpp"
#include "state/account.hpp"
#include "trie/mpt.hpp"

namespace hardtape::state {

/// Read-only view of world-state data. Implemented by WorldState directly
/// and by the session's routed reader in src/service, which reads the paged
/// state out of the ORAM (the HEVM path).
class StateReader {
 public:
  virtual ~StateReader() = default;
  virtual std::optional<Account> account(const Address& addr) const = 0;
  virtual u256 storage(const Address& addr, const u256& key) const = 0;
  virtual Bytes code(const Address& addr) const = 0;
};

class WorldState : public StateReader {
 public:
  WorldState() = default;
  /// Backs EVERY trie of this world (state trie + each account's storage
  /// trie) with one shared node store — content-addressing keeps the tries
  /// disjoint by construction. Used with a trie::PagedNodeStore to hold
  /// world states far larger than RAM (DESIGN.md §16). `store` is not owned
  /// and must outlive the WorldState and its copies.
  explicit WorldState(trie::NodeStore* store) : node_store_(store) {
    state_trie_ = trie::MerklePatriciaTrie{store};
  }

  // StateReader:
  std::optional<Account> account(const Address& addr) const override;
  u256 storage(const Address& addr, const u256& key) const override;
  Bytes code(const Address& addr) const override;

  // Mutation (block execution / test setup):
  void set_balance(const Address& addr, const u256& balance);
  void set_nonce(const Address& addr, uint64_t nonce);
  void set_code(const Address& addr, BytesView code);
  void set_storage(const Address& addr, const u256& key, const u256& value);
  void delete_account(const Address& addr);

  /// Root of the account trie; recomputed lazily from dirty accounts.
  H256 state_root() const;

  /// Merkle proofs for sync. Account proofs are against the state trie keyed
  /// by keccak(address); storage proofs against that account's storage trie
  /// keyed by keccak(slot).
  trie::MerkleProof prove_account(const Address& addr) const;
  trie::MerkleProof prove_storage(const Address& addr, const u256& key) const;
  /// Storage root of one account (for verifying storage proofs).
  H256 storage_root(const Address& addr) const;

  /// All known accounts (for page building during ORAM sync).
  std::vector<Address> all_accounts() const;
  /// All storage keys of one account, sorted (for page grouping).
  std::vector<u256> storage_keys(const Address& addr) const;

  size_t account_count() const { return accounts_.size(); }

 private:
  struct AccountRecord {
    Account account;
    trie::MerklePatriciaTrie storage_trie;
    std::unordered_map<u256, u256, U256Hasher> storage_plain;  // key -> value
  };

  AccountRecord& record_for(const Address& addr);
  void rebuild_state_trie() const;

  trie::NodeStore* node_store_ = nullptr;  ///< shared backing; null = RAM tries
  std::unordered_map<Address, AccountRecord, AddressHasher> accounts_;
  std::unordered_map<H256, Bytes, H256Hasher> code_store_;  // code hash -> code
  mutable trie::MerklePatriciaTrie state_trie_;
  mutable bool trie_dirty_ = true;
};

/// What changed between two world states, account by account — the work
/// list of an incremental (delta) ORAM sync: only accounts listed here need
/// re-verification, and only their changed slots need fresh storage proofs.
/// Accounts present in `from` but absent in `to` are reported with
/// `meta_changed` set (the new state proves them absent).
struct StateDelta {
  struct AccountDelta {
    Address addr;
    bool meta_changed = false;  ///< balance / nonce / code hash / existence
    bool code_changed = false;
    std::vector<u256> changed_keys;  ///< slots whose value differs, sorted
  };
  std::vector<AccountDelta> accounts;  ///< sorted by address (deterministic)
  size_t changed_slots() const {
    size_t n = 0;
    for (const auto& a : accounts) n += a.changed_keys.size();
    return n;
  }
};

/// Diffs `to` against `from`. Deterministic: output order depends only on
/// the two states, never on hash-map iteration order.
StateDelta diff_worlds(const WorldState& from, const WorldState& to);

/// Trivial in-memory StateReader for tests that do not need tries.
class InMemoryState : public StateReader {
 public:
  std::optional<Account> account(const Address& addr) const override {
    const auto it = accounts_.find(addr);
    if (it == accounts_.end()) return std::nullopt;
    return it->second;
  }
  u256 storage(const Address& addr, const u256& key) const override {
    const auto it = storage_.find(addr);
    if (it == storage_.end()) return u256{};
    const auto vit = it->second.find(key);
    return vit == it->second.end() ? u256{} : vit->second;
  }
  Bytes code(const Address& addr) const override {
    const auto it = code_.find(addr);
    return it == code_.end() ? Bytes{} : it->second;
  }

  void put_account(const Address& addr, Account account) { accounts_[addr] = account; }
  void put_storage(const Address& addr, const u256& key, const u256& value) {
    storage_[addr][key] = value;
  }
  void put_code(const Address& addr, Bytes code) {
    Account& account = accounts_[addr];
    account.code_hash = crypto::keccak256(code);
    code_[addr] = std::move(code);
  }

 private:
  std::unordered_map<Address, Account, AddressHasher> accounts_;
  std::unordered_map<Address, std::unordered_map<u256, u256, U256Hasher>, AddressHasher> storage_;
  std::unordered_map<Address, Bytes, AddressHasher> code_;
};

}  // namespace hardtape::state
