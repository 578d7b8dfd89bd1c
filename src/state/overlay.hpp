// Journaled overlay state — the EVM's mutable view of the world.
//
// Pre-executed bundles must see their own modifications but never touch the
// persistent world state (paper Fig. 3 step 10: "World state modifications
// made by the pre-executed transactions are not written into any persistent
// storage"). The overlay buffers every write on top of a read-only
// StateReader and supports nested snapshots, which back the EVM's
// CALL/REVERT semantics: each execution frame takes a snapshot on entry and
// rolls back to it when the callee reverts (paper Section IV-B, layer 2).
//
// The journal is an undo log (the Geth approach): every mutation pushes a
// closure restoring the previous value; snapshot() records the journal
// length; revert_to() unwinds. Warm/cold access sets (EIP-2929) and the gas
// refund counter are journaled too, since reverted frames must not leave
// warm residue.
//
// Each slot's value at its first write in a transaction is kept for EIP-2200
// gas (original_storage) until the next begin_transaction(). The same record
// yields the transaction's own storage writes (tx_storage_writes), so a
// bundle's per-transaction traces cost what each transaction wrote, not what
// the whole session has touched.
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "state/world_state.hpp"

namespace hardtape::state {

class OverlayState {
 public:
  explicit OverlayState(const StateReader& base) : base_(base) {}

  /// Resets per-transaction state: warm sets, refund counter, original
  /// storage values, transient storage. Call before each transaction in a
  /// bundle. Keeps accumulated world-state modifications (txs in a bundle
  /// see each other's effects).
  void begin_transaction();

  // --- accounts ---
  bool exists(const Address& addr) const;
  u256 balance(const Address& addr) const;
  void set_balance(const Address& addr, const u256& value);
  void add_balance(const Address& addr, const u256& value);
  /// Returns false (and does nothing) when funds are insufficient.
  [[nodiscard]] bool sub_balance(const Address& addr, const u256& value);
  uint64_t nonce(const Address& addr) const;
  void set_nonce(const Address& addr, uint64_t value);
  Bytes code(const Address& addr) const;
  H256 code_hash(const Address& addr) const;
  void set_code(const Address& addr, Bytes code);
  /// Marks an account as created in this transaction (CREATE/CREATE2).
  void mark_created(const Address& addr);
  bool was_created(const Address& addr) const;

  // --- storage ---
  u256 storage(const Address& addr, const u256& key) const;
  void set_storage(const Address& addr, const u256& key, const u256& value);
  /// Value the slot had when the current transaction began (EIP-2200 gas).
  u256 original_storage(const Address& addr, const u256& key) const;
  // Transient storage (EIP-1153, TLOAD/TSTORE): cleared between txs.
  u256 transient_storage(const Address& addr, const u256& key) const;
  void set_transient_storage(const Address& addr, const u256& key, const u256& value);

  // --- warm/cold access tracking (EIP-2929) ---
  /// Returns true when the account was cold (first touch this tx).
  bool access_account(const Address& addr);
  /// Returns true when the slot was cold.
  bool access_storage(const Address& addr, const u256& key);
  bool is_warm_account(const Address& addr) const;

  // --- refunds (SSTORE clears) ---
  void add_refund(uint64_t amount);
  void sub_refund(uint64_t amount);
  uint64_t refund() const { return refund_; }

  // --- selfdestruct ---
  void selfdestruct(const Address& addr, const Address& beneficiary);
  bool is_destroyed(const Address& addr) const;

  // --- snapshots ---
  using Snapshot = size_t;
  Snapshot snapshot() const { return journal_.size(); }
  void revert_to(Snapshot snap);

  // --- introspection for traces ---
  struct StorageWrite {
    Address addr;
    u256 key;
    u256 value;
    friend bool operator==(const StorageWrite&, const StorageWrite&) = default;
  };
  /// Net storage modifications vs. the base state, sorted by (addr, key).
  std::vector<StorageWrite> storage_writes() const;
  /// The current transaction's storage writes, sorted by (addr, key): every
  /// slot written since begin_transaction() whose value now differs both from
  /// its value when the transaction began and from the base state. Walks only
  /// the slots this transaction wrote.
  std::vector<StorageWrite> tx_storage_writes() const;
  /// Addresses whose balance changed vs. the base state.
  std::vector<std::pair<Address, u256>> balance_changes() const;

 private:
  struct SlotKey {
    Address addr;
    u256 key;
    friend bool operator==(const SlotKey&, const SlotKey&) = default;
  };
  struct SlotKeyHasher {
    size_t operator()(const SlotKey& sk) const {
      return AddressHasher{}(sk.addr) ^ (U256Hasher{}(sk.key) * 0x9e3779b97f4a7c15ull);
    }
  };

  // Copy-on-read account cache entry. base_balance remembers the value at
  // first load so balance_changes() can diff without re-reading the base
  // (which may be an ORAM whose every read costs a full path access).
  struct Entry {
    Account account;
    u256 base_balance{};
    bool exists = false;
    bool code_loaded = false;
    Bytes code;
  };

  Entry& load(const Address& addr) const;
  void journal(std::function<void()> undo) { journal_.push_back(std::move(undo)); }

  const StateReader& base_;
  mutable std::unordered_map<Address, Entry, AddressHasher> entries_;
  mutable std::unordered_map<SlotKey, u256, SlotKeyHasher> storage_;
  mutable std::unordered_map<SlotKey, u256, SlotKeyHasher> base_storage_;
  mutable std::unordered_map<SlotKey, u256, SlotKeyHasher> original_storage_;
  std::unordered_map<SlotKey, u256, SlotKeyHasher> transient_;
  std::unordered_set<Address, AddressHasher> warm_accounts_;
  std::unordered_set<SlotKey, SlotKeyHasher> warm_slots_;
  std::unordered_set<Address, AddressHasher> created_;
  std::unordered_set<Address, AddressHasher> destroyed_;
  uint64_t refund_ = 0;
  mutable std::vector<std::function<void()>> journal_;
};

}  // namespace hardtape::state
