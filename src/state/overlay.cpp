#include "state/overlay.hpp"

#include <algorithm>

#include "common/errors.hpp"

namespace hardtape::state {

void OverlayState::begin_transaction() {
  warm_accounts_.clear();
  warm_slots_.clear();
  original_storage_.clear();
  transient_.clear();
  created_.clear();
  refund_ = 0;
  journal_.clear();  // snapshots never span transactions
}

OverlayState::Entry& OverlayState::load(const Address& addr) const {
  auto it = entries_.find(addr);
  if (it != entries_.end()) return it->second;
  Entry entry;
  if (const auto base_account = base_.account(addr)) {
    entry.account = *base_account;
    entry.base_balance = base_account->balance;
    entry.exists = true;
  }
  return entries_.emplace(addr, std::move(entry)).first->second;
}

bool OverlayState::exists(const Address& addr) const { return load(addr).exists; }

u256 OverlayState::balance(const Address& addr) const { return load(addr).account.balance; }

void OverlayState::set_balance(const Address& addr, const u256& value) {
  Entry& entry = load(addr);
  const u256 prev = entry.account.balance;
  const bool existed = entry.exists;
  journal([this, addr, prev, existed] {
    Entry& e = entries_.at(addr);
    e.account.balance = prev;
    e.exists = existed;
  });
  entry.account.balance = value;
  entry.exists = true;
}

void OverlayState::add_balance(const Address& addr, const u256& value) {
  set_balance(addr, balance(addr) + value);
}

bool OverlayState::sub_balance(const Address& addr, const u256& value) {
  const u256 current = balance(addr);
  if (current < value) return false;
  set_balance(addr, current - value);
  return true;
}

uint64_t OverlayState::nonce(const Address& addr) const { return load(addr).account.nonce; }

void OverlayState::set_nonce(const Address& addr, uint64_t value) {
  Entry& entry = load(addr);
  const uint64_t prev = entry.account.nonce;
  const bool existed = entry.exists;
  journal([this, addr, prev, existed] {
    Entry& e = entries_.at(addr);
    e.account.nonce = prev;
    e.exists = existed;
  });
  entry.account.nonce = value;
  entry.exists = true;
}

Bytes OverlayState::code(const Address& addr) const {
  Entry& entry = load(addr);
  if (!entry.code_loaded) {
    entry.code = base_.code(addr);
    entry.code_loaded = true;
  }
  return entry.code;
}

H256 OverlayState::code_hash(const Address& addr) const {
  return load(addr).account.code_hash;
}

void OverlayState::set_code(const Address& addr, Bytes code) {
  Entry& entry = load(addr);
  const Bytes prev_code = entry.code_loaded ? entry.code : base_.code(addr);
  const H256 prev_hash = entry.account.code_hash;
  const bool existed = entry.exists;
  journal([this, addr, prev_code, prev_hash, existed] {
    Entry& e = entries_.at(addr);
    e.code = prev_code;
    e.code_loaded = true;
    e.account.code_hash = prev_hash;
    e.exists = existed;
  });
  entry.account.code_hash = crypto::keccak256(code);
  entry.code = std::move(code);
  entry.code_loaded = true;
  entry.exists = true;
}

void OverlayState::mark_created(const Address& addr) {
  if (created_.insert(addr).second) {
    journal([this, addr] { created_.erase(addr); });
  }
}

bool OverlayState::was_created(const Address& addr) const { return created_.contains(addr); }

u256 OverlayState::storage(const Address& addr, const u256& key) const {
  const SlotKey sk{addr, key};
  const auto it = storage_.find(sk);
  if (it != storage_.end()) return it->second;
  const u256 value = base_.storage(addr, key);
  storage_.emplace(sk, value);
  base_storage_.emplace(sk, value);
  return value;
}

void OverlayState::set_storage(const Address& addr, const u256& key, const u256& value) {
  const SlotKey sk{addr, key};
  const u256 prev = storage(addr, key);  // also populates the cache
  original_storage_.try_emplace(sk, prev);
  journal([this, sk, prev] { storage_[sk] = prev; });
  storage_[sk] = value;
}

u256 OverlayState::original_storage(const Address& addr, const u256& key) const {
  const auto it = original_storage_.find(SlotKey{addr, key});
  if (it != original_storage_.end()) return it->second;
  return storage(addr, key);  // untouched this tx: original == current
}

u256 OverlayState::transient_storage(const Address& addr, const u256& key) const {
  const auto it = transient_.find(SlotKey{addr, key});
  return it == transient_.end() ? u256{} : it->second;
}

void OverlayState::set_transient_storage(const Address& addr, const u256& key,
                                         const u256& value) {
  const SlotKey sk{addr, key};
  const auto it = transient_.find(sk);
  const u256 prev = it == transient_.end() ? u256{} : it->second;
  journal([this, sk, prev] { transient_[sk] = prev; });
  transient_[sk] = value;
}

bool OverlayState::access_account(const Address& addr) {
  if (!warm_accounts_.insert(addr).second) return false;
  journal([this, addr] { warm_accounts_.erase(addr); });
  return true;
}

bool OverlayState::access_storage(const Address& addr, const u256& key) {
  const SlotKey sk{addr, key};
  if (!warm_slots_.insert(sk).second) return false;
  journal([this, sk] { warm_slots_.erase(sk); });
  return true;
}

bool OverlayState::is_warm_account(const Address& addr) const {
  return warm_accounts_.contains(addr);
}

void OverlayState::add_refund(uint64_t amount) {
  journal([this, prev = refund_] { refund_ = prev; });
  refund_ += amount;
}

void OverlayState::sub_refund(uint64_t amount) {
  journal([this, prev = refund_] { refund_ = prev; });
  refund_ = amount > refund_ ? 0 : refund_ - amount;
}

void OverlayState::selfdestruct(const Address& addr, const Address& beneficiary) {
  const u256 funds = balance(addr);
  add_balance(beneficiary, funds);
  set_balance(addr, u256{});
  // Post-Cancun (EIP-6780): the account is removed only when created in the
  // same transaction.
  if (was_created(addr) && destroyed_.insert(addr).second) {
    journal([this, addr] { destroyed_.erase(addr); });
  }
}

bool OverlayState::is_destroyed(const Address& addr) const {
  return destroyed_.contains(addr);
}

void OverlayState::revert_to(Snapshot snap) {
  if (snap > journal_.size()) throw UsageError("overlay: bad snapshot");
  while (journal_.size() > snap) {
    journal_.back()();
    journal_.pop_back();
  }
}

namespace {

void sort_by_slot(std::vector<OverlayState::StorageWrite>& writes) {
  std::sort(writes.begin(), writes.end(), [](const auto& a, const auto& b) {
    if (a.addr != b.addr) return a.addr < b.addr;
    return a.key < b.key;
  });
}

}  // namespace

std::vector<OverlayState::StorageWrite> OverlayState::storage_writes() const {
  std::vector<StorageWrite> out;
  for (const auto& [sk, value] : storage_) {
    if (base_storage_.at(sk) != value) {
      out.push_back({sk.addr, sk.key, value});
    }
  }
  sort_by_slot(out);
  return out;
}

std::vector<OverlayState::StorageWrite> OverlayState::tx_storage_writes() const {
  std::vector<StorageWrite> out;
  for (const auto& [sk, original] : original_storage_) {
    const u256& value = storage_.at(sk);
    if (value != original && value != base_storage_.at(sk)) {
      out.push_back({sk.addr, sk.key, value});
    }
  }
  sort_by_slot(out);
  return out;
}

std::vector<std::pair<Address, u256>> OverlayState::balance_changes() const {
  std::vector<std::pair<Address, u256>> out;
  for (const auto& [addr, entry] : entries_) {
    if (entry.account.balance != entry.base_balance) {
      out.emplace_back(addr, entry.account.balance);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hardtape::state
