#include "node/sync.hpp"

#include <algorithm>
#include <unordered_set>

#include "crypto/keccak.hpp"
#include "trie/rlp.hpp"

namespace hardtape::node {

namespace {
void tamper_proof(trie::MerkleProof& proof) {
  // Corrupt one proof byte and let the genuine Merkle verification reject it.
  for (Bytes& node : proof) {
    if (!node.empty()) {
      node[0] ^= 0x01;
      break;
    }
  }
}
}  // namespace

Status BlockSynchronizer::verify_account_task(const AccountTask& task,
                                              oram::Pages& out) {
  using trie::MerklePatriciaTrie;
  const Address& addr = task.addr;

  // 1. Fetch and verify the account against the trusted state root. Always
  // pinned: the node's head may have moved (or reorged) since the root was
  // trusted, and a head-pinned proof would not verify against it.
  auto account_response = node_.fetch_account(addr, state_root_);
  if (proof_tamper_ && proof_tamper_(addr)) {
    // Injected stale/tampered node response.
    tamper_proof(account_response.proof);
  }
  const H256 account_key = crypto::keccak256(addr.view());
  const auto account_check = MerklePatriciaTrie::verify_proof(
      state_root_, account_key.view(), account_response.proof);
  if (!account_check.valid) return Status::kBadProof;

  state::Account account;
  if (account_check.value.has_value()) {
    // The proof pins the account RLP exactly: reject a response that
    // disagrees with its own proof.
    if (*account_check.value != account_response.account_rlp) return Status::kBadProof;
    account = state::Account::rlp_decode(*account_check.value);
  } else {
    // Proven absent: a non-empty claimed account is a lie.
    if (!account_response.account_rlp.empty()) return Status::kBadProof;
  }
  ++verified_accounts_;

  // 2. Fetch and verify the code against the proven code hash. (An absent
  // account's default code hash is keccak(""), so the node's empty answer
  // verifies too.)
  const Bytes code = node_.fetch_code(addr, state_root_);
  if (crypto::keccak256(code) != account.code_hash) return Status::kBadProof;

  // 3. Fetch and verify each storage record against the storage root.
  struct VerifiedSlot {
    u256 key;
    u256 value;
  };
  std::vector<VerifiedSlot> slots;
  for (const u256& key : task.verify_keys) {
    auto storage_response = node_.fetch_storage(addr, key, state_root_);
    if (storage_proof_tamper_ && storage_proof_tamper_(addr, key)) {
      tamper_proof(storage_response.proof);
    }
    const H256 slot_key = crypto::keccak256(key.to_be_bytes_vec());
    const auto check = MerklePatriciaTrie::verify_proof(
        account.storage_root, slot_key.view(), storage_response.proof);
    if (!check.valid) return Status::kBadProof;
    u256 proven_value{};
    if (check.value.has_value()) {
      const trie::RlpItem item = trie::rlp_decode(*check.value);
      proven_value = u256::from_be_bytes(item.bytes());
    }
    if (proven_value != storage_response.value) return Status::kBadProof;
    slots.push_back({key, proven_value});
    ++verified_slots_;
  }

  // 4. Everything verified: STAGE pages (the caller installs, and only
  // after every other account of the pass verified too).
  if (task.install_meta) {
    out.emplace_back(oram::page_id(oram::PageType::kAccountMeta, addr, u256{}),
                     oram::AccountMetaPage{account, code.size()}.serialize());
  }

  // Storage groups (absent records stay zero). Only groups in
  // install_groups are staged — for a delta, the verify_keys of a changed
  // group cover every live slot of that group plus the slots that went to
  // zero, so the staged page is complete for the new state.
  std::unordered_map<u256, oram::StorageGroupPage, U256Hasher> groups;
  for (const VerifiedSlot& slot : slots) {
    groups[oram::storage_group(slot.key)].set(slot.key, slot.value);
  }
  for (const u256& group_index : task.install_groups) {
    const auto it = groups.find(group_index);
    const oram::StorageGroupPage page =
        it == groups.end() ? oram::StorageGroupPage{} : it->second;
    out.emplace_back(oram::page_id(oram::PageType::kStorageGroup, addr, group_index),
                     page.serialize());
  }

  if (task.install_code) {
    for (uint64_t i = 0; i < oram::code_page_count(code.size()); ++i) {
      out.emplace_back(oram::page_id(oram::PageType::kCode, addr, u256{i}),
                       oram::code_page(code, i));
    }
  }
  return Status::kOk;
}

Status BlockSynchronizer::verify_all(oram::Pages& pages) {
  // Enumerate from the snapshot pinned by the trusted root when the node has
  // one (the live-chain path); fall back to the node's current world for the
  // pre-first-block setup flow.
  const auto pinned = node_.world_at(state_root_);
  const state::WorldState& world = pinned ? *pinned : node_.world();
  for (const Address& addr : world.all_accounts()) {
    AccountTask task;
    task.addr = addr;
    task.verify_keys = world.storage_keys(addr);  // sorted
    for (const u256& key : task.verify_keys) {
      const u256 group = oram::storage_group(key);
      if (task.install_groups.empty() || task.install_groups.back() != group) {
        task.install_groups.push_back(group);
      }
    }
    const Status status = verify_account_task(task, pages);
    if (status != Status::kOk) {
      pages.clear();  // nothing staged: fail closed
      return status;
    }
  }
  return Status::kOk;
}

Status BlockSynchronizer::verify_delta(const state::WorldState& old_world,
                                       oram::Pages& pages, DeltaReport* report) {
  const auto pinned = node_.world_at(state_root_);
  if (!pinned) return Status::kNotFound;
  const state::WorldState& new_world = *pinned;

  const state::StateDelta delta = state::diff_worlds(old_world, new_world);

  // Verify every changed account and stage its pages. A group page holds 32
  // slots, so re-installing a changed group requires proving every live
  // slot of that group in the new state — plus the changed slots
  // themselves, so a slot that went to zero is proven absent (and the stale
  // value in the old page gets overwritten with the proven zero).
  uint64_t slots_reverified = 0;
  for (const auto& account_delta : delta.accounts) {
    AccountTask task;
    task.addr = account_delta.addr;
    task.install_meta = account_delta.meta_changed || account_delta.code_changed;
    task.install_code = account_delta.code_changed;

    std::unordered_set<u256, U256Hasher> changed_groups;
    for (const u256& key : account_delta.changed_keys) {
      changed_groups.insert(oram::storage_group(key));
    }
    task.verify_keys = account_delta.changed_keys;
    for (const u256& key : new_world.storage_keys(account_delta.addr)) {
      if (changed_groups.count(oram::storage_group(key))) task.verify_keys.push_back(key);
    }
    std::sort(task.verify_keys.begin(), task.verify_keys.end());
    task.verify_keys.erase(
        std::unique(task.verify_keys.begin(), task.verify_keys.end()),
        task.verify_keys.end());
    task.install_groups.assign(changed_groups.begin(), changed_groups.end());
    std::sort(task.install_groups.begin(), task.install_groups.end());

    const Status status = verify_account_task(task, pages);
    if (status != Status::kOk) {
      pages.clear();  // nothing staged: fail closed
      return status;
    }
    slots_reverified += task.verify_keys.size();
  }

  if (report) {
    report->accounts_changed = delta.accounts.size();
    report->slots_reverified = slots_reverified;
  }
  return Status::kOk;
}

}  // namespace hardtape::node
