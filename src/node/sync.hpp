// Block synchronization into the ORAM (paper Fig. 3 step 11 + §IV-C Remark):
// the verifying half. The caller — the engine's one sync pass — installs.
//
// The Node is under the SP's control, so every datum fetched at sync time is
// verified: accounts against the trusted block's state root, storage slots
// against the (proven) account's storage root, and code against the
// (proven) code hash. Once a page is inside the ORAM, its ChaCha20-Poly1305
// slot seal protects its integrity, so no Merkle proofs are ever fetched
// during pre-execution — which is also what keeps pre-execution queries
// oblivious.
//
// Both entry points verify EVERYTHING before they return a single page, and
// install nothing themselves: a proof failure anywhere yields no pages, so
// the ORAM stays exactly as it was (fail closed; a partial install would
// mix two states and silently corrupt every pinned session). The staged
// pages are the one encoding of the page layout (oram/paged_state.hpp).
//  - verify_all(): the whole trusted state — the cold sync, which the caller
//    bulk-loads into a fresh tree;
//  - verify_delta(): only what changed between two states — the steady
//    state once the initial sync is done, written into the live tree.
// Every fetch is PINNED to the trusted state root, not to the node's head:
// the chain may advance (or reorg) mid-sync, and a proof fetched against a
// newer head would not verify against the root the user trusts.
#pragma once

#include <functional>

#include "node/node.hpp"
#include "oram/paged_state.hpp"

namespace hardtape::node {

class BlockSynchronizer {
 public:
  /// `trusted_state_root` is the root the user's trusted block hash commits
  /// to (in production, cross-checked with multiple nodes; here supplied by
  /// the caller).
  BlockSynchronizer(const NodeSimulator& node, const H256& trusted_state_root)
      : node_(node), state_root_(trusted_state_root) {}

  /// Full sync: verifies every account and every storage key the pinned
  /// state reports (a real deployment walks the state trie; the simulator
  /// enumerates) and stages all their pages into `pages`, in account order.
  /// Returns kBadProof on any failure, with `pages` empty.
  Status verify_all(oram::Pages& pages);

  /// Incremental sync from `old_world` (the previously installed snapshot)
  /// to the trusted root: re-verifies only changed accounts, re-proves only
  /// changed slots, and stages the changed pages into `pages` (empty on any
  /// failure). Returns kNotFound when the node has no snapshot for the
  /// trusted root.
  struct DeltaReport {
    uint64_t accounts_changed = 0;
    uint64_t slots_reverified = 0;
  };
  Status verify_delta(const state::WorldState& old_world, oram::Pages& pages,
                      DeltaReport* report = nullptr);

  uint64_t verified_accounts() const { return verified_accounts_; }
  uint64_t verified_slots() const { return verified_slots_; }

  /// Fault-injection hooks (the node feed is SP-controlled): when a hook
  /// returns true for an account (or an account's storage slot), a byte of
  /// the fetched Merkle proof is flipped before verification — a stale or
  /// tampered node response — which the real proof check then rejects with
  /// kBadProof, and no page of the pass is staged: fail closed.
  void set_proof_tamper(std::function<bool(const Address&)> hook) {
    proof_tamper_ = std::move(hook);
  }
  void set_storage_proof_tamper(std::function<bool(const Address&, const u256&)> hook) {
    storage_proof_tamper_ = std::move(hook);
  }

 private:
  /// One account's verify work: which slots to (re-)prove and which of the
  /// resulting pages to stage for installation.
  struct AccountTask {
    Address addr;
    std::vector<u256> verify_keys;      ///< slots to prove against the root
    std::vector<u256> install_groups;   ///< group indices to stage (sorted)
    bool install_meta = true;
    bool install_code = true;
  };
  /// Verifies the task against state_root_ and stages pages into `out`.
  /// Any failure leaves `out` meaningless.
  Status verify_account_task(const AccountTask& task, oram::Pages& out);

  const NodeSimulator& node_;
  H256 state_root_;
  std::function<bool(const Address&)> proof_tamper_;
  std::function<bool(const Address&, const u256&)> storage_proof_tamper_;
  uint64_t verified_accounts_ = 0;
  uint64_t verified_slots_ = 0;
};

}  // namespace hardtape::node
