// Tests for the world state and the journaled overlay.
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/random.hpp"
#include "state/overlay.hpp"
#include "state/world_state.hpp"

namespace hardtape::state {
namespace {

Address addr(uint8_t tag) {
  Address a;
  a.bytes.fill(0);
  a.bytes[19] = tag;
  return a;
}

TEST(Account, RlpRoundTrip) {
  Account account;
  account.balance = u256::from_string("0xde0b6b3a7640000");  // 1 ether
  account.nonce = 42;
  account.storage_root = crypto::keccak256("root");
  account.code_hash = crypto::keccak256("code");
  const Account back = Account::rlp_decode(account.rlp_encode());
  EXPECT_EQ(back, account);
}

TEST(Account, EmptyDetection) {
  Account account;
  EXPECT_TRUE(account.is_empty());
  EXPECT_FALSE(account.has_code());
  // A fresh account carries keccak256("").
  EXPECT_EQ(account.code_hash.hex(),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
  account.balance = u256{1};
  EXPECT_FALSE(account.is_empty());
}

TEST(WorldState, AccountLifecycle) {
  WorldState ws;
  EXPECT_FALSE(ws.account(addr(1)).has_value());
  ws.set_balance(addr(1), u256{1000});
  ws.set_nonce(addr(1), 5);
  const auto account = ws.account(addr(1));
  ASSERT_TRUE(account.has_value());
  EXPECT_EQ(account->balance, u256{1000});
  EXPECT_EQ(account->nonce, 5u);
  ws.delete_account(addr(1));
  EXPECT_FALSE(ws.account(addr(1)).has_value());
}

TEST(WorldState, CodeStorage) {
  WorldState ws;
  const Bytes code = {0x60, 0x01, 0x60, 0x02, 0x01};
  ws.set_code(addr(2), code);
  EXPECT_EQ(ws.code(addr(2)), code);
  EXPECT_EQ(ws.account(addr(2))->code_hash, crypto::keccak256(code));
  EXPECT_TRUE(ws.code(addr(3)).empty());
}

TEST(WorldState, StorageAndRoot) {
  WorldState ws;
  ws.set_storage(addr(1), u256{1}, u256{100});
  EXPECT_EQ(ws.storage(addr(1), u256{1}), u256{100});
  EXPECT_EQ(ws.storage(addr(1), u256{2}), u256{});
  const H256 root1 = ws.state_root();
  ws.set_storage(addr(1), u256{1}, u256{200});
  EXPECT_NE(ws.state_root(), root1);
  ws.set_storage(addr(1), u256{1}, u256{100});
  EXPECT_EQ(ws.state_root(), root1);
  // Zeroing a slot removes it from the trie.
  ws.set_storage(addr(1), u256{1}, u256{});
  EXPECT_EQ(ws.storage_root(addr(1)), trie::MerklePatriciaTrie::empty_root_hash());
}

TEST(WorldState, AccountProofVerifies) {
  WorldState ws;
  ws.set_balance(addr(1), u256{777});
  ws.set_balance(addr(2), u256{888});
  const H256 root = ws.state_root();
  const auto proof = ws.prove_account(addr(1));
  const H256 key = crypto::keccak256(addr(1).view());
  const auto result = trie::MerklePatriciaTrie::verify_proof(root, key.view(), proof);
  ASSERT_TRUE(result.valid);
  ASSERT_TRUE(result.value.has_value());
  EXPECT_EQ(Account::rlp_decode(*result.value).balance, u256{777});
}

TEST(WorldState, StorageProofVerifies) {
  WorldState ws;
  ws.set_storage(addr(1), u256{5}, u256{12345});
  ws.set_storage(addr(1), u256{6}, u256{67890});
  const H256 sroot = ws.storage_root(addr(1));
  const auto proof = ws.prove_storage(addr(1), u256{5});
  const H256 key = crypto::keccak256(u256{5}.to_be_bytes_vec());
  const auto result = trie::MerklePatriciaTrie::verify_proof(sroot, key.view(), proof);
  ASSERT_TRUE(result.valid);
  ASSERT_TRUE(result.value.has_value());
}

TEST(WorldState, EnumerationIsSorted) {
  WorldState ws;
  ws.set_balance(addr(9), u256{1});
  ws.set_balance(addr(3), u256{1});
  ws.set_storage(addr(3), u256{20}, u256{1});
  ws.set_storage(addr(3), u256{10}, u256{1});
  const auto accounts = ws.all_accounts();
  ASSERT_EQ(accounts.size(), 2u);
  EXPECT_EQ(accounts[0], addr(3));
  const auto keys = ws.storage_keys(addr(3));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], u256{10});
}

// --- OverlayState ---

class OverlayTest : public ::testing::Test {
 protected:
  OverlayTest() : overlay_(base_) {
    base_.put_account(addr(1), Account{.balance = u256{1000}, .nonce = 7});
    base_.put_storage(addr(1), u256{1}, u256{11});
    base_.put_code(addr(2), Bytes{0xde, 0xad});
  }
  InMemoryState base_;
  OverlayState overlay_;
};

TEST_F(OverlayTest, ReadThrough) {
  EXPECT_EQ(overlay_.balance(addr(1)), u256{1000});
  EXPECT_EQ(overlay_.nonce(addr(1)), 7u);
  EXPECT_EQ(overlay_.storage(addr(1), u256{1}), u256{11});
  EXPECT_EQ(overlay_.code(addr(2)), (Bytes{0xde, 0xad}));
  EXPECT_FALSE(overlay_.exists(addr(9)));
  EXPECT_TRUE(overlay_.exists(addr(1)));
}

TEST_F(OverlayTest, WritesShadowBase) {
  overlay_.set_balance(addr(1), u256{500});
  overlay_.set_storage(addr(1), u256{1}, u256{99});
  EXPECT_EQ(overlay_.balance(addr(1)), u256{500});
  EXPECT_EQ(overlay_.storage(addr(1), u256{1}), u256{99});
  // Base untouched.
  EXPECT_EQ(base_.account(addr(1))->balance, u256{1000});
  EXPECT_EQ(base_.storage(addr(1), u256{1}), u256{11});
}

TEST_F(OverlayTest, SubBalanceChecksFunds) {
  EXPECT_FALSE(overlay_.sub_balance(addr(1), u256{1001}));
  EXPECT_EQ(overlay_.balance(addr(1)), u256{1000});
  EXPECT_TRUE(overlay_.sub_balance(addr(1), u256{400}));
  EXPECT_EQ(overlay_.balance(addr(1)), u256{600});
}

TEST_F(OverlayTest, SnapshotRevertRestoresEverything) {
  overlay_.access_account(addr(1));
  const auto snap = overlay_.snapshot();
  overlay_.set_balance(addr(1), u256{1});
  overlay_.set_nonce(addr(1), 100);
  overlay_.set_storage(addr(1), u256{1}, u256{22});
  overlay_.set_storage(addr(1), u256{2}, u256{33});
  overlay_.set_code(addr(5), Bytes{0x01});
  overlay_.set_transient_storage(addr(1), u256{9}, u256{44});
  overlay_.add_refund(4800);
  EXPECT_TRUE(overlay_.access_account(addr(3)));  // cold
  EXPECT_TRUE(overlay_.access_storage(addr(1), u256{77}));

  overlay_.revert_to(snap);
  EXPECT_EQ(overlay_.balance(addr(1)), u256{1000});
  EXPECT_EQ(overlay_.nonce(addr(1)), 7u);
  EXPECT_EQ(overlay_.storage(addr(1), u256{1}), u256{11});
  EXPECT_EQ(overlay_.storage(addr(1), u256{2}), u256{});
  EXPECT_TRUE(overlay_.code(addr(5)).empty());
  EXPECT_EQ(overlay_.transient_storage(addr(1), u256{9}), u256{});
  EXPECT_EQ(overlay_.refund(), 0u);
  // Warm sets rolled back: these are cold again...
  EXPECT_TRUE(overlay_.access_account(addr(3)));
  EXPECT_TRUE(overlay_.access_storage(addr(1), u256{77}));
  // ...but the pre-snapshot access survives.
  EXPECT_FALSE(overlay_.access_account(addr(1)));
}

TEST_F(OverlayTest, NestedSnapshots) {
  const auto outer = overlay_.snapshot();
  overlay_.set_balance(addr(1), u256{900});
  const auto inner = overlay_.snapshot();
  overlay_.set_balance(addr(1), u256{800});
  overlay_.revert_to(inner);
  EXPECT_EQ(overlay_.balance(addr(1)), u256{900});
  overlay_.revert_to(outer);
  EXPECT_EQ(overlay_.balance(addr(1)), u256{1000});
  EXPECT_THROW(overlay_.revert_to(99), UsageError);
}

TEST_F(OverlayTest, OriginalStorageTracksTxStart) {
  EXPECT_EQ(overlay_.original_storage(addr(1), u256{1}), u256{11});
  overlay_.set_storage(addr(1), u256{1}, u256{50});
  overlay_.set_storage(addr(1), u256{1}, u256{60});
  EXPECT_EQ(overlay_.original_storage(addr(1), u256{1}), u256{11});
  // New transaction: original becomes the carried-over overlay value.
  overlay_.begin_transaction();
  EXPECT_EQ(overlay_.storage(addr(1), u256{1}), u256{60});
  EXPECT_EQ(overlay_.original_storage(addr(1), u256{1}), u256{60});
}

TEST_F(OverlayTest, BeginTransactionResetsWarmSetsButKeepsWrites) {
  overlay_.set_balance(addr(1), u256{123});
  EXPECT_TRUE(overlay_.access_account(addr(1)));
  EXPECT_FALSE(overlay_.access_account(addr(1)));
  overlay_.begin_transaction();
  EXPECT_TRUE(overlay_.access_account(addr(1)));  // cold again
  EXPECT_EQ(overlay_.balance(addr(1)), u256{123});  // write kept
}

TEST_F(OverlayTest, WarmColdSemantics) {
  EXPECT_TRUE(overlay_.access_account(addr(7)));
  EXPECT_FALSE(overlay_.access_account(addr(7)));
  EXPECT_TRUE(overlay_.is_warm_account(addr(7)));
  EXPECT_TRUE(overlay_.access_storage(addr(7), u256{1}));
  EXPECT_FALSE(overlay_.access_storage(addr(7), u256{1}));
  EXPECT_TRUE(overlay_.access_storage(addr(7), u256{2}));
}

TEST_F(OverlayTest, RefundArithmetic) {
  overlay_.add_refund(100);
  overlay_.add_refund(50);
  EXPECT_EQ(overlay_.refund(), 150u);
  overlay_.sub_refund(200);  // clamps at zero
  EXPECT_EQ(overlay_.refund(), 0u);
}

TEST_F(OverlayTest, SelfdestructSemantics) {
  // Pre-existing account: only the balance moves (EIP-6780).
  overlay_.selfdestruct(addr(1), addr(2));
  EXPECT_EQ(overlay_.balance(addr(1)), u256{});
  EXPECT_EQ(overlay_.balance(addr(2)), u256{1000});
  EXPECT_FALSE(overlay_.is_destroyed(addr(1)));
  // Freshly created account: actually destroyed.
  overlay_.mark_created(addr(8));
  overlay_.set_balance(addr(8), u256{5});
  overlay_.selfdestruct(addr(8), addr(2));
  EXPECT_TRUE(overlay_.is_destroyed(addr(8)));
  EXPECT_EQ(overlay_.balance(addr(2)), u256{1005});
}

TEST_F(OverlayTest, StorageWritesReportNetChanges) {
  overlay_.set_storage(addr(1), u256{1}, u256{99});
  overlay_.set_storage(addr(1), u256{2}, u256{5});
  overlay_.set_storage(addr(1), u256{2}, u256{});   // write then zero: net change
  overlay_.set_storage(addr(1), u256{3}, u256{7});
  overlay_.set_storage(addr(1), u256{3}, u256{});   // never existed, back to zero
  const auto writes = overlay_.storage_writes();
  // slot1: 11 -> 99 (changed), slot2: 0 -> 0 (no net change), slot3: 0 -> 0.
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].key, u256{1});
  EXPECT_EQ(writes[0].value, u256{99});
}

TEST_F(OverlayTest, BalanceChangesReport) {
  overlay_.set_balance(addr(1), u256{999});
  overlay_.add_balance(addr(4), u256{1});
  overlay_.balance(addr(2));  // read only: no change
  const auto changes = overlay_.balance_changes();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].first, addr(1));
  EXPECT_EQ(changes[0].second, u256{999});
  EXPECT_EQ(changes[1].first, addr(4));
}

TEST_F(OverlayTest, TransientStorageClearedPerTx) {
  overlay_.set_transient_storage(addr(1), u256{1}, u256{42});
  EXPECT_EQ(overlay_.transient_storage(addr(1), u256{1}), u256{42});
  overlay_.begin_transaction();
  EXPECT_EQ(overlay_.transient_storage(addr(1), u256{1}), u256{});
}

}  // namespace
}  // namespace hardtape::state
