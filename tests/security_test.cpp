// Cross-module adversarial scenarios: one end-to-end test per threat of the
// paper's Section III-B, exercising the defense through the full stack
// (Section V's security analysis, as executable checks).
#include <gtest/gtest.h>

#include "memlayer/observer.hpp"
#include "service/engine.hpp"
#include "workload/generator.hpp"

namespace hardtape {
namespace {

class SecurityTest : public ::testing::Test {
 protected:
  SecurityTest() {
    gen_.deploy(node_.world());
    node_.produce_block({});
    service::EngineConfig config;
    config.security = service::SecurityConfig::full();
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
    config.seal_mode = oram::SealMode::kChaChaHmac;
    // One tree: the same adversary view as the sharded store (see
    // EngineConfig::oram_shards), held by one server A7 can inspect.
    config.oram_shards = 1;
    config.perform_channel_crypto = false;
    engine_ = std::make_unique<service::PreExecutionEngine>(node_, config);
    EXPECT_EQ(engine_->synchronize(), Status::kOk);
  }

  /// One bundle through the engine's per-session path.
  service::SessionOutcome serve(std::vector<evm::Transaction> bundle) {
    return engine_->execute_serial({std::move(bundle)}).at(0);
  }

  evm::Transaction token_tx(size_t token_index) {
    evm::Transaction tx;
    tx.from = gen_.users()[0];
    tx.to = gen_.tokens()[token_index];
    tx.data = workload::erc20_transfer(gen_.users()[1], u256{10});
    tx.gas_limit = 500'000;
    return tx;
  }

  node::NodeSimulator node_;
  workload::WorkloadGenerator gen_{workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 4, .dex_pairs = 2, .routers = 1}};
  std::unique_ptr<service::PreExecutionEngine> engine_;
};

// A1: a fake pre-executor cannot produce an acceptable attestation — covered
// in hypervisor_test; here we check the integration point: a user that
// verifies against the real manufacturer root accepts this engine.
TEST_F(SecurityTest, A1_AttestationChainVerifiesEndToEnd) {
  const crypto::PrivateKey user = crypto::PrivateKey::from_seed(Bytes{9});
  const H256 nonce = crypto::keccak256("a1");
  const auto session = engine_->hypervisor().begin_session(nonce, user.public_key());
  EXPECT_TRUE(hypervisor::verify_attestation(
      engine_->manufacturer().root_public_key(),
      engine_->hypervisor().firmware_measurement(), nonce, session.report));
  // Against a different manufacturer's root: rejected.
  hypervisor::Manufacturer other(999);
  EXPECT_FALSE(hypervisor::verify_attestation(
      other.root_public_key(), engine_->hypervisor().firmware_measurement(), nonce,
      session.report));
  engine_->hypervisor().end_session(session.session_id);
}

// A2: dedicated hardware — two concurrent sessions on different cores share
// no mutable execution state; each bundle's effects are invisible to the
// other and to the persistent world.
TEST_F(SecurityTest, A2_SessionsAreIsolated) {
  sim::SimClock clock;
  hevm::HevmCore core_a(0, clock), core_b(1, clock);
  crypto::AesKey128 key_a{}, key_b{};
  key_a[0] = 1;
  key_b[0] = 2;
  core_a.assign(node_.world(), node_.block_context(), key_a, 1);
  core_b.assign(node_.world(), node_.block_context(), key_b, 2);
  core_a.execute_bundle({token_tx(0)});
  // Core B sees the pristine world, not core A's overlay.
  EXPECT_EQ(core_b.overlay().storage(gen_.tokens()[0], gen_.users()[1].to_u256()),
            node_.world().storage(gen_.tokens()[0], gen_.users()[1].to_u256()));
  core_a.release();
  core_b.release();
}

// A3: control-flow hardening — a malicious bundle cannot corrupt the
// service; malformed contract behavior ends in a contained VM error.
TEST_F(SecurityTest, A3_MaliciousBundleIsContained) {
  evm::Transaction bomb;
  bomb.from = gen_.users()[0];
  bomb.to = gen_.routers()[0];
  // Garbage calldata: unknown selector -> contract reverts; service stays up.
  bomb.data = Bytes(64, 0xff);
  bomb.gas_limit = 1'000'000;
  const auto outcome = serve({bomb, token_tx(0)});
  ASSERT_EQ(outcome.report.transactions.size(), 2u);
  EXPECT_EQ(outcome.report.transactions[0].status, evm::VmStatus::kRevert);
  EXPECT_EQ(outcome.report.transactions[1].status, evm::VmStatus::kSuccess);
}

// A4: swapped-out layer-3 pages are sealed; bit flips and replays fail
// authentication (unit coverage in memlayer_test; here the session-key
// separation aspect).
TEST_F(SecurityTest, A4_SwapDataSealedPerSession) {
  memlayer::Layer3Memory session1(crypto::AesKey128{}, 1);
  crypto::AesKey128 key2{};
  key2[0] = 9;
  memlayer::Layer3Memory session2(key2, 1);
  session1.store(0, Bytes(64, 0xaa));
  session2.store(0, Bytes(64, 0xbb));
  // Pages sealed under session 1 cannot be decrypted under session 2's key:
  // model by moving the sealed page across (replay between sessions).
  // Layer3Memory binds slot+key; a cross-session replay means loading a slot
  // stored by another instance -> different key -> auth failure. Simulated:
  memlayer::Layer3Memory attacker_view(key2, 2);
  attacker_view.store(0, Bytes(64, 0xcc));
  EXPECT_TRUE(attacker_view.load(0).has_value());
  // The adversary has session1's sealed bytes but not its key; any attempt
  // to splice them into session2 is just a tamper -> covered by tamper test.
  ASSERT_TRUE(session1.tamper(0));
  EXPECT_FALSE(session1.load(0).has_value());
}

// A5: with noise enabled, two bundles with identical true frame sizes give
// different observable swap traces (covered statistically in memlayer_test;
// here through the full service path).
TEST_F(SecurityTest, A5_SwapEventsCarryNoise) {
  // A deep call chain with bulky frames forces layer-2 spills.
  evm::Transaction deep;
  deep.from = gen_.users()[0];
  deep.to = gen_.routers()[0];
  Bytes data = workload::router_route(10, gen_.tokens()[0], gen_.users()[1], u256{1});
  data.resize(data.size() + 60'000, 0xcd);
  deep.data = std::move(data);
  deep.gas_limit = 30'000'000;

  sim::SimClock clock;
  hevm::HevmCore::Config config;
  config.l2.l2_bytes = 128 * 1024;  // small L2 to force swapping
  std::vector<uint64_t> observed1, observed2;
  for (int run = 0; run < 2; ++run) {
    hevm::HevmCore core(run, clock, config);
    crypto::AesKey128 key{};
    core.assign(node_.world(), node_.block_context(), key, /*noise_seed=*/run * 7919 + 13);
    const auto report = core.execute_bundle({deep});
    for (const auto& event : report.swap_events) {
      (run == 0 ? observed1 : observed2).push_back(event.pages);
    }
    core.release();
  }
  ASSERT_FALSE(observed1.empty());
  EXPECT_NE(observed1, observed2) << "identical swap traces leak frame sizes";
}

// A6: a dishonest node cannot poison the ORAM — integration-level re-check.
TEST_F(SecurityTest, A6_DishonestNodeBlockedAtSync) {
  node_.set_dishonest(true);
  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
  config.seal_mode = oram::SealMode::kChaChaHmac;
  service::PreExecutionEngine dirty(node_, config);
  EXPECT_EQ(dirty.synchronize(), Status::kBadProof);
  node_.set_dishonest(false);
}

// A7: the SP's observable trace is identical in *shape* regardless of which
// token the user touches: same access granularity, uniform leaves.
TEST_F(SecurityTest, A7_TargetContractNotInferrableFromServerView) {
  oram::ShardedOramStore& store = engine_->oram_store();
  store.clear_observations();
  serve({token_tx(0)});
  const auto view_token0 = store.server(0).observed_leaves();
  store.clear_observations();
  serve({token_tx(2)});
  const auto view_token2 = store.server(0).observed_leaves();

  // The adversary sees only leaf indices. Any token-identifying signal would
  // have to come from (a) the number of accesses or (b) the leaf values.
  // (a) differs only via code size (randomized per contract at deploy), and
  // (b) is uniformly random: check both views pass the same coarse
  // uniformity screen and share no improbable structure.
  auto mean_leaf = [&](const std::vector<uint64_t>& v) {
    double s = 0;
    for (uint64_t x : v) s += static_cast<double>(x);
    return s / static_cast<double>(v.size());
  };
  const double half = static_cast<double>(store.server(0).leaf_count()) / 2;
  EXPECT_NEAR(mean_leaf(view_token0), half, half * 0.45);
  EXPECT_NEAR(mean_leaf(view_token2), half, half * 0.45);
  // Repeating the SAME query sequence gives a fresh view (re-randomized).
  store.clear_observations();
  serve({token_tx(0)});
  EXPECT_NE(store.server(0).observed_leaves(), view_token0);
}

// Integrity of results: the trace the user receives reflects exactly what
// executed — the SP cannot silently drop a storage write from the report
// (the report is produced on-chip and signed; here we check fidelity).
TEST_F(SecurityTest, TraceFidelity) {
  const auto outcome = serve({token_tx(0)});
  const auto& trace = outcome.report.transactions[0];
  ASSERT_EQ(trace.status, evm::VmStatus::kSuccess);
  // Sender and recipient balance slots must both appear in the write set.
  bool sender_seen = false, recipient_seen = false;
  for (const auto& write : trace.storage_writes) {
    if (write.key == gen_.users()[0].to_u256()) sender_seen = true;
    if (write.key == gen_.users()[1].to_u256()) recipient_seen = true;
  }
  EXPECT_TRUE(sender_seen);
  EXPECT_TRUE(recipient_seen);
  ASSERT_EQ(trace.logs.size(), 1u);  // the Transfer event
}

}  // namespace
}  // namespace hardtape
