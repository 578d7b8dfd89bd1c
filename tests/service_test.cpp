// End-to-end integration tests of one session through the pre-execution
// engine (paper Fig. 3), on the serial path the paper-figure benches run.
#include <gtest/gtest.h>

#include "service/engine.hpp"
#include "workload/generator.hpp"

namespace hardtape::service {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    gen_.deploy(node_.world());
    node_.produce_block({});
  }

  EngineConfig make_config(SecurityConfig security) {
    EngineConfig config;
    config.security = security;
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
    config.seal_mode = oram::SealMode::kChaChaHmac;
    config.perform_channel_crypto = false;  // keep tests fast; crypto has its own tests
    return config;
  }

  std::vector<evm::Transaction> small_bundle() {
    evm::Transaction tx;
    tx.from = gen_.users()[0];
    tx.to = gen_.tokens()[0];
    tx.data = workload::erc20_transfer(gen_.users()[1], u256{10});
    tx.gas_limit = 500'000;
    return {tx};
  }

  /// One bundle through the engine's per-session path (bundle id 0).
  static SessionOutcome serve(PreExecutionEngine& engine,
                              std::vector<evm::Transaction> bundle) {
    return engine.execute_serial({std::move(bundle)}).at(0);
  }

  node::NodeSimulator node_;
  workload::WorkloadGenerator gen_{workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 1}};
};

TEST_F(ServiceTest, RawConfigExecutesBundle) {
  PreExecutionEngine engine(node_, make_config(SecurityConfig::raw()));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  const auto outcome = serve(engine, small_bundle());
  EXPECT_EQ(outcome.status, Status::kOk);
  ASSERT_EQ(outcome.report.transactions.size(), 1u);
  EXPECT_EQ(outcome.report.transactions[0].status, evm::VmStatus::kSuccess);
  EXPECT_GT(outcome.end_to_end_ns, 0u);
  EXPECT_EQ(outcome.query_stats.oram_queries, 0u);  // all local in -raw
  EXPECT_GT(outcome.query_stats.local_reads, 0u);
  EXPECT_EQ(outcome.crypto_time_ns, 0u);
}

TEST_F(ServiceTest, FullConfigRoutesThroughOram) {
  PreExecutionEngine engine(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  const uint64_t walks_after_sync = engine.oram_store().snapshot().total_walks;
  const auto outcome = serve(engine, small_bundle());
  EXPECT_EQ(outcome.status, Status::kOk);
  EXPECT_EQ(outcome.report.transactions[0].status, evm::VmStatus::kSuccess);
  EXPECT_GT(outcome.query_stats.kv_queries, 0u);
  EXPECT_GT(outcome.query_stats.code_queries, 0u);
  EXPECT_GT(outcome.query_stats.oram_time_ns, 0u);
  // The observed timeline covers all demand queries.
  EXPECT_EQ(outcome.observed_timeline.size(), outcome.query_stats.demand_timeline.size());
  // The ORAM servers actually served paths for the session.
  EXPECT_GT(engine.oram_store().snapshot().total_walks, walks_after_sync);
}

TEST_F(ServiceTest, ResultsIdenticalAcrossConfigs) {
  // Security features must not change execution semantics: same traces,
  // same gas, same storage writes under -raw and -full.
  PreExecutionEngine raw_engine(node_, make_config(SecurityConfig::raw()));
  PreExecutionEngine full_engine(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(full_engine.synchronize(), Status::kOk);

  const auto raw = serve(raw_engine, small_bundle());
  const auto full = serve(full_engine, small_bundle());
  ASSERT_EQ(raw.report.transactions.size(), full.report.transactions.size());
  const auto& r = raw.report.transactions[0];
  const auto& f = full.report.transactions[0];
  EXPECT_EQ(r.status, f.status);
  EXPECT_EQ(r.gas_used, f.gas_used);
  EXPECT_EQ(r.return_data, f.return_data);
  ASSERT_EQ(r.storage_writes.size(), f.storage_writes.size());
  for (size_t i = 0; i < r.storage_writes.size(); ++i) {
    EXPECT_EQ(r.storage_writes[i].value, f.storage_writes[i].value);
  }
}

TEST_F(ServiceTest, SecurityLaddersMonotonicallySlower) {
  // Fig. 4's qualitative shape: each added protection costs time.
  uint64_t previous = 0;
  for (const SecurityConfig config :
       {SecurityConfig::raw(), SecurityConfig::E(), SecurityConfig::ES(),
        SecurityConfig::ESO(), SecurityConfig::full()}) {
    PreExecutionEngine engine(node_, make_config(config));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
    const auto outcome = serve(engine, small_bundle());
    EXPECT_EQ(outcome.status, Status::kOk) << config.name();
    EXPECT_GT(outcome.end_to_end_ns, previous)
        << config.name() << " not slower than the previous tier";
    previous = outcome.end_to_end_ns;
  }
}

TEST_F(ServiceTest, PreExecutionNeverPersists) {
  PreExecutionEngine engine(node_, make_config(SecurityConfig::raw()));
  const H256 root_before = node_.world().state_root();
  serve(engine, small_bundle());
  EXPECT_EQ(node_.world().state_root(), root_before);
}

TEST_F(ServiceTest, BundleTransactionsShareState) {
  // Two transfers in one bundle: the second sees the first's effects.
  evm::Transaction tx1 = small_bundle()[0];
  evm::Transaction tx2 = tx1;
  PreExecutionEngine engine(node_, make_config(SecurityConfig::raw()));
  const auto outcome = serve(engine, {tx1, tx2});
  ASSERT_EQ(outcome.report.transactions.size(), 2u);
  EXPECT_EQ(outcome.report.transactions[1].status, evm::VmStatus::kSuccess);
  // Final balances show both transfers (20 total moved).
  bool found = false;
  for (const auto& write : outcome.report.transactions[1].storage_writes) {
    if (write.key == gen_.users()[1].to_u256()) {
      EXPECT_EQ(write.value, u256{1'000'000'020});  // pre-mint + 2 transfers
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ServiceTest, OramQueriesDominateFullConfigTime) {
  PreExecutionEngine engine(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  const auto outcome = serve(engine, small_bundle());
  // In -full, ORAM stalls should be the dominant execution component
  // (paper: "the performance bottleneck lies in the security features").
  EXPECT_GT(outcome.query_stats.oram_time_ns, outcome.hevm_time_ns / 2);
}

TEST_F(ServiceTest, RealChannelCryptoPath) {
  auto config = make_config(SecurityConfig::ES());
  config.perform_channel_crypto = true;
  PreExecutionEngine engine(node_, config);
  const auto outcome = serve(engine, small_bundle());
  EXPECT_EQ(outcome.status, Status::kOk);
  EXPECT_GT(outcome.crypto_time_ns, 0u);
}

TEST_F(ServiceTest, DeepCallBundleThroughFullStack) {
  evm::Transaction tx;
  tx.from = gen_.users()[0];
  tx.to = gen_.routers()[0];
  tx.data = workload::router_route(4, gen_.tokens()[0], gen_.users()[2], u256{5});
  tx.gas_limit = 5'000'000;
  PreExecutionEngine engine(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  const auto outcome = serve(engine, {tx});
  EXPECT_EQ(outcome.report.transactions[0].status, evm::VmStatus::kSuccess);
  // Multiple contracts' code fetched through the ORAM.
  EXPECT_GT(outcome.query_stats.code_queries, 2u);
}

TEST_F(ServiceTest, ThroughputFormula) {
  // Paper §VI-D: 3 cores at 164 ms/tx ~= 18 tx/s. The engine's step-3
  // schedule over its default HEVM count gives the same chip throughput.
  const int hevms = make_config(SecurityConfig::full()).num_hevms;
  ASSERT_EQ(hevms, 3);
  const auto schedule =
      schedule_bundles(std::vector<uint64_t>(30, 164'400'000), hevms, /*arrival_gap_ns=*/0);
  EXPECT_NEAR(30 * 1e9 / static_cast<double>(schedule.makespan_ns), 18.2, 0.5);
}

TEST_F(ServiceTest, SerialTimelineMatchesTheRecordedFig4Accounting) {
  // Pins, exactly, the per-session sim accounting that bench_fig4,
  // bench_scalability and bench_ablation_oram print. The expected values
  // were recorded from the separate serial service class these benches ran
  // on before the engine became the only session path; bundle ids 0, 1, 2
  // draw the noise streams that class drew for its first three bundles.
  evm::Transaction route;
  route.from = gen_.users()[0];
  route.to = gen_.routers()[0];
  route.data = workload::router_route(4, gen_.tokens()[0], gen_.users()[2], u256{5});
  route.gas_limit = 5'000'000;
  const evm::Transaction transfer = small_bundle()[0];
  const std::vector<std::vector<evm::Transaction>> bundles = {
      {transfer}, {transfer, transfer}, {route}};

  struct Expected {
    uint64_t end_to_end_ns, hevm_ns, crypto_ns, message_ns;
    uint64_t oram, kv, code;
    size_t timeline, swaps;
  };
  const std::vector<std::pair<SecurityConfig, std::vector<Expected>>> cases = {
      {SecurityConfig::ES(),
       {{81'028'460, 16'780, 80'452'400, 206'000, 0, 0, 0, 0, 0},
        {81'454'840, 21'560, 80'874'000, 206'000, 0, 0, 0, 0, 0},
        {82'277'920, 63'040, 81'655'600, 206'000, 0, 0, 0, 0, 0}}},
      {SecurityConfig::full(),
       {{122'597'810, 41'586'130, 80'452'400, 206'000, 10, 6, 4, 10, 0},
        {123'024'190, 41'590'910, 80'874'000, 206'000, 10, 6, 4, 10, 0},
        {165'424'620, 83'209'740, 81'655'600, 206'000, 20, 8, 12, 20, 0}}},
  };
  for (const auto& [security, expected] : cases) {
    PreExecutionEngine engine(node_, make_config(security));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
    const auto outcomes = engine.execute_serial(bundles);
    ASSERT_EQ(outcomes.size(), expected.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      SCOPED_TRACE(std::string(security.name()) + " bundle " + std::to_string(i));
      const SessionOutcome& o = outcomes[i];
      const Expected& e = expected[i];
      EXPECT_EQ(o.status, Status::kOk);
      EXPECT_EQ(o.end_to_end_ns, e.end_to_end_ns);
      EXPECT_EQ(o.hevm_time_ns, e.hevm_ns);
      EXPECT_EQ(o.crypto_time_ns, e.crypto_ns);
      EXPECT_EQ(o.message_time_ns, e.message_ns);
      EXPECT_EQ(o.query_stats.oram_queries, e.oram);
      EXPECT_EQ(o.query_stats.kv_queries, e.kv);
      EXPECT_EQ(o.query_stats.code_queries, e.code);
      EXPECT_EQ(o.observed_timeline.size(), e.timeline);
      EXPECT_EQ(o.report.swap_events.size(), e.swaps);
    }
  }
}

}  // namespace
}  // namespace hardtape::service
