// Concurrency tests of the multi-session pre-execution engine: determinism
// against the serial reference, bounded-queue backpressure, per-session
// state readers sharing one backend, and the engine metrics. This binary is
// the target of the CI TSan job — every assertion here must also be
// data-race free under -DHARDTAPE_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "service/engine.hpp"
#include "workload/generator.hpp"

namespace hardtape::service {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    gen_.deploy(node_.world());
    node_.produce_block({});
  }

  EngineConfig make_config(SecurityConfig security, int workers, size_t queue_depth = 16) {
    EngineConfig config;
    config.security = security;
    config.num_hevms = workers;
    config.queue_depth = queue_depth;
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
    config.seal_mode = oram::SealMode::kChaChaHmac;
    config.perform_channel_crypto = false;
    return config;
  }

  /// A mixed bundle: ERC-20 transfer + a deeper router chain, varied by id
  /// so bundles are not all identical.
  std::vector<evm::Transaction> mixed_bundle(uint64_t id) {
    const auto& users = gen_.users();
    evm::Transaction transfer;
    transfer.from = users[id % users.size()];
    transfer.to = gen_.tokens()[id % gen_.tokens().size()];
    transfer.data = workload::erc20_transfer(users[(id + 1) % users.size()],
                                             u256{10 + id % 7});
    transfer.gas_limit = 500'000;
    if (id % 3 != 0) return {transfer};
    evm::Transaction route;
    route.from = users[(id + 2) % users.size()];
    route.to = gen_.routers()[id % gen_.routers().size()];
    route.data = workload::router_route(2 + id % 3, gen_.tokens()[0],
                                        users[(id + 3) % users.size()], u256{5});
    route.gas_limit = 5'000'000;
    return {transfer, route};
  }

  std::vector<std::vector<evm::Transaction>> make_bundles(size_t count) {
    std::vector<std::vector<evm::Transaction>> bundles;
    bundles.reserve(count);
    for (size_t i = 0; i < count; ++i) bundles.push_back(mixed_bundle(i));
    return bundles;
  }

  node::NodeSimulator node_;
  workload::WorkloadGenerator gen_{workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 2}};
};

// The tentpole stress test: 8 workers x 64 bundles through the full security
// configuration (real ORAM crypto), with every outcome bit-identical to the
// serial reference — concurrency must never change what a session computes.
TEST_F(EngineTest, EightWorkersSixtyFourBundlesBitIdenticalToSerial) {
  const auto bundles = make_bundles(64);

  PreExecutionEngine serial(node_, make_config(SecurityConfig::full(), 1));
  ASSERT_EQ(serial.synchronize(), Status::kOk);
  const auto reference = serial.execute_serial(bundles);
  ASSERT_EQ(reference.size(), bundles.size());

  PreExecutionEngine engine(node_, make_config(SecurityConfig::full(), 8));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  engine.start();
  for (const auto& bundle : bundles) engine.submit(bundle);
  const auto outcomes = engine.drain();

  ASSERT_EQ(outcomes.size(), reference.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes_bit_identical(outcomes[i], reference[i]))
        << "bundle " << i << " diverged from serial execution";
    EXPECT_EQ(outcomes[i].status, Status::kOk);
  }
  // The work actually spread across the pool.
  const auto metrics = engine.snapshot();
  ASSERT_EQ(metrics.workers.size(), 8u);
  uint64_t total = 0;
  int workers_used = 0;
  for (const auto& w : metrics.workers) {
    total += w.bundles;
    if (w.bundles > 0) ++workers_used;
  }
  EXPECT_EQ(total, bundles.size());
  EXPECT_GT(workers_used, 1);
}

// Backpressure: 8 producer threads race 64 bundles into a 2-slot queue
// consumed by 2 workers. Nothing may be dropped; producers must block.
// A cold sync verifies the whole world before it loads a page: a proof that
// fails on the LAST account leaves the store empty and the epoch aborted,
// and the same engine then syncs cleanly once the node answers honestly.
TEST_F(EngineTest, ColdSyncInstallsNothingOnABadProof) {
  faults::FaultPlan plan(faults::FaultPlanConfig{});
  const uint64_t last = node_.world().all_accounts().size() - 1;
  plan.force(faults::FaultSite::kNodeFetch, /*stream=*/0, /*op=*/last,
             faults::FaultDecision{.kind = faults::FaultKind::kStaleProof});
  auto config = make_config(SecurityConfig::full(), 1);
  config.fault_plan = &plan;
  PreExecutionEngine engine(node_, config);
  EXPECT_EQ(engine.synchronize(), Status::kBadProof);
  EXPECT_EQ(plan.injected(), 1u);
  EXPECT_EQ(engine.oram_store().block_count(), 0u);
  EXPECT_EQ(engine.oram_store().snapshot().total_walks, 0u);
  EXPECT_FALSE(engine.epoch_registry().current().has_value());  // nothing committed
  EXPECT_EQ(engine.epoch_registry().pages_tagged(), 0u);
  EXPECT_EQ(engine.snapshot().sync_pages_installed, 0u);

  plan.force(faults::FaultSite::kNodeFetch, /*stream=*/0, /*op=*/last,
             faults::FaultDecision{});
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  const uint64_t pages = engine.snapshot().sync_pages_installed;
  EXPECT_GT(pages, 0u);
  EXPECT_EQ(engine.oram_store().block_count(), pages);
  EXPECT_EQ(engine.oram_store().snapshot().total_walks, 0u);  // a load is not a walk
  ASSERT_TRUE(engine.epoch_registry().current().has_value());
  EXPECT_EQ(engine.epoch_registry().current()->state_root, node_.head().state_root);
  EXPECT_EQ(engine.epoch_registry().pages_tagged(), pages);
  engine.start();
  engine.submit(mixed_bundle(0));
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, Status::kOk);
}

// With real channel crypto each worker keeps one user end and one device
// end of its session for its whole life: every session seals under a fresh
// nonce and sequence, so each one opens — and the charged sim time is the
// same as without the real crypto.
TEST_F(EngineTest, ChannelCryptoOpensEverySessionOfAWorker) {
  const auto bundles = make_bundles(3);
  PreExecutionEngine modelled(node_, make_config(SecurityConfig::full(), 1));
  ASSERT_EQ(modelled.synchronize(), Status::kOk);
  const auto reference = modelled.execute_serial(bundles);

  auto config = make_config(SecurityConfig::full(), 1);
  config.perform_channel_crypto = true;
  PreExecutionEngine engine(node_, config);
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  engine.start();
  for (const auto& bundle : bundles) engine.submit(bundle);
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), bundles.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, Status::kOk) << "bundle " << i;
    EXPECT_EQ(outcomes[i].end_to_end_ns, reference[i].end_to_end_ns) << "bundle " << i;
  }
}

TEST_F(EngineTest, BoundedQueueAppliesBackpressureWithoutDropping) {
  constexpr size_t kProducers = 8;
  constexpr size_t kPerProducer = 8;
  PreExecutionEngine engine(node_, make_config(SecurityConfig::raw(), 2,
                                               /*queue_depth=*/2));
  engine.start();

  std::vector<std::thread> producers;
  std::atomic<uint64_t> submitted{0};
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        engine.submit(mixed_bundle(p * kPerProducer + i));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto outcomes = engine.drain();

  EXPECT_EQ(submitted.load(), kProducers * kPerProducer);
  EXPECT_EQ(outcomes.size(), kProducers * kPerProducer);  // no drops
  // Every submitted id came back exactly once.
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].bundle_id, i);
  }
  const auto metrics = engine.snapshot();
  EXPECT_LE(metrics.queue_max_depth, 2u);          // bound held
  EXPECT_GT(metrics.backpressured_submits, 0u);    // producers did block
  EXPECT_GT(metrics.wall_backpressure_ns, 0u);
}

TEST_F(EngineTest, SubmitBeforeStartThrows) {
  PreExecutionEngine engine(node_, make_config(SecurityConfig::raw(), 2));
  EXPECT_THROW(engine.submit(mixed_bundle(0)), UsageError);
}

// The deterministic engine timeline: 4 HEVMs must clear the mixed workload
// at >= 2x the single-HEVM bundle rate (acceptance criterion; the ORAM
// serialization point costs ~1% per access, far from the bottleneck here).
TEST_F(EngineTest, FourWorkersAtLeastTwiceSerialSimThroughput) {
  const auto bundles = make_bundles(16);

  auto run = [&](int workers) {
    PreExecutionEngine engine(node_, make_config(SecurityConfig::full(), workers));
    EXPECT_EQ(engine.synchronize(), Status::kOk);
    engine.start();
    for (const auto& bundle : bundles) engine.submit(bundle);
    engine.drain();
    return engine.snapshot();
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_GT(one.sim_bundles_per_s, 0.0);
  EXPECT_GE(four.sim_bundles_per_s, 2.0 * one.sim_bundles_per_s)
      << "4 workers: " << four.sim_bundles_per_s
      << " bundles/s vs 1 worker: " << one.sim_bundles_per_s;
  // With equal work and zero arrival gap, 1 worker serializes everything.
  EXPECT_GT(one.sim_mean_queue_wait_ns, four.sim_mean_queue_wait_ns);
}

TEST_F(EngineTest, MetricsSnapshotIsCoherent) {
  const auto bundles = make_bundles(12);
  PreExecutionEngine engine(node_, make_config(SecurityConfig::full(), 4));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  engine.start();
  for (const auto& bundle : bundles) engine.submit(bundle);
  engine.drain();

  const auto m = engine.snapshot();
  EXPECT_EQ(m.bundles_submitted, bundles.size());
  EXPECT_EQ(m.bundles_completed, bundles.size());
  EXPECT_GT(m.sim_makespan_ns, 0u);
  EXPECT_GT(m.sim_bundles_per_s, 0.0);
  EXPECT_GT(m.wall_elapsed_ns, 0u);
  uint64_t queries = 0;
  for (const auto& o : engine.drain()) queries += o.query_stats.oram_queries;
  EXPECT_GT(m.oram_reads, 0u);  // -full routes queries through the ORAM
  EXPECT_EQ(m.oram_reads, queries);  // one request per page query, none retried
  // Busy time is clamped by the shard pool: S independent subtree pipelines
  // split the per-query service time (see engine.cpp snapshot()).
  EXPECT_EQ(m.sim_oram_server_busy_ns, 25'000u * queries / m.oram_shard_count);
  ASSERT_EQ(m.workers.size(), 4u);
  uint64_t busy = 0;
  for (const auto& w : m.workers) {
    EXPECT_LE(w.utilization, 1.0 + 1e-9);
    busy += w.busy_sim_ns;
  }
  EXPECT_GT(busy, 0u);
}

// ---------------------------------------------------------------------------
// Live-chain staleness policy (PR 4): snapshot pinning, auto re-sync,
// reorg-triggered re-execution, and the kStale budget.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, OutcomesPinnedToSnapshotDespiteChainAdvance) {
  const auto bundles = make_bundles(6);

  // Reference against the static chain, computed before anything moves.
  PreExecutionEngine ref(node_, make_config(SecurityConfig::full(), 1));
  ASSERT_EQ(ref.synchronize(), Status::kOk);
  const auto reference = ref.execute_serial(bundles);

  // A huge lag budget means the engine never re-pins: even though the node
  // keeps producing state-changing blocks mid-run, every session reads the
  // pinned snapshot and outcomes stay bit-identical to the static chain.
  auto config = make_config(SecurityConfig::full(), 4);
  config.max_head_lag = 1'000'000;
  PreExecutionEngine engine(node_, config);
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  const H256 pinned = engine.pinned_header().state_root;
  engine.start();
  const auto& users = gen_.users();
  for (size_t i = 0; i < bundles.size(); ++i) {
    engine.submit(bundles[i]);
    evm::Transaction tx;
    tx.from = users[i % users.size()];
    tx.to = users[(i + 1) % users.size()];
    tx.value = u256{1 + i};
    tx.gas_limit = 30'000;
    node_.produce_block({tx});
  }
  const auto outcomes = engine.drain();

  ASSERT_EQ(outcomes.size(), reference.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes_bit_identical(outcomes[i], reference[i])) << "bundle " << i;
    EXPECT_EQ(outcomes[i].state_root, pinned);
    EXPECT_EQ(outcomes[i].epoch, 0u);
  }
  EXPECT_GT(node_.head_number(), 1u);
}

TEST_F(EngineTest, AutoResyncAtAdmissionTracksHead) {
  auto config = make_config(SecurityConfig::full(), 2);
  config.max_head_lag = 0;  // any lag re-pins at the next admission
  PreExecutionEngine engine(node_, config);
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  engine.start();
  engine.submit(mixed_bundle(0));

  const auto& users = gen_.users();
  evm::Transaction tx;
  tx.from = users[0];
  tx.to = users[1];
  tx.value = u256{5};
  tx.gas_limit = 30'000;
  node_.produce_block({tx});

  engine.submit(mixed_bundle(1));
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  // Bundle 0 ran at the original pin; bundle 1's admission saw the lag,
  // delta-synced and ran at the new head. Bundle 0's root is still
  // canonical (plain extension, no reorg), so its outcome stands.
  EXPECT_EQ(outcomes[0].epoch, 0u);
  EXPECT_EQ(outcomes[0].resim, 0u);
  EXPECT_EQ(outcomes[0].status, Status::kOk);
  EXPECT_EQ(outcomes[1].epoch, 1u);
  EXPECT_EQ(outcomes[1].status, Status::kOk);
  EXPECT_EQ(outcomes[1].state_root, node_.head().state_root);
  const auto metrics = engine.snapshot();
  EXPECT_GE(metrics.resyncs, 1u);
  EXPECT_EQ(metrics.store_epoch, 1u);
  EXPECT_EQ(metrics.bundle_resims, 0u);
}

TEST_F(EngineTest, ReorgResimulatesOutcomeAgainstNewCanonicalRoot) {
  // Give the pinned block a unique root (a state-changing transaction), so
  // orphaning it really abandons the root the outcome ran against.
  const auto& users = gen_.users();
  evm::Transaction tx0;
  tx0.from = users[0];
  tx0.to = users[1];
  tx0.value = u256{123};
  tx0.gas_limit = 30'000;
  node_.produce_block({tx0});

  auto config = make_config(SecurityConfig::full(), 2);
  config.breaker_threshold = 0;
  PreExecutionEngine engine(node_, config);
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  const H256 pinned = engine.pinned_header().state_root;
  engine.start();
  engine.submit(mixed_bundle(0));

  node_.set_schedule({.seed = 11, .reorg_rate = 1.0, .max_reorg_depth = 1});
  evm::Transaction tx1 = tx0;
  tx1.value = u256{456};  // the sibling fork commits a different state
  const auto tick = node_.tick({tx1});
  ASSERT_TRUE(tick.reorged);
  ASSERT_FALSE(node_.is_canonical_root(pinned));

  ASSERT_EQ(engine.resync(), Status::kOk);
  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  // Exactly one outcome, re-executed: same bundle, new canonical root.
  EXPECT_EQ(outcomes[0].status, Status::kOk);
  EXPECT_EQ(outcomes[0].resim, 1u);
  EXPECT_EQ(outcomes[0].state_root, node_.head().state_root);
  EXPECT_TRUE(node_.is_canonical_root(outcomes[0].state_root));
  const auto metrics = engine.snapshot();
  EXPECT_EQ(metrics.bundle_resims, 1u);
  EXPECT_GE(metrics.resyncs, 1u);
  EXPECT_EQ(engine.pinned_epoch(), 1u);
}

TEST_F(EngineTest, ResimBudgetExhaustionResolvesStale) {
  const auto& users = gen_.users();
  evm::Transaction tx0;
  tx0.from = users[0];
  tx0.to = users[1];
  tx0.value = u256{123};
  tx0.gas_limit = 30'000;
  node_.produce_block({tx0});

  auto config = make_config(SecurityConfig::full(), 2);
  config.breaker_threshold = 0;
  config.max_resim_attempts = 0;  // no budget: orphaned -> kStale at once
  PreExecutionEngine engine(node_, config);
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  engine.start();
  engine.submit(mixed_bundle(0));

  node_.set_schedule({.seed = 11, .reorg_rate = 1.0, .max_reorg_depth = 1});
  evm::Transaction tx1 = tx0;
  tx1.value = u256{456};
  ASSERT_TRUE(node_.tick({tx1}).reorged);
  ASSERT_EQ(engine.resync(), Status::kOk);

  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  // Fail closed: no traces from the orphaned execution surface, and the
  // refusal carries no state root (it ran against nothing reportable).
  EXPECT_EQ(outcomes[0].status, Status::kStale);
  EXPECT_EQ(outcomes[0].state_root, H256{});
  EXPECT_EQ(outcomes[0].resim, 1u);
  EXPECT_EQ(outcomes[0].report.transactions.size(), 0u);
  const auto metrics = engine.snapshot();
  EXPECT_EQ(metrics.bundles_stale, 1u);
  EXPECT_EQ(metrics.bundle_resims, 0u);
}

TEST_F(EngineTest, LiveChainOutcomesIdenticalAcrossWorkerCounts) {
  // A compact version of bench_soak's determinism invariant: a seeded
  // interleaving of submits, ticks (with reorgs) and auto re-syncs must
  // resolve every bundle bit-identically at 1 and 8 workers.
  const workload::GeneratorConfig gcfg{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 2};
  auto run = [&](int workers) {
    node::NodeSimulator node;
    workload::WorkloadGenerator gen(gcfg);
    gen.deploy(node.world());
    node.produce_block({});
    node.set_schedule({.seed = 99, .reorg_rate = 0.4, .max_reorg_depth = 2});

    auto config = make_config(SecurityConfig::full(), workers);
    config.max_head_lag = 0;
    config.breaker_threshold = 0;
    PreExecutionEngine engine(node, config);
    EXPECT_EQ(engine.synchronize(), Status::kOk);
    engine.start();
    const auto& users = gen.users();
    const auto& tokens = gen.tokens();
    for (uint64_t i = 0; i < 18; ++i) {
      evm::Transaction tx;
      tx.from = users[i % users.size()];
      tx.to = tokens[i % tokens.size()];
      tx.data = workload::erc20_transfer(users[(i + 1) % users.size()], u256{1 + i % 5});
      tx.gas_limit = 500'000;
      engine.submit({tx});
      if (i % 3 == 2) {
        evm::Transaction block_tx;
        block_tx.from = users[(i + 2) % users.size()];
        block_tx.to = tokens[(i + 1) % tokens.size()];
        block_tx.data = workload::erc20_transfer(users[i % users.size()], u256{2});
        block_tx.gas_limit = 500'000;
        node.tick({block_tx});
      }
    }
    EXPECT_EQ(engine.resync(), Status::kOk);  // settle any late orphans
    return engine.drain();
  };
  const auto one = run(1);
  const auto eight = run(8);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(outcomes_bit_identical(one[i], eight[i])) << "bundle " << i;
  }
}

TEST(OutcomeEqualityTest, ARecordedStepThatDiffersBreaksIdentity) {
  SessionOutcome a;
  a.report.transactions.resize(1);
  a.report.transactions[0].steps = {
      {.pc = 0, .opcode = 0x60, .gas_left = 100, .depth = 0, .stack_size = 0},
      {.pc = 2, .opcode = 0x60, .gas_left = 97, .depth = 0, .stack_size = 1}};
  SessionOutcome b = a;
  b.worker_id = 5;  // which worker ran it is not part of determinism
  EXPECT_TRUE(outcomes_bit_identical(a, b));
  EXPECT_TRUE(outcomes_semantically_identical(a, b));
  b.report.transactions[0].steps[1].pc = 3;
  EXPECT_FALSE(outcomes_bit_identical(a, b));
  EXPECT_FALSE(outcomes_semantically_identical(a, b));
}

// ---------------------------------------------------------------------------
// Per-session state readers over one backend (a controllable fake)
// ---------------------------------------------------------------------------

/// Fake backend whose try_read() parks callers until `expected` of them are
/// inside simultaneously (or a timeout passes), then answers with an empty
/// storage page. peak() is the proof: 2 means two requests genuinely
/// overlapped in the backend, 1 means something above serialized them.
class RendezvousStore : public oram::OramAccessor {
 public:
  RendezvousStore(int expected, std::chrono::milliseconds timeout)
      : expected_(expected), timeout_(timeout) {}

  oram::AccessAttempt try_read(const oram::BlockId&) override {
    std::unique_lock lock(mu_);
    ++inside_;
    peak_ = std::max(peak_, inside_);
    cv_.notify_all();
    cv_.wait_for(lock, timeout_, [&] { return peak_ >= expected_; });
    --inside_;
    return {Status::kOk, Bytes(oram::kPageSize, 0), 0};
  }
  oram::AccessAttempt try_write(const oram::BlockId&, BytesView) override { return {}; }

  int peak() const {
    std::lock_guard lock(mu_);
    return peak_;
  }

 private:
  const int expected_;
  const std::chrono::milliseconds timeout_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inside_ = 0;
  int peak_ = 0;
};

TEST(ReaderConcurrencyTest, TwoReadersOverlapInBackend) {
  // The backend locks itself, so nothing above it may serialize sessions:
  // two sessions' readers on two threads rendezvous INSIDE the backend.
  RendezvousStore store(2, std::chrono::seconds(10));
  const state::WorldState local;
  const RoutedStateReader a(local, &store, SecurityConfig::ESO(), {});
  const RoutedStateReader b(local, &store, SecurityConfig::ESO(), {});
  std::thread ta([&] { EXPECT_EQ(a.storage(Address::from_u256(u256{1}), u256{1}), u256{}); });
  std::thread tb([&] { EXPECT_EQ(b.storage(Address::from_u256(u256{2}), u256{1}), u256{}); });
  ta.join();
  tb.join();
  EXPECT_EQ(store.peak(), 2);
}

// ---------------------------------------------------------------------------
// BoundedQueue unit tests
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, MpmcDeliversEverythingExactlyOnce) {
  BoundedQueue<int> queue(4);
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 250;
  std::atomic<int> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = queue.pop()) {
        sum.fetch_add(*item, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  queue.close();
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  const int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_LE(queue.stats().max_depth, 4u);
}

TEST(BoundedQueueTest, CloseUnblocksProducersAndDrainsConsumers) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(7));
  std::thread blocked([&] {
    EXPECT_FALSE(queue.push(8));  // full; must return false once closed
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  blocked.join();
  EXPECT_EQ(queue.pop(), std::optional<int>{7});  // drain after close
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_FALSE(queue.push(9));
}

// Shutdown racing live traffic (PR 7 satellite): close() fires from a third
// thread WHILE producers and consumers are mid-flight. Under TSan this pins
// down the close/push/pop interleavings; the invariant is accounting, not
// counts — every push that reported success is either popped or still in
// the (drained) queue, and every thread exits.
TEST(BoundedQueueTest, CloseRacingConcurrentPushAndPopStaysConsistent) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2'000;
  BoundedQueue<int> queue(8);
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (queue.push(1)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          return;  // closed mid-run: push must fail fast, never hang
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (queue.pop().has_value()) {
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();  // races against every pusher and popper above
  for (auto& t : threads) t.join();
  // Consumers drain everything that was accepted before they saw close.
  EXPECT_EQ(popped.load(), accepted.load());
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_TRUE(queue.closed());
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, accepted.load());
  EXPECT_EQ(stats.popped, popped.load());
}

}  // namespace
}  // namespace hardtape::service
