// Adversarial fault injection + fail-closed recovery (PR 2).
//
// Covers, bottom-up: the FaultPlan's reproducibility contract, the
// per-interface fault wrappers (FaultyOram, FaultyLink), the state reader's
// timeout/backoff/fail-closed retry loop, and the engine-level
// recovery policies (session abort, bundle requeue, circuit breaker). Like
// engine_test, this binary runs under TSan in CI — every path here must be
// data-race free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "faults/fault_plan.hpp"
#include "faults/faulty_link.hpp"
#include "faults/faulty_oram.hpp"
#include "oram/sharded.hpp"
#include "service/engine.hpp"
#include "sim/backoff.hpp"
#include "workload/generator.hpp"

namespace hardtape {
namespace {

using faults::FaultDecision;
using faults::FaultEvent;
using faults::FaultKind;
using faults::FaultPlan;
using faults::FaultPlanConfig;
using faults::FaultSite;

// ---------------------------------------------------------------------------
// FaultPlan: the reproducibility contract
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, DecisionsArePureInSeedSiteStreamOp) {
  FaultPlanConfig config;
  config.seed = 42;
  config.fault_rate = 0.5;
  FaultPlan a(config);
  FaultPlan b(config);

  // Query b in a scrambled order; every decision must still match a's.
  for (uint64_t stream = 0; stream < 4; ++stream) {
    for (uint64_t op = 0; op < 32; ++op) {
      const FaultDecision da = a.decide(FaultSite::kOramRead, stream, op);
      const FaultDecision db =
          b.decide(FaultSite::kOramRead, 3 - stream, 31 - op);
      const FaultDecision db_same = b.decide(FaultSite::kOramRead, stream, op);
      EXPECT_EQ(da.kind, db_same.kind);
      EXPECT_EQ(da.delay_ns, db_same.delay_ns);
      (void)db;
    }
  }
}

TEST(FaultPlanTest, SameSeedSameSortedTrace) {
  FaultPlanConfig config;
  config.seed = 7;
  config.fault_rate = 0.3;
  FaultPlan a(config);
  FaultPlan b(config);
  // a in forward order, b in reverse order — the sorted traces must agree.
  for (uint64_t op = 0; op < 64; ++op) a.decide(FaultSite::kOramRead, 1, op);
  for (uint64_t op = 64; op-- > 0;) b.decide(FaultSite::kOramRead, 1, op);
  const std::vector<FaultEvent> ta = a.trace();
  const std::vector<FaultEvent> tb = b.trace();
  ASSERT_FALSE(ta.empty());  // rate 0.3 over 64 ops: statistically certain
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.injected(), b.injected());
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  FaultPlanConfig config;
  config.fault_rate = 0.5;
  config.seed = 1;
  FaultPlan a(config);
  config.seed = 2;
  FaultPlan b(config);
  for (uint64_t op = 0; op < 128; ++op) {
    a.decide(FaultSite::kOramRead, 0, op);
    b.decide(FaultSite::kOramRead, 0, op);
  }
  EXPECT_NE(a.trace(), b.trace());
}

TEST(FaultPlanTest, ZeroRateInjectsNothing) {
  FaultPlan plan(FaultPlanConfig{});  // fault_rate = 0
  for (uint64_t op = 0; op < 100; ++op) {
    EXPECT_EQ(plan.decide(FaultSite::kOramRead, 0, op).kind, FaultKind::kNone);
  }
  EXPECT_EQ(plan.injected(), 0u);
  EXPECT_TRUE(plan.trace().empty());
}

TEST(FaultPlanTest, ForcePinsOneOperation) {
  FaultPlan plan(FaultPlanConfig{});  // rate 0: only the forced op fires
  plan.force(FaultSite::kOramRead, 5, 2, {FaultKind::kTamper, 0});
  EXPECT_EQ(plan.decide(FaultSite::kOramRead, 5, 1).kind, FaultKind::kNone);
  EXPECT_EQ(plan.decide(FaultSite::kOramRead, 5, 2).kind, FaultKind::kTamper);
  EXPECT_EQ(plan.decide(FaultSite::kOramRead, 5, 3).kind, FaultKind::kNone);
  EXPECT_EQ(plan.decide(FaultSite::kChannelFrame, 5, 2).kind, FaultKind::kNone);
  EXPECT_EQ(plan.injected(), 1u);
}

// Device fates are one more site: stream = device id, op = binding index.
TEST(FaultPlanTest, DeviceFatesArePureInSeedDeviceAndIndex) {
  FaultPlanConfig config;
  config.seed = 42;
  config.fault_rate = 0.6;
  config.weight_crash = 0.2;
  config.weight_sticky = 0.2;
  config.weight_flap = 0.2;
  FaultPlan a(config);
  FaultPlan b(config);
  for (uint32_t device = 0; device < 4; ++device) {
    for (uint64_t index = 0; index < 64; ++index) {
      const auto da = a.decide(FaultSite::kDeviceBinding, device, index);
      const auto db = b.decide(FaultSite::kDeviceBinding, device, index);
      EXPECT_EQ(da.kind, db.kind);
      EXPECT_EQ(da.kill_frac, db.kill_frac);
      EXPECT_EQ(da.downtime_ns, db.downtime_ns);
    }
  }
  EXPECT_GT(a.injected(), 0u) << "a rate of 0.6 never fired in 256 draws";
  EXPECT_EQ(a.trace(), b.trace());

  // A different seed produces a different fault schedule.
  config.seed = 43;
  FaultPlan c(config);
  bool differs = false;
  for (uint32_t device = 0; device < 4 && !differs; ++device) {
    for (uint64_t index = 0; index < 64 && !differs; ++index) {
      differs = c.decide(FaultSite::kDeviceBinding, device, index).kind !=
                a.decide(FaultSite::kDeviceBinding, device, index).kind;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, DeviceWeightsBoundFatesAndForceOverrides) {
  // Zero rate: a reliable fleet, nothing injected.
  FaultPlan quiet(FaultPlanConfig{.seed = 1});
  for (uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(quiet.decide(FaultSite::kDeviceBinding, 0, i).kind, FaultKind::kNone);
  }
  EXPECT_EQ(quiet.injected(), 0u);

  // Crashes only: every binding dies, kill_frac uniform in [0, 1).
  FaultPlanConfig all_crash;
  all_crash.seed = 2;
  all_crash.fault_rate = 1.0;
  all_crash.weight_crash = 1.0;
  all_crash.weight_sticky = 0;
  all_crash.weight_flap = 0;
  FaultPlan lethal(all_crash);
  for (uint64_t i = 0; i < 32; ++i) {
    const auto d = lethal.decide(FaultSite::kDeviceBinding, 3, i);
    EXPECT_EQ(d.kind, FaultKind::kCrash);
    EXPECT_GE(d.kill_frac, 0.0);
    EXPECT_LT(d.kill_frac, 1.0);
  }

  // Flaps only: downtime lands inside the configured band.
  FaultPlanConfig all_flap;
  all_flap.seed = 3;
  all_flap.fault_rate = 1.0;
  all_flap.weight_crash = 0;
  all_flap.weight_sticky = 0;
  all_flap.weight_flap = 1.0;
  all_flap.min_downtime_ns = 1'000;
  all_flap.max_downtime_ns = 2'000;
  FaultPlan flappy(all_flap);
  for (uint64_t i = 0; i < 32; ++i) {
    const auto d = flappy.decide(FaultSite::kDeviceBinding, 0, i);
    EXPECT_EQ(d.kind, FaultKind::kFlap);
    EXPECT_GE(d.downtime_ns, 1'000u);
    EXPECT_LE(d.downtime_ns, 2'000u);
  }

  // force() pins one (device, index) regardless of rate.
  quiet.force(FaultSite::kDeviceBinding, 7, 3, {.kind = FaultKind::kSticky});
  EXPECT_EQ(quiet.decide(FaultSite::kDeviceBinding, 7, 2).kind, FaultKind::kNone);
  EXPECT_EQ(quiet.decide(FaultSite::kDeviceBinding, 7, 3).kind, FaultKind::kSticky);
}

// ---------------------------------------------------------------------------
// FaultyOram: the wrapper's per-kind semantics
// ---------------------------------------------------------------------------

/// Trivial reliable backing store: read always finds a page, reads count.
class MemBackend : public oram::OramAccessor {
 public:
  oram::AccessAttempt try_read(const oram::BlockId& id) override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return {Status::kOk, Bytes{static_cast<uint8_t>(id.as_u64() & 0xff), 0x5a}, 0};
  }
  oram::AccessAttempt try_write(const oram::BlockId&, BytesView) override { return {}; }
  uint64_t reads() const { return reads_.load(); }

 private:
  std::atomic<uint64_t> reads_{0};
};

TEST(FaultyOramTest, DropSurfacesTimeoutWithoutTouchingBackend) {
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kOramRead, 9, 0, {FaultKind::kDrop, 0});
  MemBackend backend;
  faults::FaultyOram faulty(backend, plan, /*stream=*/9);

  const auto dropped = faulty.try_read(oram::BlockId{1});
  EXPECT_EQ(dropped.status, Status::kTimeout);
  EXPECT_FALSE(dropped.data.has_value());
  EXPECT_EQ(backend.reads(), 0u);  // lost in flight, state stays consistent
  const auto retry = faulty.try_read(oram::BlockId{1});  // op 1: no fault
  EXPECT_EQ(retry.status, Status::kOk);
  EXPECT_EQ(backend.reads(), 1u);
}

TEST(FaultyOramTest, TamperSurfacesAuthFailed) {
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kOramRead, 9, 0, {FaultKind::kTamper, 0});
  MemBackend backend;
  faults::FaultyOram faulty(backend, plan, /*stream=*/9);

  const auto tampered = faulty.try_read(oram::BlockId{1});
  EXPECT_EQ(tampered.status, Status::kAuthFailed);
  EXPECT_FALSE(tampered.data.has_value());
}

TEST(FaultyOramTest, DelayAddsSimLatencyButDelivers) {
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kOramRead, 9, 0, {FaultKind::kDelay, 7'000'000});
  MemBackend backend;
  faults::FaultyOram faulty(backend, plan, /*stream=*/9);

  const auto late = faulty.try_read(oram::BlockId{1});
  EXPECT_EQ(late.status, Status::kOk);
  ASSERT_TRUE(late.data.has_value());
  EXPECT_EQ(late.sim_delay_ns, 7'000'000u);
  EXPECT_EQ(backend.reads(), 1u);  // the access did happen, just late
}

// ---------------------------------------------------------------------------
// RoutedStateReader: the per-request timeout/backoff/fail-closed loop
// ---------------------------------------------------------------------------

const u256 kScriptedKey{1};
const u256 kScriptedValue{0x5a};

/// The 1 KB storage group page every unscripted access returns: its record
/// for kScriptedKey reads kScriptedValue, so a test sees the data arrive.
Bytes scripted_page() {
  oram::StorageGroupPage page;
  page.set(kScriptedKey, kScriptedValue);
  return page.serialize();
}

/// Backend whose next try_* results are scripted; after the script runs out
/// every access succeeds immediately with scripted_page().
class ScriptedBackend : public oram::OramAccessor {
 public:
  oram::AccessAttempt try_read(const oram::BlockId&) override { return next(); }
  oram::AccessAttempt try_write(const oram::BlockId&, BytesView) override {
    return next();
  }

  void script(oram::AccessAttempt attempt) { script_.push_back(std::move(attempt)); }
  uint64_t calls = 0;

 private:
  oram::AccessAttempt next() {
    ++calls;
    if (script_.empty()) return {Status::kOk, scripted_page(), 0};
    const oram::AccessAttempt a = script_.front();
    script_.pop_front();
    return a;
  }
  std::deque<oram::AccessAttempt> script_;
};

/// A reader that serves storage from `backend` (the ESO configuration).
service::RoutedStateReader storage_reader(const state::WorldState& local,
                                          oram::OramAccessor& backend,
                                          service::RoutedStateReader::Timing timing = {},
                                          obs::TraceRing* trace = nullptr) {
  return service::RoutedStateReader(local, &backend, service::SecurityConfig::ESO(), timing,
                                    trace);
}

/// The jitter stream of the page that holds kScriptedKey.
uint64_t scripted_stream_tag() {
  return U256Hasher{}(oram::page_id(oram::PageType::kStorageGroup, Address{},
                                    oram::storage_group(kScriptedKey)));
}

/// Reads kScriptedKey and returns the status of the BackendFault it throws.
Status read_fault(const service::RoutedStateReader& reader) {
  try {
    reader.storage(Address{}, kScriptedKey);
  } catch (const BackendFault& fault) {
    return fault.status();
  }
  ADD_FAILURE() << "expected BackendFault";
  return Status::kOk;
}

TEST(ReaderRecoveryTest, TimeoutsAreRetriedThenRecovered) {
  ScriptedBackend backend;
  backend.script({Status::kTimeout, std::nullopt, 0});
  backend.script({Status::kTimeout, std::nullopt, 0});
  const state::WorldState local;
  sim::SimClock clock;
  obs::TraceSink sink;
  const auto reader = storage_reader(local, backend, {.clock = &clock}, &sink.ring(-2));
  const sim::BackoffPolicy policy;  // defaults: 10 ms timeout, 4 attempts

  EXPECT_EQ(reader.storage(Address{}, kScriptedKey), kScriptedValue);
  EXPECT_EQ(backend.calls, 3u);  // 2 failures + the success

  // Exactly 2 timeouts waited out + 2 deterministic backoff delays.
  const uint64_t tag = scripted_stream_tag();
  const uint64_t backoff_1 = sim::backoff_delay_ns(policy, 1, tag);
  const uint64_t backoff_2 = sim::backoff_delay_ns(policy, 2, tag);
  const uint64_t expected = 2 * policy.request_timeout_ns + backoff_1 + backoff_2;
  const auto& recovery = reader.recovery();
  EXPECT_EQ(recovery.sim_ns, expected);
  EXPECT_EQ(recovery.retries, 2u);
  EXPECT_EQ(recovery.faults, 2u);
  EXPECT_EQ(recovery.timeouts, 2u);
  EXPECT_EQ(recovery.exhausted, 0u);
  // The recovery time is tallied, not clocked: the engine charges it once at
  // the session's end. The read itself costs one modeled ORAM access.
  EXPECT_EQ(clock.now_ns(), reader.oram_access_ns());

  // The request's lifecycle on the ORAM ring: issue, each retry, complete.
  const auto events = sink.ring(-2).events();
  ASSERT_EQ(events.size(), 4u);
  const auto code = [](obs::TraceCode c) { return static_cast<uint16_t>(c); };
  EXPECT_EQ(events[0].code, code(obs::TraceCode::kOramIssue));
  EXPECT_EQ(events[0].b, tag);
  EXPECT_EQ(events[1].code, code(obs::TraceCode::kOramRetry));
  EXPECT_EQ(events[1].a, 1u);
  EXPECT_EQ(events[1].b, backoff_1);
  EXPECT_EQ(events[2].code, code(obs::TraceCode::kOramRetry));
  EXPECT_EQ(events[2].b, backoff_2);
  EXPECT_EQ(events[3].code, code(obs::TraceCode::kOramComplete));
  EXPECT_EQ(events[3].a, static_cast<uint64_t>(Status::kOk));
  EXPECT_EQ(events[3].b, expected);
}

TEST(ReaderRecoveryTest, ExhaustedBudgetSurfacesRetryExhausted) {
  // The default policy allows 4 attempts; script 4 timeouts.
  ScriptedBackend backend;
  const sim::BackoffPolicy policy;
  ASSERT_EQ(policy.max_attempts, 4);
  for (int i = 0; i < 4; ++i) backend.script({Status::kTimeout, std::nullopt, 0});
  const state::WorldState local;
  const auto reader = storage_reader(local, backend);

  EXPECT_EQ(read_fault(reader), Status::kRetryExhausted);
  EXPECT_EQ(backend.calls, 4u);  // the attempt budget is a hard bound
  const auto& recovery = reader.recovery();
  EXPECT_EQ(recovery.exhausted, 1u);
  EXPECT_EQ(recovery.timeouts, 4u);
  EXPECT_EQ(recovery.retries, 3u);
  // The time wasted is still charged: 4 timeouts and the 3 backoffs between.
  const uint64_t tag = scripted_stream_tag();
  EXPECT_EQ(recovery.sim_ns, 4 * policy.request_timeout_ns +
                                 sim::backoff_delay_ns(policy, 1, tag) +
                                 sim::backoff_delay_ns(policy, 2, tag) +
                                 sim::backoff_delay_ns(policy, 3, tag));
}

TEST(ReaderRecoveryTest, IntegrityFailureFailsClosedImmediately) {
  ScriptedBackend backend;
  backend.script({Status::kAuthFailed, std::nullopt, 0});
  const state::WorldState local;
  const auto reader = storage_reader(local, backend);

  EXPECT_EQ(read_fault(reader), Status::kAuthFailed);
  // No retry: a bad tag is an attack indicator, and retrying would hand a
  // tampering server an oracle.
  EXPECT_EQ(backend.calls, 1u);
  const auto& recovery = reader.recovery();
  EXPECT_EQ(recovery.faults, 1u);
  EXPECT_EQ(recovery.timeouts, 0u);
  EXPECT_EQ(recovery.retries, 0u);
  EXPECT_EQ(recovery.sim_ns, 0u);
}

TEST(ReaderRecoveryTest, OverDelayedResponseCountsAsTimeout) {
  ScriptedBackend backend;
  const sim::BackoffPolicy policy;
  backend.script({Status::kOk, scripted_page(), policy.request_timeout_ns + 1});
  const state::WorldState local;
  const auto reader = storage_reader(local, backend);

  EXPECT_EQ(reader.storage(Address{}, kScriptedKey), kScriptedValue);  // the retry
  EXPECT_EQ(backend.calls, 2u);
  EXPECT_EQ(reader.recovery().timeouts, 1u);
  EXPECT_EQ(reader.recovery().retries, 1u);
}

TEST(ReaderRecoveryTest, ResidualDelayWithinTimeoutIsCharged) {
  ScriptedBackend backend;
  backend.script({Status::kOk, scripted_page(), 3'000'000});
  const state::WorldState local;
  const auto reader = storage_reader(local, backend);

  EXPECT_EQ(reader.storage(Address{}, kScriptedKey), kScriptedValue);
  EXPECT_EQ(reader.recovery().sim_ns, 3'000'000u);  // late but within budget
  EXPECT_EQ(reader.recovery().timeouts, 0u);
  EXPECT_EQ(backend.calls, 1u);
}

TEST(ReaderRecoveryTest, TerminalStatusThrowsBackendFault) {
  // StateReader has no Status channel, so a terminal attempt travels as
  // BackendFault carrying its status — here a stale proof on an account's
  // meta page, the other integrity failure and the other page path.
  ScriptedBackend backend;
  backend.script({Status::kBadProof, std::nullopt, 0});
  const state::WorldState local;
  const auto reader = storage_reader(local, backend);
  try {
    reader.account(Address{});
    FAIL() << "expected BackendFault";
  } catch (const BackendFault& fault) {
    EXPECT_EQ(fault.status(), Status::kBadProof);
  }
  EXPECT_EQ(backend.calls, 1u);  // fail closed: no retry
}

// ---------------------------------------------------------------------------
// FaultyLink + SecureChannel: the Ethernet is the SP's too
// ---------------------------------------------------------------------------

class LinkTest : public ::testing::Test {
 protected:
  static crypto::AesKey128 key() {
    crypto::AesKey128 k{};
    k[0] = 0x33;
    return k;
  }
  hypervisor::SecureChannel sender_{key(), hypervisor::ChannelRole::kInitiator};
  hypervisor::SecureChannel receiver_{key(), hypervisor::ChannelRole::kResponder};
};

TEST_F(LinkTest, TamperedFrameFailsClosedAndRetransmitLands) {
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kChannelFrame, 1, 0, {FaultKind::kTamper, 0});
  faults::FaultyLink link(plan, 1);

  const auto genuine =
      sender_.seal(hypervisor::MessageType::kBundleSubmit, 0, Bytes{1, 2, 3});
  auto delivered = link.transmit(genuine);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(receiver_.open(delivered[0], 1024, 1024).status, Status::kAuthFailed);

  // The receive sequence did not advance on the failed frame, so the
  // sender's retransmission of the SAME frame still authenticates.
  delivered = link.transmit(genuine);  // op 1: no fault
  ASSERT_EQ(delivered.size(), 1u);
  const auto open = receiver_.open(delivered[0], 1024, 1024);
  EXPECT_EQ(open.status, Status::kOk);
  EXPECT_EQ(open.body, (Bytes{1, 2, 3}));
}

TEST_F(LinkTest, DuplicateFrameRejectedByAntiReplay) {
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kChannelFrame, 1, 0, {FaultKind::kDuplicateFrame, 0});
  faults::FaultyLink link(plan, 1);

  const auto frame = sender_.seal(hypervisor::MessageType::kBundleSubmit, 0, Bytes{7});
  const auto delivered = link.transmit(frame);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(receiver_.open(delivered[0], 1024, 1024).status, Status::kOk);
  EXPECT_EQ(receiver_.open(delivered[1], 1024, 1024).status, Status::kRejected);
}

TEST_F(LinkTest, ReorderedFrameRejectedBySequence) {
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kChannelFrame, 1, 0, {FaultKind::kReorderFrame, 0});
  faults::FaultyLink link(plan, 1);

  const auto f0 = sender_.seal(hypervisor::MessageType::kBundleSubmit, 0, Bytes{0});
  const auto f1 = sender_.seal(hypervisor::MessageType::kBundleSubmit, 0, Bytes{1});
  EXPECT_TRUE(link.transmit(f0).empty());  // held back
  const auto delivered = link.transmit(f1);
  ASSERT_EQ(delivered.size(), 2u);  // f1 first, then the held f0
  // Strict sequence: the out-of-order successor is refused outright (fail
  // closed — the channel never buffers/reorders on the adversary's behalf),
  // then the in-order frame lands.
  EXPECT_EQ(receiver_.open(delivered[0], 1024, 1024).status, Status::kRejected);
  EXPECT_EQ(receiver_.open(delivered[1], 1024, 1024).status, Status::kOk);
  EXPECT_TRUE(link.flush().empty());
}

TEST_F(LinkTest, DroppedFrameNeverArrives) {
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kChannelFrame, 1, 0, {FaultKind::kDrop, 0});
  faults::FaultyLink link(plan, 1);
  const auto frame = sender_.seal(hypervisor::MessageType::kBundleSubmit, 0, Bytes{9});
  EXPECT_TRUE(link.transmit(frame).empty());
  EXPECT_TRUE(link.flush().empty());
}

// ---------------------------------------------------------------------------
// BoundedQueue::requeue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, RequeueBypassesCapacityAndGoesToFront) {
  service::BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));  // full
  queue.requeue(2);            // must not block
  EXPECT_EQ(queue.pop(), std::optional<int>{2});  // retries go first
  EXPECT_EQ(queue.pop(), std::optional<int>{1});
}

TEST(BoundedQueueTest, RequeueWorksAfterClose) {
  service::BoundedQueue<int> queue(2);
  queue.close();
  EXPECT_FALSE(queue.push(1));  // admission is closed...
  queue.requeue(5);             // ...but an in-flight retry still resolves
  EXPECT_EQ(queue.pop(), std::optional<int>{5});
  EXPECT_EQ(queue.pop(), std::nullopt);
}

// ---------------------------------------------------------------------------
// Engine-level recovery: session abort, requeue, circuit breaker
// ---------------------------------------------------------------------------

class EngineFaultTest : public ::testing::Test {
 protected:
  EngineFaultTest() {
    gen_.deploy(node_.world());
    node_.produce_block({});
  }

  service::EngineConfig make_config(FaultPlan* plan, int workers = 4) {
    service::EngineConfig config;
    config.security = service::SecurityConfig::full();
    config.num_hevms = workers;
    config.queue_depth = 16;
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
    config.seal_mode = oram::SealMode::kChaChaHmac;
    config.perform_channel_crypto = false;
    config.fault_plan = plan;
    return config;
  }

  std::vector<evm::Transaction> bundle_for(uint64_t id) {
    const auto& users = gen_.users();
    evm::Transaction transfer;
    transfer.from = users[id % users.size()];
    transfer.to = gen_.tokens()[id % gen_.tokens().size()];
    transfer.data = workload::erc20_transfer(users[(id + 1) % users.size()],
                                             u256{10 + id % 7});
    transfer.gas_limit = 500'000;
    return {transfer};
  }

  std::vector<service::SessionOutcome> run_engine(service::EngineConfig config,
                                                  size_t bundles) {
    service::PreExecutionEngine engine(node_, config);
    EXPECT_EQ(engine.synchronize(), Status::kOk);
    engine.start();
    for (size_t i = 0; i < bundles; ++i) engine.submit(bundle_for(i));
    return engine.drain();
  }

  node::NodeSimulator node_;
  workload::WorkloadGenerator gen_{workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 2}};
};

// A fault-free plan (rate 0) must leave every outcome bit-identical to the
// plan-less engine: the entire recovery stack is dormant without faults.
TEST_F(EngineFaultTest, DormantFaultPlanChangesNothing) {
  const size_t kBundles = 12;
  const auto baseline = run_engine(make_config(nullptr), kBundles);

  FaultPlan plan(FaultPlanConfig{});  // rate 0
  const auto with_plan = run_engine(make_config(&plan), kBundles);

  ASSERT_EQ(baseline.size(), with_plan.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(service::outcomes_bit_identical(baseline[i], with_plan[i]))
        << "bundle " << i;
    EXPECT_EQ(with_plan[i].faults_seen, 0u);
    EXPECT_EQ(with_plan[i].recovery_sim_ns, 0u);
  }
  EXPECT_EQ(plan.injected(), 0u);
}

// The acceptance criterion: same fault seed => same injected-fault schedule
// and the same outcome set, independent of worker interleaving.
TEST_F(EngineFaultTest, FaultedRunReplaysBitIdentically) {
  FaultPlanConfig fconfig;
  fconfig.seed = 99;
  fconfig.fault_rate = 0.02;
  fconfig.weight_tamper = 0;  // keep this run to recoverable faults only
  fconfig.weight_stale_proof = 0;  // and keep the sync pass clean
  fconfig.max_delay_ns = 5'000'000;

  auto run_once = [&](int workers) {
    FaultPlan plan(fconfig);
    auto config = make_config(&plan, workers);
    config.breaker_threshold = 0;  // isolate determinism from quarantining
    auto outcomes = run_engine(config, 24);
    return std::make_pair(std::move(outcomes), plan.trace());
  };
  const auto [first, trace_first] = run_once(2);
  const auto [second, trace_second] = run_once(6);  // different interleaving

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(service::outcomes_bit_identical(first[i], second[i]))
        << "bundle " << i << " diverged across worker counts";
  }
  EXPECT_EQ(trace_first, trace_second);
}

// One tampered ORAM page aborts exactly that session with kAuthFailed —
// fail closed, no retry (retrying integrity failures would give the
// tampering server an oracle) — and no other session is disturbed.
TEST_F(EngineFaultTest, TamperedPageAbortsOnlyThatSession) {
  const uint64_t kVictim = 3;
  FaultPlan plan(FaultPlanConfig{});  // rate 0 + one forced strike
  plan.force(FaultSite::kOramRead, faults::fault_stream(kVictim, 0), 0,
             {FaultKind::kTamper, 0});

  service::PreExecutionEngine engine(node_, make_config(&plan));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  engine.start();
  const size_t kBundles = 8;
  for (size_t i = 0; i < kBundles; ++i) engine.submit(bundle_for(i));
  const auto outcomes = engine.drain();

  ASSERT_EQ(outcomes.size(), kBundles);
  for (const auto& outcome : outcomes) {
    if (outcome.bundle_id == kVictim) {
      EXPECT_EQ(outcome.status, Status::kAuthFailed);
      EXPECT_TRUE(outcome.backend_fault);
      EXPECT_EQ(outcome.attempt, 0u);  // integrity failures never requeue
      EXPECT_TRUE(outcome.report.transactions.empty());  // no traces leak
    } else {
      EXPECT_EQ(outcome.status, Status::kOk) << "bundle " << outcome.bundle_id;
      EXPECT_EQ(outcome.faults_seen, 0u);
    }
  }
  const auto metrics = engine.snapshot();
  EXPECT_EQ(metrics.bundles_aborted, 1u);
  EXPECT_FALSE(metrics.circuit_open);  // one strike is not an outage
}

// A single dropped response recovers invisibly: the reader retries inside
// the session and the bundle still completes kOk (with the retry time on
// its simulated clock).
TEST_F(EngineFaultTest, SingleDropRecoversWithinTheSession) {
  const uint64_t kVictim = 2;
  FaultPlan plan(FaultPlanConfig{});
  plan.force(FaultSite::kOramRead, faults::fault_stream(kVictim, 0), 0,
             {FaultKind::kDrop, 0});

  const auto outcomes = run_engine(make_config(&plan), 6);
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.status, Status::kOk) << "bundle " << outcome.bundle_id;
    if (outcome.bundle_id == kVictim) {
      EXPECT_EQ(outcome.oram_retries, 1u);
      EXPECT_EQ(outcome.faults_seen, 1u);
      EXPECT_GT(outcome.recovery_sim_ns, 0u);
    } else {
      EXPECT_EQ(outcome.recovery_sim_ns, 0u);
    }
  }
}

// 100% response loss: the breaker must open after breaker_threshold
// consecutive failed attempts, the queue must drain as kUnavailable, a
// subsequent submit must be refused at admission, and nothing deadlocks.
TEST_F(EngineFaultTest, TotalOramLossOpensCircuitBreaker) {
  FaultPlanConfig fconfig;
  fconfig.fault_rate = 1.0;
  fconfig.weight_drop = 1.0;  // only drops
  fconfig.weight_delay = 0;
  fconfig.weight_tamper = 0;
  fconfig.weight_stale_proof = 0;  // the sync pass must succeed
  FaultPlan plan(fconfig);

  auto config = make_config(&plan, 2);
  config.breaker_threshold = 4;
  service::PreExecutionEngine engine(node_, config);
  ASSERT_EQ(engine.synchronize(), Status::kOk);  // install is outside scopes
  engine.start();

  const size_t kBundles = 12;
  for (size_t i = 0; i < kBundles; ++i) engine.submit(bundle_for(i));

  // The breaker must open in bounded time (every attempt fails fast in
  // simulated time; wall time here is just thread scheduling).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!engine.snapshot().circuit_open) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "breaker never opened";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Post-open admissions are refused immediately — no queueing, no blocking.
  const auto refused = engine.submit(bundle_for(kBundles));
  EXPECT_EQ(refused.status, Status::kUnavailable);

  const auto outcomes = engine.drain();  // must terminate: no deadlock
  ASSERT_EQ(outcomes.size(), kBundles + 1);
  for (const auto& outcome : outcomes) {
    EXPECT_NE(outcome.status, Status::kOk);
    EXPECT_TRUE(outcome.status == Status::kRetryExhausted ||
                outcome.status == Status::kUnavailable)
        << "bundle " << outcome.bundle_id << ": " << to_string(outcome.status);
  }
  const auto metrics = engine.snapshot();
  EXPECT_TRUE(metrics.circuit_open);
  EXPECT_GT(metrics.bundles_unavailable, 0u);
  EXPECT_GT(metrics.oram_retry_exhausted, 0u);
  EXPECT_EQ(metrics.bundles_completed, kBundles + 1);  // every bundle resolved
}

// ---------------------------------------------------------------------------
// Per-shard fail-closed recovery over a real sharded store
// ---------------------------------------------------------------------------

/// Adversary that corrupts exactly one subtree shard of a real
/// ShardedOramStore: every access routed to the victim shard comes back with
/// a bad tag (kAuthFailed, as tampering surfaces through seal verification),
/// while every other shard passes through untouched.
class ShardTamperOram : public oram::OramAccessor {
 public:
  ShardTamperOram(oram::ShardedOramStore& store, uint32_t victim)
      : store_(store), victim_(victim) {}

  oram::AccessAttempt try_read(const oram::BlockId& id) override {
    if (store_.shard_of(id) == victim_) {
      tampered_.fetch_add(1, std::memory_order_relaxed);
      return {Status::kAuthFailed, std::nullopt, 0};
    }
    return store_.try_read(id);
  }
  oram::AccessAttempt try_write(const oram::BlockId& id, BytesView data) override {
    if (store_.shard_of(id) == victim_) {
      tampered_.fetch_add(1, std::memory_order_relaxed);
      return {Status::kAuthFailed, std::nullopt, 0};
    }
    return store_.try_write(id, data);
  }
  uint64_t tampered() const { return tampered_.load(); }

 private:
  oram::ShardedOramStore& store_;
  const uint32_t victim_;
  std::atomic<uint64_t> tampered_{0};
};

TEST(ShardFailureTest, TamperOnOneShardFailsClosed) {
  // Real sharded store, pinned assignment: shard_of is stable across
  // accesses, so "the victim shard's pages" is a fixed, checkable set.
  auto config = oram::ShardedOramStore::partition(
      oram::OramConfig{.block_size = oram::kPageSize, .capacity = 128, .max_stash_blocks = 128},
      /*shards=*/4);
  config.pin_shard_assignment = true;
  crypto::AesKey128 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(0xA0 + i);
  oram::ShardedOramStore store(std::move(config), key, /*rng_seed=*/0xfa,
                               oram::SealMode::kChaChaHmac);

  // Seed 32 accounts' storage group pages (account i's kScriptedKey record
  // reads i + 1); pinning fixes each page's shard for the test's lifetime.
  const auto account = [](uint64_t i) {
    return Address::from_u256(u256{0x1000 + i});
  };
  const auto page_of = [&](uint64_t i) {
    return oram::page_id(oram::PageType::kStorageGroup, account(i),
                         oram::storage_group(kScriptedKey));
  };
  for (uint64_t i = 0; i < 32; ++i) {
    oram::StorageGroupPage page;
    page.set(kScriptedKey, u256{i + 1});
    store.write(page_of(i), page.serialize());
  }
  std::vector<uint64_t> victims;
  std::vector<uint64_t> healthy;
  const uint32_t victim = store.shard_of(page_of(0));  // any occupied shard
  for (uint64_t i = 0; i < 32; ++i) {
    (store.shard_of(page_of(i)) == victim ? victims : healthy).push_back(i);
  }
  ASSERT_GE(victims.size(), 2u);
  ASSERT_FALSE(healthy.empty());

  ShardTamperOram tamper(store, victim);
  const state::WorldState local;
  const auto reader = storage_reader(local, tamper);

  // Tampered responses from the victim shard fail closed: no retries, so
  // exactly one backend touch per request.
  for (const uint64_t i : {victims[0], victims[1]}) {
    try {
      reader.storage(account(i), kScriptedKey);
      ADD_FAILURE() << "account " << i << ": expected BackendFault";
    } catch (const BackendFault& fault) {
      EXPECT_EQ(fault.status(), Status::kAuthFailed);
    }
  }
  EXPECT_EQ(tamper.tampered(), 2u);
  EXPECT_EQ(reader.recovery().retries, 0u);

  // Every page on every other shard still round-trips for real.
  for (const uint64_t i : healthy) {
    EXPECT_EQ(reader.storage(account(i), kScriptedKey), u256{i + 1}) << i;
  }
  EXPECT_EQ(tamper.tampered(), 2u);
}

// The SP's node feed is covered too: with stale-proof faults forced on, the
// genuine Merkle verification rejects the sync fail-closed with kBadProof.
TEST_F(EngineFaultTest, SyncRejectsTamperedProofs) {
  FaultPlanConfig fconfig;
  fconfig.fault_rate = 1.0;
  fconfig.weight_stale_proof = 1.0;
  FaultPlan plan(fconfig);
  service::PreExecutionEngine engine(node_, make_config(&plan));
  EXPECT_EQ(engine.synchronize(), Status::kBadProof);
}

}  // namespace
}  // namespace hardtape
