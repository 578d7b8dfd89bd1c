// Front-door tests (PR 7 + PR 9): the framed service API fails closed,
// admission is fair and deadline-honest, overload sheds instead of
// collapsing, the dedicated-hardware invariant holds (no device ever serves
// two sessions at once), the elastic device pool hot-adds/drains/crashes
// with fail-closed failover, and the whole front door is bit-identical
// across worker counts — churn included.
// This binary runs under TSan in CI alongside engine_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.hpp"
#include "faults/fault_plan.hpp"
#include "faults/faulty_link.hpp"
#include "mutants.hpp"
#include "service/admission.hpp"
#include "service/device_pool.hpp"
#include "service/front_door.hpp"
#include "trie/rlp.hpp"
#include "workload/generator.hpp"

namespace hardtape::service {
namespace {

crypto::AesKey128 test_key(uint8_t seed) {
  crypto::AesKey128 key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(seed + 31 * i);
  }
  return key;
}

// ---------------------------------------------------------------- frames --

evm::Transaction sample_tx(uint64_t salt) {
  evm::Transaction tx;
  for (size_t i = 0; i < tx.from.bytes.size(); ++i) {
    tx.from.bytes[i] = static_cast<uint8_t>(salt + i);
  }
  if (salt % 2 == 0) {
    Address to;
    for (size_t i = 0; i < to.bytes.size(); ++i) {
      to.bytes[i] = static_cast<uint8_t>(0x80 + salt + i);
    }
    tx.to = to;
  }
  tx.value = u256{salt, 0, 0, salt + 7};  // exercises > 64-bit values
  tx.data = Bytes{0x01, 0x02, 0x00, 0xff};
  tx.gas_limit = 700'000 + salt;
  tx.gas_price = u256{2};
  if (salt % 3 == 0) tx.nonce = 42 + salt;
  return tx;
}

TEST(ServiceFramesTest, RequestFrameRoundTrips) {
  RequestFrame frame;
  frame.verb = Verb::kSubmit;
  frame.session_id = 0x1234'5678'9abcull;
  frame.tenant_id = 7;
  frame.request_id = 99;
  frame.deadline_ns = 5'000'000;
  frame.client_time_ns = 123'456'789;
  frame.bundle = {sample_tx(0), sample_tx(1), sample_tx(3)};

  const auto decoded = RequestFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, kServiceFrameVersion);
  EXPECT_EQ(decoded->verb, Verb::kSubmit);
  EXPECT_EQ(decoded->session_id, frame.session_id);
  EXPECT_EQ(decoded->tenant_id, frame.tenant_id);
  EXPECT_EQ(decoded->request_id, frame.request_id);
  EXPECT_EQ(decoded->deadline_ns, frame.deadline_ns);
  EXPECT_EQ(decoded->client_time_ns, frame.client_time_ns);
  ASSERT_EQ(decoded->bundle.size(), frame.bundle.size());
  for (size_t i = 0; i < frame.bundle.size(); ++i) {
    const auto& a = frame.bundle[i];
    const auto& b = decoded->bundle[i];
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.gas_limit, b.gas_limit);
    EXPECT_EQ(a.gas_price, b.gas_price);
    EXPECT_EQ(a.nonce, b.nonce);
  }
}

TEST(ServiceFramesTest, ResponseFrameRoundTrips) {
  ResponseFrame frame;
  frame.verb = Verb::kPoll;
  frame.session_id = 5;
  frame.request_id = 17;
  frame.status = Status::kOk;
  frame.done = true;
  frame.outcome_status = Status::kDeadlineExceeded;
  frame.queue_wait_ns = 1'000;
  frame.exec_ns = 2'000;
  frame.gas_used = 21'000;

  const auto decoded = ResponseFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->verb, Verb::kPoll);
  EXPECT_EQ(decoded->session_id, 5u);
  EXPECT_EQ(decoded->request_id, 17u);
  EXPECT_EQ(decoded->status, Status::kOk);
  EXPECT_TRUE(decoded->done);
  EXPECT_EQ(decoded->outcome_status, Status::kDeadlineExceeded);
  EXPECT_EQ(decoded->queue_wait_ns, 1'000u);
  EXPECT_EQ(decoded->exec_ns, 2'000u);
  EXPECT_EQ(decoded->gas_used, 21'000u);
}

// Every deviation from the wire contract must decode to nullopt — no
// partial parses, no best-effort guesses.
TEST(ServiceFramesTest, DecodeFailsClosedOnEveryDeviation) {
  RequestFrame good;
  good.verb = Verb::kPoll;
  good.session_id = 1;
  good.request_id = 2;
  const Bytes encoded = good.encode();
  ASSERT_TRUE(RequestFrame::decode(encoded).has_value());

  // Truncations at every length below full.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(
        RequestFrame::decode(BytesView{encoded.data(), len}).has_value())
        << "truncation to " << len << " bytes parsed";
  }
  // Trailing garbage.
  Bytes trailing = encoded;
  trailing.push_back(0x00);
  EXPECT_FALSE(RequestFrame::decode(trailing).has_value());
  // Not a list.
  EXPECT_FALSE(RequestFrame::decode(Bytes{0x82, 0x01, 0x02}).has_value());

  // Wrong version.
  RequestFrame bad_version = good;
  bad_version.version = kServiceFrameVersion + 1;
  EXPECT_FALSE(RequestFrame::decode(bad_version.encode()).has_value());
  // Unknown verb.
  RequestFrame bad_verb = good;
  bad_verb.verb = static_cast<Verb>(9);
  EXPECT_FALSE(RequestFrame::decode(bad_verb.encode()).has_value());
  // A bundle on a non-submit verb.
  RequestFrame poll_with_bundle = good;
  poll_with_bundle.bundle = {sample_tx(0)};
  EXPECT_FALSE(RequestFrame::decode(poll_with_bundle.encode()).has_value());

  // Response with an out-of-range status byte.
  ResponseFrame response;
  response.status = static_cast<Status>(
      static_cast<int>(Status::kStatusCount_));
  EXPECT_FALSE(ResponseFrame::decode(response.encode()).has_value());
}

// A u64 of random byte width (0 to 8 bytes), so every length class of an
// integer field shows up.
uint64_t random_u64(Random& rng) {
  const uint64_t width = rng.uniform(9);
  return width == 0 ? 0 : rng.next_u64() >> (64 - 8 * width);
}

evm::Transaction random_tx(Random& rng) {
  evm::Transaction tx;
  rng.fill(tx.from.bytes.data(), tx.from.bytes.size());
  if (rng.uniform(2) == 0) {
    Address to;
    rng.fill(to.bytes.data(), to.bytes.size());
    tx.to = to;
  }
  tx.value = u256::from_be_bytes(rng.bytes(rng.uniform(33)));
  tx.data = rng.bytes(rng.uniform(6));
  tx.gas_limit = random_u64(rng);
  tx.gas_price = u256::from_be_bytes(rng.bytes(rng.uniform(5)));
  if (rng.uniform(2) == 0) tx.nonce = random_u64(rng);
  return tx;
}

// Seeded mutation fuzz: every single-bit flip, one-byte insertion, one-byte
// deletion and truncation of 200 valid request frames (every verb; submits
// carry 0-3 transactions) is refused, or decodes to a frame that encodes
// back to the mutant's exact bytes.
TEST(ServiceFramesTest, RequestFrameMutantsDecodeOnlyToTheirOwnBytes) {
  Random rng(0xf0a3e5);
  fuzz::MutantTally tally;
  for (int i = 0; i < 200; ++i) {
    RequestFrame frame;
    frame.verb = static_cast<Verb>(1 + i % 4);
    frame.session_id = random_u64(rng);
    frame.tenant_id = random_u64(rng);
    frame.request_id = random_u64(rng);
    frame.deadline_ns = random_u64(rng);
    frame.client_time_ns = random_u64(rng);
    if (frame.verb == Verb::kSubmit) {
      const uint64_t txs = rng.uniform(4);
      for (uint64_t t = 0; t < txs; ++t) frame.bundle.push_back(random_tx(rng));
    }
    const Bytes encoded = frame.encode();
    ASSERT_TRUE(RequestFrame::decode(encoded).has_value()) << "frame " << i;
    fuzz::for_each_mutant(encoded, rng, [&](const Bytes& mutant) {
      const auto parsed = RequestFrame::decode(mutant);
      tally.record(mutant, parsed ? std::optional(parsed->encode()) : std::nullopt);
    });
  }
  EXPECT_EQ(tally.not_canonical, 0u) << tally.first_not_canonical;
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_LT(tally.decoded, tally.total);
  RecordProperty("mutants", static_cast<int>(tally.total));
  RecordProperty("decoded", static_cast<int>(tally.decoded));
}

TEST(ServiceFramesTest, ResponseFrameMutantsDecodeOnlyToTheirOwnBytes) {
  Random rng(0x7e5b0);
  fuzz::MutantTally tally;
  for (int i = 0; i < 200; ++i) {
    ResponseFrame frame;
    frame.verb = static_cast<Verb>(1 + i % 4);
    frame.session_id = random_u64(rng);
    frame.request_id = random_u64(rng);
    const auto status_count = static_cast<uint64_t>(Status::kStatusCount_);
    frame.status = static_cast<Status>(rng.uniform(status_count));
    frame.done = rng.uniform(2) == 1;
    frame.outcome_status = static_cast<Status>(rng.uniform(status_count));
    frame.queue_wait_ns = random_u64(rng);
    frame.exec_ns = random_u64(rng);
    frame.gas_used = random_u64(rng);
    const Bytes encoded = frame.encode();
    ASSERT_TRUE(ResponseFrame::decode(encoded).has_value()) << "frame " << i;
    fuzz::for_each_mutant(encoded, rng, [&](const Bytes& mutant) {
      const auto parsed = ResponseFrame::decode(mutant);
      tally.record(mutant, parsed ? std::optional(parsed->encode()) : std::nullopt);
    });
  }
  EXPECT_EQ(tally.not_canonical, 0u) << tally.first_not_canonical;
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_LT(tally.decoded, tally.total);
  RecordProperty("mutants", static_cast<int>(tally.total));
  RecordProperty("decoded", static_cast<int>(tally.decoded));
}

// ------------------------------------------------- lossy secure channel --

TEST(LossyChannelTest, SkipsForwardAcceptsRejectsReplayAndReorder) {
  const auto key = test_key(9);
  hypervisor::SecureChannel sender(key, hypervisor::ChannelRole::kInitiator);
  hypervisor::SecureChannel receiver(key, hypervisor::ChannelRole::kResponder);
  receiver.set_lossy_transport(true);

  const Bytes body{0x01};
  auto f0 = sender.seal(hypervisor::MessageType::kBundleSubmit, 0, body);
  auto f1 = sender.seal(hypervisor::MessageType::kBundleSubmit, 0, body);
  auto f2 = sender.seal(hypervisor::MessageType::kBundleSubmit, 0, body);

  EXPECT_EQ(receiver.open(f0, 1 << 10, 0).status, Status::kOk);
  // f1 is dropped by the wire; f2 must still be accepted (forward skip).
  EXPECT_EQ(receiver.open(f2, 1 << 10, 0).status, Status::kOk);
  // Replay of f2 and late delivery of f1 are both behind the window: closed.
  EXPECT_EQ(receiver.open(f2, 1 << 10, 0).status, Status::kRejected);
  EXPECT_EQ(receiver.open(f1, 1 << 10, 0).status, Status::kRejected);

  // Strict mode (the hypervisor's default) still refuses the skip.
  hypervisor::SecureChannel strict(key, hypervisor::ChannelRole::kResponder);
  auto g0 = sender.seal(hypervisor::MessageType::kBundleSubmit, 0, body);
  auto g1 = sender.seal(hypervisor::MessageType::kBundleSubmit, 0, body);
  (void)g0;
  EXPECT_EQ(strict.open(g1, 1 << 10, 0).status, Status::kRejected);
}

// --------------------------------------------------- admission controller --

AdmissionConfig small_admission() {
  AdmissionConfig config;
  config.defaults.weight = 1;
  config.defaults.queue_capacity = 64;
  config.defaults.max_in_flight = 64;
  config.defaults.priority = 1;
  return config;
}

QueuedRequest make_request(uint64_t tenant, uint64_t request_id,
                           uint64_t deadline_ns = 0) {
  QueuedRequest request;
  request.session_id = tenant;
  request.tenant_id = tenant;
  request.request_id = request_id;
  request.deadline_ns = deadline_ns;
  return request;
}

TEST(AdmissionTest, DeficitRoundRobinHonorsWeights) {
  obs::Registry registry;
  AdmissionConfig config = small_admission();
  config.tenants = {
      TenantConfig{.tenant_id = 1, .weight = 2, .queue_capacity = 64,
                   .max_in_flight = 64, .priority = 1},
      TenantConfig{.tenant_id = 2, .weight = 1, .queue_capacity = 64,
                   .max_in_flight = 64, .priority = 1},
  };
  AdmissionController admission(config, &registry);
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_EQ(admission.admit(make_request(1, i), 0), Status::kOk);
    ASSERT_EQ(admission.admit(make_request(2, 100 + i), 0), Status::kOk);
  }
  // Over two full DRR rounds, tenant 1 (weight 2) dispatches twice per
  // round, tenant 2 once — and consecutively within a quantum.
  std::vector<uint64_t> order;
  for (int i = 0; i < 6; ++i) {
    auto pick = admission.next(1);
    ASSERT_TRUE(pick.has_value());
    ASSERT_FALSE(pick->expired);
    order.push_back(pick->request.tenant_id);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 1, 2, 1, 1, 2}));
}

TEST(AdmissionTest, QuotaSkipsTenantWithoutStarvingOthers) {
  obs::Registry registry;
  AdmissionConfig config = small_admission();
  config.defaults.max_in_flight = 1;
  AdmissionController admission(config, &registry);
  ASSERT_EQ(admission.admit(make_request(1, 0), 0), Status::kOk);
  ASSERT_EQ(admission.admit(make_request(1, 1), 0), Status::kOk);
  ASSERT_EQ(admission.admit(make_request(2, 2), 0), Status::kOk);

  auto first = admission.next(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.tenant_id, 1u);
  // Tenant 1 is now at quota: its second request must wait, tenant 2 runs.
  auto second = admission.next(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request.tenant_id, 2u);
  EXPECT_FALSE(admission.next(1).has_value());  // everyone queued is at quota
  admission.on_complete(1);
  auto third = admission.next(2);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->request.tenant_id, 1u);
}

TEST(AdmissionTest, FullTenantQueueShedsOnlyThatTenant) {
  obs::Registry registry;
  AdmissionConfig config = small_admission();
  config.defaults.queue_capacity = 2;
  AdmissionController admission(config, &registry);
  EXPECT_EQ(admission.admit(make_request(1, 0), 0), Status::kOk);
  EXPECT_EQ(admission.admit(make_request(1, 1), 0), Status::kOk);
  EXPECT_EQ(admission.admit(make_request(1, 2), 0), Status::kOverloaded);
  EXPECT_EQ(admission.admit(make_request(2, 3), 0), Status::kOk);
  EXPECT_EQ(
      registry.counter("hardtape_service_tenant_1_shed_total").value(), 1u);
}

TEST(AdmissionTest, DeadlineRefusedAtArrivalAndExpiredInQueue) {
  obs::Registry registry;
  AdmissionController admission(small_admission(), &registry);
  // Dead on arrival: the absolute deadline already passed.
  EXPECT_EQ(admission.admit(make_request(1, 0, /*deadline_ns=*/100), 100),
            Status::kDeadlineExceeded);
  EXPECT_EQ(admission.admit(make_request(1, 1, /*deadline_ns=*/500), 100),
            Status::kOk);
  // Ages out while queued: the pick comes back expired, consuming nothing.
  auto pick = admission.next(1'000);
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(pick->expired);
  EXPECT_EQ(pick->request.request_id, 1u);
  EXPECT_FALSE(admission.next(1'000).has_value());
  // Both refusals count: the dead-on-arrival admit and the in-queue expiry.
  EXPECT_EQ(registry
                .counter("hardtape_service_tenant_1_deadline_exceeded_total")
                .value(),
            2u);
}

TEST(AdmissionTest, BrownoutLadderEscalatesAndRecoversWithHysteresis) {
  obs::Registry registry;
  AdmissionConfig config = small_admission();
  config.tenants = {
      TenantConfig{.tenant_id = 1, .weight = 1, .queue_capacity = 64,
                   .max_in_flight = 64, .priority = 1},  // below the floor
      TenantConfig{.tenant_id = 2, .weight = 1, .queue_capacity = 64,
                   .max_in_flight = 64, .priority = 5},  // above the floor
  };
  config.shed_priority_floor = 2;
  config.shed_depth_enter = 4;
  config.shed_depth_exit = 2;
  config.admit_none_depth_enter = 8;
  config.admit_none_depth_exit = 4;
  AdmissionController admission(config, &registry);

  uint64_t id = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(admission.admit(make_request(2, id++), 0), Status::kOk);
  }
  EXPECT_EQ(admission.state(), BrownoutState::kShedLowPriority);
  // Rung 1: the low-priority tenant is refused, the high-priority one runs.
  EXPECT_EQ(admission.admit(make_request(1, id++), 0), Status::kOverloaded);
  EXPECT_EQ(admission.admit(make_request(2, id++), 0), Status::kOk);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(admission.admit(make_request(2, id++), 0), Status::kOk);
  }
  EXPECT_EQ(admission.state(), BrownoutState::kAdmitNone);
  // Rung 2: everyone is refused.
  EXPECT_EQ(admission.admit(make_request(2, id++), 0), Status::kOverloaded);

  // Drain below the exit marks, one rung per update: 8 -> 3 leaves
  // admit-none, then shed; 3 -> 1 restores healthy.
  auto drain_to = [&](size_t depth) {
    while (admission.total_queued() > depth) {
      auto pick = admission.next(10);
      ASSERT_TRUE(pick.has_value());
      admission.on_complete(pick->request.tenant_id);
    }
  };
  drain_to(3);
  EXPECT_EQ(admission.state(), BrownoutState::kShedLowPriority);
  EXPECT_EQ(admission.admit(make_request(1, id++), 10), Status::kOverloaded);
  drain_to(1);
  EXPECT_EQ(admission.state(), BrownoutState::kHealthy);
  EXPECT_EQ(admission.admit(make_request(1, id++), 10), Status::kOk);
  // The ladder is visible as a gauge.
  EXPECT_EQ(registry.gauge("hardtape_service_brownout_state").value(), 0.0);
}

// Failover re-admission: readmit() bypasses the brownout ladder and the
// queue cap (the request already won admission once) and re-enters at the
// FRONT of its tenant queue, ahead of earlier arrivals.
TEST(AdmissionTest, ReadmitBypassesBrownoutAndGoesToTheFront) {
  obs::Registry registry;
  AdmissionConfig config = small_admission();
  config.defaults.priority = 1;  // below the floor: shed in brownout
  config.shed_depth_enter = 2;
  config.shed_depth_exit = 1;
  AdmissionController admission(config, &registry);
  ASSERT_EQ(admission.admit(make_request(1, 0), 0), Status::kOk);
  ASSERT_EQ(admission.admit(make_request(1, 1), 0), Status::kOk);
  ASSERT_EQ(admission.state(), BrownoutState::kShedLowPriority);
  // A fresh admit from this sub-floor tenant is refused...
  EXPECT_EQ(admission.admit(make_request(1, 2), 0), Status::kOverloaded);
  // ...but the failover re-admission is not, and it dispatches FIRST.
  admission.readmit(make_request(1, 99), 10);
  auto pick = admission.next(10);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->request.request_id, 99u);
  admission.on_complete(1);
}

// ------------------------------------------------------------ device pool --

sim::BackoffPolicy fast_probe() {
  sim::BackoffPolicy policy;
  policy.base_ns = 1'000'000;
  policy.cap_ns = 8'000'000;
  policy.jitter_frac = 0.0;  // exact wake instants for the assertions below
  return policy;
}

TEST(DevicePoolTest, StaticFleetServesAndDrains) {
  obs::Registry registry;
  DevicePoolConfig config;
  config.initial_devices = 2;
  DevicePool pool(config, &registry);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.serving_count(), 2u);
  EXPECT_EQ(pool.next_transition_ns(), UINT64_MAX);

  // acquire() binds the lowest-id idle serving device.
  EXPECT_EQ(pool.acquire(0), std::optional<uint32_t>(0));
  EXPECT_EQ(pool.acquire(0), std::optional<uint32_t>(1));
  EXPECT_FALSE(pool.acquire(0).has_value());
  EXPECT_FALSE(pool.has_idle());
  pool.complete(0, 100);
  EXPECT_TRUE(pool.has_idle());

  // Draining a BUSY device: kDraining until its session completes, then dead.
  ASSERT_EQ(pool.start_drain(1, 200), std::optional(DeviceState::kDraining));
  EXPECT_FALSE(pool.start_drain(1, 210).has_value());  // idempotent
  pool.complete(1, 300);
  EXPECT_EQ(pool.state(1), DeviceState::kDead);
  // Draining an IDLE device completes immediately.
  EXPECT_FALSE(pool.start_drain(0, 400).has_value());
  EXPECT_EQ(pool.state(0), DeviceState::kDead);
  EXPECT_FALSE(pool.can_ever_serve());
  EXPECT_EQ(
      registry.counter("hardtape_service_device_drains_completed_total")
          .value(),
      2u);
  // The lifecycle log caught every transition, in order, at the right times.
  const std::vector<DeviceEvent> expected{
      {0, 0, DeviceEventKind::kJoin},       {0, 0, DeviceEventKind::kServe},
      {0, 1, DeviceEventKind::kJoin},       {0, 1, DeviceEventKind::kServe},
      {200, 1, DeviceEventKind::kDrainStart},
      {300, 1, DeviceEventKind::kDrainDone},
      {400, 0, DeviceEventKind::kDrainStart},
      {400, 0, DeviceEventKind::kDrainDone},
  };
  EXPECT_EQ(pool.events(), expected);
}

TEST(DevicePoolTest, HotAddWarmsUpBeforeServing) {
  obs::Registry registry;
  DevicePoolConfig config;
  config.initial_devices = 1;
  config.join_warmup_ns = 1'000;
  DevicePool pool(config, &registry);
  const uint32_t id = pool.add_device(500);
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(pool.state(id), DeviceState::kJoining);
  EXPECT_TRUE(pool.can_ever_serve());
  EXPECT_EQ(pool.next_transition_ns(), 1'500u);
  // Not bindable while warming up (occupy device 0 to prove it).
  ASSERT_EQ(pool.acquire(600), std::optional<uint32_t>(0));
  EXPECT_FALSE(pool.acquire(600).has_value());
  pool.advance_to(1'499);
  EXPECT_EQ(pool.state(id), DeviceState::kJoining);
  pool.advance_to(1'500);
  EXPECT_EQ(pool.state(id), DeviceState::kServing);
  EXPECT_EQ(pool.acquire(1'500), std::optional<uint32_t>(1));
  EXPECT_EQ(
      registry.counter("hardtape_service_device_hot_adds_total").value(), 1u);
}

TEST(DevicePoolTest, StickyBreakerQuarantinesAndRejoins) {
  obs::Registry registry;
  DevicePoolConfig config;
  config.initial_devices = 1;
  config.quarantine_threshold = 2;
  config.probe_backoff = fast_probe();
  DevicePool pool(config, &registry);

  // One sticky fault: streak 1, still serving.
  ASSERT_TRUE(pool.acquire(0).has_value());
  pool.sticky_fault(0, 10);
  EXPECT_EQ(pool.state(0), DeviceState::kServing);
  // Second consecutive: breaker trips at the deterministic backoff.
  ASSERT_TRUE(pool.acquire(10).has_value());
  pool.sticky_fault(0, 20);
  EXPECT_EQ(pool.state(0), DeviceState::kQuarantined);
  EXPECT_FALSE(pool.has_idle());
  EXPECT_TRUE(pool.can_ever_serve());
  const uint64_t wake =
      20 + sim::backoff_delay_ns(config.probe_backoff, 1, /*stream_tag=*/0);
  EXPECT_EQ(pool.next_transition_ns(), wake);
  pool.advance_to(wake);
  EXPECT_EQ(pool.state(0), DeviceState::kServing);

  // A clean completion resets the streak: one more sticky does NOT re-trip.
  ASSERT_TRUE(pool.acquire(wake).has_value());
  pool.complete(0, wake + 10);
  ASSERT_TRUE(pool.acquire(wake + 10).has_value());
  pool.sticky_fault(0, wake + 20);
  EXPECT_EQ(pool.state(0), DeviceState::kServing);
  EXPECT_EQ(
      registry.counter("hardtape_service_device_quarantines_total").value(),
      1u);
  EXPECT_EQ(registry.counter("hardtape_service_device_rejoins_total").value(),
            1u);
}

TEST(DevicePoolTest, CrashIsPermanentUnlessFlapRejoins) {
  obs::Registry registry;
  DevicePoolConfig config;
  config.initial_devices = 2;
  DevicePool pool(config, &registry);
  // Permanent death; idempotent on a dead device.
  ASSERT_TRUE(pool.acquire(0).has_value());
  pool.crash(0, 100, /*rejoin_at_ns=*/0);
  EXPECT_EQ(pool.state(0), DeviceState::kDead);
  pool.crash(0, 200, 0);  // no-op, no double count
  EXPECT_EQ(
      registry.counter("hardtape_service_device_crashes_total").value(), 1u);
  // Flap: quarantined until the repair instant, then serving again.
  pool.crash(1, 150, /*rejoin_at_ns=*/5'000);
  EXPECT_EQ(pool.state(1), DeviceState::kQuarantined);
  EXPECT_EQ(pool.next_transition_ns(), 5'000u);
  pool.advance_to(5'000);
  EXPECT_EQ(pool.state(1), DeviceState::kServing);
  EXPECT_EQ(pool.serving_count(), 1u);
}

// The operator's drain outlives the device: a draining device that dies —
// even by a flap whose repair would bring it back — is dead for good, with
// its drain logged and counted as complete.
TEST(DevicePoolTest, DrainingDeviceThatDiesCompletesItsDrain) {
  obs::Registry registry;
  DevicePoolConfig config;
  config.initial_devices = 2;
  DevicePool pool(config, &registry);
  ASSERT_EQ(pool.acquire(0), std::optional<uint32_t>(0));
  ASSERT_EQ(pool.acquire(0), std::optional<uint32_t>(1));
  ASSERT_EQ(pool.start_drain(0, 100), std::optional(DeviceState::kDraining));
  ASSERT_EQ(pool.start_drain(1, 100), std::optional(DeviceState::kDraining));

  pool.crash(0, 200, /*rejoin_at_ns=*/5'000);  // a flap
  pool.crash(1, 300, /*rejoin_at_ns=*/0);      // a permanent death
  EXPECT_EQ(pool.next_transition_ns(), UINT64_MAX);
  pool.advance_to(10'000);  // well past the flap's repair instant
  EXPECT_EQ(pool.state(0), DeviceState::kDead);
  EXPECT_EQ(pool.state(1), DeviceState::kDead);
  EXPECT_FALSE(pool.can_ever_serve());
  EXPECT_EQ(
      registry.counter("hardtape_service_device_drains_completed_total")
          .value(),
      2u);
  EXPECT_EQ(registry.counter("hardtape_service_device_rejoins_total").value(),
            0u);
  const std::vector<DeviceEvent> expected{
      {0, 0, DeviceEventKind::kJoin},        {0, 0, DeviceEventKind::kServe},
      {0, 1, DeviceEventKind::kJoin},        {0, 1, DeviceEventKind::kServe},
      {100, 0, DeviceEventKind::kDrainStart},
      {100, 1, DeviceEventKind::kDrainStart},
      {200, 0, DeviceEventKind::kCrash},     {200, 0, DeviceEventKind::kDrainDone},
      {300, 1, DeviceEventKind::kCrash},     {300, 1, DeviceEventKind::kDrainDone},
  };
  EXPECT_EQ(pool.events(), expected);
}

// ------------------------------------------------- front door integration --

class FrontDoorTest : public ::testing::Test {
 protected:
  FrontDoorTest() {
    gen_.deploy(node_.world());
    node_.produce_block({});
  }

  EngineConfig engine_config(int workers) {
    EngineConfig config;
    config.security = SecurityConfig::full();
    config.num_hevms = workers;
    config.queue_depth = 32;
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
    config.seal_mode = oram::SealMode::kChaChaHmac;
    config.perform_channel_crypto = false;
    return config;
  }

  FrontDoorConfig door_config() {
    FrontDoorConfig config;
    config.devices.initial_devices = 3;
    config.admission.defaults.weight = 1;
    config.admission.defaults.queue_capacity = 64;
    config.admission.defaults.max_in_flight = 8;
    config.admission.defaults.priority = 2;
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

  static RequestFrame open_frame(uint64_t tenant) {
    RequestFrame frame;
    frame.verb = Verb::kOpenSession;
    frame.tenant_id = tenant;
    return frame;
  }

  static RequestFrame submit_frame(uint64_t session, uint64_t request_id,
                                   std::vector<evm::Transaction> bundle,
                                   uint64_t client_time_ns,
                                   uint64_t deadline_ns = 0) {
    RequestFrame frame;
    frame.verb = Verb::kSubmit;
    frame.session_id = session;
    frame.request_id = request_id;
    frame.client_time_ns = client_time_ns;
    frame.deadline_ns = deadline_ns;
    frame.bundle = std::move(bundle);
    return frame;
  }

  static RequestFrame poll_frame(uint64_t session, uint64_t request_id) {
    RequestFrame frame;
    frame.verb = Verb::kPoll;
    frame.session_id = session;
    frame.request_id = request_id;
    return frame;
  }

  node::NodeSimulator node_;
  workload::WorkloadGenerator gen_{workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 2}};
};

TEST_F(FrontDoorTest, OpenSubmitPollCloseRoundTrip) {
  PreExecutionEngine engine(node_, engine_config(3));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoor door(engine, door_config());
  engine.start();
  ServiceClient client(door, test_key(1));

  auto opened = client.call(open_frame(/*tenant=*/7), /*now_ns=*/0);
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(opened->status, Status::kOk);
  const uint64_t session = opened->session_id;
  ASSERT_NE(session, 0u);

  auto admitted =
      client.call(submit_frame(session, 1, bundle_for(0), 0), /*now_ns=*/0);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->status, Status::kOk);

  door.finish();
  auto polled = client.call(poll_frame(session, 1), door.now_ns());
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->status, Status::kOk);
  EXPECT_TRUE(polled->done);
  EXPECT_EQ(polled->outcome_status, Status::kOk);
  EXPECT_GT(polled->exec_ns, 0u);
  EXPECT_GT(polled->gas_used, 0u);

  RequestFrame close;
  close.verb = Verb::kCloseSession;
  close.session_id = session;
  auto closed = client.call(close, door.now_ns());
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->status, Status::kOk);

  const auto outcomes = engine.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, Status::kOk);
}

TEST_F(FrontDoorTest, MalformedBodyIsRefusedWithoutStateChange) {
  PreExecutionEngine engine(node_, engine_config(3));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoor door(engine, door_config());
  engine.start();

  const auto key = test_key(2);
  hypervisor::SecureChannel client_channel(key, hypervisor::ChannelRole::kInitiator);
  client_channel.set_lossy_transport(true);
  const uint64_t conn = door.connect(key);

  // Authenticated garbage seals fine and fails the service decode. So does
  // an open-session request in v2's 9-field layout ([version, verb,
  // session_id, tenant_id, request_id, deadline_ns, client_time_ns, cost
  // hint, bundle]), whether stamped version 2 or the current version.
  const auto v2_open = [](uint8_t version) {
    const auto u8 = [](uint8_t v) { return trie::RlpItem(v == 0 ? Bytes{} : Bytes{v}); };
    return trie::rlp_encode(trie::RlpItem(trie::RlpList{
        u8(version), u8(1), u8(0), u8(7), u8(0), u8(0), u8(0), u8(0),
        trie::RlpItem(trie::RlpList{})}));
  };
  std::vector<hypervisor::SecureMessage> replies;
  hypervisor::SecureChannel::OpenResult opened;
  std::optional<ResponseFrame> response;
  for (const Bytes& body : {Bytes{0xde, 0xad, 0xbe, 0xef}, v2_open(2),
                            v2_open(kServiceFrameVersion)}) {
    replies = door.deliver(
        conn, client_channel.seal(hypervisor::MessageType::kBundleSubmit, 0, body), 0);
    ASSERT_EQ(replies.size(), 1u);
    opened = client_channel.open(replies[0], 1 << 20, 0);
    ASSERT_EQ(opened.status, Status::kOk);
    response = ResponseFrame::decode(opened.body);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kMalformedMessage) << to_hex(body);
  }

  // The session machinery is untouched: a real open on the same connection
  // still works.
  auto open_sealed = client_channel.seal(hypervisor::MessageType::kBundleSubmit,
                                         0, open_frame(1).encode());
  replies = door.deliver(conn, open_sealed, 1);
  ASSERT_EQ(replies.size(), 1u);
  opened = client_channel.open(replies[0], 1 << 20, 0);
  ASSERT_EQ(opened.status, Status::kOk);
  response = ResponseFrame::decode(opened.body);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  engine.drain();
}

TEST_F(FrontDoorTest, TamperedAndReplayedFramesEarnNoReply) {
  PreExecutionEngine engine(node_, engine_config(3));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoor door(engine, door_config());
  engine.start();

  const auto key = test_key(3);
  hypervisor::SecureChannel client_channel(key, hypervisor::ChannelRole::kInitiator);
  client_channel.set_lossy_transport(true);
  const uint64_t conn = door.connect(key);

  auto sealed = client_channel.seal(hypervisor::MessageType::kBundleSubmit, 0,
                                    open_frame(1).encode());
  auto tampered = sealed;
  tampered.ciphertext[0] ^= 0x01;
  EXPECT_TRUE(door.deliver(conn, tampered, 0).empty());

  // The genuine frame still goes through (tampering did not advance the
  // receive window)...
  auto replies = door.deliver(conn, sealed, 1);
  ASSERT_EQ(replies.size(), 1u);
  // ...and an exact replay of it is refused without a reply.
  EXPECT_TRUE(door.deliver(conn, sealed, 2).empty());

  obs::Registry& registry = engine.metrics_registry();
  EXPECT_EQ(
      registry.counter("hardtape_service_frames_rejected_total").value(), 2u);
  EXPECT_EQ(registry.counter("hardtape_service_frames_total").value(), 3u);
  engine.drain();
}

// The dedicated-hardware audit (acceptance criterion): across a saturating
// multi-tenant run, no simulated device is ever bound to two sessions at
// the same simulated instant.
TEST_F(FrontDoorTest, NoDeviceIsEverBoundToTwoSessionsConcurrently) {
  PreExecutionEngine engine(node_, engine_config(3));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoor door(engine, door_config());
  engine.start();

  std::vector<std::unique_ptr<ServiceClient>> clients;
  std::vector<uint64_t> sessions;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(std::make_unique<ServiceClient>(
        door, test_key(static_cast<uint8_t>(10 + c))));
    auto opened = clients.back()->call(open_frame(c % 3), 0);
    ASSERT_TRUE(opened.has_value());
    ASSERT_EQ(opened->status, Status::kOk);
    sessions.push_back(opened->session_id);
  }
  uint64_t now = 0;
  for (uint64_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < clients.size(); ++c) {
      auto admitted = clients[c]->call(
          submit_frame(sessions[c], r + 1, bundle_for(r * clients.size() + c),
                       now),
          now);
      ASSERT_TRUE(admitted.has_value());
      now += 1'000;
    }
  }
  door.finish();
  engine.drain();

  const auto& bindings = door.bindings();
  ASSERT_EQ(bindings.size(), 30u);  // every admitted request ran exactly once
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> by_device;
  for (const auto& b : bindings) {
    EXPECT_LT(b.device, 3u);
    EXPECT_LT(b.start_ns, b.end_ns);
    by_device[b.device].emplace_back(b.start_ns, b.end_ns);
  }
  for (auto& [device, intervals] : by_device) {
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second)
          << "device " << device << " double-booked at interval " << i;
    }
  }
}

// Determinism across worker counts (acceptance criterion): the identical
// delivery schedule through the front door yields bit-identical engine
// outcomes AND identical binding logs at 1 worker and 8 — the pool is pure
// host parallelism.
TEST_F(FrontDoorTest, FrontDoorIsBitIdenticalAcrossWorkerCounts) {
  auto run = [&](int workers) {
    PreExecutionEngine engine(node_, engine_config(workers));
    EXPECT_EQ(engine.synchronize(), Status::kOk);
    FrontDoor door(engine, door_config());
    engine.start();
    std::vector<std::unique_ptr<ServiceClient>> clients;
    std::vector<uint64_t> sessions;
    std::vector<Status> verdicts;
    for (int c = 0; c < 4; ++c) {
      clients.push_back(std::make_unique<ServiceClient>(
          door, test_key(static_cast<uint8_t>(20 + c))));
      auto opened = clients.back()->call(open_frame(c), 0);
      sessions.push_back(opened->session_id);
    }
    uint64_t now = 0;
    for (uint64_t r = 0; r < 6; ++r) {
      for (size_t c = 0; c < clients.size(); ++c) {
        auto response = clients[c]->call(
            submit_frame(sessions[c], r + 1,
                         bundle_for(r * clients.size() + c), now,
                         /*deadline_ns=*/40'000'000),
            now);
        verdicts.push_back(response->status);
        now += 500;
      }
    }
    door.finish();
    auto outcomes = engine.drain();
    std::sort(outcomes.begin(), outcomes.end(),
              [](const SessionOutcome& a, const SessionOutcome& b) {
                return a.bundle_id < b.bundle_id;
              });
    return std::make_tuple(std::move(verdicts), door.bindings(),
                           std::move(outcomes));
  };

  const auto [verdicts1, bindings1, outcomes1] = run(1);
  const auto [verdicts8, bindings8, outcomes8] = run(8);

  EXPECT_EQ(verdicts1, verdicts8);
  ASSERT_EQ(bindings1.size(), bindings8.size());
  for (size_t i = 0; i < bindings1.size(); ++i) {
    EXPECT_EQ(bindings1[i].device, bindings8[i].device) << "binding " << i;
    EXPECT_EQ(bindings1[i].session_id, bindings8[i].session_id);
    EXPECT_EQ(bindings1[i].bundle_id, bindings8[i].bundle_id);
    EXPECT_EQ(bindings1[i].start_ns, bindings8[i].start_ns);
    EXPECT_EQ(bindings1[i].end_ns, bindings8[i].end_ns);
  }
  ASSERT_EQ(outcomes1.size(), outcomes8.size());
  for (size_t i = 0; i < outcomes1.size(); ++i) {
    EXPECT_TRUE(outcomes_bit_identical(outcomes1[i], outcomes8[i]))
        << "bundle " << outcomes1[i].bundle_id
        << " diverged across worker counts";
  }
}

// Starved-tenant bound (acceptance criterion): one tenant floods; the
// others' p99 queue wait stays within the configured bound while the
// flooder is shed at its own queue cap.
TEST_F(FrontDoorTest, FloodingTenantIsShedWhileOthersKeepTheirLatencyBound) {
  PreExecutionEngine engine(node_, engine_config(3));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  // The flooder buys weight 1 and a short queue; the paying tenants get 4x
  // the scheduler share and enough queue to absorb the service backlog the
  // flood creates.
  config.admission.tenants = {
      TenantConfig{.tenant_id = 1, .weight = 1, .queue_capacity = 8,
                   .max_in_flight = 2, .priority = 1},
      TenantConfig{.tenant_id = 2, .weight = 4, .queue_capacity = 64,
                   .max_in_flight = 3, .priority = 2},
      TenantConfig{.tenant_id = 3, .weight = 4, .queue_capacity = 64,
                   .max_in_flight = 3, .priority = 2},
  };
  FrontDoor door(engine, config);
  engine.start();

  ServiceClient flooder(door, test_key(40));
  ServiceClient victim_a(door, test_key(41));
  ServiceClient victim_b(door, test_key(42));
  const uint64_t flood_session = flooder.call(open_frame(1), 0)->session_id;
  const uint64_t victim_a_session = victim_a.call(open_frame(2), 0)->session_id;
  const uint64_t victim_b_session = victim_b.call(open_frame(3), 0)->session_id;

  uint64_t now = 0;
  uint64_t flood_id = 0;
  uint64_t victim_id = 0;
  uint64_t shed = 0;
  for (int round = 0; round < 12; ++round) {
    // The flooder fires a burst every round; the victims one request each.
    for (int i = 0; i < 8; ++i) {
      ++flood_id;
      auto response = flooder.call(
          submit_frame(flood_session, flood_id, bundle_for(flood_id), now), now);
      if (response->status == Status::kOverloaded) ++shed;
    }
    ++victim_id;
    ASSERT_EQ(victim_a
                  .call(submit_frame(victim_a_session, victim_id,
                                     bundle_for(victim_id), now),
                        now)
                  ->status,
              Status::kOk);
    ASSERT_EQ(victim_b
                  .call(submit_frame(victim_b_session, victim_id,
                                     bundle_for(victim_id + 7), now),
                        now)
                  ->status,
              Status::kOk);
    now += 2'000'000;
  }
  door.finish();
  engine.drain();

  EXPECT_GT(shed, 0u) << "the flood never hit the tenant queue cap";
  obs::Registry& registry = engine.metrics_registry();
  EXPECT_GT(registry.counter("hardtape_service_tenant_1_shed_total").value(),
            0u);
  // The victims were admitted every round and their p99 queue wait stayed
  // within bound. The bound is expressed in service times (the arrival
  // schedule is far faster than a full-security bundle, so everything is
  // backlogged): with 4x the DRR weight the victims' 24 bundles drain at
  // ~8/9 of the 3-device pool, so the worst victim waits well under 20
  // mean service times, while the flooder's saturated queue waits the full
  // drain horizon.
  const double mean_service_ns =
      registry.histogram("hardtape_engine_bundle_latency_sim_ns").mean();
  ASSERT_GT(mean_service_ns, 0.0);
  const uint64_t victim_p99 = std::max(
      registry.histogram("hardtape_service_tenant_2_queue_wait_sim_ns")
          .percentile(99),
      registry.histogram("hardtape_service_tenant_3_queue_wait_sim_ns")
          .percentile(99));
  const uint64_t flooder_p99 =
      registry.histogram("hardtape_service_tenant_1_queue_wait_sim_ns")
          .percentile(99);
  EXPECT_LT(victim_p99, static_cast<uint64_t>(20.0 * mean_service_ns));
  EXPECT_LT(victim_p99, flooder_p99)
      << "fair queueing failed to insulate the victims from the flood";
}

// FaultyLink chaos (acceptance criterion): drops, tampers, duplicates and
// reorders on the service wire must never wedge a session or leak a worker
// — every request eventually resolves through retransmission, and the
// engine drains clean.
TEST_F(FrontDoorTest, FaultyLinkChaosNeverWedgesASession) {
  faults::FaultPlan plan(faults::FaultPlanConfig{
      .seed = 7,
      .fault_rate = 0.3,
      .weight_drop = 1.0,
      .weight_delay = 0.0,
      .weight_tamper = 1.0,
      .weight_stale_proof = 0.0,
      .weight_duplicate = 1.0,
      .weight_reorder = 1.0,
  });
  PreExecutionEngine engine(node_, engine_config(3));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoor door(engine, door_config());
  engine.start();

  ServiceClient client(door, test_key(50));
  faults::FaultyLink link(plan, /*stream=*/1);
  uint64_t now = 0;

  // Every verb is retransmitted (a fresh seal) until a response survives
  // the wire — the client-side recovery the lossy channel mode exists for.
  auto call_until_answered =
      [&](const RequestFrame& frame) -> ResponseFrame {
    for (int attempt = 0; attempt < 64; ++attempt) {
      now += 1'000;
      auto response = client.call(frame, now, &link);
      if (response.has_value()) return *response;
    }
    ADD_FAILURE() << "session wedged: no response after 64 retransmissions";
    return {};
  };

  const auto opened = call_until_answered(open_frame(1));
  ASSERT_EQ(opened.status, Status::kOk);
  const uint64_t session = opened.session_id;

  constexpr uint64_t kRequests = 10;
  for (uint64_t r = 1; r <= kRequests; ++r) {
    const auto admitted = call_until_answered(
        submit_frame(session, r, bundle_for(r), now));
    EXPECT_EQ(admitted.status, Status::kOk);
  }
  door.finish();

  // Every admitted request resolved (poll sees done) and none ran twice.
  for (uint64_t r = 1; r <= kRequests; ++r) {
    const auto polled = call_until_answered(poll_frame(session, r));
    ASSERT_EQ(polled.status, Status::kOk);
    EXPECT_TRUE(polled.done) << "request " << r << " never resolved";
    EXPECT_EQ(polled.outcome_status, Status::kOk);
  }
  const auto outcomes = engine.drain();
  EXPECT_EQ(outcomes.size(), kRequests)
      << "duplicated or leaked executions under link chaos";
  EXPECT_GT(plan.injected(), 0u) << "the chaos plan never actually fired";
}

// ------------------------------------------- device churn & failover (PR 9) --

// Helper: poll one request and require a terminal verdict.
ResponseFrame poll_done(ServiceClient& client, FrontDoor& door,
                        uint64_t session, uint64_t request_id) {
  RequestFrame frame;
  frame.verb = Verb::kPoll;
  frame.session_id = session;
  frame.request_id = request_id;
  auto response = client.call(frame, door.now_ns());
  EXPECT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_TRUE(response->done)
      << "request " << request_id << " never reached a terminal status";
  return response.value_or(ResponseFrame{});
}

TEST_F(FrontDoorTest, HotAddedDeviceTakesLoadMidRun) {
  PreExecutionEngine engine(node_, engine_config(2));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  config.devices.initial_devices = 1;
  config.devices.join_warmup_ns = 1'000;
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(60));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;

  for (uint64_t r = 1; r <= 6; ++r) {
    ASSERT_EQ(client.call(submit_frame(session, r, bundle_for(r), 0), 0)->status,
              Status::kOk);
  }
  const uint32_t added = door.add_device();
  EXPECT_EQ(added, 1u);
  door.finish();

  for (uint64_t r = 1; r <= 6; ++r) {
    EXPECT_EQ(poll_done(client, door, session, r).outcome_status, Status::kOk);
  }
  // The hot-added device actually served part of the backlog.
  bool new_device_used = false;
  for (const auto& b : door.bindings()) new_device_used |= b.device == 1;
  EXPECT_TRUE(new_device_used);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
  engine.drain();
}

TEST_F(FrontDoorTest, GracefulDrainLetsTheInFlightSessionFinish) {
  PreExecutionEngine engine(node_, engine_config(2));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  config.devices.initial_devices = 2;
  config.devices.drain_grace_ns = 1'000'000'000'000;  // grace far beyond exec
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(61));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;
  ASSERT_EQ(client.call(submit_frame(session, 1, bundle_for(1), 0), 0)->status,
            Status::kOk);

  door.drain_device(0);  // device 0 is mid-session: it may finish
  EXPECT_EQ(door.devices().state(0), DeviceState::kDraining);
  door.finish();

  // The session ran to completion — no failover, no re-execution — and the
  // drain then completed.
  EXPECT_EQ(poll_done(client, door, session, 1).outcome_status, Status::kOk);
  EXPECT_EQ(door.devices().state(0), DeviceState::kDead);
  obs::Registry& registry = engine.metrics_registry();
  EXPECT_EQ(registry.counter("hardtape_service_failovers_total").value(), 0u);
  EXPECT_EQ(
      registry.counter("hardtape_service_device_drains_completed_total")
          .value(),
      1u);
  EXPECT_EQ(engine.drain().size(), 1u);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
}

TEST_F(FrontDoorTest, DrainDeadlineCutsTheBindingAndFailsOver) {
  PreExecutionEngine engine(node_, engine_config(2));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  config.devices.initial_devices = 2;
  config.devices.drain_grace_ns = 1'000;  // far shorter than any execution
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(62));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;
  ASSERT_EQ(client.call(submit_frame(session, 1, bundle_for(1), 0), 0)->status,
            Status::kOk);

  door.drain_device(0);
  door.finish();

  // The grace expired mid-session: the binding was cut at the deadline and
  // the bundle re-executed on device 1, fail-closed.
  EXPECT_EQ(poll_done(client, door, session, 1).outcome_status, Status::kOk);
  const auto& bindings = door.bindings();
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[0].device, 0u);
  EXPECT_EQ(bindings[0].end_ns, 1'000u);  // cut exactly at drain start + grace
  EXPECT_EQ(bindings[1].device, 1u);
  EXPECT_EQ(door.devices().state(0), DeviceState::kDead);
  obs::Registry& registry = engine.metrics_registry();
  EXPECT_EQ(registry.counter("hardtape_service_failovers_total").value(), 1u);
  EXPECT_EQ(
      registry.histogram("hardtape_service_rebind_latency_sim_ns").count(),
      1u);
  // Two engine executions of the one bundle: attempt 0 (cut) and attempt 1.
  EXPECT_EQ(engine.drain().size(), 2u);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
}

TEST_F(FrontDoorTest, CrashedDeviceFailsOverToAnotherDevice) {
  faults::FaultPlan plan(faults::FaultPlanConfig{.seed = 5});
  plan.force(faults::FaultSite::kDeviceBinding, 0, 0,
             {.kind = faults::FaultKind::kCrash, .kill_frac = 0.5});
  PreExecutionEngine engine(node_, engine_config(2));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  config.devices.initial_devices = 2;
  config.devices.fault_plan = &plan;
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(63));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;
  ASSERT_EQ(client.call(submit_frame(session, 1, bundle_for(1), 0), 0)->status,
            Status::kOk);
  door.finish();

  // Device 0 died halfway through the session; the sealed state died with
  // it, and the bundle re-executed from scratch on device 1.
  EXPECT_EQ(poll_done(client, door, session, 1).outcome_status, Status::kOk);
  EXPECT_EQ(door.devices().state(0), DeviceState::kDead);
  const auto& bindings = door.bindings();
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[0].device, 0u);
  EXPECT_EQ(bindings[1].device, 1u);
  // The cut binding is strictly shorter than the completed re-execution.
  EXPECT_LT(bindings[0].end_ns - bindings[0].start_ns,
            bindings[1].end_ns - bindings[1].start_ns);
  EXPECT_EQ(plan.injected(), 1u);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
  engine.drain();
}

TEST_F(FrontDoorTest, FlappingSoleDeviceRejoinsAndFinishesTheWork) {
  faults::FaultPlan plan(faults::FaultPlanConfig{.seed = 6});
  plan.force(faults::FaultSite::kDeviceBinding, 0, 0,
             {.kind = faults::FaultKind::kFlap,
              .kill_frac = 0.25,
              .downtime_ns = 2'000'000});
  PreExecutionEngine engine(node_, engine_config(1));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  config.devices.initial_devices = 1;
  config.devices.fault_plan = &plan;
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(64));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;
  ASSERT_EQ(client.call(submit_frame(session, 1, bundle_for(1), 0), 0)->status,
            Status::kOk);
  // finish() must survive a window with NO serving devices: it jumps to the
  // pool's next transition (the flap rejoin) instead of spinning or bailing.
  door.finish();

  EXPECT_EQ(poll_done(client, door, session, 1).outcome_status, Status::kOk);
  const auto& bindings = door.bindings();
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[0].device, 0u);
  EXPECT_EQ(bindings[1].device, 0u);  // same device, after repair
  EXPECT_GE(bindings[1].start_ns, bindings[0].end_ns + 2'000'000);
  EXPECT_EQ(
      engine.metrics_registry()
          .counter("hardtape_service_device_rejoins_total")
          .value(),
      1u);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
  engine.drain();
}

TEST_F(FrontDoorTest, RepeatedCrashesExhaustTheRetryBudget) {
  faults::FaultPlan plan(faults::FaultPlanConfig{.seed = 7});
  for (uint32_t device = 0; device < 3; ++device) {
    plan.force(faults::FaultSite::kDeviceBinding, device, 0,
               {.kind = faults::FaultKind::kCrash, .kill_frac = 0.5});
  }
  PreExecutionEngine engine(node_, engine_config(2));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();  // 3 devices; kMaxBundleAttempts 3
  config.devices.fault_plan = &plan;
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(65));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;
  ASSERT_EQ(client.call(submit_frame(session, 1, bundle_for(1), 0), 0)->status,
            Status::kOk);
  door.finish();

  // Three devices, three crashes, budget of three executions: the failover
  // after the third loss is refused and the request resolves fail-closed.
  EXPECT_EQ(poll_done(client, door, session, 1).outcome_status,
            Status::kRetryExhausted);
  obs::Registry& registry = engine.metrics_registry();
  EXPECT_EQ(registry.counter("hardtape_service_failovers_total").value(), 3u);
  EXPECT_EQ(
      registry.counter("hardtape_service_failover_retry_exhausted_total")
          .value(),
      1u);
  EXPECT_FALSE(door.devices().can_ever_serve());
  EXPECT_EQ(door.bindings().size(), 3u);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
  EXPECT_EQ(engine.drain().size(), 3u);
}

TEST_F(FrontDoorTest, WholeFleetLossResolvesEverythingDeviceLost) {
  PreExecutionEngine engine(node_, engine_config(2));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  config.devices.initial_devices = 2;
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(66));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;
  for (uint64_t r = 1; r <= 3; ++r) {
    ASSERT_EQ(
        client.call(submit_frame(session, r, bundle_for(r), 0), 0)->status,
        Status::kOk);
  }
  // Two requests are on devices, one is queued. Kill the whole fleet.
  door.kill_device(0);
  door.kill_device(1);
  door.finish();

  // Fail-closed, not wedged: every admitted request gets a terminal verdict
  // even though no device will ever serve again.
  for (uint64_t r = 1; r <= 3; ++r) {
    EXPECT_EQ(poll_done(client, door, session, r).outcome_status,
              Status::kDeviceLost);
  }
  obs::Registry& registry = engine.metrics_registry();
  EXPECT_EQ(registry.counter("hardtape_service_device_lost_total").value(),
            3u);
  EXPECT_EQ(registry.counter("hardtape_service_failovers_total").value(), 2u);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
  engine.drain();
}

TEST_F(FrontDoorTest, StickyFailerIsQuarantinedAndWorkRetriesAfterBackoff) {
  faults::FaultPlan plan(faults::FaultPlanConfig{.seed = 8});
  plan.force(faults::FaultSite::kDeviceBinding, 0, 0,
             {.kind = faults::FaultKind::kSticky});
  plan.force(faults::FaultSite::kDeviceBinding, 0, 1,
             {.kind = faults::FaultKind::kSticky});
  PreExecutionEngine engine(node_, engine_config(1));
  ASSERT_EQ(engine.synchronize(), Status::kOk);
  FrontDoorConfig config = door_config();
  config.devices.initial_devices = 1;
  config.devices.quarantine_threshold = 2;
  config.devices.probe_backoff = fast_probe();
  config.devices.fault_plan = &plan;
  FrontDoor door(engine, config);
  engine.start();
  ServiceClient client(door, test_key(67));
  const uint64_t session = client.call(open_frame(1), 0)->session_id;
  ASSERT_EQ(client.call(submit_frame(session, 1, bundle_for(1), 0), 0)->status,
            Status::kOk);
  door.finish();

  // Two sticky results in a row: the breaker quarantined the device, the
  // third execution (after the deterministic backoff) finally passed.
  EXPECT_EQ(poll_done(client, door, session, 1).outcome_status, Status::kOk);
  obs::Registry& registry = engine.metrics_registry();
  EXPECT_EQ(
      registry.counter("hardtape_service_device_sticky_faults_total").value(),
      2u);
  EXPECT_EQ(
      registry.counter("hardtape_service_device_quarantines_total").value(),
      1u);
  EXPECT_EQ(registry.counter("hardtape_service_device_rejoins_total").value(),
            1u);
  EXPECT_EQ(registry.counter("hardtape_service_failovers_total").value(), 2u);
  EXPECT_EQ(door.bindings().size(), 3u);
  const auto audit = door.audit_bindings();
  EXPECT_TRUE(audit.ok) << audit.violation;
  engine.drain();
}

// Determinism WITH churn (acceptance criterion): a fault plan plus scripted
// kill/drain/hot-add, replayed at 1 worker and 8, must produce bit-identical
// verdicts, terminal outcomes, binding logs AND device lifecycle logs.
TEST_F(FrontDoorTest, ChurnRunIsBitIdenticalAcrossWorkerCounts) {
  auto run = [&](int workers) {
    faults::FaultPlan plan(faults::FaultPlanConfig{
        .seed = 77,
        .fault_rate = 0.24,
        .weight_crash = 0.08,
        .weight_sticky = 0.08,
        .weight_flap = 0.08,
        .min_downtime_ns = 1'000'000,
        .max_downtime_ns = 8'000'000,
    });
    PreExecutionEngine engine(node_, engine_config(workers));
    EXPECT_EQ(engine.synchronize(), Status::kOk);
    FrontDoorConfig config = door_config();
    config.devices.join_warmup_ns = 500'000;
    config.devices.drain_grace_ns = 2'000'000;
    config.devices.quarantine_threshold = 2;
    config.devices.probe_backoff = fast_probe();
    config.devices.fault_plan = &plan;
    FrontDoor door(engine, config);
    engine.start();
    std::vector<std::unique_ptr<ServiceClient>> clients;
    std::vector<uint64_t> sessions;
    for (int c = 0; c < 4; ++c) {
      clients.push_back(std::make_unique<ServiceClient>(
          door, test_key(static_cast<uint8_t>(70 + c))));
      sessions.push_back(clients[c]->call(open_frame(c), 0)->session_id);
    }
    std::vector<Status> verdicts;
    uint64_t now = 0;
    for (uint64_t r = 0; r < 6; ++r) {
      for (size_t c = 0; c < clients.size(); ++c) {
        auto response = clients[c]->call(
            submit_frame(sessions[c], r + 1,
                         bundle_for(r * clients.size() + c), now),
            now);
        verdicts.push_back(response->status);
        now += 700;
      }
      if (r == 2) door.kill_device(0);
      if (r == 3) door.drain_device(1);
      if (r == 4) door.add_device();
    }
    door.finish();
    std::vector<std::tuple<Status, uint64_t, uint64_t, uint64_t>> finals;
    for (size_t c = 0; c < clients.size(); ++c) {
      for (uint64_t r = 1; r <= 6; ++r) {
        const auto polled = poll_done(*clients[c], door, sessions[c], r);
        finals.emplace_back(polled.outcome_status, polled.queue_wait_ns,
                            polled.exec_ns, polled.gas_used);
      }
    }
    auto outcomes = engine.drain();
    // Re-executions share a bundle id; (id, attempt) is the unique key.
    std::sort(outcomes.begin(), outcomes.end(),
              [](const SessionOutcome& a, const SessionOutcome& b) {
                return std::tie(a.bundle_id, a.attempt) <
                       std::tie(b.bundle_id, b.attempt);
              });
    const auto audit = door.audit_bindings();
    EXPECT_TRUE(audit.ok) << audit.violation;
    return std::make_tuple(std::move(verdicts), std::move(finals),
                           door.bindings(), door.devices().events(),
                           std::move(outcomes));
  };

  const auto [verdicts1, finals1, bindings1, events1, outcomes1] = run(1);
  const auto [verdicts8, finals8, bindings8, events8, outcomes8] = run(8);

  EXPECT_EQ(verdicts1, verdicts8);
  EXPECT_EQ(finals1, finals8);
  EXPECT_EQ(events1, events8) << "device lifecycle diverged across workers";
  ASSERT_EQ(bindings1.size(), bindings8.size());
  for (size_t i = 0; i < bindings1.size(); ++i) {
    EXPECT_EQ(bindings1[i].device, bindings8[i].device) << "binding " << i;
    EXPECT_EQ(bindings1[i].session_id, bindings8[i].session_id);
    EXPECT_EQ(bindings1[i].bundle_id, bindings8[i].bundle_id);
    EXPECT_EQ(bindings1[i].start_ns, bindings8[i].start_ns);
    EXPECT_EQ(bindings1[i].end_ns, bindings8[i].end_ns);
  }
  ASSERT_EQ(outcomes1.size(), outcomes8.size());
  for (size_t i = 0; i < outcomes1.size(); ++i) {
    EXPECT_TRUE(outcomes_bit_identical(outcomes1[i], outcomes8[i]))
        << "bundle " << outcomes1[i].bundle_id << " attempt "
        << outcomes1[i].attempt << " diverged across worker counts";
  }
}

// One adversary, two interfaces: a single FaultPlan strikes the engine's ORAM
// reads and the pool's device bindings at once. With the breaker off, every
// request still resolves, the churn audit holds, and the outcomes and the
// plan's trace are bit-identical at 1 worker and 8.
TEST_F(FrontDoorTest, OnePlanDrivesOramReadsAndDeviceBindings) {
  auto run = [&](int workers) {
    faults::FaultPlan plan(faults::FaultPlanConfig{
        .seed = 26,
        .fault_rate = 0.2,
        .weight_stale_proof = 0,  // keep the sync pass clean
        .min_downtime_ns = 1'000'000,
        .max_downtime_ns = 8'000'000,
    });
    EngineConfig engine_cfg = engine_config(workers);
    engine_cfg.fault_plan = &plan;
    engine_cfg.breaker_threshold = 0;  // isolate determinism from quarantining
    PreExecutionEngine engine(node_, engine_cfg);
    EXPECT_EQ(engine.synchronize(), Status::kOk);
    FrontDoorConfig config = door_config();
    config.devices.quarantine_threshold = 2;
    config.devices.probe_backoff = fast_probe();
    config.devices.fault_plan = &plan;
    FrontDoor door(engine, config);
    engine.start();
    std::vector<std::unique_ptr<ServiceClient>> clients;
    std::vector<uint64_t> sessions;
    for (int c = 0; c < 3; ++c) {
      clients.push_back(std::make_unique<ServiceClient>(
          door, test_key(static_cast<uint8_t>(90 + c))));
      sessions.push_back(clients[c]->call(open_frame(c), 0)->session_id);
    }
    uint64_t now = 0;
    for (uint64_t r = 0; r < 8; ++r) {
      for (size_t c = 0; c < clients.size(); ++c) {
        const auto response = clients[c]->call(
            submit_frame(sessions[c], r + 1,
                         bundle_for(r * clients.size() + c), now),
            now);
        EXPECT_EQ(response->status, Status::kOk);
        now += 500;
      }
    }
    door.finish();
    std::vector<std::tuple<Status, uint64_t, uint64_t, uint64_t>> finals;
    for (size_t c = 0; c < clients.size(); ++c) {
      for (uint64_t r = 1; r <= 8; ++r) {
        const auto polled = poll_done(*clients[c], door, sessions[c], r);
        finals.emplace_back(polled.outcome_status, polled.queue_wait_ns,
                            polled.exec_ns, polled.gas_used);
      }
    }
    auto outcomes = engine.drain();
    std::sort(outcomes.begin(), outcomes.end(),
              [](const SessionOutcome& a, const SessionOutcome& b) {
                return std::tie(a.bundle_id, a.attempt) <
                       std::tie(b.bundle_id, b.attempt);
              });
    const auto audit = door.audit_bindings();
    EXPECT_TRUE(audit.ok) << audit.violation;
    return std::make_tuple(std::move(finals), std::move(outcomes),
                           door.devices().events(), plan.trace());
  };

  const auto [finals1, outcomes1, events1, trace1] = run(1);
  const auto [finals8, outcomes8, events8, trace8] = run(8);

  EXPECT_EQ(finals1, finals8);
  EXPECT_EQ(events1, events8) << "device lifecycle diverged across workers";
  EXPECT_EQ(trace1, trace8) << "fault trace diverged across workers";
  ASSERT_EQ(outcomes1.size(), outcomes8.size());
  for (size_t i = 0; i < outcomes1.size(); ++i) {
    EXPECT_TRUE(outcomes_bit_identical(outcomes1[i], outcomes8[i]))
        << "bundle " << outcomes1[i].bundle_id << " attempt "
        << outcomes1[i].attempt << " diverged across worker counts";
  }
  const auto struck = [&](faults::FaultSite site) {
    return std::count_if(trace1.begin(), trace1.end(),
                         [&](const faults::FaultEvent& e) { return e.site == site; });
  };
  EXPECT_GT(struck(faults::FaultSite::kOramRead), 0);
  EXPECT_GT(struck(faults::FaultSite::kDeviceBinding), 0);
}

// Property-style churn drill (acceptance criterion): random drain/add/crash
// schedules against saturating multi-tenant load. After finish(), the three
// churn invariants must hold: (a) no per-device binding overlap, (b) no
// binding outside its device's service windows — both via audit_bindings() —
// and (c) every admitted request reaches a terminal status.
TEST_F(FrontDoorTest, RandomChurnSchedulesHoldTheThreeInvariants) {
  for (const uint64_t seed : {101u, 202u, 303u}) {
    faults::FaultPlan plan(faults::FaultPlanConfig{
        .seed = seed,
        .fault_rate = 0.30,
        .weight_crash = 0.10,
        .weight_sticky = 0.10,
        .weight_flap = 0.10,
        .min_downtime_ns = 500'000,
        .max_downtime_ns = 5'000'000,
    });
    PreExecutionEngine engine(node_, engine_config(3));
    ASSERT_EQ(engine.synchronize(), Status::kOk);
    FrontDoorConfig config = door_config();
    config.admission.defaults.max_in_flight = 2;  // keep a standing queue
    config.devices.join_warmup_ns = 200'000;
    config.devices.drain_grace_ns = 1'000'000;
    config.devices.quarantine_threshold = 2;
    config.devices.probe_backoff = fast_probe();
    config.devices.fault_plan = &plan;
    FrontDoor door(engine, config);
    engine.start();

    std::vector<std::unique_ptr<ServiceClient>> clients;
    std::vector<uint64_t> sessions;
    for (int c = 0; c < 3; ++c) {
      clients.push_back(std::make_unique<ServiceClient>(
          door, test_key(static_cast<uint8_t>(80 + c))));
      sessions.push_back(clients[c]->call(open_frame(c + 1), 0)->session_id);
    }

    Random rng(seed * 7919);
    std::vector<std::pair<size_t, uint64_t>> admitted;  // (client, request)
    uint64_t now = 0;
    for (uint64_t i = 0; i < 30; ++i) {
      const size_t c = i % clients.size();
      const uint64_t request_id = 100 + i;
      auto response = clients[c]->call(
          submit_frame(sessions[c], request_id, bundle_for(i), now), now);
      ASSERT_TRUE(response.has_value());
      if (response->status == Status::kOk) admitted.emplace_back(c, request_id);
      now += 300'000;
      // Random churn ops — including against devices already dead/draining
      // (must be safe no-ops) — plus two scripted ones so every seed
      // genuinely churns.
      const uint64_t op = rng.uniform(10);
      const auto target = static_cast<uint32_t>(
          rng.uniform(static_cast<uint64_t>(door.devices().size())));
      if (op == 0 || i == 10) door.kill_device(target);
      if (op == 1 || i == 20) door.drain_device(target);
      if (op == 2 && door.devices().size() < 8) door.add_device();
    }
    door.finish();

    // Invariants (a) and (b): the audit proves them from the logs.
    const auto audit = door.audit_bindings();
    EXPECT_TRUE(audit.ok) << "seed " << seed << ": " << audit.violation;
    // Invariant (c): every admitted request is terminal, with a legal status.
    for (const auto& [c, request_id] : admitted) {
      const auto polled = poll_done(*clients[c], door, sessions[c], request_id);
      EXPECT_TRUE(polled.outcome_status == Status::kOk ||
                  polled.outcome_status == Status::kRetryExhausted ||
                  polled.outcome_status == Status::kDeviceLost)
          << "seed " << seed << " request " << request_id << ": "
          << to_string(polled.outcome_status);
    }
    // The schedule must have actually churned the fleet.
    obs::Registry& registry = engine.metrics_registry();
    EXPECT_GT(registry.counter("hardtape_service_device_crashes_total").value() +
                  registry
                      .counter("hardtape_service_device_drains_started_total")
                      .value(),
              0u);
    engine.drain();
  }
}

}  // namespace
}  // namespace hardtape::service
