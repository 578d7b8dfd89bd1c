// Tests for the simulation substrate: clock, link model, cost models, and
// the service's bundle scheduler.
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "service/pre_execution.hpp"
#include "sim/backoff.hpp"
#include "sim/clock.hpp"
#include "sim/costs.hpp"

namespace hardtape::sim {
namespace {

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.advance_ns(1500);
  EXPECT_EQ(clock.now_ns(), 1500u);
  clock.advance_us(2.5);
  EXPECT_EQ(clock.now_ns(), 4000u);
  clock.advance_ms(1.0);
  EXPECT_EQ(clock.now_ns(), 1'004'000u);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 1.004);
  clock.advance_to(500);  // no going back
  EXPECT_EQ(clock.now_ns(), 1'004'000u);
  clock.advance_to(2'000'000);
  EXPECT_EQ(clock.now_ns(), 2'000'000u);
  clock.reset();
  EXPECT_EQ(clock.now_ns(), 0u);
}

TEST(SimStopwatch, MeasuresDeltas) {
  SimClock clock;
  clock.advance_ns(100);
  SimStopwatch watch(clock);
  clock.advance_ns(250);
  EXPECT_EQ(watch.elapsed_ns(), 250u);
  watch.restart();
  EXPECT_EQ(watch.elapsed_ns(), 0u);
}

TEST(LinkModel, LatencyPlusBandwidth) {
  LinkModel link{.latency_ns = 1'000'000, .bytes_per_ns = 1.0};
  EXPECT_EQ(link.transfer_ns(0), 1'000'000u);
  EXPECT_EQ(link.transfer_ns(500'000), 1'500'000u);
  EXPECT_EQ(link.round_trip_ns(100, 100), 2 * link.transfer_ns(100));
}

TEST(HevmCostModel, CycleAccounting) {
  HevmCostModel model;
  EXPECT_EQ(model.cycle_ns(), 10u);  // 0.1 GHz
  // ADD (0x01, arithmetic, non-mul) vs MUL (0x02).
  EXPECT_EQ(model.op_ns(evm::OpClass::kArithmetic, 0x01), 2 * 10u);
  EXPECT_EQ(model.op_ns(evm::OpClass::kArithmetic, 0x02),
            uint64_t{model.cycles_mul_div} * 10);
  EXPECT_EQ(model.op_ns(evm::OpClass::kCall, 0xf1), uint64_t{model.cycles_call} * 10);
  // Reset: ~1.1 MB at 32 B/cycle at 100 MHz ~ 0.35 ms.
  EXPECT_NEAR(static_cast<double>(model.reset_ns()) / 1e6, 0.35, 0.05);
}

TEST(CostModels, GethVsTscVeeOrdering) {
  GethCostModel geth;
  TscVeeCostModel tsc;
  // TSC-VEE (interpreted on an A53) is slower per op than Geth (i7).
  EXPECT_GT(tsc.op_ns(evm::OpClass::kArithmetic, 0x01),
            geth.op_ns(evm::OpClass::kArithmetic, 0x01));
  EXPECT_GT(tsc.op_ns(evm::OpClass::kCall, 0xf1), geth.op_ns(evm::OpClass::kCall, 0xf1));
}

TEST(CryptoCostModel, EcdsaDominates) {
  CryptoCostModel crypto;
  // §VI-C: one verify + one sign ~ 80 ms per bundle.
  EXPECT_EQ(crypto.ecdsa_sign_ns + crypto.ecdsa_verify_ns, 80'000'000u);
  EXPECT_LT(crypto.aes_gcm_ns(10'000), crypto.ecdsa_sign_ns);
}

// --- bundle scheduler ---

using service::schedule_bundles;

TEST(Scheduler, SingleCoreSerializes) {
  const auto result = schedule_bundles({100, 100, 100}, 1, /*gap=*/0);
  EXPECT_EQ(result.makespan_ns, 300u);
  EXPECT_EQ(result.completion_ns, (std::vector<uint64_t>{100, 200, 300}));
  EXPECT_EQ(result.mean_wait_ns, 100u);  // waits 0, 100, 200
}

TEST(Scheduler, ThreeCoresRunThreeBundlesInParallel) {
  const auto result = schedule_bundles({100, 100, 100}, 3, /*gap=*/0);
  EXPECT_EQ(result.makespan_ns, 100u);
  EXPECT_EQ(result.mean_wait_ns, 0u);
}

TEST(Scheduler, QueueingKicksInWhenOfferedLoadExceedsCapacity) {
  // 6 bundles of 100 on 3 cores arriving instantly: second wave waits.
  const auto result = schedule_bundles(std::vector<uint64_t>(6, 100), 3, 0);
  EXPECT_EQ(result.makespan_ns, 200u);
  EXPECT_GT(result.mean_wait_ns, 0u);
  EXPECT_GT(result.max_queue_depth, 0u);
}

TEST(Scheduler, ArrivalGapAboveServiceRateMeansNoWaiting) {
  // Paper §VI-D: at 164 ms/bundle and 3 cores, one chip sustains ~18 tx/s —
  // bundles arriving every 60 ms (~16.7 tx/s) should not queue.
  const auto result =
      schedule_bundles(std::vector<uint64_t>(50, 164'000'000), 3, 60'000'000);
  EXPECT_LT(result.mean_wait_ns, 10'000'000u);  // negligible waiting
  // While 30 ms arrivals (33 tx/s) overload the chip.
  const auto overloaded =
      schedule_bundles(std::vector<uint64_t>(50, 164'000'000), 3, 30'000'000);
  EXPECT_GT(overloaded.mean_wait_ns, 100'000'000u);
}

TEST(Scheduler, RejectsZeroCores) {
  EXPECT_THROW(schedule_bundles({1}, 0, 0), UsageError);
}

// --- BackoffPolicy exponent-growth regression (attempt counts >= 63) ---
//
// The exponential term must saturate at cap_ns instead of letting the
// doubling wrap uint64: a wrapped term resets the wait to ~0 exactly when
// retries have been going on the longest, re-synchronizing every session
// into a retry storm. With cap_ns pushed to UINT64_MAX the old loop wrapped
// at attempt ~63 and the jitter float->int conversion became UB.

TEST(BackoffPolicy, Attempt64SaturatesAtCapWithDefaultPolicy) {
  const BackoffPolicy policy{};
  const uint64_t at_cap = backoff_delay_ns(policy, 10, 7);
  const uint64_t attempt64 = backoff_delay_ns(policy, 64, 7);
  // Both attempts are deep into saturation: term == cap_ns for each, so the
  // delay is cap plus jitter bounded by jitter_frac * cap.
  EXPECT_GE(attempt64, policy.cap_ns);
  EXPECT_LE(attempt64, policy.cap_ns +
                           static_cast<uint64_t>(policy.jitter_frac *
                                                 static_cast<double>(policy.cap_ns)));
  EXPECT_GE(at_cap, policy.cap_ns);
}

TEST(BackoffPolicy, Attempt64And1000NeverWrapEvenWithExtremeCap) {
  BackoffPolicy policy;
  policy.cap_ns = UINT64_MAX;   // adversarial config: doubling would wrap
  policy.jitter_frac = 0.0;     // isolate the exponential term
  uint64_t previous = 0;
  for (const int attempt : {1, 2, 62, 63, 64, 65, 100, 1000}) {
    const uint64_t delay = backoff_delay_ns(policy, attempt, 42);
    // Monotone non-decreasing: a wrap would show up as a collapse to ~0.
    EXPECT_GE(delay, previous) << "attempt " << attempt;
    EXPECT_GE(delay, policy.base_ns) << "attempt " << attempt;
    previous = delay;
  }
  // Saturated high: the term parked at the cap, not at a wrapped residue.
  EXPECT_GT(backoff_delay_ns(policy, 1000, 42), UINT64_MAX / 2);
}

TEST(BackoffPolicy, Attempt1000WithJitterStaysBoundedAndDeterministic) {
  BackoffPolicy policy;
  policy.cap_ns = UINT64_MAX;  // jitter_frac * cap overflows double->u64 naively
  policy.jitter_frac = 0.5;
  const uint64_t a = backoff_delay_ns(policy, 1000, 9);
  const uint64_t b = backoff_delay_ns(policy, 1000, 9);
  EXPECT_EQ(a, b);                       // same inputs, same schedule
  EXPECT_GE(a, UINT64_MAX / 2);          // at least the saturated term
  EXPECT_NE(backoff_delay_ns(policy, 64, 9), 0u);
}

}  // namespace
}  // namespace hardtape::sim
