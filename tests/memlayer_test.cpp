// Tests for the memory model: the L2 call-stack ring pager with noisy swaps
// (threat A5), and ChaCha20-Poly1305-sealed L3 (threat A4).
#include <gtest/gtest.h>

#include <cmath>

#include "evm/assembler.hpp"
#include "evm/interpreter.hpp"
#include "memlayer/observer.hpp"

namespace hardtape::memlayer {
namespace {

crypto::AesKey128 session_key() {
  crypto::AesKey128 key{};
  key[0] = 0x42;
  return key;
}

// --- Layer 3 ---

TEST(Layer3, StoreLoadRoundTrip) {
  Layer3Memory l3(session_key(), 1);
  const Bytes page(1024, 0xab);
  l3.store(7, page);
  const auto back = l3.load(7);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, page);
  EXPECT_FALSE(l3.load(8).has_value());
  EXPECT_EQ(l3.page_count(), 1u);
}

TEST(Layer3, TamperDetected) {
  Layer3Memory l3(session_key(), 1);
  l3.store(1, Bytes(64, 1));
  ASSERT_TRUE(l3.tamper(1));
  EXPECT_FALSE(l3.load(1).has_value());  // A4: modification detected
}

TEST(Layer3, ReplayAcrossSlotsDetected) {
  // A sealed page moved to a different slot must fail authentication
  // because the slot number is bound as AAD.
  Layer3Memory l3(session_key(), 1);
  l3.store(1, Bytes(64, 1));
  ASSERT_TRUE(l3.replay(1, 2));
  EXPECT_TRUE(l3.load(1).has_value());
  EXPECT_FALSE(l3.load(2).has_value());
}

TEST(Layer3, DifferentSessionKeysCannotRead) {
  Layer3Memory l3a(session_key(), 1);
  l3a.store(1, Bytes(64, 1));
  // Simulate an adversary with last session's pages and a fresh key: the
  // overwrite uses a new key, the old sealed page cannot be faked. (We model
  // by loading through a pager with a different key below; here just confirm
  // erase.)
  l3a.erase(1);
  EXPECT_FALSE(l3a.load(1).has_value());
}

// --- Pager ---

MemLayerConfig small_config(size_t l2_pages = 16, size_t noise = 4, uint64_t seed = 9) {
  MemLayerConfig config;
  config.page_size = 1024;
  config.l2_bytes = l2_pages * 1024;
  config.max_noise_pages = noise;
  config.rng_seed = seed;
  return config;
}

TEST(Pager, FramesFitWithoutSwapping) {
  CallStackPager pager(small_config(), session_key());
  EXPECT_EQ(pager.push_frame(3), Status::kOk);
  EXPECT_EQ(pager.push_frame(4), Status::kOk);
  EXPECT_EQ(pager.depth(), 2);
  EXPECT_EQ(pager.total_pages(), 7u);
  EXPECT_TRUE(pager.swap_events().empty());
  pager.pop_frame();
  EXPECT_EQ(pager.total_pages(), 3u);
}

TEST(Pager, OverflowRuleAtHalfCapacity) {
  CallStackPager pager(small_config(16), session_key());
  // Limit is l2_pages/2 = 8: a single frame of 8+ pages is an attack.
  EXPECT_EQ(pager.push_frame(8), Status::kMemoryOverflow);
  EXPECT_EQ(pager.push_frame(7), Status::kOk);
  EXPECT_EQ(pager.grow_frame(8), Status::kMemoryOverflow);
  EXPECT_EQ(pager.grow_frame(7), Status::kOk);
}

TEST(Pager, DeepStackSpillsBottomPages) {
  CallStackPager pager(small_config(16, /*noise=*/0), session_key());
  for (int i = 0; i < 5; ++i) ASSERT_EQ(pager.push_frame(4), Status::kOk);
  // 20 pages total, 16 resident max -> at least 4 spilled.
  EXPECT_GE(pager.swapped_pages(), 4u);
  EXPECT_LE(pager.resident_pages(), 16u);
  EXPECT_FALSE(pager.swap_events().empty());
  EXPECT_EQ(pager.swap_events()[0].kind, SwapEvent::Kind::kEvict);
  // Current frame always fully resident.
  EXPECT_EQ(pager.current_frame_pages(), 4u);
}

TEST(Pager, ReturnReloadsCallerPages) {
  CallStackPager pager(small_config(16, 0), session_key());
  for (int i = 0; i < 5; ++i) ASSERT_EQ(pager.push_frame(4), Status::kOk);
  const size_t spilled = pager.swapped_pages();
  ASSERT_GT(spilled, 0u);
  // Popping all the way back must reload everything (invariant: the top
  // frame is always fully on-chip).
  while (pager.depth() > 0) pager.pop_frame();
  EXPECT_EQ(pager.swapped_pages(), 0u);
  EXPECT_EQ(pager.layer3().page_count(), 0u);
  EXPECT_EQ(pager.total_loaded_pages(), pager.total_evicted_pages());
}

TEST(Pager, GrowTriggersSwap) {
  CallStackPager pager(small_config(16, 0), session_key());
  ASSERT_EQ(pager.push_frame(6), Status::kOk);
  ASSERT_EQ(pager.push_frame(6), Status::kOk);
  ASSERT_EQ(pager.push_frame(2), Status::kOk);  // 14 resident
  ASSERT_EQ(pager.grow_frame(7), Status::kOk);  // 19 total -> 3 spilled
  EXPECT_EQ(pager.swapped_pages(), 3u);
  EXPECT_EQ(pager.current_frame_pages(), 7u);
}

TEST(Pager, NoiseDecorrelatesObservedSwapSizes) {
  // Two bundles with *identical* true frame sizes but different RNG seeds
  // must produce different observed swap-size sequences, and the noise
  // component must actually be nonzero somewhere.
  auto run_with_seed = [](uint64_t seed) {
    CallStackPager pager(small_config(16, 6, seed), session_key());
    for (int i = 0; i < 6; ++i) EXPECT_EQ(pager.push_frame(4), Status::kOk);
    while (pager.depth() > 0) pager.pop_frame();
    std::vector<uint64_t> observed;
    uint64_t total_noise = 0;
    for (const SwapEvent& e : pager.swap_events()) {
      observed.push_back(e.pages);
      total_noise += e.noise_pages;
    }
    return std::pair(observed, total_noise);
  };
  const auto [seq1, noise1] = run_with_seed(1);
  const auto [seq2, noise2] = run_with_seed(2);
  const auto [seq3, noise3] = run_with_seed(3);
  EXPECT_TRUE(seq1 != seq2 || seq2 != seq3) << "swap sizes fully determined by frame sizes";
  EXPECT_GT(noise1 + noise2 + noise3, 0u);
}

TEST(Pager, NoiseNeverEvictsCurrentFrame) {
  // Property sweep: under heavy churn the current frame must stay resident
  // and accounting must balance.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    CallStackPager pager(small_config(16, 8, seed), session_key());
    Random action_rng(seed * 31 + 7);
    for (int step = 0; step < 200; ++step) {
      const uint64_t action = action_rng.uniform(3);
      if (action == 0 || pager.depth() == 0) {
        ASSERT_EQ(pager.push_frame(1 + action_rng.uniform(6)), Status::kOk);
      } else if (action == 1) {
        const size_t grown = pager.current_frame_pages() + action_rng.uniform(3);
        if (grown < pager.config().frame_page_limit()) {
          ASSERT_EQ(pager.grow_frame(grown), Status::kOk);
        }
      } else {
        pager.pop_frame();
      }
      ASSERT_LE(pager.resident_pages(), pager.config().l2_pages());
      ASSERT_EQ(pager.swapped_pages(), pager.layer3().page_count());
      if (pager.depth() > 0) {
        // Invariant: top frame entirely resident.
        ASSERT_GE(pager.resident_pages(), pager.current_frame_pages());
      }
    }
  }
}

TEST(Pager, ResetClearsEverything) {
  CallStackPager pager(small_config(), session_key());
  ASSERT_EQ(pager.push_frame(4), Status::kOk);
  pager.reset();
  EXPECT_EQ(pager.depth(), 0);
  EXPECT_EQ(pager.total_pages(), 0u);
  EXPECT_TRUE(pager.swap_events().empty());
}

TEST(Pager, UsageErrors) {
  CallStackPager pager(small_config(), session_key());
  EXPECT_THROW(pager.pop_frame(), UsageError);
  EXPECT_THROW(pager.grow_frame(1), UsageError);
  MemLayerConfig tiny;
  tiny.l2_bytes = 1024;
  EXPECT_THROW(CallStackPager(tiny, session_key()), UsageError);
}

// --- end-to-end with the interpreter ---

TEST(MemLayerObserver, TracksRealExecution) {
  state::InMemoryState base;
  Address contract;
  contract.bytes[19] = 0xCC;
  Address caller;
  caller.bytes[19] = 0xAA;
  // A loop writing 6 KB of memory: forces layer-2 growth.
  base.put_code(contract, evm::assemble(R"(
    PUSH0
  loop:
    JUMPDEST
    DUP1 DUP1 MSTORE        ; mem[i] = i
    PUSH1 0x20 ADD
    DUP1 PUSH2 0x1800 GT    ; i < 6144 ?
    PUSH @loop JUMPI
    STOP
  )"));
  state::OverlayState overlay(base);
  evm::Interpreter interp(overlay, evm::BlockContext{});

  MemLayerObserver mem(MemLayerConfig{.rng_seed = 5}, session_key());
  interp.set_observer(&mem);

  evm::Interpreter::Message msg;
  msg.code_address = contract;
  msg.recipient = contract;
  msg.sender = caller;
  msg.gas = 1'000'000;
  msg.depth = 1;
  const auto result = interp.call(msg);
  EXPECT_EQ(result.status, evm::VmStatus::kSuccess);

  EXPECT_EQ(mem.stats().frames_entered, 1u);
  // 6 KB frame memory -> at least 7 pages in the current frame.
  EXPECT_GE(mem.pager().peak_total_pages(), 7u);
  mem.reset();
  EXPECT_EQ(mem.pager().depth(), 0);
}

TEST(MemLayerObserver, NestedCallsBalanceFrames) {
  state::InMemoryState base;
  Address a, b, caller;
  a.bytes[19] = 0x11;
  b.bytes[19] = 0x12;
  caller.bytes[19] = 0xAA;
  base.put_code(b, evm::assemble("PUSH1 1 PUSH1 0 MSTORE STOP"));
  base.put_code(a, evm::assemble(R"(
    PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00
    PUSH20 0x0000000000000000000000000000000000000012
    PUSH3 0xffffff
    CALL
    STOP
  )"));
  state::OverlayState overlay(base);
  evm::Interpreter interp(overlay, evm::BlockContext{});
  MemLayerObserver mem(MemLayerConfig{.rng_seed = 6}, session_key());
  interp.set_observer(&mem);

  evm::Interpreter::Message msg;
  msg.code_address = a;
  msg.recipient = a;
  msg.sender = caller;
  msg.gas = 1'000'000;
  msg.depth = 1;
  EXPECT_EQ(interp.call(msg).status, evm::VmStatus::kSuccess);
  EXPECT_EQ(mem.stats().frames_entered, 2u);
  EXPECT_EQ(mem.pager().depth(), 0);  // all frames popped
}

}  // namespace
}  // namespace hardtape::memlayer
