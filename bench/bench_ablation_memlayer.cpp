// Ablations for the 3-layer memory design choices of Section IV-B:
//  1. Layer-2 capacity sweep: Memory Overflow rate and swap traffic on the
//     evaluation set (why 1 MB per HEVM).
//  2. Pre-evict/pre-load noise level vs the correlation between observed
//     swap sizes and true frame sizes (the A5 leakage channel).
#include <cmath>

#include "bench_common.hpp"
#include "evm/interpreter.hpp"
#include "memlayer/observer.hpp"

using namespace hardtape;

namespace {

crypto::AesKey128 key() {
  crypto::AesKey128 k{};
  k[1] = 0x31;
  return k;
}

}  // namespace

int main() {
  bench::EvaluationSetup setup(1, 30);
  // The normal evaluation set barely stresses layer 2 (that is the point of
  // the 1 MB sizing); add memory-heavy transactions — large rollup batches
  // and deep router chains with bulky calldata — to expose the capacity
  // cliff at smaller layer-2 sizes.
  auto txs = setup.all_transactions();
  Random stress_rng(42);
  for (int i = 0; i < 30; ++i) {
    evm::Transaction tx;
    tx.from = setup.generator.users()[i % setup.generator.users().size()];
    if (i % 2 == 0) {
      tx.to = setup.generator.rollup();
      tx.data = workload::rollup_submit(u256{1} << 40, 8,
                                        20'000 + stress_rng.uniform(280'000));
      tx.gas_limit = 30'000'000;
    } else {
      tx.to = setup.generator.routers()[0];
      Bytes data = workload::router_route(8 + stress_rng.uniform(4),
                                          setup.generator.tokens()[0],
                                          setup.generator.users()[0], u256{1});
      data.resize(data.size() + 8'000 + stress_rng.uniform(8'000), 0xcd);
      tx.data = std::move(data);
      tx.gas_limit = 30'000'000;
    }
    txs.push_back(tx);
  }

  // --- 1. layer-2 capacity sweep ---
  {
    bench::Table table({"L2 size", "frame limit", "overflows", "evicted pages",
                        "loaded pages", "swap events"});
    for (const size_t l2_kb : {64u, 128u, 256u, 512u, 1024u}) {
      memlayer::MemLayerConfig l2;
      l2.l2_bytes = l2_kb * 1024;
      l2.rng_seed = 5;
      memlayer::MemLayerObserver mem(l2, key());
      state::OverlayState overlay(setup.node.world());
      evm::Interpreter interp(overlay, setup.node.block_context());
      interp.set_frame_memory_limit(l2.l2_bytes / 2);
      interp.set_observer(&mem);
      uint64_t overflows = 0;
      for (const auto& tx : txs) {
        const auto result = interp.execute_transaction(tx);
        if (result.status == evm::VmStatus::kMemoryOverflow) ++overflows;
      }
      table.add_row({std::to_string(l2_kb) + " KB",
                     std::to_string(l2.frame_page_limit()) + " pages",
                     std::to_string(overflows),
                     std::to_string(mem.pager().total_evicted_pages()),
                     std::to_string(mem.pager().total_loaded_pages()),
                     std::to_string(mem.pager().swap_events().size())});
    }
    table.print("Ablation 1: layer-2 capacity (paper picks 1 MB: no overflow on "
                "normal workloads, >4 frames resident for noise headroom)");
  }

  // --- 2. noise level vs swap-size correlation (A5) ---
  {
    // Fixed synthetic call pattern with *known* frame sizes; measure the
    // Pearson correlation between the true eviction requirement and the
    // observed (noisy) swap size across many runs.
    bench::Table table({"max noise pages", "corr(observed, true)", "mean noise/swap"});
    for (const size_t noise : {0u, 2u, 4u, 8u, 12u}) {
      std::vector<double> true_sizes, observed_sizes;
      double total_noise = 0;
      uint64_t swaps = 0;
      for (uint64_t seed = 0; seed < 40; ++seed) {
        memlayer::MemLayerConfig config;
        config.l2_bytes = 16 * 1024;
        config.max_noise_pages = noise;
        config.rng_seed = seed;
        memlayer::CallStackPager pager(config, key());
        Random frame_rng(123);  // same frame sizes for every seed
        for (int i = 0; i < 12; ++i) {
          const size_t pages = 2 + frame_rng.uniform(5);
          (void)pager.push_frame(pages);
        }
        while (pager.depth() > 0) pager.pop_frame();
        for (const auto& event : pager.swap_events()) {
          true_sizes.push_back(static_cast<double>(event.pages - event.noise_pages));
          observed_sizes.push_back(static_cast<double>(event.pages));
          total_noise += static_cast<double>(event.noise_pages);
          ++swaps;
        }
      }
      // Pearson correlation.
      const size_t n = true_sizes.size();
      double mean_t = 0, mean_o = 0;
      for (size_t i = 0; i < n; ++i) {
        mean_t += true_sizes[i];
        mean_o += observed_sizes[i];
      }
      mean_t /= double(n);
      mean_o /= double(n);
      double cov = 0, var_t = 0, var_o = 0;
      for (size_t i = 0; i < n; ++i) {
        cov += (true_sizes[i] - mean_t) * (observed_sizes[i] - mean_o);
        var_t += (true_sizes[i] - mean_t) * (true_sizes[i] - mean_t);
        var_o += (observed_sizes[i] - mean_o) * (observed_sizes[i] - mean_o);
      }
      const double corr =
          (var_t > 0 && var_o > 0) ? cov / std::sqrt(var_t * var_o) : 1.0;
      table.add_row({std::to_string(noise), bench::fmt(corr, 3),
                     bench::fmt(swaps ? total_noise / double(swaps) : 0, 2)});
    }
    table.print("Ablation 2: pre-evict/pre-load noise vs A5 leakage "
                "(correlation 1.0 = swap sizes fully expose frame sizes)");
  }
  return 0;
}
