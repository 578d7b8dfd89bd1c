// Reproduces Figure 4: end-to-end per-transaction time of Geth and HarDTAPE
// under -raw / -E / -ES / -ESO / -full, each transaction as its own bundle.
//
// Paper reference points: Geth ~1 ms-class; -raw = Geth + ~0.5 ms;
// -E adds ~2.9 ms; -ES adds ~80 ms (ECDSA); -ESO adds ~30 ms (storage ORAM);
// -full ~164.4 ms total (code ORAM adds the rest of the ~80 ms ORAM cost).
#include "bench_common.hpp"
#include "hevm/baseline.hpp"

using namespace hardtape;

int main() {
  bench::EvaluationSetup setup(/*block_count=*/2, /*txs_per_block=*/50);
  const auto txs = setup.all_transactions();
  std::vector<std::vector<evm::Transaction>> bundles;  // one tx per bundle
  for (const auto& tx : txs) bundles.push_back({tx});

  // --- Geth baseline ---
  double geth_total_ms = 0;
  {
    sim::SimClock clock;
    hevm::GethRole geth(setup.node.world(), setup.node.block_context(), clock);
    for (const auto& tx : txs) geth.execute(tx);
    geth_total_ms = clock.now_ms();
  }
  const double geth_mean = geth_total_ms / static_cast<double>(txs.size());

  struct Row {
    std::string name;
    double mean_ms;
    double hevm_ms;
    double crypto_ms;
    double oram_ms;
    double kv_queries;
    double code_queries;
  };
  std::vector<Row> rows;
  rows.push_back({"Geth", geth_mean, geth_mean, 0, 0, 0, 0});

  for (const service::SecurityConfig security :
       {service::SecurityConfig::raw(), service::SecurityConfig::E(),
        service::SecurityConfig::ES(), service::SecurityConfig::ESO(),
        service::SecurityConfig::full()}) {
    service::PreExecutionEngine engine(setup.node,
                                       bench::default_service_config(security));
    if (engine.synchronize() != Status::kOk) {
      std::printf("sync failed for %s\n", std::string(security.name()).c_str());
      return 1;
    }
    Row row{std::string(security.name()), 0, 0, 0, 0, 0, 0};
    uint64_t count = 0;
    for (const auto& outcome : engine.execute_serial(bundles)) {
      row.mean_ms += static_cast<double>(outcome.end_to_end_ns) / 1e6;
      row.hevm_ms += static_cast<double>(outcome.hevm_time_ns) / 1e6;
      row.crypto_ms += static_cast<double>(outcome.crypto_time_ns) / 1e6;
      row.oram_ms += static_cast<double>(outcome.query_stats.oram_time_ns) / 1e6;
      row.kv_queries += static_cast<double>(outcome.query_stats.kv_queries);
      row.code_queries += static_cast<double>(outcome.query_stats.code_queries);
      ++count;
    }
    const double n = static_cast<double>(count);
    row.mean_ms /= n;
    row.hevm_ms /= n;
    row.crypto_ms /= n;
    row.oram_ms /= n;
    row.kv_queries /= n;
    row.code_queries /= n;
    rows.push_back(row);
  }

  bench::Table table({"config", "end-to-end ms/tx", "exec ms", "crypto ms", "oram ms",
                      "kv q/tx", "code q/tx", "paper ref"});
  const char* paper[6] = {"(baseline)",       "Geth + ~0.5 ms", "+ ~2.9 ms (AES)",
                          "+ ~80 ms (ECDSA)", "+ ~30 ms (K-V ORAM)",
                          "~164.4 ms total"};
  for (size_t i = 0; i < rows.size(); ++i) {
    table.add_row({rows[i].name, bench::fmt(rows[i].mean_ms, 2),
                   bench::fmt(rows[i].hevm_ms, 2), bench::fmt(rows[i].crypto_ms, 2),
                   bench::fmt(rows[i].oram_ms, 2), bench::fmt(rows[i].kv_queries, 1),
                   bench::fmt(rows[i].code_queries, 1), paper[i]});
  }
  table.print("Figure 4: end-to-end per-transaction time (" +
              std::to_string(txs.size()) + " real-workload txs, 1 tx/bundle)");

  // Deltas, the §VI-C breakdown.
  bench::Table deltas({"step", "measured delta ms", "paper delta"});
  deltas.add_row({"-raw vs Geth", bench::fmt(rows[1].mean_ms - rows[0].mean_ms, 2), "~0.5"});
  deltas.add_row({"-E vs -raw", bench::fmt(rows[2].mean_ms - rows[1].mean_ms, 2), "~2.9"});
  deltas.add_row({"-ES vs -E", bench::fmt(rows[3].mean_ms - rows[2].mean_ms, 2), "~80"});
  deltas.add_row({"-ESO vs -ES", bench::fmt(rows[4].mean_ms - rows[3].mean_ms, 2), "~30"});
  deltas.add_row({"-full vs -ESO", bench::fmt(rows[5].mean_ms - rows[4].mean_ms, 2), "~50"});
  deltas.print("Section VI-C: security-feature overhead breakdown");

  const bool under_budget = rows[5].mean_ms < 600.0;
  std::printf("\n-full mean %.1f ms/tx -> %s the paper's 600 ms user-latency budget.\n",
              rows[5].mean_ms, under_budget ? "within" : "EXCEEDS");
  return under_budget ? 0 : 1;
}
