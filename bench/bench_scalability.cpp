// Reproduces Section VI-D: scalability.
//  - Chip throughput: 3 HEVMs x (1 / mean -full bundle time) vs Ethereum's
//    ~17 tx/s mainnet rate.
//  - ORAM server capacity: supported full-load HEVMs = floor(mean inter-query
//    gap / per-query service time) — the paper's 630 us / 25 us = 25 formula.
//  - Scale-out: throughput vs number of HarDTAPE instances until the ORAM
//    server saturates.
#include "bench_common.hpp"

using namespace hardtape;

int main() {
  bench::EvaluationSetup setup(/*block_count=*/1, /*txs_per_block=*/40);
  const auto txs = setup.all_transactions();

  const auto config = bench::default_service_config(service::SecurityConfig::full());
  service::PreExecutionEngine engine(setup.node, config);
  if (engine.synchronize() != Status::kOk) return 1;
  std::vector<std::vector<evm::Transaction>> bundles;  // one tx per bundle
  for (const auto& tx : txs) bundles.push_back({tx});

  uint64_t total_ns = 0, total_queries = 0, total_busy_ns = 0;
  double sum_gap_ns = 0;
  uint64_t gap_count = 0;
  for (const auto& outcome : engine.execute_serial(bundles)) {
    total_ns += outcome.end_to_end_ns;
    total_queries += outcome.query_stats.oram_queries;
    total_busy_ns += outcome.hevm_time_ns;
    // Inter-query gaps as seen by the ORAM server from this HEVM.
    const auto& timeline = outcome.observed_timeline;
    for (size_t i = 1; i < timeline.size(); ++i) {
      sum_gap_ns += static_cast<double>(timeline[i].time_ns - timeline[i - 1].time_ns);
      ++gap_count;
    }
  }
  const double mean_ms = static_cast<double>(total_ns) / 1e6 / double(txs.size());
  // Chip throughput: HEVMs / mean bundle time.
  const double chip_tput = static_cast<double>(config.num_hevms) * 1e9 /
                           static_cast<double>(total_ns / txs.size());
  const double mean_gap_us = gap_count ? sum_gap_ns / double(gap_count) / 1e3 : 0;
  const uint64_t service_ns = service::RoutedStateReader::Timing{}.server.service_ns;
  const double service_us = static_cast<double>(service_ns) / 1e3;
  const int supported_hevms = static_cast<int>(mean_gap_us / service_us);

  bench::Table table({"metric", "measured", "paper"});
  table.add_row({"mean -full time (ms/tx)", bench::fmt(mean_ms), "164.4"});
  table.add_row({"chip throughput (tx/s, 3 HEVMs)", bench::fmt(chip_tput), "~18"});
  table.add_row({"Ethereum mainnet rate (tx/s)", "17", "17"});
  table.add_row({"one chip covers mainnet", chip_tput >= 17 ? "yes" : "no", "yes"});
  table.add_row({"ORAM queries/tx", bench::fmt(double(total_queries) / double(txs.size())), "-"});
  table.add_row({"mean inter-query gap (us)", bench::fmt(mean_gap_us), "630"});
  table.add_row({"server service time (us/query)", bench::fmt(service_us), "25"});
  table.add_row({"supported full-load HEVMs", std::to_string(supported_hevms),
                 "25 (=630/25)"});
  table.print("Section VI-D: scalability");

  // Scale-out curve: instances added until the ORAM server saturates.
  const double per_hevm_query_rate = 1e9 / (mean_gap_us * 1e3);  // queries/s per HEVM
  const double server_capacity = 1e9 / double(service_ns);
  bench::Table scale({"HarDTAPE instances", "HEVMs", "offered tx/s",
                      "ORAM server load", "effective tx/s"});
  for (int instances : {1, 2, 4, 8, 16, 32, 64}) {
    const int hevms = instances * 3;
    const double offered = chip_tput * instances;
    const double query_load = per_hevm_query_rate * hevms;
    const double utilization = query_load / server_capacity;
    const double effective = utilization <= 1.0 ? offered : offered / utilization;
    scale.add_row({std::to_string(instances), std::to_string(hevms),
                   bench::fmt(offered), bench::fmt(100 * utilization) + "%",
                   bench::fmt(effective)});
  }
  scale.print("Scale-out: ORAM server becomes the bottleneck");

  // Queueing behavior (Fig. 3 step 3): bundles queued until an HEVM idles.
  {
    std::vector<uint64_t> durations;
    const uint64_t mean_ns = total_ns / txs.size();
    for (size_t i = 0; i < 60; ++i) durations.push_back(mean_ns);
    bench::Table queue({"arrival rate (tx/s)", "mean wait (ms)", "max queue depth"});
    for (const double rate : {10.0, 17.0, 18.0, 25.0, 40.0}) {
      const auto gap = static_cast<uint64_t>(1e9 / rate);
      const auto sched = service::schedule_bundles(durations, /*cores=*/3, gap);
      queue.add_row({bench::fmt(rate, 0),
                     bench::fmt(static_cast<double>(sched.mean_wait_ns) / 1e6),
                     std::to_string(sched.max_queue_depth)});
    }
    queue.print("Queueing at the chip: 3 dedicated HEVMs, no context switches");
  }

  std::printf("\nshape checks: chip >= mainnet rate: %s; server supports >= 3 HEVMs"
              " (one chip): %s\n",
              chip_tput >= 17 ? "yes" : "NO", supported_hevms >= 3 ? "yes" : "NO");
  return (chip_tput >= 17 && supported_hevms >= 3) ? 0 : 1;
}
