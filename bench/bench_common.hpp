// Shared scaffolding for the reproduction benches: a fixed evaluation-set
// setup (node + deployed workload, the stand-in for Ethereum Mainnet blocks
// #19145194-#19145293) and table-printing helpers.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "node/node.hpp"
#include "service/engine.hpp"
#include "workload/generator.hpp"

namespace hardtape::bench {

struct EvaluationSetup {
  node::NodeSimulator node;
  workload::WorkloadGenerator generator;
  std::vector<std::vector<evm::Transaction>> blocks;

  /// `state_scale` multiplies the deployed-state population (accounts,
  /// contracts, pairs) — the big-state crash drill runs at 10x+. The
  /// optional `node_store` routes the node's trie through an external
  /// backend (e.g. trie::PagedNodeStore) so that scaled state need not be
  /// RAM-resident; it must outlive the setup.
  explicit EvaluationSetup(size_t block_count = 10, size_t txs_per_block = 40,
                           uint64_t seed = 19145194, size_t state_scale = 1,
                           trie::NodeStore* node_store = nullptr)
      : node(evm::BlockContext{}, node_store),
        generator(workload::GeneratorConfig{
            .seed = seed,
            .user_accounts = 32 * state_scale,
            .erc20_contracts = 24 * state_scale,
            .dex_pairs = 12 * state_scale,
            .routers = 6,
            .txs_per_block = txs_per_block,
        }) {
    generator.deploy(node.world());
    node.produce_block({});
    blocks = generator.generate_evaluation_set(block_count);
  }

  std::vector<evm::Transaction> all_transactions() const {
    std::vector<evm::Transaction> all;
    for (const auto& block : blocks) all.insert(all.end(), block.begin(), block.end());
    return all;
  }
};

/// The paper benches' chip: 3 HEVMs over an 8 MB ORAM (EngineConfig
/// defaults otherwise). They run it through execute_serial().
inline service::EngineConfig default_service_config(service::SecurityConfig security) {
  service::EngineConfig config;
  config.security = security;
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 8192,
                                 .max_stash_blocks = 512};
  config.seal_mode = oram::SealMode::kChaChaHmac;  // see DESIGN.md §1
  config.perform_channel_crypto = false;           // timing from the cost models
  return config;
}

// --- tiny fixed-width table printer ---

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print(const std::string& title) const {
    std::printf("\n=== %s ===\n", title.c_str());
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), cells[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (size_t w : widths) rule += std::string(w, '-') + "  ";
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}
inline std::string pct(double numerator, double denominator) {
  return denominator > 0 ? fmt(100.0 * numerator / denominator) + "%" : "n/a";
}

}  // namespace hardtape::bench
