#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

// Buffer-pool cap, in pages, for every paged layer of live-durable; small
// against the state so the pools miss and evict.
constexpr size_t kPoolPages = 64;
constexpr uint64_t kCheckpointEveryRecords = 16;
// Seed of the deployed world (bench::EvaluationSetup's default).
constexpr uint64_t kWorldSeed = 19145194;

// Each seed draws kPoolBlocks blocks of kPoolBlockTxs transactions.
constexpr size_t kPoolBlocks = 100;
constexpr size_t kPoolBlockTxs = 40;

const std::array<WorkloadSpec, 3> kWorkloads = {{
    {.name = "oram-static",
     .security = service::SecurityConfig::full(),
     .txs_per_bundle = 1,
     .window_bundles = 160,
     .live = false},
    {.name = "evm-local",
     .security = service::SecurityConfig::ES(),
     .txs_per_bundle = 8,
     .window_bundles = 500,
     .live = false},
    {.name = "live-durable",
     .security = service::SecurityConfig::full(),
     .txs_per_bundle = 1,
     .window_bundles = 64,
     .live = true},
}};

// Orders the pool so every shape of transaction (target contract kind, gas
// limit, selector) is spread evenly through it. Any prefix of the result
// then carries the pool's mix, instead of whatever clumps the generator's
// draws happen to form, so a timed phase that covers only part of the pool
// still measures the same mix on every seed.
std::vector<evm::Transaction> interleave_by_shape(std::vector<evm::Transaction> pool,
                                                  const workload::WorkloadGenerator& gen) {
  std::unordered_map<Address, int, AddressHasher> kind;
  for (const Address& a : gen.users()) kind[a] = 1;
  for (const Address& a : gen.tokens()) kind[a] = 2;
  for (const Address& a : gen.dexes()) kind[a] = 3;
  for (const Address& a : gen.routers()) kind[a] = 4;
  kind[gen.ponzi()] = 5;
  kind[gen.rollup()] = 6;
  using Shape = std::tuple<int, uint64_t, uint32_t>;
  std::map<Shape, std::vector<size_t>> groups;
  for (size_t i = 0; i < pool.size(); ++i) {
    const evm::Transaction& tx = pool[i];
    const auto it = tx.to ? kind.find(*tx.to) : kind.end();
    uint32_t selector = 0;
    for (size_t b = 0; b < 4 && b < tx.data.size(); ++b) selector = (selector << 8) | tx.data[b];
    groups[{it == kind.end() ? 0 : it->second, tx.gas_limit, selector}].push_back(i);
  }
  // Within a shape, members are ranked by calldata and taken in golden-ratio
  // order of rank, so every stretch of the sequence also samples argument
  // values (a route's depth, say) across their whole range. Item j of a
  // group of n then sits at (j + 0.5) / n of the sequence.
  std::vector<std::tuple<double, size_t, size_t>> order;  // (position, group, pool index)
  size_t group = 0;
  for (auto& [shape, members] : groups) {
    std::stable_sort(members.begin(), members.end(),
                     [&pool](size_t a, size_t b) { return pool[a].data < pool[b].data; });
    std::vector<std::pair<double, size_t>> spread;
    for (size_t rank = 0; rank < members.size(); ++rank) {
      const double key = static_cast<double>(rank + 1) * 0.6180339887498949;
      spread.emplace_back(key - std::floor(key), members[rank]);
    }
    std::sort(spread.begin(), spread.end());
    for (size_t j = 0; j < spread.size(); ++j) members[j] = spread[j].second;
    for (size_t j = 0; j < members.size(); ++j) {
      order.emplace_back((static_cast<double>(j) + 0.5) / static_cast<double>(members.size()),
                         group, members[j]);
    }
    ++group;
  }
  std::sort(order.begin(), order.end());
  std::vector<evm::Transaction> out;
  out.reserve(pool.size());
  for (const auto& [position, g, index] : order) out.push_back(std::move(pool[index]));
  return out;
}

durability::DurableConfig durable_config() {
  return {.checkpoint_every_records = kCheckpointEveryRecords,
          .incremental_checkpoints = true,
          .buffer_pool_pages = kPoolPages};
}

}  // namespace

std::optional<WorkloadSpec> find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return spec;
  }
  return std::nullopt;
}

service::EngineConfig Deployment::engine_config(durability::DurableStore* durable,
                                                durability::SimFs* oram_fs) const {
  service::EngineConfig config;
  config.num_hevms = 1;
  config.security = spec_.security;
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 8192,
                                 .max_stash_blocks = 512};
  if (spec_.live) {
    config.oram.backend = oram::SlotBackend::kPaged;
    config.oram.backing_fs = oram_fs;
    config.oram.buffer_pool_pages = kPoolPages;
  }
  config.seal_mode = oram::SealMode::kChaChaHmac;
  config.perform_channel_crypto = false;  // channel crypto is modelled in sim time
  config.durable = durable;
  // Live chain: any lag re-pins, so each block is delta-synced by the first
  // admission after it.
  if (spec_.live) config.max_head_lag = 0;
  config.on_outcome = options_.on_outcome;
  return config;
}

Deployment::Deployment(const WorkloadSpec& spec, const DeployOptions& options)
    : spec_(spec), options_(options) {
  trie::NodeStore* node_store = nullptr;
  if (spec_.live) {
    node_fs_ = std::make_unique<durability::SimFs>();
    durable_fs_ = std::make_unique<durability::SimFs>();
    base_store_ = std::make_unique<trie::PagedNodeStore>(
        *node_fs_, pagedstore::PagedStoreConfig{.name = "node-trie",
                                                .buffer_pool_pages = kPoolPages});
    node_store = base_store_.get();
  }
  if (options_.traced) {
    if (base_store_ == nullptr) base_store_ = std::make_unique<trie::RamNodeStore>();
    timing_store_ = std::make_unique<TimingNodeStore>(*base_store_);
    node_store = timing_store_.get();
    // Small rings: the benchmark reads the ORAM frontend's ring after every
    // bundle, and the per-opcode ring only has to stay bounded.
    trace_ = std::make_unique<obs::TraceSink>(obs::TraceSink::Config{.ring_capacity = 8192});
  }
  // The seed draws the transactions; every seed runs them against one
  // fixed world, as the paper runs its sample against one Mainnet state.
  // The generator assigns deployment addresses from a counter, so the
  // seed's transactions target the same accounts and contracts in it.
  setup_ = std::make_unique<bench::EvaluationSetup>(/*block_count=*/0, kPoolBlockTxs,
                                                    kWorldSeed, /*state_scale=*/1, node_store);
  const std::vector<evm::Transaction> bundle_txs = interleave_by_shape(
      bench::EvaluationSetup(kPoolBlocks, kPoolBlockTxs, options_.seed).all_transactions(),
      setup_->generator);
  for (size_t i = 0; i + spec_.txs_per_bundle <= bundle_txs.size(); i += spec_.txs_per_bundle) {
    bundles_.emplace_back(bundle_txs.begin() + static_cast<std::ptrdiff_t>(i),
                          bundle_txs.begin() + static_cast<std::ptrdiff_t>(i + spec_.txs_per_bundle));
  }

  if (spec_.live) {
    store_ = std::make_unique<durability::DurableStore>(*durable_fs_, durable_config());
  }
  auto config = engine_config(store_.get(), durable_fs_.get());
  config.trace = trace_.get();
  engine_ = std::make_unique<service::PreExecutionEngine>(setup_->node, config);
  const auto sync_start = std::chrono::steady_clock::now();
  const Status synced = engine_->synchronize();
  sync_ns_ = elapsed_ns(sync_start);
  if (synced != Status::kOk) {
    throw HardtapeError(std::string("perfbench: synchronize() failed on ") + spec_.name);
  }
  engine_->start();
}

Deployment::~Deployment() = default;

Bundle Deployment::block_before(size_t bundle) const {
  // Transactions land on chain after their senders pre-executed them: the
  // block carries the first transaction of every fourth recent bundle.
  Bundle txs;
  for (size_t back = kBundlesPerBlock; back > 0 && txs.size() < kTxsPerBlock; back -= 4) {
    if (bundle >= back) txs.push_back(bundles_[(bundle - back) % bundles_.size()].front());
  }
  return txs;
}

std::vector<pagedstore::BufferPoolStats> Deployment::pool_stats() {
  std::vector<pagedstore::BufferPoolStats> pools;
  if (auto* paged = dynamic_cast<trie::PagedNodeStore*>(base_store_.get())) {
    pools.push_back(paged->pool_stats());
  }
  if (engine_ != nullptr) {
    oram::ShardedOramStore& shards = engine_->oram_store();
    for (size_t i = 0; i < shards.shard_count(); ++i) {
      if (const auto s = shards.server(i).slot_pool_stats()) pools.push_back(*s);
    }
  }
  if (store_ != nullptr) {
    if (const auto s = store_->pool_stats()) pools.push_back(*s);
  }
  return pools;
}

uint64_t Deployment::segment_bytes() const {
  uint64_t total = 0;
  for (const durability::SimFs* fs : {node_fs_.get(), durable_fs_.get()}) {
    if (fs == nullptr) continue;
    for (const std::string& path : fs->list()) {
      if (path.find(".seg-") == std::string::npos) continue;
      if (const auto bytes = fs->read(path)) total += bytes->size();
    }
  }
  return total;
}

void Deployment::power_cut() {
  if (durable_fs_ != nullptr) {
    durable_fs_->arm({.crash_at_op = durable_fs_->op_count() + 1,
                      .resolve_seed = options_.seed});
    durable_fs_->sync_dir();  // the armed op: power goes out before it lands
  }
  engine_.reset();
  store_.reset();
  if (durable_fs_ != nullptr) durable_fs_->restart();
}

Deployment::RestartTiming Deployment::restart() {
  restarted_engine_.reset();
  restart_store_.reset();
  restart_fs_ = std::make_unique<durability::SimFs>();
  RestartTiming timing;

  auto start = std::chrono::steady_clock::now();
  const durability::RecoveredState recovered =
      durability::Recovery::replay(durable_fs_ != nullptr ? *durable_fs_ : *restart_fs_);
  timing.replay_ns = elapsed_ns(start);
  timing.recovery = recovered.stats;
  timing.recovered_pages = recovered.image.pages.size();

  if (spec_.live) {
    start = std::chrono::steady_clock::now();
    restart_store_ = std::make_unique<durability::DurableStore>(*restart_fs_, durable_config());
    restart_store_->adopt(recovered);
    timing.adopt_ns = elapsed_ns(start);
  }

  start = std::chrono::steady_clock::now();
  restarted_engine_ = std::make_unique<service::PreExecutionEngine>(
      setup_->node, engine_config(restart_store_.get(), restart_fs_.get()));
  timing.status = restarted_engine_->warm_restart(recovered);
  if (timing.status == Status::kOk) restarted_engine_->start();
  timing.warm_restart_ns = elapsed_ns(start);

  timing.pinned_at_head =
      restarted_engine_->pinned_header().state_root == setup_->node.head().state_root;
  const oram::EpochRegistry& epochs = restarted_engine_->epoch_registry();
  timing.epochs_consistent = epochs.max_page_epoch() <= epochs.store_epoch();
  return timing;
}

}  // namespace perfbench
