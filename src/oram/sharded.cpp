#include "oram/sharded.hpp"

#include <algorithm>
#include <chrono>

namespace hardtape::oram {

namespace {
uint64_t wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

bool is_power_of_two(size_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

ShardedOramConfig ShardedOramStore::partition(const OramConfig& total,
                                              size_t shard_count) {
  ShardedOramConfig config;
  config.shard_count = shard_count;
  config.shard = total;
  if (shard_count > 1) {
    // A uniform random block->shard split is multinomial, not exact: give
    // each subtree 2x slack so no shard's tree runs hot. (OramServer rounds
    // capacity up to a power of two anyway; slots stay empty until written.)
    config.shard.capacity =
        std::max<size_t>(64, (2 * total.capacity + shard_count - 1) / shard_count);
  }
  return config;
}

ShardedOramStore::ShardedOramStore(ShardedOramConfig config,
                                   const crypto::AesKey128& seal_key,
                                   uint64_t rng_seed, SealMode mode)
    : config_(config), map_rng_(rng_seed ^ 0x5a4d) {
  if (!is_power_of_two(config.shard_count)) {
    throw UsageError("oram: shard count must be a power of two");
  }
  shards_.reserve(config.shard_count);
  for (size_t s = 0; s < config.shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    OramConfig shard_config = config.shard;
    // Each subtree needs its own segment-file namespace on the shared fs.
    if (shard_config.backend == SlotBackend::kPaged) {
      shard_config.backing_name += "-s" + std::to_string(s);
    }
    shard->server = std::make_unique<OramServer>(shard_config);
    // Distinct deterministic RNG stream per subtree (leaf draws, seals).
    shard->client = std::make_unique<OramClient>(*shard->server, seal_key,
                                                 rng_seed ^ (0x9e3779b9ull * (s + 1)),
                                                 mode);
    shards_.push_back(std::move(shard));
  }
}

std::pair<uint32_t, uint32_t> ShardedOramStore::route(const BlockId& id) {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock lock(map_mu_);
  gate_cv_.wait(lock, [&] { return !in_flight_.contains(id); });
  in_flight_.insert(id);
  gate_stall_ns_ += wall_ns_since(start);
  const auto it = shard_of_.find(id);
  const uint32_t current = it == shard_of_.end() ? kNoShard : it->second;
  uint32_t next = static_cast<uint32_t>(map_rng_.uniform(shards_.size()));
  if (config_.pin_shard_assignment && current != kNoShard) next = current;
  return {current, next};
}

ShardedOramStore::Release::~Release() {
  {
    std::lock_guard lock(store.map_mu_);
    store.in_flight_.erase(id);
  }
  store.gate_cv_.notify_all();
}

void ShardedOramStore::drain_inbox(Shard& shard) {
  // walk_mu is held. The inbox lock is leaf-level: taken only for the swap,
  // never while acquiring any other lock.
  std::vector<std::pair<BlockId, Bytes>> pending;
  {
    std::lock_guard lock(shard.inbox_mu);
    pending.swap(shard.inbox);
  }
  for (auto& [id, data] : pending) {
    shard.client->adopt(id, std::move(data));
    ++shard.migrations_in;
  }
}

void ShardedOramStore::walk(uint32_t shard_index,
                            const std::function<void(OramClient&)>& fn) {
  Shard& shard = *shards_[shard_index];
  const auto start = std::chrono::steady_clock::now();
  std::lock_guard lock(shard.walk_mu);
  const uint64_t stall = wall_ns_since(start);

  const uint64_t in_flight = walks_in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t seen = max_concurrent_walks_.load(std::memory_order_relaxed);
  while (in_flight > seen &&
         !max_concurrent_walks_.compare_exchange_weak(seen, in_flight,
                                                      std::memory_order_relaxed)) {
  }

  drain_inbox(shard);
  shard.stall_ns += stall;
  shard.stall_samples.push_back(stall);
  ++shard.walks;
  const size_t observed_before = shard.server->observed_leaves().size();
  try {
    fn(*shard.client);
  } catch (...) {
    walks_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  // One client op is one path access; log whatever the server observed so
  // the per-shard audit sees exactly the adversary's view.
  const auto& leaves = shard.server->observed_leaves();
  for (size_t i = observed_before; i < leaves.size(); ++i) {
    const uint64_t seq = walk_seq_.fetch_add(1, std::memory_order_relaxed);
    shard.walk_log.emplace_back(seq, leaves[i]);
    if (config_.trace != nullptr) {
      config_.trace->append(obs::TraceCategory::kOram,
                            static_cast<uint16_t>(obs::TraceCode::kOramShardAccess),
                            /*sim_ns=*/0, shard_index, leaves[i]);
    }
  }
  walks_in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

void ShardedOramStore::hand_off(const BlockId& id, Bytes data, uint32_t to_shard) {
  // Push the block into the destination's inbox BEFORE publishing the new
  // assignment, so the next access routed there finds it at inbox drain.
  Shard& dest = *shards_[to_shard];
  {
    std::lock_guard lock(dest.inbox_mu);
    dest.inbox.emplace_back(id, std::move(data));
  }
  std::lock_guard lock(map_mu_);
  shard_of_[id] = to_shard;
}

std::optional<Bytes> ShardedOramStore::read(const BlockId& id) {
  const auto [current, next] = route(id);
  const Release release{*this, id};
  std::optional<Bytes> result;
  if (current == kNoShard) {
    // Unknown id: a dummy access on the freshly drawn shard — same (shard,
    // leaf) distribution as any hit, so absence stays indistinguishable.
    walk(next, [&](OramClient& client) { result = client.read(id); });
    return result;
  }
  if (next == current) {
    walk(current, [&](OramClient& client) { result = client.read(id); });
    return result;
  }
  // Migrate: one normal-looking walk on the current shard removes the block;
  // the destination adopts it client-side (zero server traffic there).
  walk(current, [&](OramClient& client) { result = client.access_remove(id); });
  if (!result.has_value()) {
    // The map said `current` held the block but its client disagreed:
    // trusted-state corruption. Fail closed.
    throw IntegrityError("oram: shard assignment inconsistent");
  }
  hand_off(id, *result, next);
  return result;
}

void ShardedOramStore::write(const BlockId& id, BytesView data) {
  // Writes happen in the serial sync/install phases, not in the oblivious
  // query stream, and must land exactly where the durability hook journals
  // them — so they never migrate: a known block is updated in place, a new
  // block lands on a fresh uniform shard.
  const auto [current, next] = route(id);
  const Release release{*this, id};
  const uint32_t target = current != kNoShard ? current : next;
  walk(target, [&](OramClient& client) { client.write(id, data); });
  if (current == kNoShard) {
    std::lock_guard lock(map_mu_);
    shard_of_[id] = target;
  }
}

AccessAttempt ShardedOramStore::try_read(const BlockId& id) {
  try {
    return AccessAttempt{Status::kOk, read(id), 0};
  } catch (const IntegrityError&) {
    return AccessAttempt{Status::kAuthFailed, std::nullopt, 0};
  }
}

AccessAttempt ShardedOramStore::try_write(const BlockId& id, BytesView data) {
  try {
    write(id, data);
    return AccessAttempt{};
  } catch (const IntegrityError&) {
    return AccessAttempt{Status::kAuthFailed, std::nullopt, 0};
  }
}

void ShardedOramStore::bulk_load(const Pages& pages) {
  std::lock_guard map_lock(map_mu_);
  if (!shard_of_.empty()) {
    throw UsageError("oram: bulk_load requires a fresh store");
  }
  // Fresh uniform shard per page — assignments are never carried across a
  // crash, mirroring the leaf policy of OramClient::bulk_load.
  std::vector<Pages> split(shards_.size());
  for (const auto& page : pages) {
    const auto shard = static_cast<uint32_t>(map_rng_.uniform(shards_.size()));
    split[shard].push_back(page);
    shard_of_[page.first] = shard;
  }
  const size_t share = (pages.size() + shards_.size() - 1) / shards_.size();
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard lock(shards_[s]->walk_mu);
    shards_[s]->client->bulk_load(split[s], share);
  }
}

uint32_t ShardedOramStore::shard_of(const BlockId& id) const {
  std::lock_guard lock(map_mu_);
  const auto it = shard_of_.find(id);
  return it == shard_of_.end() ? kNoShard : it->second;
}

size_t ShardedOramStore::leaf_count() const { return shards_[0]->server->leaf_count(); }

const OramServer& ShardedOramStore::server(size_t shard) const {
  return *shards_[shard]->server;
}

size_t ShardedOramStore::block_count() const {
  std::lock_guard lock(map_mu_);
  return shard_of_.size();
}

bool ShardedOramStore::stash_overflowed() const {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->walk_mu);
    if (shard->client->stash_overflowed()) return true;
  }
  return false;
}

ShardedOramStore::Stats ShardedOramStore::snapshot() const {
  Stats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->walk_mu);
    ShardStats s;
    s.walks = shard->walks;
    s.migrations_in = shard->migrations_in;
    s.stall_ns = shard->stall_ns;
    s.stall_samples = shard->stall_samples;
    s.stash_size = shard->client->stash_size();
    s.stash_high_water = shard->client->stash_high_water();
    stats.total_walks += s.walks;
    stats.total_migrations += s.migrations_in;
    stats.shards.push_back(std::move(s));
  }
  stats.max_concurrent_walks = max_concurrent_walks_.load(std::memory_order_relaxed);
  std::lock_guard lock(map_mu_);
  stats.gate_stall_ns = gate_stall_ns_;
  return stats;
}

std::vector<std::pair<uint32_t, uint64_t>> ShardedOramStore::observed_walks() const {
  std::vector<std::pair<uint64_t, std::pair<uint32_t, uint64_t>>> merged;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard lock(shards_[s]->walk_mu);
    for (const auto& [seq, leaf] : shards_[s]->walk_log) {
      merged.push_back({seq, {static_cast<uint32_t>(s), leaf}});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<uint32_t, uint64_t>> out;
  out.reserve(merged.size());
  for (const auto& [seq, walk] : merged) out.push_back(walk);
  return out;
}

void ShardedOramStore::clear_observations() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->walk_mu);
    shard->walk_log.clear();
    shard->server->clear_observations();
  }
}

}  // namespace hardtape::oram
