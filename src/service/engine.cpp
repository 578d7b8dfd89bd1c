#include "service/engine.hpp"

#include <algorithm>

#include "durability/durable_store.hpp"
#include "memlayer/pager.hpp"
#include "node/sync.hpp"

namespace hardtape::service {

namespace {
constexpr const char* kSbl = "hardtape-sbl-v1";
constexpr const char* kFirmware = "hardtape-hypervisor-v1";
constexpr const char* kBitstream = "hardtape-hevm-bitstream-v1";

BytesView sv(const char* s) {
  return BytesView{reinterpret_cast<const uint8_t*>(s), std::strlen(s)};
}

/// Per-bundle RNG: depends only on (engine seed, bundle id), never on the
/// worker or interleaving — the root of the engine's determinism contract.
Random session_rng(uint64_t engine_seed, uint64_t bundle_id) {
  return Random(engine_seed ^ (0x9e3779b97f4a7c15ull * (bundle_id + 1)));
}

uint64_t wall_ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}
}  // namespace

bool outcomes_bit_identical(const SessionOutcome& a, const SessionOutcome& b) {
  if (a.bundle_id != b.bundle_id || a.status != b.status) return false;
  if (a.attempt != b.attempt || a.backend_fault != b.backend_fault ||
      a.recovery_sim_ns != b.recovery_sim_ns || a.oram_retries != b.oram_retries ||
      a.faults_seen != b.faults_seen) {
    return false;
  }
  if (a.epoch != b.epoch || a.state_root != b.state_root || a.resim != b.resim) {
    return false;
  }
  if (a.end_to_end_ns != b.end_to_end_ns || a.hevm_time_ns != b.hevm_time_ns ||
      a.crypto_time_ns != b.crypto_time_ns || a.message_time_ns != b.message_time_ns) {
    return false;
  }

  const hevm::BundleReport& ra = a.report;
  const hevm::BundleReport& rb = b.report;
  if (ra.sim_time_ns != rb.sim_time_ns || ra.instructions != rb.instructions ||
      ra.aborted != rb.aborted) {
    return false;
  }
  if (ra.memory_stats.l1_hits != rb.memory_stats.l1_hits ||
      ra.memory_stats.l1_misses != rb.memory_stats.l1_misses ||
      ra.memory_stats.frames_entered != rb.memory_stats.frames_entered ||
      ra.memory_stats.memory_overflows != rb.memory_stats.memory_overflows) {
    return false;
  }
  if (ra.swap_events.size() != rb.swap_events.size()) return false;
  for (size_t i = 0; i < ra.swap_events.size(); ++i) {
    if (ra.swap_events[i].kind != rb.swap_events[i].kind ||
        ra.swap_events[i].pages != rb.swap_events[i].pages ||
        ra.swap_events[i].noise_pages != rb.swap_events[i].noise_pages) {
      return false;
    }
  }
  if (ra.final_balances.size() != rb.final_balances.size()) return false;
  for (size_t i = 0; i < ra.final_balances.size(); ++i) {
    if (ra.final_balances[i].first != rb.final_balances[i].first ||
        ra.final_balances[i].second != rb.final_balances[i].second) {
      return false;
    }
  }
  if (ra.transactions.size() != rb.transactions.size()) return false;
  for (size_t i = 0; i < ra.transactions.size(); ++i) {
    const hevm::TxTraceReport& ta = ra.transactions[i];
    const hevm::TxTraceReport& tb = rb.transactions[i];
    if (ta.status != tb.status || ta.gas_used != tb.gas_used ||
        ta.sim_time_ns != tb.sim_time_ns || ta.return_data != tb.return_data ||
        ta.create_address != tb.create_address) {
      return false;
    }
    if (ta.storage_writes.size() != tb.storage_writes.size()) return false;
    for (size_t j = 0; j < ta.storage_writes.size(); ++j) {
      if (ta.storage_writes[j].addr != tb.storage_writes[j].addr ||
          ta.storage_writes[j].key != tb.storage_writes[j].key ||
          ta.storage_writes[j].value != tb.storage_writes[j].value) {
        return false;
      }
    }
    if (ta.logs.size() != tb.logs.size()) return false;
    for (size_t j = 0; j < ta.logs.size(); ++j) {
      if (ta.logs[j].address != tb.logs[j].address ||
          ta.logs[j].topics != tb.logs[j].topics || ta.logs[j].data != tb.logs[j].data) {
        return false;
      }
    }
    if (ta.steps.size() != tb.steps.size()) return false;
  }

  const RoutedStateReader::Stats& qa = a.query_stats;
  const RoutedStateReader::Stats& qb = b.query_stats;
  if (qa.oram_queries != qb.oram_queries || qa.kv_queries != qb.kv_queries ||
      qa.code_queries != qb.code_queries || qa.local_reads != qb.local_reads ||
      qa.oram_time_ns != qb.oram_time_ns) {
    return false;
  }
  auto same_events = [](const std::vector<hypervisor::QueryEvent>& ea,
                        const std::vector<hypervisor::QueryEvent>& eb) {
    if (ea.size() != eb.size()) return false;
    for (size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].time_ns != eb[i].time_ns || ea[i].type != eb[i].type ||
          ea[i].is_prefetch != eb[i].is_prefetch) {
        return false;
      }
    }
    return true;
  };
  return same_events(qa.demand_timeline, qb.demand_timeline) &&
         same_events(a.observed_timeline, b.observed_timeline);
}

bool outcomes_semantically_identical(const SessionOutcome& a, const SessionOutcome& b) {
  if (a.bundle_id != b.bundle_id || a.status != b.status) return false;

  const hevm::BundleReport& ra = a.report;
  const hevm::BundleReport& rb = b.report;
  if (ra.instructions != rb.instructions || ra.aborted != rb.aborted) return false;
  if (ra.final_balances.size() != rb.final_balances.size()) return false;
  for (size_t i = 0; i < ra.final_balances.size(); ++i) {
    if (ra.final_balances[i].first != rb.final_balances[i].first ||
        ra.final_balances[i].second != rb.final_balances[i].second) {
      return false;
    }
  }
  if (ra.transactions.size() != rb.transactions.size()) return false;
  for (size_t i = 0; i < ra.transactions.size(); ++i) {
    const hevm::TxTraceReport& ta = ra.transactions[i];
    const hevm::TxTraceReport& tb = rb.transactions[i];
    if (ta.status != tb.status || ta.gas_used != tb.gas_used ||
        ta.return_data != tb.return_data || ta.create_address != tb.create_address) {
      return false;
    }
    if (ta.storage_writes.size() != tb.storage_writes.size()) return false;
    for (size_t j = 0; j < ta.storage_writes.size(); ++j) {
      if (ta.storage_writes[j].addr != tb.storage_writes[j].addr ||
          ta.storage_writes[j].key != tb.storage_writes[j].key ||
          ta.storage_writes[j].value != tb.storage_writes[j].value) {
        return false;
      }
    }
    if (ta.logs.size() != tb.logs.size()) return false;
    for (size_t j = 0; j < ta.logs.size(); ++j) {
      if (ta.logs[j].address != tb.logs[j].address ||
          ta.logs[j].topics != tb.logs[j].topics || ta.logs[j].data != tb.logs[j].data) {
        return false;
      }
    }
  }
  return true;
}

PreExecutionEngine::PreExecutionEngine(node::NodeSimulator& node, EngineConfig config)
    : node_(node),
      config_(config),
      setup_rng_(config.seed),
      manufacturer_(config.seed ^ 0xfab),
      hypervisor_(setup_rng_.bytes(32), manufacturer_, sv(kSbl), sv(kFirmware),
                  sv(kBitstream), config.seed ^ 0xb007),
      oram_store_(
          [&config] {
            auto store = oram::ShardedOramStore::partition(
                config.oram, std::max<size_t>(1, config.oram_shards));
            store.trace = config.trace != nullptr ? &config.trace->ring(-2) : nullptr;
            return store;
          }(),
          hypervisor_.oram_seal_key(config.durable != nullptr
                                        ? config.durable->stats().generation
                                        : 0),
          config.seed ^ 0x02a3, config.seal_mode),
      fault_layer_(config.fault_plan != nullptr
                       ? std::make_unique<faults::FaultyOram>(oram_store_,
                                                              *config.fault_plan)
                       : nullptr),
      frontend_(fault_layer_ != nullptr
                    ? static_cast<oram::OramAccessor&>(*fault_layer_)
                    : static_cast<oram::OramAccessor&>(oram_store_),
                oram::OramFrontend::Config{
                    .recovery = config.oram_recovery,
                    .trace = config.trace != nullptr ? &config.trace->ring(-2) : nullptr,
                    .shard_count = oram_store_.shard_count(),
                    .shard_router =
                        [this](const oram::BlockId& id) {
                          return oram_store_.shard_of(id);
                        }}),
      oram_state_(frontend_),
      queue_(config.queue_depth),
      latency_hist_(&registry_.histogram("hardtape_engine_bundle_latency_sim_ns",
                                         "per-bundle end-to-end simulated latency")) {
  if (config_.num_hevms <= 0) throw UsageError("engine: need at least one HEVM");
  if (config_.timing.clock != nullptr) {
    throw UsageError("engine: timing.clock is per-session; leave it null");
  }
  if (config_.max_bundle_attempts < 1) {
    throw UsageError("engine: max_bundle_attempts must be >= 1");
  }
  if (config_.durable != nullptr) {
    // Durability is a pure observer on the untrusted side of the boundary:
    // the registry listener journals epoch transitions, the install hook
    // journals page writes. Neither feeds anything back into execution.
    epoch_registry_.set_listener(config_.durable);
    oram_store_.set_install_hook(
        [durable = config_.durable](const oram::BlockId& id, BytesView data,
                                    uint64_t leaf) {
          durable->log_page_install(id, data, leaf);
        });
  }
}

PreExecutionEngine::~PreExecutionEngine() {
  if (watchdog_ != nullptr) watchdog_->stop();
  queue_.close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

Status PreExecutionEngine::synchronize() {
  node::PinnedBlock head = node_.pinned_head();
  if (!oram_enabled()) {
    std::lock_guard lock(pin_mu_);
    pin_ = PinnedSnapshot{epoch_registry_.store_epoch(), head.header,
                          std::move(head.world)};
    return Status::kOk;
  }
  epoch_registry_.begin(head.header.state_root, head.header.number);
  node::BlockSynchronizer sync(node_, head.header.state_root);
  sync.set_epoch_registry(&epoch_registry_);
  if (config_.fault_plan != nullptr) {
    // The node feed is SP-controlled too (paper §III): let the plan corrupt
    // account responses at sync time; the real Merkle verification rejects
    // them with kBadProof and nothing is installed. Stream = the sync pass
    // index (0 here); the op index counts accounts in enumeration order.
    faults::FaultPlan* plan = config_.fault_plan;
    const uint64_t stream = sync_passes_;
    auto op = std::make_shared<uint64_t>(0);
    sync.set_proof_tamper([plan, stream, op](const Address&) {
      return plan->decide(faults::FaultSite::kNodeFetch, stream, (*op)++).kind ==
             faults::FaultKind::kStaleProof;
    });
  }
  const Status status = sync.sync_all(oram_store_);
  if (status != Status::kOk) {
    // The full sync rejected a proof: the engine is unusable (unlike a
    // delta, a full sync is not staged all-or-nothing). Callers discard it.
    epoch_registry_.abort();
    return status;
  }
  epoch_registry_.commit();
  sync_verified_accounts_.fetch_add(sync.verified_accounts(), std::memory_order_relaxed);
  sync_verified_slots_.fetch_add(sync.verified_slots(), std::memory_order_relaxed);
  sync_pages_installed_.fetch_add(sync.installed_pages(), std::memory_order_relaxed);
  ++sync_passes_;
  std::lock_guard lock(pin_mu_);
  pin_ = PinnedSnapshot{epoch_registry_.store_epoch(), head.header,
                        std::move(head.world)};
  return Status::kOk;
}

void PreExecutionEngine::ensure_pinned() {
  std::lock_guard lock(pin_mu_);
  if (pin_.world != nullptr) return;
  node::PinnedBlock head = node_.pinned_head();
  pin_ = PinnedSnapshot{epoch_registry_.store_epoch(), head.header,
                        std::move(head.world)};
}

bool PreExecutionEngine::needs_resync() const {
  std::lock_guard lock(pin_mu_);
  if (pin_.world == nullptr) return false;
  if (!node_.is_canonical_root(pin_.header.state_root)) return true;
  return node_.head_number() > pin_.header.number + config_.max_head_lag;
}

void PreExecutionEngine::quiesce() {
  std::unique_lock lock(results_mu_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

node::BlockHeader PreExecutionEngine::pinned_header() const {
  std::lock_guard lock(pin_mu_);
  return pin_.header;
}

uint64_t PreExecutionEngine::pinned_epoch() const {
  std::lock_guard lock(pin_mu_);
  return pin_.epoch;
}

Status PreExecutionEngine::resync() {
  std::lock_guard serial(resync_mu_);
  ensure_pinned();
  // Quiesce: every queued bundle resolves before the world moves underneath
  // the pool. This is what makes the bundle -> epoch mapping a function of
  // the caller's submit/tick interleaving alone (worker-count independent).
  quiesce();

  node::PinnedBlock head = node_.pinned_head();
  PinnedSnapshot old;
  {
    std::lock_guard lock(pin_mu_);
    old = pin_;
  }
  if (head.header.state_root != old.header.state_root) {
    if (oram_enabled()) {
      // Delta-sync the ORAM from the pinned snapshot to the new trusted
      // root. All-or-nothing: on any proof failure nothing was installed,
      // the old pin stays, and the engine keeps answering at the old (still
      // verified) snapshot — fail closed, never mixed state.
      epoch_registry_.begin(head.header.state_root, head.header.number);
      node::BlockSynchronizer sync(node_, head.header.state_root);
      sync.set_epoch_registry(&epoch_registry_);
      if (config_.fault_plan != nullptr) {
        faults::FaultPlan* plan = config_.fault_plan;
        const uint64_t stream = sync_passes_;
        auto op = std::make_shared<uint64_t>(0);
        sync.set_proof_tamper([plan, stream, op](const Address&) {
          return plan->decide(faults::FaultSite::kNodeFetch, stream, (*op)++).kind ==
                 faults::FaultKind::kStaleProof;
        });
      }
      const Status status = sync.sync_delta(*old.world, oram_store_, nullptr);
      if (status != Status::kOk) {
        epoch_registry_.abort();
        return status;
      }
      epoch_registry_.commit();
    sync_verified_accounts_.fetch_add(sync.verified_accounts(), std::memory_order_relaxed);
    sync_verified_slots_.fetch_add(sync.verified_slots(), std::memory_order_relaxed);
    sync_pages_installed_.fetch_add(sync.installed_pages(), std::memory_order_relaxed);
    }
    ++sync_passes_;
  }
  {
    // Same root (empty blocks): just clear the lag — the state is unchanged
    // so neither the ORAM nor the epoch moves. Otherwise adopt the new pin.
    std::lock_guard lock(pin_mu_);
    pin_ = PinnedSnapshot{epoch_registry_.store_epoch(), head.header,
                          std::move(head.world)};
  }
  resyncs_.fetch_add(1, std::memory_order_relaxed);
  if (config_.trace != nullptr) {
    config_.trace->ring(-1).append(obs::TraceCategory::kBundle,
                                   static_cast<uint16_t>(obs::TraceCode::kEpochAdvance),
                                   /*sim_ns=*/0, epoch_registry_.store_epoch(),
                                   head.header.number);
  }
  resimulate_orphans();
  return Status::kOk;
}

PreExecutionEngine::Worker& PreExecutionEngine::resim_worker() {
  if (resim_worker_ == nullptr) {
    auto worker = std::make_unique<Worker>();
    worker->id = -2;
    hevm::HevmCore::Config core_config = config_.core;
    if (config_.trace != nullptr) {
      worker->trace = &config_.trace->ring(-1);
      core_config.trace = worker->trace;
    }
    worker->core = std::make_unique<hevm::HevmCore>(-2, worker->clock, core_config);
    const crypto::PrivateKey user_key =
        crypto::PrivateKey::from_seed(setup_rng_.bytes(16));
    H256 nonce;
    setup_rng_.fill(nonce.bytes.data(), nonce.bytes.size());
    const auto session = hypervisor_.begin_session(nonce, user_key.public_key());
    worker->session_id = session.session_id;
    worker->channel = &hypervisor_.channel(session.session_id);
    resim_worker_ = std::move(worker);
  }
  return *resim_worker_;
}

void PreExecutionEngine::resimulate_orphans() {
  // Pool is quiescent and resync_mu_ is held: results_ may still grow from
  // breaker refusals at admission, but existing entries are stable and
  // indices stay valid (append-only), so collect indices under the lock and
  // re-execute outside it.
  std::vector<size_t> orphaned;
  {
    std::lock_guard lock(results_mu_);
    for (size_t i = 0; i < results_.size(); ++i) {
      const SessionOutcome& outcome = results_[i];
      if (outcome.state_root == H256{}) continue;  // refusal: never executed
      if (node_.is_canonical_root(outcome.state_root)) continue;
      orphaned.push_back(i);
    }
    // Deterministic re-execution order.
    std::sort(orphaned.begin(), orphaned.end(), [this](size_t a, size_t b) {
      return results_[a].bundle_id < results_[b].bundle_id;
    });
  }
  for (const size_t index : orphaned) {
    uint64_t bundle_id = 0;
    uint32_t attempt = 0;
    uint32_t resim = 0;
    std::vector<evm::Transaction> txs;
    bool have_txs = false;
    {
      std::lock_guard lock(results_mu_);
      bundle_id = results_[index].bundle_id;
      attempt = results_[index].attempt;
      resim = ++resims_[bundle_id];
      const auto it = bundle_txs_.find(bundle_id);
      if (it != bundle_txs_.end()) {
        txs = it->second;
        have_txs = true;
      }
    }
    SessionOutcome replacement;
    if (!have_txs || static_cast<int>(resim) > config_.max_resim_attempts) {
      // Budget exhausted (or the bundle was never queued through submit()):
      // fail closed. No traces against a root the chain lost ever surface.
      replacement.bundle_id = bundle_id;
      replacement.attempt = attempt;
      replacement.status = Status::kStale;
      replacement.epoch = pinned_epoch();
    } else {
      bundle_resims_.fetch_add(1, std::memory_order_relaxed);
      if (config_.trace != nullptr) {
        config_.trace->ring(-1).append(
            obs::TraceCategory::kBundle,
            static_cast<uint16_t>(obs::TraceCode::kBundleResim), /*sim_ns=*/0,
            bundle_id, resim);
      }
      // Fresh attempt number -> fresh fault/noise streams, same bundle RNG:
      // the re-execution is as deterministic as the original.
      replacement = execute_session(bundle_id, attempt + 1, txs, resim_worker());
      register_attempt(replacement);
    }
    replacement.resim = resim;
    std::lock_guard lock(results_mu_);
    results_[index] = std::move(replacement);
  }
}

Status PreExecutionEngine::warm_restart(const durability::RecoveredState& recovered) {
  if (started_) throw UsageError("engine: warm_restart() before start()");
  const durability::StoreImage& image = recovered.image;
  if (image.epoch_history.empty()) {
    // Nothing committed survived (fresh disk, or the crash predated the
    // first epoch commit): a warm restart degenerates to the cold path.
    return synchronize();
  }

  // 1. Seed the chip-side registry with the recovered committed history, so
  // epoch numbering continues where the crashed run left off and the
  // max-page-epoch <= store-epoch invariant is auditable from record one.
  std::unordered_map<oram::BlockId, uint64_t, U256Hasher> tags(
      image.page_tags.begin(), image.page_tags.end());
  epoch_registry_.restore(image.epoch_history, std::move(tags));

  // 2. Re-install the recovered pages. Journaling is suppressed: these
  // pages are already durable in the checkpoint the store adopted, and
  // re-journaling them would double the image. The ORAM draws fresh leaves
  // (positions are never restored — obliviousness must not depend on a
  // crash-surviving position map).
  const H256 recovered_root = image.epoch_history.back().state_root;
  std::shared_ptr<const state::WorldState> recovered_world =
      node_.world_at(recovered_root);
  if (recovered_world == nullptr) {
    // The node no longer holds the recovered snapshot (deep reorg/pruning):
    // the journal cannot be delta-synced from — the caller cold-syncs.
    return Status::kNotFound;
  }
  if (oram_enabled()) {
    if (config_.durable != nullptr) config_.durable->set_restoring(true);
    std::vector<std::pair<oram::BlockId, Bytes>> pages;
    pages.reserve(image.pages.size());
    for (const auto& [id, page] : image.pages) pages.emplace_back(id, page.data);
    // Bulk load: one sealed-tree install instead of one full path access per
    // page — the restore cost that makes warm beat cold (the image's pages
    // were verified before they were journaled; only the gap needs proofs).
    oram_store_.bulk_restore(pages);
    pages_restored_.fetch_add(pages.size(), std::memory_order_relaxed);
    if (config_.durable != nullptr) config_.durable->set_restoring(false);
  }

  // 3. Close the gap from the recovered committed root to the node's head
  // with the normal verified delta-sync, then pin the head.
  node::PinnedBlock head = node_.pinned_head();
  if (head.header.state_root != recovered_root) {
    if (oram_enabled()) {
      epoch_registry_.begin(head.header.state_root, head.header.number);
      node::BlockSynchronizer sync(node_, head.header.state_root);
      sync.set_epoch_registry(&epoch_registry_);
      const Status status = sync.sync_delta(*recovered_world, oram_store_, nullptr);
      if (status != Status::kOk) {
        epoch_registry_.abort();
        return status;
      }
      epoch_registry_.commit();
    sync_verified_accounts_.fetch_add(sync.verified_accounts(), std::memory_order_relaxed);
    sync_verified_slots_.fetch_add(sync.verified_slots(), std::memory_order_relaxed);
    sync_pages_installed_.fetch_add(sync.installed_pages(), std::memory_order_relaxed);
    }
    ++sync_passes_;
  }
  {
    std::lock_guard lock(pin_mu_);
    pin_ = PinnedSnapshot{epoch_registry_.store_epoch(), head.header,
                          std::move(head.world)};
  }

  // 4. Continue bundle-id numbering past everything the crashed run
  // admitted, so re-admissions keep their ids and new submissions never
  // collide with them.
  next_bundle_id_.store(image.next_bundle_id, std::memory_order_relaxed);
  if (config_.durable != nullptr) {
    config_.durable->note_next_bundle_id(image.next_bundle_id);
  }
  warm_restarts_.fetch_add(1, std::memory_order_relaxed);
  if (config_.trace != nullptr) {
    config_.trace->ring(-1).append(obs::TraceCategory::kBundle,
                                   static_cast<uint16_t>(obs::TraceCode::kWarmRestart),
                                   /*sim_ns=*/0, epoch_registry_.store_epoch(),
                                   image.pending_bundles.size());
  }
  return Status::kOk;
}

Admission PreExecutionEngine::resubmit(uint64_t bundle_id,
                                       std::vector<evm::Transaction> bundle,
                                       uint32_t attempt) {
  require_accepting();
  bundles_readmitted_.fetch_add(1, std::memory_order_relaxed);
  if (config_.trace != nullptr) {
    config_.trace->ring(-1).append(obs::TraceCategory::kBundle,
                                   static_cast<uint16_t>(obs::TraceCode::kBundleReadmit),
                                   /*sim_ns=*/0, bundle_id, attempt);
  }
  return admit(bundle_id, std::move(bundle), attempt);
}

Admission PreExecutionEngine::submit_as(uint64_t bundle_id,
                                        std::vector<evm::Transaction> bundle) {
  require_accepting();
  if (config_.trace != nullptr) {
    config_.trace->ring(-1).append(obs::TraceCategory::kBundle,
                                   static_cast<uint16_t>(obs::TraceCode::kBundleSubmit),
                                   /*sim_ns=*/0, bundle_id);
  }
  return admit(bundle_id, std::move(bundle), /*attempt=*/0);
}

void PreExecutionEngine::set_on_outcome(
    std::function<void(const SessionOutcome&)> hook) {
  if (started_) throw UsageError("engine: set_on_outcome() before start()");
  config_.on_outcome = std::move(hook);
}

void PreExecutionEngine::start() {
  if (started_) throw UsageError("engine: already started");
  started_ = true;
  ensure_pinned();
  wall_timer_.restart();
  for (int i = 0; i < config_.num_hevms; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->id = i;
    hevm::HevmCore::Config core_config = config_.core;
    if (config_.trace != nullptr) {
      worker->trace = &config_.trace->ring(i);
      core_config.trace = worker->trace;  // opcode + swap events share it
    }
    worker->core = std::make_unique<hevm::HevmCore>(i, worker->clock, core_config);
    // One hypervisor session — one secure channel — per worker: the engine's
    // concrete form of the paper's per-session hardware isolation.
    const crypto::PrivateKey user_key = crypto::PrivateKey::from_seed(setup_rng_.bytes(16));
    H256 nonce;
    setup_rng_.fill(nonce.bytes.data(), nonce.bytes.size());
    const auto session = hypervisor_.begin_session(nonce, user_key.public_key());
    worker->session_id = session.session_id;
    worker->channel = &hypervisor_.channel(session.session_id);
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
  std::vector<Heartbeat*> beats;
  beats.reserve(workers_.size());
  for (auto& worker : workers_) beats.push_back(&worker->heartbeat);
  watchdog_ = std::make_unique<Watchdog>(
      std::move(beats),
      Watchdog::Config{.poll_interval_ms = 50,
                       .stall_threshold_ms = config_.watchdog_stall_ms});
  watchdog_->start();
}

Admission PreExecutionEngine::submit(std::vector<evm::Transaction> bundle) {
  require_accepting();
  const uint64_t id = next_bundle_id_.fetch_add(1, std::memory_order_relaxed);
  if (config_.trace != nullptr) {
    config_.trace->ring(-1).append(obs::TraceCategory::kBundle,
                                   static_cast<uint16_t>(obs::TraceCode::kBundleSubmit),
                                   /*sim_ns=*/id * config_.arrival_gap_ns, id);
  }
  return admit(id, std::move(bundle), /*attempt=*/0);
}

void PreExecutionEngine::require_accepting() const {
  if (!started_) throw UsageError("engine: start() before submitting bundles");
  if (drained_) throw UsageError("engine: already drained");
}

Admission PreExecutionEngine::admit(uint64_t bundle_id, std::vector<evm::Transaction> bundle,
                                    uint32_t attempt) {
  // Keep the allocator strictly ahead so interleaved submit() calls never
  // reuse an explicitly assigned id (a no-op for submit()'s own ids).
  uint64_t expected = next_bundle_id_.load(std::memory_order_relaxed);
  while (expected <= bundle_id &&
         !next_bundle_id_.compare_exchange_weak(expected, bundle_id + 1,
                                                std::memory_order_relaxed)) {
  }
  // Durable admit mark, synced before the bundle can run: after any crash,
  // every bundle the caller saw admitted is either durably resolved or in
  // the recovered pending set — never silently forgotten. Breaker refusals
  // are admitted too (they resolve immediately below), keeping the
  // admit/resolve ledger balanced. A re-admission marks again: set
  // semantics in the mirror dedupe the pending entry, and a fresh journal
  // generation needs its own record anyway.
  if (config_.durable != nullptr) config_.durable->log_bundle_admitted(bundle_id);
  if (breaker_open()) {
    // Quarantined backend: refuse at admission. The bundle still gets its
    // one outcome (kUnavailable) so callers that only look at drain() see
    // every submission resolved.
    SessionOutcome refused;
    refused.bundle_id = bundle_id;
    refused.attempt = attempt;
    refused.status = Status::kUnavailable;
    record_outcome(std::move(refused), 0, nullptr);
    return {bundle_id, Status::kUnavailable};
  }
  // Staleness gate (PR 4): when the chain outran the pin (or orphaned it),
  // re-pin before this bundle is admitted, so it executes against a snapshot
  // within the staleness budget. A failed re-sync keeps the old pin (fail
  // closed) and the bundle proceeds against it.
  if (needs_resync()) (void)resync();
  {
    std::lock_guard lock(results_mu_);
    ++outstanding_;
    bundle_txs_[bundle_id] = bundle;  // kept for reorg-triggered re-execution
  }
  if (!queue_.push(QueueItem{bundle_id, std::move(bundle),
                             std::chrono::steady_clock::now(), attempt})) {
    throw UsageError("engine: queue closed");
  }
  return {bundle_id, Status::kOk};
}

std::vector<SessionOutcome> PreExecutionEngine::drain() {
  if (started_ && !drained_) {
    queue_.close();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    if (watchdog_ != nullptr) watchdog_->stop();
    for (auto& worker : workers_) hypervisor_.end_session(worker->session_id);
    if (resim_worker_ != nullptr) {
      hypervisor_.end_session(resim_worker_->session_id);
      resim_worker_.reset();
    }
    {
      std::lock_guard lock(results_mu_);
      wall_elapsed_ns_ = wall_timer_.elapsed_ns();
    }
    drained_ = true;
  }
  std::lock_guard lock(results_mu_);
  std::vector<SessionOutcome> out = results_;
  std::sort(out.begin(), out.end(),
            [](const SessionOutcome& a, const SessionOutcome& b) {
              return a.bundle_id < b.bundle_id;
            });
  return out;
}

void PreExecutionEngine::worker_loop(Worker& worker) {
  while (auto item = queue_.pop()) {
    worker.heartbeat.busy.store(true, std::memory_order_relaxed);
    const uint64_t queued_ns = wall_ns_since(item->enqueued);
    if (breaker_open()) {
      // Quarantined backend: drain the queue with explicit refusals instead
      // of burning retry budgets against a dead server.
      SessionOutcome refused;
      refused.bundle_id = item->bundle_id;
      refused.worker_id = worker.id;
      refused.attempt = item->attempt;
      refused.status = Status::kUnavailable;
      record_outcome(std::move(refused), queued_ns, &worker);
    } else {
      SessionOutcome outcome =
          execute_session(item->bundle_id, item->attempt, item->txs, worker);
      register_attempt(outcome);
      // Recoverable backend aborts go back around (front of queue, fresh
      // fault stream); integrity failures are terminal — fail closed.
      const bool recoverable = outcome.backend_fault &&
                               (outcome.status == Status::kTimeout ||
                                outcome.status == Status::kRetryExhausted);
      if (recoverable &&
          static_cast<int>(item->attempt) + 1 < config_.max_bundle_attempts &&
          !breaker_open()) {
        bundle_requeues_.fetch_add(1, std::memory_order_relaxed);
        if (worker.trace != nullptr) {
          worker.trace->append(obs::TraceCategory::kBundle,
                               static_cast<uint16_t>(obs::TraceCode::kBundleRequeue),
                               worker.clock.now_ns(), item->bundle_id, item->attempt);
        }
        queue_.requeue(QueueItem{item->bundle_id, std::move(item->txs),
                                 std::chrono::steady_clock::now(), item->attempt + 1});
      } else {
        record_outcome(std::move(outcome), queued_ns, &worker);
      }
    }
    worker.heartbeat.beats.fetch_add(1, std::memory_order_relaxed);
    worker.heartbeat.busy.store(false, std::memory_order_relaxed);
  }
}

void PreExecutionEngine::register_attempt(const SessionOutcome& outcome) {
  if (outcome.backend_fault) {
    const int streak =
        consecutive_backend_faults_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (config_.breaker_threshold > 0 && streak >= config_.breaker_threshold) {
      breaker_open_.store(true, std::memory_order_release);
    }
  } else if (outcome.status == Status::kOk) {
    consecutive_backend_faults_.store(0, std::memory_order_release);
  }
}

void PreExecutionEngine::record_outcome(SessionOutcome outcome, uint64_t queued_wall_ns,
                                        Worker* worker) {
  // The durable resolve mark IS the delivery receipt: it becomes durable
  // before the outcome is visible in results_, so recovery never re-derives
  // an outcome the user may already hold. (DurableStore takes only its own
  // lock — no ordering against results_mu_.)
  if (config_.durable != nullptr) {
    config_.durable->log_bundle_resolved(outcome.bundle_id);
  }
  latency_hist_->observe(outcome.end_to_end_ns);
  std::optional<SessionOutcome> notify;
  if (config_.on_outcome) notify = outcome;
  {
    std::lock_guard lock(results_mu_);
    wall_queue_wait_ns_ += queued_wall_ns;
    if (worker != nullptr) {
      ++worker->bundles;
      worker->busy_sim_ns += outcome.end_to_end_ns;
      // Queued bundle resolved (admission refusals come in with a null worker
      // and were never counted): unblock a quiescing resync.
      if (outstanding_ > 0) --outstanding_;
      idle_cv_.notify_all();
    }
    results_.push_back(std::move(outcome));
  }
  // Outside results_mu_ so the hook may call back into the engine.
  if (notify.has_value()) config_.on_outcome(*notify);
}

SessionOutcome PreExecutionEngine::execute_session(
    uint64_t bundle_id, uint32_t attempt, const std::vector<evm::Transaction>& bundle,
    Worker& worker) {
  SessionOutcome outcome;
  outcome.bundle_id = bundle_id;
  outcome.worker_id = worker.id;
  outcome.attempt = attempt;

  // Snapshot the pin once at session start: the whole session reads one
  // immutable world at one block context, no matter what the node does
  // meanwhile. The outcome carries the pin so staleness is auditable.
  PinnedSnapshot pin;
  {
    std::lock_guard lock(pin_mu_);
    pin = pin_;
  }
  outcome.epoch = pin.epoch;
  if (pin.world != nullptr) outcome.state_root = pin.header.state_root;

  // Fresh per-session time and randomness (see determinism contract above).
  worker.clock.reset();
  sim::SimClock& clock = worker.clock;
  Random rng = session_rng(config_.seed, bundle_id);
  const sim::SimStopwatch end_to_end(clock);
  if (worker.trace != nullptr) {
    worker.trace->append(obs::TraceCategory::kBundle,
                         static_cast<uint16_t>(obs::TraceCode::kBundleStart), clock.now_ns(),
                         bundle_id, attempt);
  }

  // Recovery instrumentation: the ORAM frontend charges retry/backoff time
  // and fault counts to this thread's tally; fault decisions come from the
  // (bundle, attempt) stream, so outcomes stay interleaving-independent.
  oram::RecoveryTally tally;
  const oram::ScopedRecoveryTally tally_scope(tally);
  std::optional<faults::FaultScope> fault_scope;
  if (config_.fault_plan != nullptr) {
    fault_scope.emplace(faults::fault_stream(bundle_id, attempt));
  }

  // --- input message handling (Fig. 3 steps 3, 6) ---
  const uint64_t input_bytes = wire::bundle_bytes(bundle);
  {
    const sim::SimStopwatch messages(clock);
    clock.advance_ns(config_.hypervisor_costs.message_handle_ns +
                     config_.hypervisor_costs.dma_setup_ns);
    outcome.message_time_ns += messages.elapsed_ns();
  }

  uint64_t crypto_ns = 0;
  if (config_.security.encryption) {
    crypto_ns += config_.crypto_costs.aes_gcm_ns(input_bytes);
    if (config_.perform_channel_crypto && worker.channel != nullptr) {
      // Exercise the real channel path once per session for realism; the
      // sequence state lives on the worker's dedicated channel.
      hypervisor::SecureChannel user_side(worker.channel->key());
      const Bytes body = Bytes(std::min<uint64_t>(input_bytes, 4096), 0x42);
      const auto sealed = user_side.seal(hypervisor::MessageType::kBundleSubmit, 0, body);
      (void)worker.channel->open(sealed, /*max_body_length=*/1 << 24,
                                 /*max_target_offset=*/1 << 20);
    }
  }
  if (config_.security.signatures) {
    crypto_ns += config_.crypto_costs.ecdsa_verify_ns;
    if (config_.perform_channel_crypto) {
      const crypto::PrivateKey user_key = crypto::PrivateKey::from_seed(rng.bytes(16));
      const H256 digest = crypto::keccak256(u256{bundle_id + 1}.to_be_bytes_vec());
      const crypto::Signature sig = user_key.sign(digest);
      if (!crypto::ecdsa_verify(user_key.public_key(), digest, sig)) {
        outcome.status = Status::kAuthFailed;
        return outcome;
      }
    }
  }
  clock.advance_ns(crypto_ns);

  // --- execute on the worker's dedicated HEVM (steps 4-8) ---
  RoutedStateReader::Timing timing = config_.timing;
  timing.clock = &clock;
  const state::WorldState& local_world =
      pin.world != nullptr ? *pin.world : node_.world();
  RoutedStateReader routed(local_world, oram_enabled() ? &oram_state_ : nullptr,
                           config_.security, timing);
  crypto::AesKey128 session_key;
  rng.fill(session_key.data(), session_key.size());
  // The layer-2 noise-padding seed derives from (seed, bundle, attempt)
  // directly — like the fault schedule, never from a shared RNG's call order
  // — so swap traces are identical at any worker count and a retried bundle
  // still re-rolls its padding.
  worker.core->assign(routed,
                      pin.world != nullptr ? node_.block_context_at(pin.header)
                                           : node_.block_context(),
                      session_key,
                      memlayer::noise_stream(config_.seed, bundle_id, attempt));

  const sim::SimStopwatch exec(clock);
  try {
    outcome.report = worker.core->execute_bundle(bundle);
    outcome.hevm_time_ns = exec.elapsed_ns();
    if (outcome.report.aborted) outcome.status = Status::kMemoryOverflow;
  } catch (const BackendFault& fault) {
    // Fail closed: the untrusted backend dropped, stalled out, or tampered
    // with this session's state mid-bundle. No traces leave the session.
    outcome.hevm_time_ns = exec.elapsed_ns();
    outcome.status = fault.status();
    outcome.backend_fault = true;
  }

  if (!outcome.backend_fault) {
    // --- return the traces (step 9) ---
    const uint64_t trace_bytes = wire::trace_bytes(outcome.report);
    uint64_t out_crypto_ns = 0;
    if (config_.security.encryption) {
      out_crypto_ns += config_.crypto_costs.aes_gcm_ns(trace_bytes);
    }
    if (config_.security.signatures) {
      out_crypto_ns += config_.crypto_costs.ecdsa_sign_ns;
    }
    clock.advance_ns(out_crypto_ns);
    crypto_ns += out_crypto_ns;
    {
      const sim::SimStopwatch messages(clock);
      clock.advance_ns(config_.hypervisor_costs.message_handle_ns +
                       config_.hypervisor_costs.dma_setup_ns);
      outcome.message_time_ns += messages.elapsed_ns();
    }
    hypervisor::CodePrefetcher prefetcher(
        memlayer::noise_stream(config_.seed ^ 0x70f7, bundle_id, attempt));
    outcome.observed_timeline = prefetcher.schedule(routed.stats().demand_timeline);
    if (worker.trace != nullptr) {
      // The SP-observed query stream is the POST-prefetch timeline — what
      // actually crosses the untrusted boundary. This is what the leakage
      // auditor projects (demand-time events would leak shaping internals).
      for (const hypervisor::QueryEvent& q : outcome.observed_timeline) {
        worker.trace->append(obs::TraceCategory::kOram,
                             static_cast<uint16_t>(obs::TraceCode::kOramIssue), q.time_ns,
                             static_cast<uint64_t>(q.type), q.is_prefetch ? 1 : 0);
      }
    }
  }
  outcome.crypto_time_ns = crypto_ns;
  outcome.query_stats = routed.stats();

  // --- release (step 10); an aborted session's HEVM is scrubbed the same ---
  worker.core->release();
  // Simulated recovery time the ORAM layer spent on this session's behalf,
  // charged once at the end of the timeline (zero on a fault-free run, so
  // the bit-identical-to-serial gate is untouched).
  clock.advance_ns(tally.sim_ns);
  outcome.recovery_sim_ns = tally.sim_ns;
  outcome.oram_retries = tally.retries;
  outcome.faults_seen = tally.faults;
  outcome.end_to_end_ns = end_to_end.elapsed_ns();
  if (worker.trace != nullptr) {
    worker.trace->append(obs::TraceCategory::kBundle,
                         static_cast<uint16_t>(obs::TraceCode::kBundleComplete),
                         clock.now_ns(), bundle_id, attempt,
                         static_cast<uint64_t>(outcome.status));
  }
  return outcome;
}

std::vector<SessionOutcome> PreExecutionEngine::execute_serial(
    const std::vector<std::vector<evm::Transaction>>& bundles) {
  ensure_pinned();
  Worker serial;
  serial.id = -1;
  hevm::HevmCore::Config core_config = config_.core;
  if (config_.trace != nullptr) {
    serial.trace = &config_.trace->ring(-1);
    core_config.trace = serial.trace;
  }
  serial.core = std::make_unique<hevm::HevmCore>(-1, serial.clock, core_config);
  const crypto::PrivateKey user_key = crypto::PrivateKey::from_seed(setup_rng_.bytes(16));
  H256 nonce;
  setup_rng_.fill(nonce.bytes.data(), nonce.bytes.size());
  const auto session = hypervisor_.begin_session(nonce, user_key.public_key());
  serial.session_id = session.session_id;
  serial.channel = &hypervisor_.channel(session.session_id);

  std::vector<SessionOutcome> out;
  out.reserve(bundles.size());
  for (size_t i = 0; i < bundles.size(); ++i) {
    out.push_back(execute_session(i, /*attempt=*/0, bundles[i], serial));
  }
  hypervisor_.end_session(serial.session_id);
  return out;
}

EngineMetrics PreExecutionEngine::snapshot() const {
  EngineMetrics m;
  const auto queue_stats = queue_.stats();
  const auto frontend_stats = frontend_.snapshot();
  m.bundles_submitted = next_bundle_id_.load(std::memory_order_relaxed);
  m.wall_backpressure_ns = queue_stats.backpressure_wall_ns;
  m.backpressured_submits = queue_stats.backpressured_pushes;
  m.queue_max_depth = queue_stats.max_depth;
  m.oram_contention_stall_ns = frontend_stats.contention_stall_ns;
  m.oram_reads = frontend_stats.reads;

  if (config_.fault_plan != nullptr) m.faults_injected = config_.fault_plan->injected();
  m.oram_timeouts = frontend_stats.timeouts;
  m.oram_retries = frontend_stats.retries;
  m.oram_retry_exhausted = frontend_stats.retry_exhausted;

  // Per-shard wall diagnostics: walk-lock waits from the store, failure
  // attribution from the frontend.
  // Each shard's stall samples are mirrored into a Registry histogram (the
  // per-shard split of the old single oram_contention_stall_ns figure), so
  // the exposition carries exact p50/p95/p99 next to count and sum.
  const auto store_stats = oram_store_.snapshot();
  m.oram_shard_count = store_stats.shards.size();
  m.oram_shard_walks = store_stats.total_walks;
  m.oram_shard_migrations = store_stats.total_migrations;
  m.oram_max_concurrent_walks = store_stats.max_concurrent_walks;
  m.oram_shards.reserve(store_stats.shards.size());
  for (size_t s = 0; s < store_stats.shards.size(); ++s) {
    EngineMetrics::OramShardStats shard;
    shard.shard = static_cast<uint32_t>(s);
    shard.walks = store_stats.shards[s].walks;
    shard.migrations_in = store_stats.shards[s].migrations_in;
    shard.stall_ns = store_stats.shards[s].stall_ns;
    auto& stall_hist = registry_.histogram(
        "hardtape_engine_oram_shard" + std::to_string(s) + "_stall_ns",
        "wall ns a walk waited for this shard's lock");
    stall_hist.reset();  // snapshot semantics: mirror, don't accumulate
    for (const uint64_t sample : store_stats.shards[s].stall_samples) {
      stall_hist.observe(sample);
    }
    shard.stall_p50_ns = stall_hist.percentile(50);
    shard.stall_p99_ns = stall_hist.percentile(99);
    if (s < frontend_stats.shard_failures.size()) {
      shard.failures = frontend_stats.shard_failures[s];
    }
    m.oram_shards.push_back(shard);
  }
  m.bundle_requeues = bundle_requeues_.load(std::memory_order_relaxed);
  m.watchdog_stalls = watchdog_ != nullptr ? watchdog_->stalls_detected() : 0;
  m.circuit_open = breaker_open();
  m.resyncs = resyncs_.load(std::memory_order_relaxed);
  m.bundle_resims = bundle_resims_.load(std::memory_order_relaxed);
  m.store_epoch = epoch_registry_.store_epoch();
  m.warm_restarts = warm_restarts_.load(std::memory_order_relaxed);
  m.bundles_readmitted = bundles_readmitted_.load(std::memory_order_relaxed);
  m.pages_restored = pages_restored_.load(std::memory_order_relaxed);
  m.sync_verified_accounts = sync_verified_accounts_.load(std::memory_order_relaxed);
  m.sync_verified_slots = sync_verified_slots_.load(std::memory_order_relaxed);
  m.sync_pages_installed = sync_pages_installed_.load(std::memory_order_relaxed);

  std::lock_guard lock(results_mu_);
  m.bundles_completed = results_.size();
  for (const auto& outcome : results_) {
    if (outcome.status == Status::kOk) {
      if (outcome.faults_seen > 0 || outcome.attempt > 0) ++m.bundles_recovered;
    } else if (outcome.status == Status::kUnavailable) {
      ++m.bundles_unavailable;
    } else if (outcome.status == Status::kStale) {
      ++m.bundles_stale;
    } else {
      ++m.bundles_aborted;
    }
  }
  m.wall_queue_wait_ns = wall_queue_wait_ns_;
  m.wall_elapsed_ns = drained_ ? wall_elapsed_ns_ : wall_timer_.elapsed_ns();
  if (m.wall_elapsed_ns > 0) {
    m.wall_bundles_per_s = static_cast<double>(m.bundles_completed) * 1e9 /
                           static_cast<double>(m.wall_elapsed_ns);
  }

  // Deterministic engine timeline: the per-session durations replayed
  // through the earliest-free-HEVM schedule (Fig. 3 step 3), clamped by the
  // serialized ORAM server — the shared contention point.
  std::vector<const SessionOutcome*> done;
  done.reserve(results_.size());
  for (const auto& outcome : results_) done.push_back(&outcome);
  std::sort(done.begin(), done.end(), [](const SessionOutcome* a, const SessionOutcome* b) {
    return a->bundle_id < b->bundle_id;
  });
  std::vector<uint64_t> durations;
  durations.reserve(done.size());
  uint64_t oram_queries = 0;
  for (const SessionOutcome* outcome : done) {
    durations.push_back(outcome->end_to_end_ns);
    oram_queries += outcome->query_stats.oram_queries;
  }
  if (!durations.empty()) {
    const auto schedule = PreExecutionService::schedule_bundles(
        durations, config_.num_hevms, config_.arrival_gap_ns);
    // The sharded store is S independent subtree pipelines (PR 6): the
    // serialized-server clamp divides across them, because walks on
    // distinct shards overlap. S = 1 reproduces the single-server model.
    m.sim_oram_server_busy_ns = oram_queries * config_.timing.server.service_ns /
                                std::max<uint64_t>(1, oram_store_.shard_count());
    m.sim_makespan_ns = std::max(schedule.makespan_ns, m.sim_oram_server_busy_ns);
    m.sim_oram_serialization_stall_ns = m.sim_makespan_ns - schedule.makespan_ns;
    m.sim_mean_queue_wait_ns = schedule.mean_wait_ns;
    m.sim_max_queue_depth = schedule.max_queue_depth;
    m.sim_bundles_per_s = static_cast<double>(durations.size()) * 1e9 /
                          static_cast<double>(m.sim_makespan_ns);
    m.sim_p50_bundle_latency_ns = obs::percentile(durations, 50);
    m.sim_p99_bundle_latency_ns = obs::percentile(durations, 99);
  }
  // The pool's actual bundle->worker assignment can be more imbalanced than
  // the deterministic schedule, so normalize by the busier of the two to
  // keep utilization in [0, 1].
  uint64_t busiest_ns = m.sim_makespan_ns;
  for (const auto& worker : workers_) {
    busiest_ns = std::max(busiest_ns, worker->busy_sim_ns);
  }
  m.workers.reserve(workers_.size());
  for (const auto& worker : workers_) {
    EngineMetrics::WorkerStats ws;
    ws.worker_id = worker->id;
    ws.bundles = worker->bundles;
    ws.busy_sim_ns = worker->busy_sim_ns;
    ws.utilization = busiest_ns > 0 ? static_cast<double>(worker->busy_sim_ns) /
                                          static_cast<double>(busiest_ns)
                                    : 0.0;
    m.workers.push_back(ws);
  }
  publish_metrics(m);
  return m;
}

void PreExecutionEngine::publish_metrics(const EngineMetrics& m) const {
  obs::Registry& r = registry_;
  const auto set = [&r](std::string_view name, double v) { r.gauge(name).set(v); };
  set("hardtape_engine_bundles_submitted", static_cast<double>(m.bundles_submitted));
  set("hardtape_engine_bundles_completed", static_cast<double>(m.bundles_completed));
  set("hardtape_engine_sim_makespan_ns", static_cast<double>(m.sim_makespan_ns));
  set("hardtape_engine_sim_bundles_per_s", m.sim_bundles_per_s);
  set("hardtape_engine_sim_mean_queue_wait_ns", static_cast<double>(m.sim_mean_queue_wait_ns));
  set("hardtape_engine_sim_max_queue_depth", static_cast<double>(m.sim_max_queue_depth));
  set("hardtape_engine_sim_oram_server_busy_ns",
      static_cast<double>(m.sim_oram_server_busy_ns));
  set("hardtape_engine_sim_oram_serialization_stall_ns",
      static_cast<double>(m.sim_oram_serialization_stall_ns));
  set("hardtape_engine_wall_elapsed_ns", static_cast<double>(m.wall_elapsed_ns));
  set("hardtape_engine_wall_bundles_per_s", m.wall_bundles_per_s);
  set("hardtape_engine_wall_queue_wait_ns", static_cast<double>(m.wall_queue_wait_ns));
  set("hardtape_engine_wall_backpressure_ns", static_cast<double>(m.wall_backpressure_ns));
  set("hardtape_engine_backpressured_submits", static_cast<double>(m.backpressured_submits));
  set("hardtape_engine_queue_max_depth", static_cast<double>(m.queue_max_depth));
  set("hardtape_engine_oram_contention_stall_ns",
      static_cast<double>(m.oram_contention_stall_ns));
  set("hardtape_engine_oram_reads", static_cast<double>(m.oram_reads));
  set("hardtape_engine_oram_shard_count", static_cast<double>(m.oram_shard_count));
  set("hardtape_engine_oram_shard_walks", static_cast<double>(m.oram_shard_walks));
  set("hardtape_engine_oram_shard_migrations",
      static_cast<double>(m.oram_shard_migrations));
  set("hardtape_engine_oram_max_concurrent_walks",
      static_cast<double>(m.oram_max_concurrent_walks));
  for (const auto& shard : m.oram_shards) {
    const std::string prefix =
        "hardtape_engine_oram_shard" + std::to_string(shard.shard);
    set(prefix + "_walks", static_cast<double>(shard.walks));
    set(prefix + "_migrations_in", static_cast<double>(shard.migrations_in));
    // Stall total + percentiles live in the per-shard _stall_ns histogram
    // (mirrored in snapshot()).
  }
  set("hardtape_engine_faults_injected", static_cast<double>(m.faults_injected));
  set("hardtape_engine_oram_timeouts", static_cast<double>(m.oram_timeouts));
  set("hardtape_engine_oram_retries", static_cast<double>(m.oram_retries));
  set("hardtape_engine_oram_retry_exhausted", static_cast<double>(m.oram_retry_exhausted));
  set("hardtape_engine_bundles_recovered", static_cast<double>(m.bundles_recovered));
  set("hardtape_engine_bundles_aborted", static_cast<double>(m.bundles_aborted));
  set("hardtape_engine_bundles_unavailable", static_cast<double>(m.bundles_unavailable));
  set("hardtape_engine_bundle_requeues", static_cast<double>(m.bundle_requeues));
  set("hardtape_engine_watchdog_stalls", static_cast<double>(m.watchdog_stalls));
  set("hardtape_engine_circuit_open", m.circuit_open ? 1.0 : 0.0);
  set("hardtape_engine_resyncs", static_cast<double>(m.resyncs));
  set("hardtape_engine_bundle_resims", static_cast<double>(m.bundle_resims));
  set("hardtape_engine_bundles_stale", static_cast<double>(m.bundles_stale));
  set("hardtape_engine_store_epoch", static_cast<double>(m.store_epoch));
  set("hardtape_engine_warm_restarts", static_cast<double>(m.warm_restarts));
  set("hardtape_engine_bundles_readmitted", static_cast<double>(m.bundles_readmitted));
  set("hardtape_engine_pages_restored", static_cast<double>(m.pages_restored));
  set("hardtape_engine_sync_verified_slots", static_cast<double>(m.sync_verified_slots));
  for (const auto& ws : m.workers) {
    set("hardtape_engine_worker" + std::to_string(ws.worker_id) + "_utilization",
        ws.utilization);
  }
}

std::string PreExecutionEngine::metrics_prometheus() const {
  (void)snapshot();  // publishes into registry_
  return registry_.prometheus_text();
}

std::string PreExecutionEngine::metrics_json() const {
  (void)snapshot();
  return registry_.json();
}

}  // namespace hardtape::service
