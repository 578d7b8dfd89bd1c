#include "service/pre_execution.hpp"

#include "memlayer/pager.hpp"

namespace hardtape::service {

RoutedStateReader::RoutedStateReader(const state::WorldState& local,
                                     oram::OramWorldState* oram_state,
                                     const SecurityConfig& security, Timing timing)
    : local_(local), oram_(oram_state), security_(security), timing_(timing) {
  if ((security.oram_storage || security.oram_code) && oram_ == nullptr) {
    throw UsageError("routed state: ORAM enabled but no ORAM state provided");
  }
}

uint64_t RoutedStateReader::oram_access_ns() const {
  // One access = request upload + full path download + full path re-upload
  // + server service + on-chip decrypt/re-encrypt of the path (A.E.DMA).
  const uint64_t path_bytes =
      uint64_t{timing_.modeled_tree_depth + 1} * 4 * timing_.page_bytes;
  const uint64_t network = timing_.oram_link.transfer_ns(64)          // query
                           + timing_.oram_link.transfer_ns(path_bytes)   // down
                           + timing_.oram_link.transfer_ns(path_bytes);  // up
  const uint64_t reencrypt = static_cast<uint64_t>(
      2.0 * static_cast<double>(path_bytes) / timing_.oram_reencrypt_bytes_per_ns);
  return network + timing_.server.service_ns + reencrypt;
}

void RoutedStateReader::charge_oram(oram::PageType type) const {
  ++stats_.oram_queries;
  if (type == oram::PageType::kCode) {
    ++stats_.code_queries;
  } else {
    ++stats_.kv_queries;
  }
  const uint64_t cost = oram_access_ns();
  stats_.oram_time_ns += cost;
  if (timing_.clock) {
    stats_.demand_timeline.push_back({timing_.clock->now_ns(), type, false});
    timing_.clock->advance_ns(cost);  // the HEVM stalls (paper §IV-B)
  }
}

void RoutedStateReader::charge_local() const {
  ++stats_.local_reads;
  if (timing_.clock) timing_.clock->advance_ns(timing_.local_read_ns);
}

std::optional<state::Account> RoutedStateReader::account(const Address& addr) const {
  if (security_.oram_storage) {
    auto it = meta_cache_.find(addr);
    if (it == meta_cache_.end()) {
      charge_oram(oram::PageType::kAccountMeta);
      it = meta_cache_.emplace(addr, oram_->account_page(addr)).first;
    } else {
      charge_local();  // layer-1 world-state cache hit
    }
    if (!it->second.has_value()) return std::nullopt;
    const auto meta = oram::AccountMetaPage::deserialize(*it->second);
    state::Account account;
    account.balance = meta.balance;
    account.nonce = meta.nonce;
    account.code_hash = meta.code_hash;
    return account;
  }
  charge_local();
  return local_.account(addr);
}

u256 RoutedStateReader::storage(const Address& addr, const u256& key) const {
  if (security_.oram_storage) {
    const PageKey page_key{addr, key >> 5};
    auto it = group_cache_.find(page_key);
    if (it == group_cache_.end()) {
      charge_oram(oram::PageType::kStorageGroup);
      it = group_cache_.emplace(page_key, oram_->storage_page(addr, key >> 5)).first;
    } else {
      charge_local();  // grouping-as-prefetch: the page is already on-chip
    }
    if (!it->second.has_value()) return u256{};
    return oram::StorageGroupPage::deserialize(*it->second).values[key.as_u64() & 31];
  }
  charge_local();
  return local_.storage(addr, key);
}

Bytes RoutedStateReader::code(const Address& addr) const {
  if (security_.oram_code) {
    // Meta page for the code size, then one query per 1 KB page (the
    // physical accesses happen inside OramWorldState::code).
    charge_oram(oram::PageType::kAccountMeta);
    const Bytes code = oram_->code(addr);
    const uint64_t pages = (code.size() + oram::kPageSize - 1) / oram::kPageSize;
    for (uint64_t i = 0; i < pages; ++i) charge_oram(oram::PageType::kCode);
    return code;
  }
  charge_local();
  return local_.code(addr);
}

// ---------------------------------------------------------------------------
// PreExecutionService
// ---------------------------------------------------------------------------

namespace wire {

uint64_t bundle_bytes(const std::vector<evm::Transaction>& bundle) {
  uint64_t bytes = 0;
  for (const auto& tx : bundle) bytes += 120 + tx.data.size();
  return bytes;
}

uint64_t trace_bytes(const hevm::BundleReport& report) {
  // Step-level trace (PC/op/gas per instruction) dominates the report size —
  // this is what makes the paper's -E tier cost ~2.9 ms on the A.E.DMA.
  uint64_t bytes = report.instructions * 32;
  for (const auto& tx : report.transactions) {
    bytes += 64 + tx.return_data.size() + tx.storage_writes.size() * 64;
    for (const auto& log : tx.logs) bytes += 32 + log.topics.size() * 32 + log.data.size();
  }
  bytes += report.final_balances.size() * 52;
  return bytes;
}

}  // namespace wire

namespace {
constexpr const char* kSbl = "hardtape-sbl-v1";
constexpr const char* kFirmware = "hardtape-hypervisor-v1";
constexpr const char* kBitstream = "hardtape-hevm-bitstream-v1";

BytesView sv(const char* s) {
  return BytesView{reinterpret_cast<const uint8_t*>(s), std::strlen(s)};
}
}  // namespace

PreExecutionService::PreExecutionService(node::NodeSimulator& node, Config config)
    : node_(node),
      config_(config),
      rng_(config.seed),
      manufacturer_(config.seed ^ 0xfab),
      hypervisor_(rng_.bytes(32), manufacturer_, sv(kSbl), sv(kFirmware), sv(kBitstream),
                  config.seed ^ 0xb007),
      oram_server_(config.oram),
      // No durable store, so no boot generation: every boot is generation 0
      // and a fresh seed is what keeps (key, nonce) pairs fresh.
      oram_client_(oram_server_, hypervisor_.oram_seal_key(/*boot_generation=*/0),
                   config.seed ^ 0x02a3, config.seal_mode),
      oram_state_(oram_client_) {
  config_.timing.clock = &clock_;
  for (int i = 0; i < config_.hevm_cores; ++i) {
    cores_.push_back(std::make_unique<hevm::HevmCore>(i, clock_, config_.core));
  }
}

Status PreExecutionService::synchronize() {
  if (!config_.security.oram_storage && !config_.security.oram_code) {
    return Status::kOk;  // evaluation-set data is prefetched locally instead
  }
  node::BlockSynchronizer sync(node_, node_.head().state_root);
  return sync.sync_all(oram_client_);
}

PreExecutionService::BundleOutcome PreExecutionService::pre_execute(
    const std::vector<evm::Transaction>& bundle) {
  BundleOutcome outcome;
  const sim::SimStopwatch end_to_end(clock_);
  ++bundles_served_;

  // --- session setup (step 2) + input message handling (steps 3, 6) ---
  const crypto::PrivateKey user_key = crypto::PrivateKey::from_seed(rng_.bytes(16));
  H256 nonce;
  rng_.fill(nonce.bytes.data(), nonce.bytes.size());
  const auto session = hypervisor_.begin_session(nonce, user_key.public_key());

  const uint64_t input_bytes = wire::bundle_bytes(bundle);
  {
    const sim::SimStopwatch messages(clock_);
    clock_.advance_ns(config_.hypervisor_costs.message_handle_ns +
                      config_.hypervisor_costs.dma_setup_ns);
    outcome.message_time_ns += messages.elapsed_ns();
  }

  uint64_t crypto_ns = 0;
  if (config_.security.encryption) {
    crypto_ns += config_.crypto_costs.aes_gcm_ns(input_bytes);
    if (config_.perform_channel_crypto) {
      // Actually run the channel decryption path once for realism.
      hypervisor::SecureChannel user_side(hypervisor_.channel(session.session_id).key());
      const Bytes body = Bytes(std::min<uint64_t>(input_bytes, 4096), 0x42);
      const auto sealed = user_side.seal(hypervisor::MessageType::kBundleSubmit, 0, body);
      (void)hypervisor_.channel(session.session_id)
          .open(sealed, /*max_body_length=*/1 << 24, /*max_target_offset=*/1 << 20);
    }
  }
  if (config_.security.signatures) {
    crypto_ns += config_.crypto_costs.ecdsa_verify_ns;  // user's input signature
    if (config_.perform_channel_crypto) {
      const H256 digest = crypto::keccak256(u256{bundles_served_}.to_be_bytes_vec());
      const crypto::Signature sig = user_key.sign(digest);
      if (!crypto::ecdsa_verify(user_key.public_key(), digest, sig)) {
        outcome.status = Status::kAuthFailed;
        return outcome;
      }
    }
  }
  clock_.advance_ns(crypto_ns);

  // --- find an idle HEVM (step 3) ---
  hevm::HevmCore* core = nullptr;
  for (auto& candidate : cores_) {
    if (!candidate->busy()) {
      core = candidate.get();
      break;
    }
  }
  if (core == nullptr) {
    outcome.status = Status::kBusy;
    return outcome;
  }

  // --- execute (steps 4-8) ---
  RoutedStateReader routed(node_.world(),
                           (config_.security.oram_storage || config_.security.oram_code)
                               ? &oram_state_
                               : nullptr,
                           config_.security, config_.timing);
  crypto::AesKey128 session_key;
  rng_.fill(session_key.data(), session_key.size());
  // Same (seed, bundle, attempt) noise-stream derivation as the concurrent
  // engine: the serial service never retries, so attempt is always 0.
  core->assign(routed, node_.block_context(), session_key,
               memlayer::noise_stream(config_.seed, bundles_served_ - 1, /*attempt=*/0));

  const sim::SimStopwatch exec(clock_);
  outcome.report = core->execute_bundle(bundle);
  outcome.hevm_time_ns = exec.elapsed_ns();
  if (outcome.report.aborted) outcome.status = Status::kMemoryOverflow;

  // --- return the traces (step 9) ---
  const uint64_t trace_bytes = wire::trace_bytes(outcome.report);
  uint64_t out_crypto_ns = 0;
  if (config_.security.encryption) {
    out_crypto_ns += config_.crypto_costs.aes_gcm_ns(trace_bytes);
  }
  if (config_.security.signatures) {
    out_crypto_ns += config_.crypto_costs.ecdsa_sign_ns;  // hypervisor signs the trace
  }
  clock_.advance_ns(out_crypto_ns);
  crypto_ns += out_crypto_ns;
  {
    const sim::SimStopwatch messages(clock_);
    clock_.advance_ns(config_.hypervisor_costs.message_handle_ns +
                      config_.hypervisor_costs.dma_setup_ns);
    outcome.message_time_ns += messages.elapsed_ns();
  }
  outcome.crypto_time_ns = crypto_ns;
  outcome.query_stats = routed.stats();

  // The adversary-visible timeline: pagewise prefetching re-spaces the code
  // queries between the K-V queries (paper §IV-D problem (3)).
  hypervisor::CodePrefetcher prefetcher(
      memlayer::noise_stream(config_.seed ^ 0x70f7, bundles_served_ - 1, /*attempt=*/0));
  outcome.observed_timeline = prefetcher.schedule(routed.stats().demand_timeline);

  // --- release (step 10) ---
  core->release();
  hypervisor_.end_session(session.session_id);
  outcome.end_to_end_ns = end_to_end.elapsed_ns();
  return outcome;
}

PreExecutionService::ScheduleResult PreExecutionService::schedule_bundles(
    const std::vector<uint64_t>& durations_ns, int cores, uint64_t arrival_gap_ns) {
  if (cores <= 0) throw UsageError("schedule: need at least one core");
  ScheduleResult result;
  std::vector<uint64_t> core_free(static_cast<size_t>(cores), 0);
  uint64_t total_wait = 0;
  uint64_t queue_depth = 0;
  std::vector<uint64_t> start_times;
  for (size_t i = 0; i < durations_ns.size(); ++i) {
    const uint64_t arrival = i * arrival_gap_ns;
    auto earliest = std::min_element(core_free.begin(), core_free.end());
    const uint64_t start = std::max(arrival, *earliest);
    total_wait += start - arrival;
    const uint64_t done = start + durations_ns[i];
    *earliest = done;
    result.completion_ns.push_back(done);
    result.makespan_ns = std::max(result.makespan_ns, done);
    // Queue depth at this arrival: bundles that arrived but not yet started.
    queue_depth = 0;
    for (size_t j = 0; j < start_times.size(); ++j) {
      if (start_times[j] > arrival) ++queue_depth;
    }
    result.max_queue_depth = std::max(result.max_queue_depth, queue_depth);
    start_times.push_back(start);
  }
  if (!durations_ns.empty()) {
    result.mean_wait_ns = total_wait / durations_ns.size();
  }
  return result;
}

}  // namespace hardtape::service
