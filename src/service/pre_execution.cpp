#include "service/pre_execution.hpp"

#include <algorithm>

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

ScheduleResult schedule_bundles(const std::vector<uint64_t>& durations_ns, int cores,
                                uint64_t arrival_gap_ns) {
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
