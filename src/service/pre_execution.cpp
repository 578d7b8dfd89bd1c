#include "service/pre_execution.hpp"

#include <algorithm>

#include "sim/backoff.hpp"

namespace hardtape::service {

RoutedStateReader::RoutedStateReader(const state::WorldState& local,
                                     oram::OramAccessor* oram,
                                     const SecurityConfig& security, Timing timing,
                                     obs::TraceRing* trace)
    : local_(local), oram_(oram), security_(security), timing_(timing), trace_(trace) {
  if ((security.oram_storage || security.oram_code) && oram_ == nullptr) {
    throw UsageError("routed state: ORAM enabled but no ORAM provided");
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

void RoutedStateReader::trace(obs::TraceCode code, uint64_t a, uint64_t b) const {
  // Request events carry wall time for ordering and sim_ns 0: the recovery
  // time they report reaches the session clock only at the session's end.
  if (trace_ != nullptr) {
    trace_->append(obs::TraceCategory::kOram, static_cast<uint16_t>(code), /*sim_ns=*/0, a,
                   b);
  }
}

std::optional<Bytes> RoutedStateReader::read_page(oram::PageType type,
                                                  const Address& addr,
                                                  const u256& index) const {
  charge_oram(type);
  const oram::BlockId id = oram::page_id(type, addr, index);
  // Retry timeouts with backoff in simulated time; fail closed on integrity
  // failures and on an exhausted budget (see the class comment).
  const sim::BackoffPolicy policy;
  // De-synchronizes the jitter of distinct requests; deterministic in the id.
  const uint64_t stream_tag = U256Hasher{}(id);
  trace(obs::TraceCode::kOramIssue, /*is_write=*/0, stream_tag);
  oram::AccessAttempt result;
  uint64_t recovery_ns = 0;
  for (int attempt = 1;; ++attempt) {
    oram::AccessAttempt a = oram_->try_read(id);
    if (a.status == Status::kOk && a.sim_delay_ns <= policy.request_timeout_ns) {
      recovery_ns += a.sim_delay_ns;  // slower than usual, but it arrived
      result = std::move(a);
      break;
    }
    ++recovery_.faults;
    if (a.status == Status::kAuthFailed || a.status == Status::kBadProof) {
      // An integrity failure is an attack indicator, not transient loss.
      result.status = a.status;
      break;
    }
    // Dropped or over-delayed response: the session waited out the full
    // request timeout before concluding the answer is not coming.
    ++recovery_.timeouts;
    recovery_ns += policy.request_timeout_ns;
    if (attempt >= policy.max_attempts) {
      ++recovery_.exhausted;
      result.status = Status::kRetryExhausted;
      break;
    }
    const uint64_t backoff_ns = sim::backoff_delay_ns(policy, attempt, stream_tag);
    recovery_ns += backoff_ns;
    ++recovery_.retries;
    trace(obs::TraceCode::kOramRetry, static_cast<uint64_t>(attempt), backoff_ns);
  }
  recovery_.sim_ns += recovery_ns;
  trace(obs::TraceCode::kOramComplete, static_cast<uint64_t>(result.status), recovery_ns);
  if (result.status != Status::kOk) throw BackendFault(result.status);
  return std::move(result.data);
}

std::optional<state::Account> RoutedStateReader::account(const Address& addr) const {
  if (!security_.oram_storage) {
    charge_local();
    return local_.account(addr);
  }
  const auto page = read_page(oram::PageType::kAccountMeta, addr, u256{});
  if (!page.has_value()) return std::nullopt;
  return oram::AccountMetaPage::deserialize(*page).account;
}

u256 RoutedStateReader::storage(const Address& addr, const u256& key) const {
  if (!security_.oram_storage) {
    charge_local();
    return local_.storage(addr, key);
  }
  const PageKey page_key{addr, oram::storage_group(key)};
  auto it = group_cache_.find(page_key);
  if (it == group_cache_.end()) {
    auto page = read_page(oram::PageType::kStorageGroup, addr, page_key.index);
    it = group_cache_.emplace(page_key, std::move(page)).first;
  } else {
    charge_local();  // grouping-as-prefetch: the page is already on-chip
  }
  if (!it->second.has_value()) return u256{};
  return oram::storage_record(*it->second, key);
}

Bytes RoutedStateReader::code(const Address& addr) const {
  if (!security_.oram_code) {
    charge_local();
    return local_.code(addr);
  }
  // The meta page for the code size, then one query per 1 KB code page.
  const auto meta = read_page(oram::PageType::kAccountMeta, addr, u256{});
  if (!meta.has_value()) return Bytes{};
  const uint64_t code_size = oram::AccountMetaPage::deserialize(*meta).code_size;
  Bytes code;
  code.reserve(code_size);
  for (uint64_t i = 0; i < oram::code_page_count(code_size); ++i) {
    const auto page = read_page(oram::PageType::kCode, addr, u256{i});
    if (!page.has_value()) throw HardtapeError("oram: missing code page");
    oram::append_code_page(code, *page, code_size);
  }
  return code;
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
