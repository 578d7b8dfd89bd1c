// The paged world state (paper Section IV-D, "Mixing query types").
//
// Ethereum world-state queries come in two shapes: 32-byte K-V records
// (balances, nonces, storage slots) and variable-length contract bytecode.
// Stored naively, response sizes and burst patterns would reveal the query
// type and the running contract. HarDTAPE's answer:
//
//  - contract code is split into 1 KB pages,
//  - storage records are grouped 32-per-page by consecutive keys (Solidity
//    lays contiguous variables/array elements at consecutive slots, so the
//    grouping doubles as a prefetch),
//  - account metadata (balance, nonce, code size, code hash) occupies its
//    own 1 KB page,
//
// giving a single uniform page key space served by one Path ORAM: every
// response is exactly one 1 KB block, so K-V and Code queries are
// indistinguishable (problem (2) of §IV-D), and the 1 KB block size meets
// the O(log^2 n)-bit bound for O(log n) bandwidth overhead (problem (1)).
// Problem (3) — burst code fetches — is handled by the pagewise prefetch
// scheduler in src/hypervisor.
#pragma once

#include <atomic>
#include <functional>

#include "oram/path_oram.hpp"
#include "state/world_state.hpp"

namespace hardtape::oram {

enum class PageType : uint8_t {
  kAccountMeta = 1,  ///< balance / nonce / code size / code hash
  kStorageGroup = 2, ///< 32 consecutive storage-slot values
  kCode = 3,         ///< 1 KB slice of contract bytecode
};
const char* to_string(PageType t);

constexpr size_t kPageSize = 1024;
constexpr size_t kRecordsPerPage = kPageSize / 32;  // 32 records of 32 bytes

/// Deterministic page id: keccak(tag || address || index). The index is a
/// full 256-bit value because storage keys span the whole 2^256 space.
BlockId page_id(PageType type, const Address& addr, const u256& index);

/// Page (de)serialization helpers. All pages are exactly kPageSize bytes.
struct AccountMetaPage {
  u256 balance{};
  uint64_t nonce = 0;
  uint64_t code_size = 0;
  H256 code_hash{};

  Bytes serialize() const;
  static AccountMetaPage deserialize(BytesView page);
};

struct StorageGroupPage {
  std::array<u256, kRecordsPerPage> values{};

  Bytes serialize() const;
  static StorageGroupPage deserialize(BytesView page);
};

/// A state::StateReader that resolves every query through the ORAM client —
/// this is what the HEVM's world-state misses hit. Each call maps to one or
/// more uniform 1 KB page queries; a hook reports them for timing models,
/// prefetch scheduling and the Table/Figure benches.
///
/// Thread safety: this object holds no per-query mutable state beyond an
/// atomic counter, so many sessions may share one instance as long as the
/// underlying accessor is itself thread-safe (an OramFrontend) and the hook
/// is set before the sessions start.
class OramWorldState : public state::StateReader {
 public:
  explicit OramWorldState(OramAccessor& client) : client_(client) {}

  /// Hook fired once per page query, before the ORAM access.
  using QueryHook = std::function<void(PageType, const Address&, const u256& index)>;
  void set_query_hook(QueryHook hook) { hook_ = std::move(hook); }

  std::optional<state::Account> account(const Address& addr) const override;
  u256 storage(const Address& addr, const u256& key) const override;
  Bytes code(const Address& addr) const override;

  /// Reads one code page (for the pagewise prefetcher).
  std::optional<Bytes> code_page(const Address& addr, uint64_t page_index) const;
  /// Raw page reads, for callers that maintain their own page cache (the
  /// HEVM's layer-1 world-state cache holds whole pages, so one ORAM fetch
  /// serves all 32 records of a group — the paper's grouping-as-prefetch).
  std::optional<Bytes> account_page(const Address& addr) const;
  std::optional<Bytes> storage_page(const Address& addr, const u256& group) const;

  uint64_t query_count() const { return query_count_.load(std::memory_order_relaxed); }

 private:
  std::optional<Bytes> query(PageType type, const Address& addr, const u256& index) const;

  OramAccessor& client_;
  QueryHook hook_;
  mutable std::atomic<uint64_t> query_count_{0};
};

}  // namespace hardtape::oram
