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
//
// This is the one module that knows the page format: page ids, the meta
// page, a storage key's group and record, and code slicing. Block sync
// (node/sync) encodes verified state into pages through it, and the
// session's state reader (service/pre_execution) decodes the pages it reads
// from the ORAM through it.
#pragma once

#include <array>

#include "oram/path_oram.hpp"
#include "state/account.hpp"

namespace hardtape::oram {

enum class PageType : uint8_t {
  kAccountMeta = 1,  ///< balance / nonce / code size / code hash
  kStorageGroup = 2, ///< 32 consecutive storage-slot values
  kCode = 3,         ///< 1 KB slice of contract bytecode
};

constexpr size_t kPageSize = 1024;
constexpr size_t kRecordsPerPage = kPageSize / 32;  // 32 records of 32 bytes

/// Deterministic page id: keccak(tag || address || index). The index is 0
/// for the meta page, the group for a storage page and the slice number for
/// a code page; it is a full 256-bit value because storage keys span the
/// whole 2^256 space.
BlockId page_id(PageType type, const Address& addr, const u256& index);

/// An account's meta page. All pages are exactly kPageSize bytes.
struct AccountMetaPage {
  /// Balance, nonce and code hash; the storage root is not paged (zero on
  /// decode): the ORAM serves storage by group page, not by trie.
  state::Account account;
  uint64_t code_size = 0;

  Bytes serialize() const;
  static AccountMetaPage deserialize(BytesView page);
};

/// The group page that holds storage `key`: consecutive keys share one.
u256 storage_group(const u256& key);

/// One storage group page, assembled record by record.
struct StorageGroupPage {
  std::array<u256, kRecordsPerPage> values{};  ///< absent records are zero

  /// Sets `key`'s record; `key` must fall in this page's group.
  void set(const u256& key, const u256& value);
  Bytes serialize() const;
};

/// `key`'s record in its group page.
u256 storage_record(BytesView page, const u256& key);

/// Number of code pages that hold `code_size` bytes.
uint64_t code_page_count(uint64_t code_size);
/// Code page `index` of `code`, zero-padded to kPageSize.
Bytes code_page(BytesView code, uint64_t index);
/// Appends the next code page's share of a `code_size`-byte code to `code`
/// (the pages must come in order; the padding is dropped).
void append_code_page(Bytes& code, BytesView page, uint64_t code_size);

}  // namespace hardtape::oram
