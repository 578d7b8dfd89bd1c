#include "oram/paged_state.hpp"

#include <cstring>

#include "crypto/keccak.hpp"

namespace hardtape::oram {

const char* to_string(PageType t) {
  switch (t) {
    case PageType::kAccountMeta: return "account";
    case PageType::kStorageGroup: return "storage";
    case PageType::kCode: return "code";
  }
  return "unknown";
}

BlockId page_id(PageType type, const Address& addr, const u256& index) {
  Bytes preimage;
  preimage.reserve(1 + 20 + 32);
  preimage.push_back(static_cast<uint8_t>(type));
  append(preimage, addr.view());
  append(preimage, index.to_be_bytes_vec());
  return crypto::keccak256(preimage).to_u256();
}

Bytes AccountMetaPage::serialize() const {
  Bytes page;
  page.reserve(kPageSize);
  append(page, balance.to_be_bytes_vec());
  append(page, u256{nonce}.to_be_bytes_vec());
  append(page, u256{code_size}.to_be_bytes_vec());
  append(page, code_hash.view());
  page.resize(kPageSize, 0);
  return page;
}

AccountMetaPage AccountMetaPage::deserialize(BytesView page) {
  if (page.size() < 128) throw DecodingError("account page too small");
  AccountMetaPage out;
  out.balance = u256::from_be_bytes(page.subspan(0, 32));
  out.nonce = u256::from_be_bytes(page.subspan(32, 32)).as_u64();
  out.code_size = u256::from_be_bytes(page.subspan(64, 32)).as_u64();
  out.code_hash = H256::from(page.subspan(96, 32));
  return out;
}

Bytes StorageGroupPage::serialize() const {
  Bytes page;
  page.reserve(kPageSize);
  for (const u256& value : values) append(page, value.to_be_bytes_vec());
  return page;
}

StorageGroupPage StorageGroupPage::deserialize(BytesView page) {
  if (page.size() < kPageSize) throw DecodingError("storage page too small");
  StorageGroupPage out;
  for (size_t i = 0; i < kRecordsPerPage; ++i) {
    out.values[i] = u256::from_be_bytes(page.subspan(i * 32, 32));
  }
  return out;
}

std::optional<Bytes> OramWorldState::query(PageType type, const Address& addr,
                                           const u256& index) const {
  query_count_.fetch_add(1, std::memory_order_relaxed);
  if (hook_) hook_(type, addr, index);
  // Fault-aware read: recovered faults already charged their simulated time
  // to the session's RecoveryTally; a terminal fault has no value-typed path
  // through StateReader, so it travels as BackendFault up to the session
  // boundary (service::PreExecutionEngine converts it into the outcome's
  // Status — fail closed, never a hang).
  AccessAttempt attempt = client_.try_read(page_id(type, addr, index));
  if (attempt.status != Status::kOk) throw BackendFault(attempt.status);
  return std::move(attempt.data);
}

std::optional<state::Account> OramWorldState::account(const Address& addr) const {
  const auto page = query(PageType::kAccountMeta, addr, u256{});
  if (!page.has_value()) return std::nullopt;
  const AccountMetaPage meta = AccountMetaPage::deserialize(*page);
  state::Account account;
  account.balance = meta.balance;
  account.nonce = meta.nonce;
  account.code_hash = meta.code_hash;
  return account;
}

u256 OramWorldState::storage(const Address& addr, const u256& key) const {
  const auto page = query(PageType::kStorageGroup, addr, key >> 5);
  if (!page.has_value()) return u256{};
  return StorageGroupPage::deserialize(*page).values[key.as_u64() & 31];
}

Bytes OramWorldState::code(const Address& addr) const {
  const auto meta_page = query(PageType::kAccountMeta, addr, u256{});
  if (!meta_page.has_value()) return Bytes{};
  const AccountMetaPage meta = AccountMetaPage::deserialize(*meta_page);
  Bytes code;
  code.reserve(meta.code_size);
  const uint64_t page_count = (meta.code_size + kPageSize - 1) / kPageSize;
  for (uint64_t i = 0; i < page_count; ++i) {
    const auto page = query(PageType::kCode, addr, u256{i});
    if (!page.has_value()) throw HardtapeError("oram: missing code page");
    const size_t take = std::min<size_t>(kPageSize, meta.code_size - i * kPageSize);
    code.insert(code.end(), page->begin(), page->begin() + static_cast<long>(take));
  }
  return code;
}

std::optional<Bytes> OramWorldState::code_page(const Address& addr,
                                               uint64_t page_index) const {
  return query(PageType::kCode, addr, u256{page_index});
}

std::optional<Bytes> OramWorldState::account_page(const Address& addr) const {
  return query(PageType::kAccountMeta, addr, u256{});
}

std::optional<Bytes> OramWorldState::storage_page(const Address& addr,
                                                  const u256& group) const {
  return query(PageType::kStorageGroup, addr, group);
}

}  // namespace hardtape::oram
