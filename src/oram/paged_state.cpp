#include "oram/paged_state.hpp"

#include <algorithm>

#include "crypto/keccak.hpp"

namespace hardtape::oram {

namespace {
size_t record_of(const u256& key) { return key.as_u64() & (kRecordsPerPage - 1); }
}  // namespace

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
  append(page, account.balance.to_be_bytes_vec());
  append(page, u256{account.nonce}.to_be_bytes_vec());
  append(page, u256{code_size}.to_be_bytes_vec());
  append(page, account.code_hash.view());
  page.resize(kPageSize, 0);
  return page;
}

AccountMetaPage AccountMetaPage::deserialize(BytesView page) {
  if (page.size() < 128) throw DecodingError("account page too small");
  AccountMetaPage out;
  out.account.balance = u256::from_be_bytes(page.subspan(0, 32));
  out.account.nonce = u256::from_be_bytes(page.subspan(32, 32)).as_u64();
  out.code_size = u256::from_be_bytes(page.subspan(64, 32)).as_u64();
  out.account.code_hash = H256::from(page.subspan(96, 32));
  return out;
}

u256 storage_group(const u256& key) { return key >> 5; }

void StorageGroupPage::set(const u256& key, const u256& value) {
  values[record_of(key)] = value;
}

Bytes StorageGroupPage::serialize() const {
  Bytes page;
  page.reserve(kPageSize);
  for (const u256& value : values) append(page, value.to_be_bytes_vec());
  return page;
}

u256 storage_record(BytesView page, const u256& key) {
  if (page.size() < kPageSize) throw DecodingError("storage page too small");
  return u256::from_be_bytes(page.subspan(record_of(key) * 32, 32));
}

uint64_t code_page_count(uint64_t code_size) {
  return (code_size + kPageSize - 1) / kPageSize;
}

Bytes code_page(BytesView code, uint64_t index) {
  const BytesView rest = code.subspan(index * kPageSize);
  Bytes page(kPageSize, 0);
  std::copy_n(rest.begin(), std::min(kPageSize, rest.size()), page.begin());
  return page;
}

void append_code_page(Bytes& code, BytesView page, uint64_t code_size) {
  const size_t take = std::min<size_t>({kPageSize, page.size(), code_size - code.size()});
  code.insert(code.end(), page.begin(), page.begin() + static_cast<ptrdiff_t>(take));
}

}  // namespace hardtape::oram
