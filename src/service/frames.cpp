#include "service/frames.hpp"

#include <array>

#include "trie/rlp.hpp"

namespace hardtape::service {

namespace {

using trie::RlpItem;
using trie::RlpList;

Bytes u256_bytes(const u256& v) {
  // Minimal big-endian payload (Ethereum integer convention; 0 is empty).
  // NOT rlp_encode_u256: that returns a full RLP string item, and these
  // payloads get their prefix from the enclosing RlpItem tree.
  const auto be = v.to_be_bytes();
  size_t first = 0;
  while (first < be.size() && be[first] == 0) ++first;
  return Bytes(be.begin() + static_cast<ptrdiff_t>(first), be.end());
}

Bytes u64_bytes(uint64_t v) { return u256_bytes(u256{v}); }

RlpItem u64_item(uint64_t v) { return RlpItem(u64_bytes(v)); }

/// Strict u64 read: a byte string of at most 8 bytes, no leading zero
/// (canonical minimal encoding — two wire forms for one value would make
/// replay/dedup keys ambiguous).
std::optional<uint64_t> read_u64(const RlpItem& item) {
  if (item.is_list()) return std::nullopt;
  const Bytes& b = item.bytes();
  if (b.size() > 8) return std::nullopt;
  if (!b.empty() && b[0] == 0) return std::nullopt;
  uint64_t v = 0;
  for (const uint8_t byte : b) v = (v << 8) | byte;
  return v;
}

std::optional<u256> read_u256(const RlpItem& item) {
  if (item.is_list()) return std::nullopt;
  const Bytes& b = item.bytes();
  if (b.size() > 32) return std::nullopt;
  if (!b.empty() && b[0] == 0) return std::nullopt;
  return u256::from_be_bytes(b);
}

std::optional<Address> read_address(const RlpItem& item) {
  if (item.is_list()) return std::nullopt;
  const Bytes& b = item.bytes();
  if (b.size() != 20) return std::nullopt;
  return Address::from(b);
}

RlpItem tx_item(const evm::Transaction& tx) {
  RlpList fields;
  fields.emplace_back(Bytes(tx.from.bytes.begin(), tx.from.bytes.end()));
  fields.push_back(u64_item(tx.to.has_value() ? 1 : 0));
  fields.emplace_back(tx.to.has_value()
                          ? Bytes(tx.to->bytes.begin(), tx.to->bytes.end())
                          : Bytes{});
  fields.emplace_back(u256_bytes(tx.value));
  fields.emplace_back(tx.data);
  fields.push_back(u64_item(tx.gas_limit));
  fields.emplace_back(u256_bytes(tx.gas_price));
  fields.push_back(u64_item(tx.nonce.has_value() ? 1 : 0));
  fields.push_back(u64_item(tx.nonce.value_or(0)));
  return RlpItem(std::move(fields));
}

std::optional<evm::Transaction> read_tx(const RlpItem& item) {
  if (!item.is_list()) return std::nullopt;
  const RlpList& f = item.list();
  if (f.size() != 9) return std::nullopt;
  evm::Transaction tx;
  const auto from = read_address(f[0]);
  const auto to_present = read_u64(f[1]);
  const auto value = read_u256(f[3]);
  const auto gas_limit = read_u64(f[5]);
  const auto gas_price = read_u256(f[6]);
  const auto nonce_present = read_u64(f[7]);
  const auto nonce = read_u64(f[8]);
  if (!from || !to_present || !value || !gas_limit || !gas_price ||
      !nonce_present || !nonce) {
    return std::nullopt;
  }
  if (*to_present > 1 || *nonce_present > 1) return std::nullopt;
  if (f[2].is_list() || f[4].is_list()) return std::nullopt;
  tx.from = *from;
  if (*to_present == 1) {
    const auto to = read_address(f[2]);
    if (!to) return std::nullopt;
    tx.to = *to;
  } else if (!f[2].bytes().empty()) {
    return std::nullopt;  // creation txs must carry an empty `to` field
  }
  tx.value = *value;
  tx.data = f[4].bytes();
  tx.gas_limit = *gas_limit;
  tx.gas_price = *gas_price;
  if (*nonce_present == 1) tx.nonce = *nonce;
  else if (*nonce != 0) return std::nullopt;
  return tx;
}

bool known_verb(uint64_t v) {
  return v >= static_cast<uint64_t>(Verb::kOpenSession) &&
         v <= static_cast<uint64_t>(Verb::kCloseSession);
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::kOpenSession: return "open-session";
    case Verb::kSubmit: return "submit";
    case Verb::kPoll: return "poll";
    case Verb::kCloseSession: return "close-session";
  }
  return "unknown";
}

Bytes RequestFrame::encode() const {
  RlpList fields;
  fields.push_back(u64_item(version));
  fields.push_back(u64_item(static_cast<uint64_t>(verb)));
  fields.push_back(u64_item(session_id));
  fields.push_back(u64_item(tenant_id));
  fields.push_back(u64_item(request_id));
  fields.push_back(u64_item(deadline_ns));
  fields.push_back(u64_item(client_time_ns));
  RlpList txs;
  txs.reserve(bundle.size());
  for (const evm::Transaction& tx : bundle) txs.push_back(tx_item(tx));
  fields.emplace_back(std::move(txs));
  return trie::rlp_encode(RlpItem(std::move(fields)));
}

std::optional<RequestFrame> RequestFrame::decode(BytesView body) {
  RlpItem item;
  try {
    item = trie::rlp_decode(body);
  } catch (const DecodingError&) {
    return std::nullopt;
  }
  if (!item.is_list()) return std::nullopt;
  const RlpList& f = item.list();
  if (f.size() != 8) return std::nullopt;
  const auto version = read_u64(f[0]);
  const auto verb = read_u64(f[1]);
  const auto session_id = read_u64(f[2]);
  const auto tenant_id = read_u64(f[3]);
  const auto request_id = read_u64(f[4]);
  const auto deadline_ns = read_u64(f[5]);
  const auto client_time_ns = read_u64(f[6]);
  if (!version || !verb || !session_id || !tenant_id || !request_id ||
      !deadline_ns || !client_time_ns) {
    return std::nullopt;
  }
  if (*version != kServiceFrameVersion) return std::nullopt;
  if (!known_verb(*verb)) return std::nullopt;
  if (!f[7].is_list()) return std::nullopt;
  RequestFrame frame;
  frame.version = static_cast<uint8_t>(*version);
  frame.verb = static_cast<Verb>(*verb);
  frame.session_id = *session_id;
  frame.tenant_id = *tenant_id;
  frame.request_id = *request_id;
  frame.deadline_ns = *deadline_ns;
  frame.client_time_ns = *client_time_ns;
  frame.bundle.reserve(f[7].list().size());
  for (const RlpItem& tx_field : f[7].list()) {
    auto tx = read_tx(tx_field);
    if (!tx) return std::nullopt;
    frame.bundle.push_back(std::move(*tx));
  }
  // Only submits carry a bundle; one on any other verb is malformed.
  if (frame.verb != Verb::kSubmit && !frame.bundle.empty()) return std::nullopt;
  return frame;
}

Bytes ResponseFrame::encode() const {
  RlpList fields;
  fields.push_back(u64_item(version));
  fields.push_back(u64_item(static_cast<uint64_t>(verb)));
  fields.push_back(u64_item(session_id));
  fields.push_back(u64_item(request_id));
  fields.push_back(u64_item(static_cast<uint64_t>(status)));
  fields.push_back(u64_item(done ? 1 : 0));
  fields.push_back(u64_item(static_cast<uint64_t>(outcome_status)));
  fields.push_back(u64_item(queue_wait_ns));
  fields.push_back(u64_item(exec_ns));
  fields.push_back(u64_item(gas_used));
  return trie::rlp_encode(RlpItem(std::move(fields)));
}

std::optional<ResponseFrame> ResponseFrame::decode(BytesView body) {
  RlpItem item;
  try {
    item = trie::rlp_decode(body);
  } catch (const DecodingError&) {
    return std::nullopt;
  }
  if (!item.is_list()) return std::nullopt;
  const RlpList& f = item.list();
  if (f.size() != 10) return std::nullopt;
  std::array<std::optional<uint64_t>, 10> v;
  for (size_t i = 0; i < f.size(); ++i) {
    v[i] = read_u64(f[i]);
    if (!v[i]) return std::nullopt;
  }
  if (*v[0] != kServiceFrameVersion) return std::nullopt;
  if (!known_verb(*v[1])) return std::nullopt;
  const auto valid_status = [](uint64_t s) {
    return s < static_cast<uint64_t>(Status::kStatusCount_);
  };
  if (!valid_status(*v[4]) || !valid_status(*v[6])) return std::nullopt;
  if (*v[5] > 1) return std::nullopt;
  ResponseFrame frame;
  frame.version = static_cast<uint8_t>(*v[0]);
  frame.verb = static_cast<Verb>(*v[1]);
  frame.session_id = *v[2];
  frame.request_id = *v[3];
  frame.status = static_cast<Status>(*v[4]);
  frame.done = *v[5] == 1;
  frame.outcome_status = static_cast<Status>(*v[6]);
  frame.queue_wait_ns = *v[7];
  frame.exec_ns = *v[8];
  frame.gas_used = *v[9];
  return frame;
}

}  // namespace hardtape::service
