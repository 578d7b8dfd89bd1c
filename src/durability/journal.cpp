#include "durability/journal.hpp"

#include <cstring>

#include "common/errors.hpp"
#include "crypto/keccak.hpp"

namespace hardtape::durability {

namespace {

constexpr size_t kHeaderSize = 4 + 8 + 8;  // len + seq + checksum
constexpr size_t kChecksumSize = 8;

void put_u32(Bytes& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_u64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t get_u32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

std::array<uint8_t, kChecksumSize> record_checksum(uint64_t seq, BytesView payload) {
  Bytes preimage;
  preimage.reserve(8 + payload.size());
  put_u64(preimage, seq);
  append(preimage, payload);
  const H256 digest = crypto::keccak256(preimage);
  std::array<uint8_t, kChecksumSize> out{};
  std::memcpy(out.data(), digest.bytes.data(), kChecksumSize);
  return out;
}

}  // namespace

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::kEpochBegin: return "epoch_begin";
    case RecordType::kEpochCommit: return "epoch_commit";
    case RecordType::kEpochAbort: return "epoch_abort";
    case RecordType::kPageInstall: return "page_install";
    case RecordType::kBundleAdmit: return "bundle_admit";
    case RecordType::kBundleResolve: return "bundle_resolve";
  }
  return "unknown";
}

Bytes Journal::encode(uint64_t seq, BytesView payload) {
  if (payload.size() > kMaxRecordSize) {
    throw UsageError("journal: record payload exceeds kMaxRecordSize");
  }
  Bytes out;
  out.reserve(kHeaderSize + payload.size());
  put_u32(out, static_cast<uint32_t>(payload.size()));
  put_u64(out, seq);
  const auto checksum = record_checksum(seq, payload);
  out.insert(out.end(), checksum.begin(), checksum.end());
  append(out, payload);
  return out;
}

void Journal::append_record(BytesView payload) {
  fs_.append(path_, encode(next_seq_, payload));
  ++next_seq_;
  ++records_written_;
}

void Journal::append_epoch_begin(uint64_t epoch, const H256& root, uint64_t block_number) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kEpochBegin));
  put_u64(p, epoch);
  append(p, BytesView{root.bytes.data(), root.bytes.size()});
  put_u64(p, block_number);
  append_record(p);
}

void Journal::append_epoch_commit(uint64_t epoch) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kEpochCommit));
  put_u64(p, epoch);
  append_record(p);
}

void Journal::append_epoch_abort(uint64_t epoch) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kEpochAbort));
  put_u64(p, epoch);
  append_record(p);
}

void Journal::append_page_install(const u256& page_id, BytesView data) {
  Bytes p;
  p.reserve(1 + 32 + 4 + data.size());
  p.push_back(static_cast<uint8_t>(RecordType::kPageInstall));
  const auto id_be = page_id.to_be_bytes();
  p.insert(p.end(), id_be.begin(), id_be.end());
  put_u32(p, static_cast<uint32_t>(data.size()));
  append(p, data);
  append_record(p);
}

void Journal::append_bundle_admit(uint64_t bundle_id) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kBundleAdmit));
  put_u64(p, bundle_id);
  append_record(p);
}

void Journal::append_bundle_resolve(uint64_t bundle_id) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kBundleResolve));
  put_u64(p, bundle_id);
  append_record(p);
}

Journal::ReplayResult Journal::replay(
    const SimFs& fs, const std::string& path, uint64_t expected_seq,
    const std::function<bool(const JournalRecord&)>& on_record) {
  ReplayResult result;
  result.next_seq = expected_seq;
  const auto file = fs.read(path);
  if (!file.has_value()) return result;  // no journal: clean empty replay
  const Bytes& data = *file;

  size_t off = 0;
  const auto fail = [&](const char* why) {
    result.stop_reason = why;
    result.truncated_bytes = data.size() - result.valid_bytes;
  };
  while (off < data.size()) {
    if (data.size() - off < kHeaderSize) {
      fail("torn header");
      return result;
    }
    const uint32_t len = get_u32(&data[off]);
    const uint64_t seq = get_u64(&data[off + 4]);
    if (len > kMaxRecordSize) {
      // Clamp BEFORE framing: a corrupt length field must not be allowed to
      // swallow the rest of the file (or drive a huge allocation) just
      // because the file happens to be long enough.
      fail("oversize record");
      return result;
    }
    if (data.size() - off - kHeaderSize < len) {
      fail("torn payload");
      return result;
    }
    const BytesView payload{&data[off + kHeaderSize], len};
    const auto expect = record_checksum(seq, payload);
    if (!std::equal(expect.begin(), expect.end(), &data[off + 4 + 8])) {
      fail("checksum mismatch");
      return result;
    }
    if (seq != result.next_seq) {
      fail("sequence break");
      return result;
    }
    if (len < 1) {
      fail("empty payload");
      return result;
    }

    JournalRecord record;
    record.seq = seq;
    record.type = static_cast<RecordType>(payload[0]);
    const uint8_t* body = payload.data() + 1;
    const size_t body_len = len - 1;
    bool ok = true;
    switch (record.type) {
      case RecordType::kEpochBegin:
        ok = body_len == 8 + 32 + 8;
        if (ok) {
          record.epoch = get_u64(body);
          std::memcpy(record.root.bytes.data(), body + 8, 32);
          record.block_number = get_u64(body + 40);
        }
        break;
      case RecordType::kEpochCommit:
      case RecordType::kEpochAbort:
        ok = body_len == 8;
        if (ok) record.epoch = get_u64(body);
        break;
      case RecordType::kPageInstall: {
        ok = body_len >= 32 + 4;
        if (ok) {
          record.page_id = u256::from_be_bytes(BytesView{body, 32});
          const uint32_t data_len = get_u32(body + 32);
          ok = body_len == 32u + 4 + data_len;
          if (ok) record.page_data.assign(body + 36, body + 36 + data_len);
        }
        break;
      }
      case RecordType::kBundleAdmit:
      case RecordType::kBundleResolve:
        ok = body_len == 8;
        if (ok) record.bundle_id = get_u64(body);
        break;
      default:
        ok = false;
    }
    if (!ok) {
      fail("malformed payload");
      return result;
    }

    if (!on_record(record)) {
      fail("rejected by consumer");
      return result;
    }
    off += kHeaderSize + len;
    result.valid_bytes = off;
    ++result.records;
    ++result.next_seq;
  }
  return result;
}

}  // namespace hardtape::durability
