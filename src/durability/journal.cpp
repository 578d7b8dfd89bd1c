#include "durability/journal.hpp"

#include "common/codec.hpp"
#include "common/errors.hpp"

namespace hardtape::durability {

namespace {

constexpr size_t kChecksumAt = 4 + 8;             // after len + seq
constexpr size_t kHeaderSize = kChecksumAt + 4;  // len + seq + checksum

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
  codec::put_u32(out, static_cast<uint32_t>(payload.size()));
  codec::put_u64(out, seq);
  codec::put_u32(out, codec::crc32c(payload, codec::crc32c(out)));
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
  codec::put_u64(p, epoch);
  append(p, BytesView{root.bytes.data(), root.bytes.size()});
  codec::put_u64(p, block_number);
  append_record(p);
}

void Journal::append_epoch_commit(uint64_t epoch) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kEpochCommit));
  codec::put_u64(p, epoch);
  append_record(p);
}

void Journal::append_epoch_abort(uint64_t epoch) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kEpochAbort));
  codec::put_u64(p, epoch);
  append_record(p);
}

void Journal::append_page_install(const u256& page_id, BytesView data) {
  Bytes p;
  p.reserve(1 + 32 + 4 + data.size());
  p.push_back(static_cast<uint8_t>(RecordType::kPageInstall));
  codec::put_u256(p, page_id);
  codec::put_u32(p, static_cast<uint32_t>(data.size()));
  append(p, data);
  append_record(p);
}

void Journal::append_bundle_admit(uint64_t bundle_id) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kBundleAdmit));
  codec::put_u64(p, bundle_id);
  append_record(p);
}

void Journal::append_bundle_resolve(uint64_t bundle_id) {
  Bytes p;
  p.push_back(static_cast<uint8_t>(RecordType::kBundleResolve));
  codec::put_u64(p, bundle_id);
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
    const uint8_t* header = &data[off];
    const uint32_t len = codec::get_u32(header);
    const uint64_t seq = codec::get_u64(header + 4);
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
    const BytesView payload{header + kHeaderSize, len};
    if (codec::crc32c(payload, codec::crc32c(BytesView{header, kChecksumAt})) !=
        codec::get_u32(header + kChecksumAt)) {
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
    codec::Reader body{payload.data() + 1, len - 1};
    switch (record.type) {
      case RecordType::kEpochBegin:
        record.epoch = body.u64();
        record.root = body.h256();
        record.block_number = body.u64();
        break;
      case RecordType::kEpochCommit:
      case RecordType::kEpochAbort:
        record.epoch = body.u64();
        break;
      case RecordType::kPageInstall:
        record.page_id = body.big();
        record.page_data = body.blob();
        break;
      case RecordType::kBundleAdmit:
      case RecordType::kBundleResolve:
        record.bundle_id = body.u64();
        break;
      default:
        body.ok = false;
    }
    if (!body.ok || body.remaining != 0) {
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
