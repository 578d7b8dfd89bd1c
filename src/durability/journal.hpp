// Write-ahead journal for the ORAM store (length-prefixed, checksummed).
//
// Record wire format (little-endian, common/codec.hpp):
//   u32 payload_len | u64 seq | u32 checksum | payload
// where checksum = CRC-32C over payload_len, seq and payload — enough to
// reject torn tails and garbage holes on the device's own disk. `seq` is
// globally monotone across journal generations, so replay can prove wal-g
// really continues where checkpoint g (base_seq) and wal-(g-1) left off.
//
// Payloads are type-tagged:
//   kEpochBegin    u64 epoch | 32B state root | u64 block number
//   kEpochCommit   u64 epoch
//   kEpochAbort    u64 epoch
//   kPageInstall   32B page id | u32 len | len bytes
//   kBundleAdmit   u64 bundle id
//   kBundleResolve u64 bundle id
//
// No record carries an ORAM position. The disk is the operator's, and the
// leaf an install drew is exactly the path the page's next access walks, so
// a journaled leaf would let the SP name the page behind that walk. Nothing
// needs one either: a restart reinstalls every page under fresh leaves.
// Type 5, a position record in older journals, stays unassigned, so replay
// rejects it like any unknown type.
//
// Replay is FAIL-CLOSED: the first record whose length runs past the file,
// whose checksum rejects, or whose sequence breaks the expected chain
// truncates the journal to the valid prefix before it. A malicious or
// power-lossed tail can lose suffix records (the delta-sync heals that from
// the node) but can never smuggle a corrupted record into recovered state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/u256.hpp"
#include "durability/vfs.hpp"

namespace hardtape::durability {

/// Hard ceiling on one record's payload. The largest legitimate record is a
/// kPageInstall carrying one ORAM page (tens of KiB at the biggest block
/// size); 1 MiB is comfortably past that while keeping replay's allocation
/// bounded. A length field above it is treated as corruption BEFORE the
/// torn-payload check — otherwise a single flipped high bit in `len` makes
/// replay try to frame a multi-gigabyte record out of a kilobyte file.
constexpr size_t kMaxRecordSize = 1u << 20;

enum class RecordType : uint8_t {
  kEpochBegin = 1,
  kEpochCommit = 2,
  kEpochAbort = 3,
  kPageInstall = 4,
  kBundleAdmit = 6,
  kBundleResolve = 7,
};
const char* to_string(RecordType type);

/// A decoded journal record, as replay hands it to the consumer.
struct JournalRecord {
  uint64_t seq = 0;
  RecordType type = RecordType::kEpochBegin;
  // Fields are populated per type; unused ones stay zero.
  uint64_t epoch = 0;
  H256 root{};
  uint64_t block_number = 0;
  u256 page_id{};
  Bytes page_data;
  uint64_t bundle_id = 0;
};

/// Appender. One Journal instance owns one generation file; records carry a
/// caller-provided monotone sequence so a successor generation continues the
/// chain. Appends are buffered by the SimFs until sync().
class Journal {
 public:
  Journal(SimFs& fs, std::string path, uint64_t start_seq)
      : fs_(fs), path_(std::move(path)), next_seq_(start_seq) {}

  void append_epoch_begin(uint64_t epoch, const H256& root, uint64_t block_number);
  void append_epoch_commit(uint64_t epoch);
  void append_epoch_abort(uint64_t epoch);
  void append_page_install(const u256& page_id, BytesView data);
  void append_bundle_admit(uint64_t bundle_id);
  void append_bundle_resolve(uint64_t bundle_id);

  /// Durability barrier: everything appended so far survives a crash.
  void sync() { fs_.fsync(path_); }

  uint64_t next_seq() const { return next_seq_; }
  uint64_t records_written() const { return records_written_; }
  const std::string& path() const { return path_; }

  /// Builds one encoded record (exposed for tests to craft corrupt tails).
  /// Throws UsageError when `payload` exceeds kMaxRecordSize — an oversize
  /// record would be unreadable by replay, so refusing to write it is the
  /// only honest behavior.
  static Bytes encode(uint64_t seq, BytesView payload);

  struct ReplayResult {
    uint64_t records = 0;        ///< valid records delivered
    uint64_t valid_bytes = 0;    ///< length of the accepted prefix
    uint64_t truncated_bytes = 0;///< bytes discarded after it
    uint64_t next_seq = 0;       ///< sequence the next record must carry
    std::string stop_reason;     ///< empty = clean end of file
  };
  /// Replays `path`, delivering each valid record in order. `expected_seq`
  /// anchors the sequence chain (the checkpoint's base_seq, or the previous
  /// generation's next_seq). Missing file = zero records, clean. The consumer
  /// returns false to REJECT a record that is wire-valid but semantically
  /// impossible (install outside an epoch, commit of a mismatched epoch):
  /// replay then truncates there, same fail-closed discipline as a bad
  /// checksum — a record the state machine cannot apply is corruption.
  static ReplayResult replay(const SimFs& fs, const std::string& path,
                             uint64_t expected_seq,
                             const std::function<bool(const JournalRecord&)>& on_record);

 private:
  void append_record(BytesView payload);

  SimFs& fs_;
  std::string path_;
  uint64_t next_seq_;
  uint64_t records_written_ = 0;
};

}  // namespace hardtape::durability
