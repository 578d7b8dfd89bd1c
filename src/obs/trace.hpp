// Structured, deterministic tracing (obs subsystem).
//
// Every boundary the adversary — or an operator debugging the deployment —
// can observe emits fixed-size TraceEvents: per-opcode retire in the HEVM
// core, SwapEvents on the layer-2/3 memory bus, ORAM request issue/retry/
// complete at each session's state reader, and bundle lifecycle in the
// engine. Events carry BOTH timelines (DESIGN.md §1): the session's
// simulated clock (deterministic, what the auditor consumes) and host wall
// time (diagnostics only).
//
// Determinism contract: tracing is pull-only instrumentation. Emission never
// advances a clock, draws randomness, or changes control flow, so traced and
// untraced runs execute identically; with tracing off (no ring installed)
// the hot paths do a single null check and nothing else, keeping the
// fault-free engine sweep bit-identical to the seed behaviour.
//
// Concurrency: one TraceRing per worker (single writer each, the engine maps
// worker i to ring i); the ORAM request path (every session's state reader
// and the sharded store's walks) writes to one shared ring under the ring's
// internal mutex. Rings are bounded: when full they
// overwrite the oldest events and count drops — tracing can never OOM a run.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace hardtape::obs {

enum class TraceCategory : uint8_t {
  kOpcode = 0,  ///< HEVM per-opcode retire
  kSwap = 1,    ///< layer-2/3 memory-bus swap (the A5 channel)
  kOram = 2,    ///< ORAM request lifecycle (the A7 channel)
  kBundle = 3,  ///< engine bundle lifecycle
};
const char* to_string(TraceCategory category);

/// Event codes within a category. Kept in one enum so a JSONL line is
/// self-describing without a per-component schema.
enum class TraceCode : uint16_t {
  // kOpcode: code = the retired opcode byte (0x00..0xff), not listed here.
  // kSwap
  kSwapEvict = 0x100,
  kSwapLoad = 0x101,
  // kOram
  kOramIssue = 0x200,
  kOramRetry = 0x201,
  kOramComplete = 0x202,
  kOramShardAccess = 0x203,  ///< sharded store walk: a = shard, b = local leaf
  // kBundle
  kBundleSubmit = 0x300,
  kBundleStart = 0x301,
  kBundleComplete = 0x302,
  kBundleRequeue = 0x303,
  kBundleResim = 0x304,   ///< outcome orphaned by a reorg, re-executed
  kEpochAdvance = 0x305,  ///< engine re-pinned to a newer chain snapshot
  kWarmRestart = 0x306,   ///< engine adopted a crash-recovered store image
  kBundleReadmit = 0x307, ///< recovered pending bundle re-admitted post-crash
};
const char* to_string(TraceCode code);

/// One fixed-size trace record. Meaning of a/b/c by (category, code):
///   kOpcode:              a = pc, b = gas_left, c = depth  (code = opcode)
///   kSwap evict/load:     a = observed pages, b = noise pages, c = depth
///   kOram issue (worker ring, engine SP timeline): a = page type, b = is_prefetch
///   kOram issue (request ring -2): a = is_write, b = stream tag
///   kOram retry:          a = attempt index, b = backoff sim ns
///   kOram complete:       a = terminal status code, b = recovery sim ns
///   kBundle submit/...:   a = bundle id, b = attempt, c = status code
struct TraceEvent {
  uint64_t seq = 0;      ///< per-ring emission index (pre-drop, gap-free)
  uint64_t sim_ns = 0;   ///< session's simulated clock at emission
  uint64_t wall_ns = 0;  ///< host ns since the sink's epoch (diagnostics)
  TraceCategory category = TraceCategory::kOpcode;
  uint16_t code = 0;
  int32_t worker = -1;
  uint64_t a = 0, b = 0, c = 0;
};

class TraceSink;

/// Bounded per-worker event buffer. append() is safe for concurrent writers
/// (internal mutex), but the intended shape is one writer per ring.
class TraceRing {
 public:
  TraceRing(TraceSink& sink, int32_t worker, size_t capacity);

  void append(TraceCategory category, uint16_t code, uint64_t sim_ns, uint64_t a,
              uint64_t b = 0, uint64_t c = 0);

  int32_t worker() const { return worker_; }
  /// Events currently buffered, oldest first (post-drop window).
  std::vector<TraceEvent> events() const;
  uint64_t emitted() const;
  uint64_t dropped() const;

 private:
  TraceSink& sink_;
  const int32_t worker_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<TraceEvent> buffer_;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
};

/// Owner of the per-worker rings and the JSONL writer. Create one per
/// engine/bench run; hand `&sink.ring(worker_id)` to each instrumented
/// component. A null ring pointer anywhere means "tracing off".
class TraceSink {
 public:
  struct Config {
    size_t ring_capacity = 1 << 14;  ///< events kept per ring
    bool capture_wall_time = true;   ///< steady_clock per event when true
  };

  TraceSink();
  explicit TraceSink(Config config);

  /// The ring for `worker` (created on first use; stable reference).
  /// Convention: worker ids >= 0 are engine workers, -1 the producer/engine
  /// thread, -2 the ORAM request path (state readers, sharded store).
  TraceRing& ring(int32_t worker);

  /// One JSON object per line, all rings merged, ordered by (worker, seq).
  /// Wall times are diagnostics; consumers wanting determinism must key on
  /// (worker, seq, sim_ns) only.
  void write_jsonl(std::ostream& out) const;

  uint64_t total_emitted() const;
  uint64_t total_dropped() const;

  const Config& config() const { return config_; }
  uint64_t wall_now_ns() const;

 private:
  Config config_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<std::pair<int32_t, std::unique_ptr<TraceRing>>> rings_;
};

}  // namespace hardtape::obs
