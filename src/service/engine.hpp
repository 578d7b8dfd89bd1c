// The pre-execution engine: the paper's Figure 3 lifecycle, assembled from
// every substrate in this repository. It is the one place that does so.
//
//  (1)  boot: CSU verifies the SBL, the Hypervisor comes up        [hypervisor]
//  (2)  user attestation + secure channel                          [hypervisor]
//  (3)  bundle queued until an HEVM is idle, then assigned          [this file]
//  (4)  HEVM executes the bundle                                    [hevm, evm]
//  (5-6) exceptions to the Hypervisor, protected messages           [hypervisor]
//  (7)  call-stack page dumps to untrusted memory                   [memlayer]
//  (8)  on-chain data queried from the ORAM server                  [oram]
//  (9)  traces accumulated and returned over the secure channel     [hevm]
//  (10) HEVM reset, on-chip memories cleared                        [hevm]
//  (11) new blocks synchronized into the ORAM                       [node]
//
// All timing flows through sim::SimClock via the cost models of sim/costs.hpp
// (see DESIGN.md §1); all cryptography and the ORAM itself are real.
//
// It models the deployment the paper argues for — many users, each with a
// dedicated HEVM (§IV-B "no context switches, no shared-hardware side
// channels") — with a real worker pool:
//
//   submit() ──► BoundedQueue (backpressure, Fig. 3 step 3) ──► N workers
//                                                                 │
//        each worker owns: one HevmCore, one hypervisor session   │
//        + secure channel, one per-session SimClock               ▼
//        per session: RoutedStateReader ──► shared ShardedOramStore
//        (retry/backoff, fail closed)       (per-id gate, per-shard locks)
//
// Determinism contract: a bundle's outcome (traces, gas, storage writes,
// simulated timings) depends only on (engine seed, bundle id, world state) —
// never on which worker ran it or how sessions interleaved. Each session
// gets a fresh SimClock starting at 0 and a bundle-id-derived RNG, and ORAM
// page contents are order-independent, so concurrent outcomes are
// bit-identical to serial execution (execute_serial() is the reference, and
// the path the paper-figure benches run).
//
// Two timelines are reported, and they must never be conflated:
//  - simulated: per-session costs from the sim cost models, aggregated into
//    an engine-level schedule (earliest-free-HEVM, like the paper's Fig. 3
//    step 3 queue). All reproduced numbers — bundles/s, queue wait — come
//    from here, deterministic on any host.
//  - wall: host measurements of the real thread pool (contention at the
//    ORAM store's per-id gate and walk locks, producer backpressure).
//    Diagnostics only.
//
// Failure model (PR 2): with a FaultPlan installed the SP's interfaces
// misbehave, and the engine fails CLOSED at three nested layers:
//  1. per-request: each session attempt reads the ORAM through its own
//     faults::FaultyOram, keyed fault_stream(bundle, attempt); its
//     RoutedStateReader retries timeouts with simulated backoff and aborts
//     on integrity failures (see service/pre_execution.hpp);
//  2. per-session: an unrecoverable backend fault aborts the session
//     (BackendFault), and recoverable aborts requeue the bundle — front of
//     queue, fresh fault stream — up to max_bundle_attempts times before the
//     outcome resolves as a terminal Status;
//  3. per-engine: breaker_threshold consecutive backend-faulted attempts
//     open a circuit breaker that quarantines the ORAM backend — queued and
//     newly submitted bundles resolve immediately as kUnavailable instead of
//     burning retry budgets against a dead server, so drain() always
//     terminates in bounded simulated time.
// A wall-clock Watchdog (service/watchdog.hpp, default thresholds) additionally
// flags worker threads that stop making host progress; it is diagnostics-only.
//
// Live-chain model (PR 4): the node keeps producing blocks — and reorging —
// while bundles queue. The engine therefore pins every session to an
// immutable snapshot of one specific block (synchronize() pins the first;
// outcomes carry the pinned state root + store epoch). When the head outruns
// the pin by more than max_head_lag, or a reorg orphans the pinned root,
// resync() quiesces the pool, delta-syncs the ORAM against the new trusted
// root (all-or-nothing, epoch-tagged — see oram/epoch.hpp), and
// re-executes every outcome whose root the canonical chain lost; a bundle
// that burns max_resim_attempts such rounds resolves as the fail-closed
// Status::kStale. The determinism contract extends to all of it: outcomes
// (including which bundles go stale) depend only on the seeded submit/tick
// interleaving the caller drives, never on worker count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "faults/fault_plan.hpp"
#include "hypervisor/hypervisor.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"
#include "oram/epoch.hpp"
#include "oram/sharded.hpp"
#include "service/bundle_queue.hpp"
#include "service/pre_execution.hpp"
#include "service/watchdog.hpp"

namespace hardtape::durability {
class DurableStore;
struct RecoveredState;
}  // namespace hardtape::durability

namespace hardtape::service {

struct SessionOutcome;

struct EngineConfig {
  int num_hevms = 3;       ///< worker pool width (paper §VI-A: 3 per chip)
  size_t queue_depth = 16; ///< bundle-queue slots before backpressure

  SecurityConfig security = SecurityConfig::full();
  hevm::HevmCore::Config core{};
  oram::OramConfig oram{};
  oram::SealMode seal_mode = oram::SealMode::kChaChaHmac;
  /// Independently locked Path ORAM subtrees (PR 6, power of two). `oram`
  /// above stays the WHOLE-store geometry; each shard gets
  /// ShardedOramStore::partition() of it. 1 = a single tree with the same
  /// adversary view as the pre-sharding engine; >1 lets sessions whose
  /// accesses land on distinct shards walk paths in parallel.
  size_t oram_shards = 8;
  /// Seeds every simulated RNG, among them the device keys and the ORAM
  /// clients' nonce DRBGs. ORAM slots are sealed under a per-boot key
  /// derived from the durable store's generation (Hypervisor::oram_seal_key),
  /// so a restart with a `durable` store never reuses a (key, nonce) pair.
  /// Without one the generation is 0 on every boot: then only a seed no
  /// earlier boot used keeps the pairs fresh.
  uint64_t seed = 1;
  /// When false, the user channel's AEAD seal and ECDSA are modeled in time
  /// only (the ORAM's crypto is always real); the charged sim time, the
  /// paper's AES-GCM rate, is the same either way.
  bool perform_channel_crypto = false;

  // --- failure model & recovery (PR 2) ---
  /// Optional adversarial fault injection on the SP-controlled interfaces.
  /// Must outlive the engine. nullptr = reliable backends (the default), in
  /// which case the whole recovery stack is dormant and outcomes are
  /// bit-identical to PR 1.
  faults::FaultPlan* fault_plan = nullptr;
  /// Total executions one bundle may consume (first try + requeues) before
  /// a recoverable fault resolves as a terminal status. 1 = never requeue.
  int max_bundle_attempts = 3;
  /// Consecutive backend-faulted attempts that open the circuit breaker;
  /// <= 0 disables the breaker.
  int breaker_threshold = 4;

  // --- live-chain staleness policy (PR 4) ---
  /// Blocks the chain head may advance past the engine's pinned snapshot
  /// before an admission triggers a delta re-sync + re-pin (0 = re-sync on
  /// any lag). A reorg that orphans the pinned root always triggers one.
  /// Every admission checks; resync() may also be called directly.
  uint64_t max_head_lag = 4;
  /// Re-execution rounds one bundle may consume after reorgs orphan the
  /// root its outcome ran against, before it resolves as kStale.
  int max_resim_attempts = 2;

  // --- crash-consistent durability (PR 5) ---
  /// Optional write-ahead mirror of the ORAM store (must outlive the
  /// engine). When set, the engine journals epoch transitions (via the
  /// registry listener), the pages each sync pass installs and bundle
  /// admit/resolve marks, enabling Recovery::replay + warm_restart()
  /// after a crash. Null = no durability (the default); the execution path
  /// is untouched either way — journaling is a pure observer, so outcomes
  /// stay bit-identical with and without it. The engine reads the store's
  /// generation once, at construction, to key this boot's slot seal (see
  /// `seed`), so a restart adopts the recovered image before it builds the
  /// engine.
  durability::DurableStore* durable = nullptr;

  // --- observability (PR 3) ---
  /// Optional trace sink (must outlive the engine). When set, each worker's
  /// HEVM/pager emits into the sink's ring for that worker id, every
  /// session's ORAM requests and the store's walks into the shared ring -2,
  /// and the engine emits bundle lifecycle plus the SP-observed
  /// (post-prefetch) query timeline. Null = tracing off:
  /// zero allocations, one pointer test per would-be event, and the
  /// fault-free sweep stays bit-identical to the untraced build.
  obs::TraceSink* trace = nullptr;

  // --- service front door (PR 7) ---
  /// Optional completion hook, fired once per outcome right after it is
  /// durably resolved and recorded — from whatever thread resolved it (a
  /// worker, or the submitter for breaker refusals), outside engine locks,
  /// so it may call back into the engine but must itself be thread-safe.
  /// The front door uses it to learn session durations as they land instead
  /// of polling drain(). Reorg-driven re-execution may later revise the
  /// stored outcome; the hook reports the first terminal resolution.
  std::function<void(const SessionOutcome&)> on_outcome;
};

/// Outcome of one session (= one bundle on one dedicated HEVM). All *_ns
/// fields are simulated time on the session's own clock (starting at 0).
struct SessionOutcome {
  uint64_t bundle_id = 0;
  int worker_id = -1;  ///< which worker executed it (NOT part of determinism)
  Status status = Status::kOk;
  /// Which execution this outcome is (0 = first try; >0 = after requeue).
  /// Deterministic: faults are keyed on (bundle, attempt), not interleaving.
  uint32_t attempt = 0;
  /// True when `status` came from the untrusted backend (feeds the circuit
  /// breaker) as opposed to the session's own execution (e.g. overflow).
  bool backend_fault = false;
  uint64_t recovery_sim_ns = 0;  ///< simulated time spent in retry/backoff
  uint32_t oram_retries = 0;     ///< ORAM requests re-issued after timeouts
  uint32_t faults_seen = 0;      ///< faulty backend attempts observed
  /// Live-chain pinning (PR 4): the snapshot this session executed against.
  /// A refusal that never executed (kUnavailable at admission, kStale after
  /// the resim budget) carries a zero state_root — it ran against nothing.
  uint64_t epoch = 0;   ///< engine store epoch at execution time
  H256 state_root{};    ///< pinned state root the session read
  /// Re-execution rounds this bundle went through after reorgs orphaned the
  /// root of an earlier outcome (0 = the original result stands).
  uint32_t resim = 0;
  hevm::BundleReport report;
  uint64_t end_to_end_ns = 0;
  uint64_t hevm_time_ns = 0;
  uint64_t crypto_time_ns = 0;
  uint64_t message_time_ns = 0;
  RoutedStateReader::Stats query_stats;
  std::vector<hypervisor::QueryEvent> observed_timeline;
  friend bool operator==(const SessionOutcome&, const SessionOutcome&) = default;
};

/// True iff the two outcomes are equal in every deterministic field
/// (everything except worker_id). Used by tests and bench_throughput to hold
/// the engine to the serial reference.
bool outcomes_bit_identical(const SessionOutcome& a, SessionOutcome b);

/// True iff the two outcomes agree in every USER-VISIBLE field: status and
/// the full bundle report (per-tx status/gas/return data/storage writes/
/// logs/created addresses/recorded steps, final balances, instruction count,
/// abort flag).
/// Deliberately ignores attempt, epoch, state root, simulated timings, swap
/// noise and query timelines — a re-admitted bundle runs at attempt+1 with
/// a fresh fault/noise stream against a re-pinned (same-content) snapshot,
/// so those provenance fields legitimately differ while everything the user
/// receives must not. This is the crash drill's correctness bar.
bool outcomes_semantically_identical(const SessionOutcome& a, const SessionOutcome& b);

struct EngineMetrics {
  uint64_t bundles_submitted = 0;
  uint64_t bundles_completed = 0;

  // --- simulated engine timeline (deterministic, from completed bundles) ---
  uint64_t sim_makespan_ns = 0;       ///< first arrival -> last completion
  double sim_bundles_per_s = 0;       ///< completed / makespan
  uint64_t sim_mean_queue_wait_ns = 0;
  uint64_t sim_max_queue_depth = 0;
  /// Per-bundle end-to-end latency percentiles (nearest-rank, from the
  /// engine's obs::Histogram — the single percentile definition repo-wide).
  uint64_t sim_p50_bundle_latency_ns = 0;
  uint64_t sim_p99_bundle_latency_ns = 0;
  /// Serialized ORAM-server service time across all sessions — the shared
  /// contention point. When this exceeds the schedule's makespan the server
  /// is the bottleneck and the makespan is clamped to it.
  uint64_t sim_oram_server_busy_ns = 0;
  uint64_t sim_oram_serialization_stall_ns = 0;  ///< clamp amount

  // --- wall-clock (host diagnostics; never reproduced paper numbers) ---
  uint64_t wall_elapsed_ns = 0;
  double wall_bundles_per_s = 0;
  uint64_t wall_queue_wait_ns = 0;       ///< submit -> worker pickup, summed
  uint64_t wall_backpressure_ns = 0;     ///< producers blocked on full queue
  uint64_t backpressured_submits = 0;
  uint64_t queue_max_depth = 0;
  uint64_t oram_contention_stall_ns = 0; ///< store per-id gate waits, summed
  uint64_t oram_reads = 0;

  // --- sharded store (PR 6; wall-clock diagnostics) ---
  uint64_t oram_shard_count = 0;
  uint64_t oram_shard_walks = 0;        ///< path walks summed across shards
  uint64_t oram_shard_migrations = 0;   ///< cross-shard block handoffs
  /// High-water of simultaneously in-flight walks (1 on a serialized run;
  /// > 1 is the sharding actually overlapping tree walks).
  uint64_t oram_max_concurrent_walks = 0;
  struct OramShardStats {
    uint32_t shard = 0;
    uint64_t walks = 0;
    uint64_t migrations_in = 0;
    uint64_t stall_ns = 0;         ///< wall ns callers waited for this walk lock
    uint64_t stall_p50_ns = 0;     ///< per-walk lock-wait percentiles
    uint64_t stall_p99_ns = 0;
  };
  std::vector<OramShardStats> oram_shards;

  // --- failure model & recovery (PR 2; all zero without a FaultPlan) ---
  uint64_t faults_injected = 0;      ///< FaultPlan::injected(): every site it struck
  uint64_t oram_timeouts = 0;        ///< ORAM request attempts that timed out
  uint64_t oram_retries = 0;         ///< ORAM requests re-issued
  uint64_t oram_retry_exhausted = 0; ///< requests that ran out of attempts
  uint64_t bundles_recovered = 0;    ///< kOk outcomes that needed recovery
  uint64_t bundles_aborted = 0;      ///< terminal non-kOk, non-kUnavailable
  uint64_t bundles_unavailable = 0;  ///< resolved kUnavailable by the breaker
  uint64_t bundle_requeues = 0;      ///< fail-closed aborts sent back around
  uint64_t watchdog_stalls = 0;      ///< wall-clock stall episodes flagged
  bool circuit_open = false;

  // --- live-chain staleness (PR 4; zero on a static chain) ---
  uint64_t resyncs = 0;        ///< re-pin passes (delta or same-root) applied
  uint64_t bundle_resims = 0;  ///< outcomes re-executed after a reorg
  uint64_t bundles_stale = 0;  ///< resolved kStale (resim budget exhausted)
  uint64_t store_epoch = 0;    ///< committed epoch of the ORAM store

  // --- crash durability (PR 5; zero without a DurableStore) ---
  uint64_t warm_restarts = 0;       ///< recovered images adopted
  uint64_t bundles_readmitted = 0;  ///< pending bundles re-admitted post-crash
  uint64_t pages_restored = 0;      ///< checkpoint pages bulk-loaded, no proofs
  /// Merkle-verification work across every sync pass (full + delta). The
  /// crash drill's deterministic speedup claim: a warm restart re-verifies
  /// only the crash gap, a cold sync re-verifies the world.
  uint64_t sync_verified_accounts = 0;
  uint64_t sync_verified_slots = 0;
  uint64_t sync_pages_installed = 0;

  struct WorkerStats {
    int worker_id = 0;
    uint64_t bundles = 0;
    uint64_t busy_sim_ns = 0;  ///< sum of this worker's session times
    /// busy_sim_ns relative to the busiest of {sim_makespan_ns, any
    /// worker's busy_sim_ns} — always in [0, 1] even when the pool's real
    /// assignment is more imbalanced than the deterministic schedule.
    double utilization = 0;
  };
  std::vector<WorkerStats> workers;
};

/// What submit() did with a bundle. With the circuit breaker open the bundle
/// is not queued: it resolves immediately as a kUnavailable outcome (still
/// returned by drain(), so every submitted bundle gets exactly one answer).
struct Admission {
  uint64_t bundle_id = 0;
  Status status = Status::kOk;  ///< kOk = queued, kUnavailable = breaker open
};

class PreExecutionEngine {
 public:
  PreExecutionEngine(node::NodeSimulator& node, EngineConfig config);
  ~PreExecutionEngine();

  PreExecutionEngine(const PreExecutionEngine&) = delete;
  PreExecutionEngine& operator=(const PreExecutionEngine&) = delete;

  /// Step 11: verify the node's state and bulk-load it into the ORAM. Also
  /// pins the engine to the node's head snapshot: every session executes
  /// against that immutable snapshot (and its block context) until a
  /// resync() re-pins — never against whatever the node's mutable world
  /// happens to hold mid-bundle. All-or-nothing: a rejected proof anywhere
  /// loads nothing and aborts the epoch, so the call can be retried.
  Status synchronize();

  /// Re-pins the engine to the node's current head: quiesces the pool
  /// (waits for every queued bundle to resolve), delta-syncs the ORAM
  /// against the new trusted root (all-or-nothing; on verification failure
  /// the old pin is kept — fail closed), advances the store epoch, and
  /// deterministically re-executes every recorded outcome whose pinned root
  /// the chain no longer contains. A bundle that exhausts max_resim_attempts
  /// such rounds resolves as kStale. Called automatically at every
  /// admission that finds the pin stale; safe to call manually between
  /// start() and drain(). Serialized against concurrent callers.
  Status resync();

  /// The snapshot sessions are currently pinned to (for tests/benches).
  node::BlockHeader pinned_header() const;
  uint64_t pinned_epoch() const;
  const oram::EpochRegistry& epoch_registry() const { return epoch_registry_; }

  /// Warm restart (PR 5): adopts a crash-recovered store image instead of a
  /// cold synchronize(). Seeds the epoch registry with the recovered
  /// committed history, verifies the gap from the recovered committed root
  /// to the node's head with the normal delta proofs, then bulk-loads the
  /// recovered pages with the gap's pages laid over them (only the gap is
  /// journaled — the image is already durable in the adopted checkpoint)
  /// and pins the head. Falls back: an empty recovered image degenerates to
  /// synchronize(); a recovered root the node no longer holds returns
  /// kNotFound and a gap that fails verification returns its status, both
  /// with nothing loaded, so the caller can cold-sync the same engine. Call
  /// before start(), after the DurableStore adopted the same RecoveredState.
  /// Restores the bundle-id high-water mark so re-admitted and new bundles
  /// keep their crash-free ids.
  Status warm_restart(const durability::RecoveredState& recovered);

  /// Re-admits a recovered pending bundle under its ORIGINAL id at a given
  /// attempt number (the crash drill uses attempt+1: same bundle RNG, fresh
  /// fault/noise streams). Otherwise behaves exactly like submit().
  Admission resubmit(uint64_t bundle_id, std::vector<evm::Transaction> bundle,
                     uint32_t attempt);

  /// Installs the EngineConfig::on_outcome hook after construction (the
  /// front door owns its mailbox only once the engine exists). Must be
  /// called before start(): workers read the hook unsynchronized.
  void set_on_outcome(std::function<void(const SessionOutcome&)> hook);

  /// Spawns the worker pool: per worker, one hypervisor session (secure
  /// channel) and one dedicated HevmCore. Call once, before submit().
  void start();

  /// Enqueues one bundle; blocks when the queue is full (backpressure).
  /// Bundle ids are submission indices. Never blocks indefinitely on a dead
  /// backend: with the circuit breaker open the bundle resolves immediately
  /// as kUnavailable (see Admission). Throws UsageError before start() or
  /// after drain().
  Admission submit(std::vector<evm::Transaction> bundle);

  /// Admits a bundle under a caller-chosen id. The front door pre-assigns
  /// ids in ARRIVAL order at admission time, before any worker touches the
  /// bundle — that pinning is what keeps session outcomes (whose RNG and
  /// fault streams key on the bundle id) independent of worker count and
  /// interleaving. Ids must be unique per engine run; the internal allocator
  /// is kept strictly ahead so interleaved submit() calls never collide.
  /// Otherwise behaves exactly like submit().
  Admission submit_as(uint64_t bundle_id, std::vector<evm::Transaction> bundle);

  /// Closes the queue, waits for every queued bundle to finish, joins the
  /// pool and ends the hypervisor sessions. Returns all outcomes sorted by
  /// bundle id. Idempotent.
  std::vector<SessionOutcome> drain();

  /// Thread-safe at any time (during execution it reports completed-so-far).
  /// Also publishes the snapshot into the engine's obs::Registry, so the
  /// exposition methods below always reflect the latest snapshot taken.
  EngineMetrics snapshot() const;

  /// The engine's unified metrics registry (live instruments plus the last
  /// published snapshot). EngineMetrics is the typed view; this is the
  /// machine-readable surface.
  obs::Registry& metrics_registry() const { return registry_; }
  /// snapshot() + Prometheus text exposition of the registry.
  std::string metrics_prometheus() const;
  /// snapshot() + JSON dump of the registry (for bench/CI artifacts).
  std::string metrics_json() const;

  /// Serial reference: executes the bundles one at a time on this thread
  /// through the exact per-session path the workers run (bundle ids are the
  /// vector indices, matching a submit() of the same bundles in order).
  /// Does not touch the queue, pool or metrics.
  std::vector<SessionOutcome> execute_serial(
      const std::vector<std::vector<evm::Transaction>>& bundles);

  const EngineConfig& config() const { return config_; }
  oram::ShardedOramStore& oram_store() { return oram_store_; }
  hypervisor::Hypervisor& hypervisor() { return hypervisor_; }
  /// The device-key root a user verifies this chip's attestation against.
  const hypervisor::Manufacturer& manufacturer() const { return manufacturer_; }

  /// True once breaker_threshold consecutive attempts died on the backend.
  /// Sticky for the engine's lifetime (quarantine; a real deployment would
  /// re-probe, the model keeps the terminal state observable).
  bool breaker_open() const {
    return breaker_open_.load(std::memory_order_acquire);
  }

 private:
  struct QueueItem {
    uint64_t bundle_id;
    std::vector<evm::Transaction> txs;
    std::chrono::steady_clock::time_point enqueued;
    uint32_t attempt = 0;
  };

  /// Per-worker state. The clock, core and channel are owned by exactly one
  /// worker thread between start() and drain(); bundles/busy_sim_ns are
  /// written under results_mu_.
  struct Worker {
    int id = 0;
    sim::SimClock clock;  ///< reset at each session start (per-session time)
    std::unique_ptr<hevm::HevmCore> core;
    uint32_t session_id = 0;
    hypervisor::SecureChannel* channel = nullptr;  ///< the device's end
    /// The user's end of the same session; set with perform_channel_crypto.
    std::optional<hypervisor::SecureChannel> user_channel;
    std::thread thread;
    uint64_t bundles = 0;
    uint64_t busy_sim_ns = 0;
    Heartbeat heartbeat;           ///< sampled by the watchdog
    obs::TraceRing* trace = nullptr;  ///< this worker's ring (null = off)
  };

  /// The engine-side pin: which immutable chain snapshot sessions read.
  struct PinnedSnapshot {
    uint64_t epoch = 0;
    node::BlockHeader header;
    std::shared_ptr<const state::WorldState> world;
  };

  /// A worker with its own HevmCore and hypervisor session (secure channel),
  /// tracing into `ring` when a sink is set. Draws the session's user key and
  /// nonce from setup_rng_, so creation order is part of determinism.
  std::unique_ptr<Worker> make_worker(int id, int ring);
  /// The one verified sync pass (Fig. 3 step 11) behind synchronize(),
  /// resync() and warm_restart(), and the one place verified pages enter
  /// the ORAM and the journal. `from` is the world the pages start from
  /// (null: nothing, a cold sync); `image` the recovered pages of a warm
  /// restart. Unless `from` is already at `head`, it opens an epoch for
  /// `head` and verifies — the whole world, or the delta from `from` — with
  /// the fault plan's node-feed adversary attached, aborting the epoch on
  /// any failure before anything is installed (fail closed). Then it
  /// journals and tags the staged pages in staging order and installs them:
  /// one bulk load into the fresh tree (with `image` under them), or one
  /// oblivious write each into the live tree of a resync. Commits the epoch
  /// and counts the work.
  Status sync_pass(const node::BlockHeader& head, const state::WorldState* from,
                   const std::map<u256, Bytes>* image);
  /// Throws UsageError unless the engine is between start() and drain().
  void require_accepting() const;
  /// The one admission path behind submit(), submit_as() and resubmit():
  /// keeps the id allocator ahead of bundle_id, writes the durable admit
  /// mark, refuses while the breaker is open, re-pins a stale snapshot, and
  /// queues the bundle at `attempt`.
  Admission admit(uint64_t bundle_id, std::vector<evm::Transaction> bundle,
                  uint32_t attempt);
  void worker_loop(Worker& worker);
  SessionOutcome execute_session(uint64_t bundle_id, uint32_t attempt,
                                 const std::vector<evm::Transaction>& bundle,
                                 Worker& worker);
  /// Pins to the node's head if nothing is pinned yet (engines that skip
  /// synchronize(), e.g. with the ORAM disabled).
  void ensure_pinned();
  /// True when the pinned snapshot violates the staleness policy.
  bool needs_resync() const;
  /// Blocks until every queued bundle has resolved to an outcome.
  void quiesce();
  /// Re-executes recorded outcomes whose pinned root was orphaned (resync
  /// tail; pool quiescent, resync_mu_ held).
  void resimulate_orphans();
  /// Feeds the circuit breaker: backend faults count consecutively, a clean
  /// kOk resets the streak.
  void register_attempt(const SessionOutcome& outcome);
  void record_outcome(SessionOutcome outcome, uint64_t queued_wall_ns, Worker* worker);
  /// Maps an EngineMetrics snapshot onto the registry — the one place where
  /// metric names are bound, so the struct and the exposition cannot drift.
  void publish_metrics(const EngineMetrics& m) const;
  bool oram_enabled() const {
    return config_.security.oram_storage || config_.security.oram_code;
  }

  node::NodeSimulator& node_;
  EngineConfig config_;
  Random setup_rng_;
  hypervisor::Manufacturer manufacturer_;
  hypervisor::Hypervisor hypervisor_;
  /// The partitioned oblivious store (PR 6): a forest of per-shard
  /// (server, client) pairs with per-shard walk locks — OramServer and
  /// OramClient no longer appear as engine members.
  oram::ShardedOramStore oram_store_;

  BoundedQueue<QueueItem> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Watchdog> watchdog_;
  std::atomic<uint64_t> next_bundle_id_{0};
  bool started_ = false;
  bool drained_ = false;

  std::atomic<int> consecutive_backend_faults_{0};
  std::atomic<bool> breaker_open_{false};
  std::atomic<uint64_t> bundle_requeues_{0};

  // --- live-chain pinning (PR 4) ---
  oram::EpochRegistry epoch_registry_;
  mutable std::mutex pin_mu_;  ///< guards pin_ (sessions copy it at start)
  PinnedSnapshot pin_;
  std::mutex resync_mu_;       ///< serializes resync passes
  /// Scratch worker (id -2) that runs re-executions; created on first use.
  std::unique_ptr<Worker> resim_worker_;
  uint64_t sync_passes_ = 0;   ///< fault-plan stream index for node fetches
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> bundle_resims_{0};
  std::atomic<uint64_t> warm_restarts_{0};
  std::atomic<uint64_t> bundles_readmitted_{0};
  std::atomic<uint64_t> pages_restored_{0};
  std::atomic<uint64_t> sync_verified_accounts_{0};
  std::atomic<uint64_t> sync_verified_slots_{0};
  std::atomic<uint64_t> sync_pages_installed_{0};
  /// Summed over every executed session (the EngineMetrics fields of the
  /// same names).
  std::atomic<uint64_t> oram_reads_{0};
  std::atomic<uint64_t> oram_timeouts_{0};
  std::atomic<uint64_t> oram_retries_{0};
  std::atomic<uint64_t> oram_retry_exhausted_{0};

  /// Unified metrics (obs). The latency histogram is a live instrument fed
  /// by record_outcome; scalar snapshot values are published on snapshot().
  mutable obs::Registry registry_;
  obs::Histogram* latency_hist_;  ///< owned by registry_, stable reference

  mutable std::mutex results_mu_;  ///< guards everything below
  std::vector<SessionOutcome> results_;
  /// Queued-but-unresolved bundles; resync()'s quiesce waits on this.
  uint64_t outstanding_ = 0;
  std::condition_variable idle_cv_;
  /// Submitted bundles kept for reorg-triggered re-execution.
  std::unordered_map<uint64_t, std::vector<evm::Transaction>> bundle_txs_;
  /// Re-execution rounds consumed per bundle (the kStale budget).
  std::unordered_map<uint64_t, uint32_t> resims_;
  uint64_t wall_queue_wait_ns_ = 0;
  sim::WallTimer wall_timer_;      ///< restarted at start()
  uint64_t wall_elapsed_ns_ = 0;   ///< frozen at drain()
};

}  // namespace hardtape::service
