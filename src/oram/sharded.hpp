// ShardedOramStore: a partitioned oblivious store — the "ORAM wall" breaker.
//
// PR 1-5 funneled every concurrent session through ONE Path ORAM tree behind
// ONE mutex, so wall throughput stayed flat (~51 bundles/s) while sim
// throughput scaled 7x (ROADMAP item 1). Following the partition designs the
// paper's related work points at (Pyramid-style subtree partitioning for
// trusted processors; Tale-of-Two-Trees' split trees for blockchain state),
// this store replaces the single tree with a forest of S independently
// locked Path ORAM subtrees. Concretely it is the SAME structure as one big
// tree whose top log2(S) levels hold no blocks: shard s's root is the s-th
// node at depth log2(S) of the conceptual global tree, and a "global leaf"
// is (shard index || shard-local leaf).
//
// Obliviousness argument (audited by obs::audit_shard_obliviousness and the
// bench_obs per-shard gate):
//  - Every access draws the block's NEXT shard uniformly at random, exactly
//    like Path ORAM redraws the leaf. The adversary therefore observes, per
//    access, one (shard, leaf) pair that is uniform over shards and uniform
//    over that shard's leaves — i.i.d. across accesses, independent of which
//    block was touched. This is precisely the "global uniform leaf" of the
//    unsharded tree, split into its top bits (shard) and low bits (leaf).
//  - The cross-shard handoff is trusted-side only: the departing shard's
//    walk removes the block from its stash/position map (a normal-looking
//    path access), and the destination shard ADOPTS it straight into its
//    stash with no server traffic (OramClient::adopt). Migration therefore
//    costs zero extra walks and leaks nothing — the block surfaces in the
//    destination tree through ordinary evictions of later accesses there.
//  - pin_shard_assignment disables the redraw (a block stays on its first
//    shard forever). That re-introduces exactly the leak sharding threatens:
//    hot pages hammer one fixed shard and the shard-visit histogram goes
//    lumpy. It exists as the audit's ablation — the per-shard auditor must
//    FAIL it — and must never be enabled in deployment configs.
//
// Concurrency contract: accesses to DISTINCT block ids are thread-safe and
// proceed in parallel when they land on distinct shards (per-shard walk
// locks; the shared maps are touched only briefly). Concurrent accesses to
// the SAME id must be serialized by the caller — an access migrates the id's
// shard assignment, so a racing twin could consult a stale assignment. The
// OramFrontend's per-block gate provides exactly that serialization (and
// turns the second request into a rider of the first).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.hpp"
#include "oram/path_oram.hpp"

namespace hardtape::oram {

struct ShardedOramConfig {
  /// Number of independently locked subtrees; power of two. 1 degenerates to
  /// a single tree (same adversary view as the unsharded store).
  size_t shard_count = 8;
  /// Geometry of EACH subtree (see partition() to derive it from a
  /// whole-store geometry).
  OramConfig shard{};
  /// ABLATION ONLY: keep every block on the shard it first landed on instead
  /// of redrawing per access. Leaks the shard-visit histogram (see file
  /// comment); exists so bench_obs can prove the per-shard auditor catches it.
  bool pin_shard_assignment = false;
  /// Optional per-walk tracing (TraceCode::kOramShardAccess, a=shard,
  /// b=shard-local leaf) for the per-partition obliviousness audit.
  obs::TraceRing* trace = nullptr;
};

/// A forest of Path ORAM subtrees behind one OramAccessor face. Thread-safe
/// for distinct ids (see file comment for the same-id contract).
class ShardedOramStore : public OramAccessor {
 public:
  static constexpr uint32_t kNoShard = ~uint32_t{0};

  ShardedOramStore(ShardedOramConfig config, const crypto::AesKey128& seal_key,
                   uint64_t rng_seed, SealMode mode);

  /// Derives the per-shard geometry from a whole-store one: capacity is
  /// split across shards with 2x multinomial slack (block->shard assignment
  /// is a random split, so shards must absorb imbalance), block size, bucket
  /// capacity and stash bound carry over unchanged.
  static ShardedOramConfig partition(const OramConfig& total, size_t shard_count);

  // --- OramAccessor ---
  std::optional<Bytes> read(const BlockId& id) override;
  void write(const BlockId& id, BytesView data) override;
  AccessAttempt try_read(const BlockId& id) override;
  AccessAttempt try_write(const BlockId& id, BytesView data) override;

  /// Checkpoint restore into a FRESH store: pages are partitioned across
  /// shards by fresh uniform draws, then bulk-loaded per shard (one sealed
  /// tree install each — the warm-restart fast path, as in the single tree).
  void bulk_restore(const std::vector<std::pair<BlockId, Bytes>>& pages);

  /// Durability journaling point, forwarded to every shard client: fires per
  /// write()-install with (id, padded data, shard-local leaf). Migration
  /// does not fire it (a cross-shard move is not a logical store mutation).
  void set_install_hook(std::function<void(const BlockId&, BytesView, uint64_t)> hook);

  // --- topology (for the frontend's per-shard accounting) ---
  size_t shard_count() const { return shards_.size(); }
  /// The shard currently holding `id`, or kNoShard for an unknown id.
  uint32_t shard_of(const BlockId& id) const;
  /// Leaves per shard (uniform across shards by construction).
  size_t leaf_count() const;
  const OramServer& server(size_t shard) const;
  size_t block_count() const;
  bool stash_overflowed() const;

  // --- statistics & the adversary's view ---
  struct ShardStats {
    uint64_t walks = 0;           ///< path accesses served by this subtree
    uint64_t migrations_in = 0;   ///< blocks adopted from other shards
    uint64_t stall_ns = 0;        ///< wall ns callers waited for the walk lock
    std::vector<uint64_t> stall_samples;  ///< per-walk lock waits (for p50/p99)
    size_t stash_size = 0;
    size_t stash_high_water = 0;
    size_t inbox_high_water = 0;  ///< deepest pending-handoff backlog
  };
  struct Stats {
    std::vector<ShardStats> shards;
    uint64_t total_walks = 0;
    uint64_t total_migrations = 0;
    /// High-water of walks in flight simultaneously (proof of parallelism on
    /// multicore hosts; always >= 1 after any access).
    uint64_t max_concurrent_walks = 0;
  };
  Stats snapshot() const;

  /// Every walk as (shard, shard-local leaf) in global observation order —
  /// what the SP sees. Merged from per-shard logs by a global sequence
  /// number, so no shared append bottleneck sits on the walk path.
  std::vector<std::pair<uint32_t, uint64_t>> observed_walks() const;
  void clear_observations();

 private:
  struct Shard {
    std::unique_ptr<OramServer> server;
    std::unique_ptr<OramClient> client;
    std::mutex walk_mu;  ///< serializes path walks on this subtree
    /// Blocks handed off from other shards, adopted at the next walk.
    /// Guarded by inbox_mu; never held while taking any other lock.
    std::mutex inbox_mu;
    std::vector<std::pair<BlockId, Bytes>> inbox;
    // Stats and the walk log are written under walk_mu.
    uint64_t walks = 0;
    uint64_t migrations_in = 0;
    uint64_t stall_ns = 0;
    std::vector<uint64_t> stall_samples;
    size_t inbox_high_water = 0;
    std::vector<std::pair<uint64_t, uint64_t>> walk_log;  ///< (global seq, leaf)
  };

  /// Current shard of `id` plus the freshly drawn destination shard for this
  /// access (equal to the current one under pin_shard_assignment).
  std::pair<uint32_t, uint32_t> route(const BlockId& id);
  /// Runs `fn(client)` under the shard's walk lock, timing the lock wait,
  /// draining the handoff inbox first and logging the observed leaf.
  void walk(uint32_t shard, const std::function<void(OramClient&)>& fn);
  void drain_inbox(Shard& shard);
  void hand_off(const BlockId& id, Bytes data, uint32_t to_shard);

  ShardedOramConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex map_mu_;  ///< guards shard_of_ and map_rng_
  std::unordered_map<BlockId, uint32_t, U256Hasher> shard_of_;
  Random map_rng_;
  std::atomic<uint64_t> walk_seq_{0};
  std::atomic<uint64_t> walks_in_flight_{0};
  std::atomic<uint64_t> max_concurrent_walks_{0};
};

}  // namespace hardtape::oram
