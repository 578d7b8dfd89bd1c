// Path ORAM (Stefanov & Shi) over fixed-size pages — the backbone of
// HarDTAPE's world-state access-pattern protection (paper Section IV-D).
//
// Client/server split per the paper: the SP runs the OramServer (the bucket
// tree, stored encrypted); the trusted Hypervisor embeds the OramClient
// (stash, position map and a one-byte fill count per bucket, kept on-chip).
// What the adversary observes is the server side only: a sequence of
// uniformly random root-to-leaf paths, each read and rewritten in full with
// fresh bytes in every slot — independent of which logical page was touched
// (threat A7). An AEAD seal on every slot that holds a block gives
// confidentiality and integrity (threat A6), replacing per-query Merkle
// proofs. The paper seals with AES-GCM; this reproduction seals with
// ChaCha20-Poly1305 (RFC 8439), one keystream pass per slot, because slot
// sealing is nearly all of the host's ORAM time and the figures come from
// the cost models, not from host crypto speed (DESIGN.md §1).
//
// Free slots (DESIGN.md §10): a bucket's blocks sit in its first `fill`
// slots, and the client keeps that count. A walk opens only those and fails
// closed when one is empty, mis-sized or fails its tag; every other slot it
// writes is a free slot — a fresh nonce and ChaCha20 keystream of the sealed
// shape, never opened, so altering one changes nothing the client reads.
// The SP sees the same paths, slot shapes and fresh bytes as with a sealed
// dummy in every free slot.
//
// The block size is 1 KB (the paper's page size): large enough for the
// O(log^2 n)-bit bound that makes the bandwidth overhead O(log n), and equal
// for code pages and storage-record groups so response *types* are
// indistinguishable.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "common/random.hpp"
#include "common/u256.hpp"
#include "crypto/chacha20_poly1305.hpp"
#include "pagedstore/buffer_pool.hpp"

namespace hardtape::durability {
class SimFs;
}

namespace hardtape::oram {

using BlockId = u256;
/// (id, contents) pairs: what a sync pass stages and a bulk load fills.
using Pages = std::vector<std::pair<BlockId, Bytes>>;

class SlotStore;

/// Where the server's bucket tree lives (DESIGN.md §16). kRam is the seed's
/// flat in-memory vector; kPaged puts each bucket on a checksummed page
/// behind a bounded buffer pool over a SimFs, so the tree can be 10-100x
/// larger than the RAM budget.
enum class SlotBackend : uint8_t { kRam, kPaged };

struct OramConfig {
  size_t block_size = 1024;       ///< paper: 1 KB pages
  size_t bucket_capacity = 4;     ///< Z
  size_t capacity = 4096;         ///< logical blocks the tree must hold
  size_t max_stash_blocks = 256;  ///< on-chip stash bound (~O(log n) pages)
  // --- slot backend (fields below only matter under kPaged) ---
  SlotBackend backend = SlotBackend::kRam;
  durability::SimFs* backing_fs = nullptr;  ///< required for kPaged
  /// Hard RAM cap in buckets; raised to the walk working set (depth+1 plus
  /// slack) when set lower.
  size_t buffer_pool_pages = 64;
  std::string backing_name = "oram";  ///< segment file prefix
};

/// Slot sealing. There is one seal: ChaCha20-Poly1305 (RFC 8439) with empty
/// additional data, a fresh 12-byte nonce from the client's DRBG, and the
/// 16-byte seal key in the repo's one key layout (crypto::chacha_key). The
/// enum keeps its one value under its old name, and seal_slot, open_slot and
/// EngineConfig::seal_mode keep their mode parameter, because the end-to-end
/// benchmark (perfbench/) names them; retiring them changes that benchmark.
/// Test ids print the value (oram_test's "GetParam() = 1-byte object <01>"),
/// hence the = 1.
enum class SealMode : uint8_t { kChaChaHmac = 1 };

struct SealedSlot {
  std::array<uint8_t, 12> nonce{};
  std::array<uint8_t, 16> tag{};
  Bytes ciphertext;
};

/// Ciphertext bytes of every sealed and free slot: the 32-byte block id,
/// then the block zero-padded to `block_size`.
constexpr size_t slot_ciphertext_bytes(size_t block_size) { return 32 + block_size; }
/// Bytes of one slot as the SP stores and ships it: nonce, tag, ciphertext.
/// The link model (OramServer::bytes_per_access) and the paged bucket page
/// (PagedSlotStore::bucket_page_bytes) are both sized from it.
constexpr size_t sealed_slot_bytes(size_t block_size) {
  return sizeof(SealedSlot::nonce) + sizeof(SealedSlot::tag) +
         slot_ciphertext_bytes(block_size);
}

SealedSlot seal_slot(SealMode mode, const crypto::AesKey128& key, Random& rng,
                     BytesView plaintext);
/// Returns nullopt when the tag fails to verify (tampered slot).
std::optional<Bytes> open_slot(SealMode mode, const crypto::AesKey128& key,
                               const SealedSlot& slot);

/// The bulk-load region order (OramClient::bulk_load): whole levels from the
/// root down, each level's buckets in bit-reversed order, so a region that
/// ends partway through a level spreads over it evenly. Maps region index
/// `index` to its heap bucket index; the map is its own inverse, so it also
/// takes a heap bucket to its region index.
size_t region_bucket(size_t index);

/// The untrusted server: a complete binary tree of buckets holding opaque
/// sealed slots. Records everything an adversary in the SP's position could
/// observe (the leaf/path sequence and access count).
class OramServer {
 public:
  explicit OramServer(const OramConfig& config);
  ~OramServer();
  OramServer(OramServer&&) = delete;
  OramServer& operator=(OramServer&&) = delete;

  size_t depth() const { return depth_; }            ///< levels - 1
  size_t leaf_count() const { return leaf_count_; }
  size_t bucket_count() const { return 2 * leaf_count_ - 1; }
  const OramConfig& config() const { return config_; }

  /// Reads all Z*(depth+1) slots on the path to `leaf`, root first.
  std::vector<SealedSlot> read_path(uint64_t leaf);
  /// Replaces the path with re-encrypted slots (same shape as read_path).
  void write_path(uint64_t leaf, std::vector<SealedSlot> slots);
  /// Bulk load (OramClient::bulk_load): writes the first k buckets in region
  /// order (region_bucket), Z slots each, for some k in 1..bucket_count(),
  /// and leaves every other bucket never-written. A load is not an access:
  /// it adds nothing to the observed-leaf trace.
  void load_slots(std::vector<SealedSlot> slots);

  // --- the adversary's view / statistics ---
  const std::vector<uint64_t>& observed_leaves() const { return observed_leaves_; }
  uint64_t access_count() const { return access_count_; }
  /// Total bytes moved over the link per access (both directions).
  uint64_t bytes_per_access() const;
  void clear_observations() { observed_leaves_.clear(); }
  /// One bucket's Z slots as the SP stores them (heap index). Not an access:
  /// it records nothing. Never-written slots have empty ciphertext.
  std::vector<SealedSlot> stored_bucket(size_t bucket) const;
  /// Buffer-pool statistics of the paged slot backend; nullopt under kRam.
  std::optional<pagedstore::BufferPoolStats> slot_pool_stats() const;
  /// Heap-style bucket index of the level-`level` ancestor of `leaf`.
  size_t bucket_index(uint64_t leaf, size_t level) const {
    return ((leaf_count_ + leaf) >> (depth_ - level)) - 1;
  }

 private:
  OramConfig config_;
  size_t depth_;
  size_t leaf_count_;
  std::unique_ptr<SlotStore> store_;  ///< bucket tree (RAM or paged)
  std::vector<uint64_t> observed_leaves_;
  uint64_t access_count_ = 0;
};

/// One attempt against the untrusted backend, as the recovery layer above
/// sees it. The untrusted boundary (paper §III: the SP owns the server and
/// the link) means an attempt can fail in ways distinct from "not found":
///  - kTimeout: no response arrived within the request timeout (dropped or
///    over-delayed frame),
///  - kAuthFailed: a response arrived but a slot's Poly1305 tag rejected it
///    (tampered page),
///  - kBadProof: a response carried a stale/inconsistent proof.
/// kOk with nullopt data is a proven-absent block (dummy access completed).
struct AccessAttempt {
  Status status = Status::kOk;
  std::optional<Bytes> data;    ///< meaningful only when status == kOk
  uint64_t sim_delay_ns = 0;    ///< extra simulated latency this attempt cost
};

/// Block-level access interface shared by the OramClient and anything that
/// wraps it (the adversary in faults/faulty_oram.hpp, the sharded store in
/// oram/sharded.hpp). Callers that only need page reads and writes — the
/// session's state reader, the engine's sync pass — take this instead of a
/// concrete OramClient so the same code runs both single-threaded (straight
/// to the client) and under the multi-session engine (on the sharded store,
/// which locks itself). Every access is one attempt whose status is the one
/// failure channel: a caller decides what a non-kOk attempt means to it
/// (the state reader retries timeouts and fails closed on the rest).
class OramAccessor {
 public:
  virtual ~OramAccessor() = default;
  /// Reads a block; kOk with nullopt data when the id was never written.
  virtual AccessAttempt try_read(const BlockId& id) = 0;
  /// Writes (installs or updates) a block.
  virtual AccessAttempt try_write(const BlockId& id, BytesView data) = 0;
};

/// The trusted client: stash and position map (on-chip in HarDTAPE, as part
/// of the Hypervisor). Every read() and write() performs one full Path ORAM
/// access: path read, remap, evict, path re-write. NOT thread-safe: the
/// stash and position map are single state machines — concurrent sessions
/// go through a ShardedOramStore, which serializes each shard's client.
class OramClient : public OramAccessor {
 public:
  /// `seal_key` seals every slot; `rng_seed` seeds the DRBG that draws the
  /// leaves and the seal nonces. A restarted deployment must never seal
  /// under a (key, nonce) pair it used before, so the engine hands each boot
  /// its own key (Hypervisor::oram_seal_key).
  OramClient(OramServer& server, const crypto::AesKey128& seal_key,
             uint64_t rng_seed, SealMode mode);

  /// Reads a block; nullopt when the id was never written. Throws
  /// IntegrityError when the server returned a tampered slot or lost a
  /// mapped block.
  std::optional<Bytes> read(const BlockId& id);
  /// Writes (installs or updates) a block. `data` must be <= block_size and
  /// is zero-padded to it.
  void write(const BlockId& id, BytesView data);
  /// The OramAccessor variants: integrity failures come back as kAuthFailed
  /// instead of a thrown IntegrityError.
  AccessAttempt try_read(const BlockId& id) override;
  AccessAttempt try_write(const BlockId& id, BytesView data) override;
  /// One ORAM access that reads the block and replaces it with
  /// mutate(previous) — the read-modify-write the recursive position map
  /// needs to stay at one access per level. `previous` is nullopt for a
  /// never-written id; the returned bytes are padded to block_size.
  std::optional<Bytes> read_modify_write(
      const BlockId& id, const std::function<Bytes(std::optional<Bytes>)>& mutate);
  /// One full, normal-looking path access that returns the block's data and
  /// REMOVES it from this client (position map + stash). The adversary sees
  /// the same single path read+rewrite as any other access; only the trusted
  /// side forgets the block. This is the out-migration half of a cross-shard
  /// move in the sharded store (oram/sharded.hpp). Returns nullopt (after a
  /// dummy access) for an id this client never held.
  std::optional<Bytes> access_remove(const BlockId& id);
  /// Installs a block straight into the stash under a fresh uniform leaf
  /// WITHOUT touching the server — no path access, nothing the adversary can
  /// observe. The in-migration half of a cross-shard move: the handoff is
  /// trusted-side state only, and the block surfaces on the server through
  /// ordinary evictions of later accesses. `data` must be <= block_size and
  /// is zero-padded to it.
  void adopt(const BlockId& id, Bytes data);
  /// Fills a FRESH client's tree (throws UsageError otherwise) without one
  /// path access per page; the one way a tree is filled, from a cold sync
  /// or a recovered image alike. The load rule:
  ///  1. every page draws a fresh uniform leaf (positions are never carried
  ///     across a crash);
  ///  2. the fill region is the first k buckets in region order
  ///     (region_bucket), k the fewest whose Z*k slots hold 1.25x
  ///     `sized_for` pages (at least 1, capped at the whole tree);
  ///  3. each page goes into the deepest bucket on its path inside the
  ///     region, the stash when that part of the path is full;
  ///  4. each page is sealed once, from slot 0 of its bucket, and every
  ///     other region slot is a free slot (fresh keystream, never opened);
  ///  5. only the region goes to the server; the other buckets stay
  ///     never-written, as in a fresh tree.
  /// So what the SP sees depends on `sized_for` and the geometry alone —
  /// never on where the leaves fell, which would mark the first touch of a
  /// loaded page apart from a miss. `sized_for` defaults to pages.size(); a
  /// sharded store passes its per-shard share of the total. Not an access:
  /// no observed leaf.
  void bulk_load(const Pages& pages, std::optional<size_t> sized_for = std::nullopt);
  bool contains(const BlockId& id) const { return position_.contains(id); }

  size_t block_count() const { return position_.size(); }
  size_t stash_size() const { return stash_.size(); }
  size_t stash_high_water() const { return stash_high_water_; }
  /// Set when the stash ever exceeded max_stash_blocks (a real deployment
  /// would halt; we record and continue so tests can measure the tail).
  bool stash_overflowed() const { return stash_overflowed_; }

 private:
  struct StashEntry {
    Bytes data;
    uint64_t leaf;
  };

  // One full access; returns the (pre-update) block data if present.
  // When `mutate` is set it computes the new contents from the old. When
  // `remove` is set the block is dropped from the stash and position map
  // after the path is read (the path rewrite stays indistinguishable).
  std::optional<Bytes> access(const BlockId& id, const Bytes* new_data,
                              const std::function<Bytes(std::optional<Bytes>)>* mutate = nullptr,
                              bool remove = false);
  void evict_along_path(uint64_t leaf);
  /// Opens a slot its bucket's fill count says holds a block; throws
  /// IntegrityError when the SP emptied, resized or altered it.
  Bytes open_block(const SealedSlot& slot) const;

  OramServer& server_;
  crypto::AesKey128 key_;
  SealMode mode_;
  Random rng_;
  /// Per heap bucket, how many of its Z slots hold blocks: slots [0, fill),
  /// since eviction and bulk_load fill a bucket from slot 0. Every other slot
  /// is free. Trusted state beside the position map, one byte per bucket.
  std::vector<uint8_t> fill_;
  std::unordered_map<BlockId, uint64_t, U256Hasher> position_;
  std::unordered_map<BlockId, StashEntry, U256Hasher> stash_;
  size_t stash_high_water_ = 0;
  bool stash_overflowed_ = false;
};

}  // namespace hardtape::oram
