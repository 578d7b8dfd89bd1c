// Path ORAM (Stefanov & Shi) over fixed-size pages — the backbone of
// HarDTAPE's world-state access-pattern protection (paper Section IV-D).
//
// Client/server split per the paper: the SP runs the OramServer (the bucket
// tree, stored encrypted); the trusted Hypervisor embeds the OramClient
// (stash + position map, kept on-chip). What the adversary observes is the
// server side only: a sequence of uniformly random root-to-leaf paths, each
// read and rewritten in full with freshly re-encrypted slots — independent
// of which logical page was touched (threat A7). An AEAD seal on every slot
// gives confidentiality and integrity (threat A6), replacing per-query
// Merkle proofs. The paper seals with AES-GCM; this reproduction seals with
// ChaCha20-Poly1305 (RFC 8439), one keystream pass per slot, because slot
// sealing is nearly all of the host's ORAM time and the figures come from
// the cost models, not from host crypto speed (DESIGN.md §1).
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
#include "crypto/aes.hpp"
#include "pagedstore/buffer_pool.hpp"

namespace hardtape::durability {
class SimFs;
}

namespace hardtape::oram {

using BlockId = u256;

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
  obs::Registry* registry = nullptr;  ///< pool metrics (optional)
};

/// Slot sealing. There is one seal: ChaCha20-Poly1305 (RFC 8439) with empty
/// additional data, a fresh 12-byte nonce from the client's DRBG, and the
/// 16-byte seal key followed by 16 zero bytes as the ChaCha20 key (128-bit
/// security, like the paper's AES-128-GCM). The enum keeps its one value
/// under its old name, and seal_slot, open_slot and EngineConfig::seal_mode
/// keep their mode parameter, because the end-to-end benchmark (perfbench/)
/// names them; retiring them changes that benchmark. Test ids print the
/// value (oram_test's "GetParam() = 1-byte object <01>"), hence the = 1.
enum class SealMode : uint8_t { kChaChaHmac = 1 };

struct SealedSlot {
  std::array<uint8_t, 12> nonce{};
  std::array<uint8_t, 16> tag{};
  Bytes ciphertext;
};

SealedSlot seal_slot(SealMode mode, const crypto::AesKey128& key, Random& rng,
                     BytesView plaintext);
/// Returns nullopt when the tag fails to verify (tampered slot).
std::optional<Bytes> open_slot(SealMode mode, const crypto::AesKey128& key,
                               const SealedSlot& slot);

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
  /// Checkpoint restore (PR 5): replaces the entire tree in one bulk load
  /// (`slots` in bucket-major order, bucket_count()*Z entries). A restore is
  /// a single public event — it is not an access and reveals no per-path
  /// information, so it is not added to the adversary's observed-leaf trace.
  void load_slots(std::vector<SealedSlot> slots);

  // --- the adversary's view / statistics ---
  const std::vector<uint64_t>& observed_leaves() const { return observed_leaves_; }
  uint64_t access_count() const { return access_count_; }
  /// Total bytes moved over the link per access (both directions).
  uint64_t bytes_per_access() const;
  uint64_t storage_bytes() const;
  void clear_observations() { observed_leaves_.clear(); }
  /// Buffer-pool statistics of the paged slot backend; nullopt under kRam.
  std::optional<pagedstore::BufferPoolStats> slot_pool_stats() const;

 private:
  // Heap-style bucket index of the level-`level` ancestor of `leaf`.
  size_t bucket_index(uint64_t leaf, size_t level) const {
    return ((leaf_count_ + leaf) >> (depth_ - level)) - 1;
  }

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
/// wraps it (the concurrency frontend in oram/frontend.hpp). Callers that
/// only need read/write — the paged world state, block synchronization —
/// take this instead of a concrete OramClient so the same code runs both
/// single-threaded (straight to the client) and under the multi-session
/// engine (serialized through the frontend).
class OramAccessor {
 public:
  virtual ~OramAccessor() = default;
  /// Reads a block; nullopt when the id was never written.
  virtual std::optional<Bytes> read(const BlockId& id) = 0;
  /// Writes (installs or updates) a block.
  virtual void write(const BlockId& id, BytesView data) = 0;

  /// Fault-aware single attempt. The defaults treat the backend as reliable;
  /// wrappers that model (FaultyOram) or experience (OramClient, which maps
  /// IntegrityError to kAuthFailed) an unreliable backend override these.
  virtual AccessAttempt try_read(const BlockId& id) {
    return AccessAttempt{Status::kOk, read(id), 0};
  }
  virtual AccessAttempt try_write(const BlockId& id, BytesView data) {
    write(id, data);
    return AccessAttempt{};
  }
};

/// The trusted client: stash and position map (on-chip in HarDTAPE, as part
/// of the Hypervisor). Every read() and write() performs one full Path ORAM
/// access: path read, remap, evict, path re-write. NOT thread-safe: the
/// stash and position map are single state machines — concurrent sessions
/// must go through an OramFrontend.
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
  std::optional<Bytes> read(const BlockId& id) override;
  /// Writes (installs or updates) a block. `data` must be <= block_size and
  /// is zero-padded to it.
  void write(const BlockId& id, BytesView data) override;
  /// Value-typed variants for the recovery layer: integrity failures come
  /// back as kAuthFailed instead of a thrown IntegrityError.
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
  /// is zero-padded to it. Does not fire the install hook (migration moves a
  /// page between trees; it does not change the logical store).
  void adopt(const BlockId& id, Bytes data);
  /// Checkpoint restore (PR 5): installs `pages` into a FRESH client (throws
  /// UsageError otherwise) without paying one full path access per page.
  /// Every page draws a fresh uniform leaf — positions are never carried
  /// across a crash, so obliviousness cannot come to depend on a recovered
  /// position map — and is placed into the deepest non-full bucket on its
  /// path (overflow falls back to the stash). Each slot is sealed exactly
  /// once and the tree is handed to the server as one bulk load, which is
  /// what makes a warm restart cheaper than a cold re-sync. Fires neither
  /// the access hook (a restore is not an access) nor the install hook (the
  /// pages are already durable in the checkpoint being restored).
  void bulk_restore(const std::vector<std::pair<BlockId, Bytes>>& pages);
  bool contains(const BlockId& id) const { return position_.contains(id); }

  size_t block_count() const { return position_.size(); }
  size_t stash_size() const { return stash_.size(); }
  size_t stash_high_water() const { return stash_high_water_; }
  /// Set when the stash ever exceeded max_stash_blocks (a real deployment
  /// would halt; we record and continue so tests can measure the tail).
  bool stash_overflowed() const { return stash_overflowed_; }

  /// Callback fired once per ORAM access (for timing models / schedulers).
  void set_access_hook(std::function<void()> hook) { access_hook_ = std::move(hook); }

  /// Callback fired once per write()-style install/update, AFTER the block
  /// is remapped: (id, block-size-padded contents, new leaf). This is the
  /// durability layer's journaling point — it observes the logical store
  /// mutation, never the oblivious path traffic.
  void set_install_hook(std::function<void(const BlockId&, BytesView, uint64_t)> hook) {
    install_hook_ = std::move(hook);
  }

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

  OramServer& server_;
  crypto::AesKey128 key_;
  SealMode mode_;
  Random rng_;
  std::unordered_map<BlockId, uint64_t, U256Hasher> position_;
  std::unordered_map<BlockId, StashEntry, U256Hasher> stash_;
  size_t stash_high_water_ = 0;
  bool stash_overflowed_ = false;
  std::function<void()> access_hook_;
  std::function<void(const BlockId&, BytesView, uint64_t)> install_hook_;
};

}  // namespace hardtape::oram
