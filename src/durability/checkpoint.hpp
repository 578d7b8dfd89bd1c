// Checkpoint snapshots of the durable ORAM store image.
//
// A checkpoint bounds recovery time: instead of replaying the journal from
// genesis, recovery loads the newest VALID checkpoint and replays only the
// journal generations written after it. The write protocol is the classic
// atomic-publish sequence over the SimFs crash model:
//
//   serialize -> append ckpt-<g>.tmp -> fsync(tmp) -> rename(tmp, ckpt-<g>)
//   -> sync_dir()
//
// A crash anywhere in that sequence leaves either the previous checkpoint
// generation intact (rename/dir-sync not yet durable) or the new one fully
// durable — never a half-written file under the published name. The
// previous generation's files are removed only AFTER the new publication is
// dir-synced, so at every instant at least one complete (checkpoint,
// journal-chain) pair exists on disk.
//
// The image itself carries a trailing CRC-32C (common/codec.hpp); a
// checkpoint that fails it (possible when its own tmp-write crashed AND the
// rename leaked through a reordered metadata journal) is skipped and
// recovery falls back to the previous generation — fail closed, same
// discipline as the journal.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "durability/vfs.hpp"
#include "oram/epoch.hpp"
#include "pagedstore/store.hpp"

namespace hardtape::durability {

/// The full durable image of the store: everything recovery needs to rebuild
/// the chip-side registry and reinstall the ORAM without re-verifying the
/// world from the node. Ordered containers throughout so serialization (and
/// hence the checksum) is a pure function of the logical content. It holds
/// no ORAM position: reinstall draws fresh leaves, and a leaf on the
/// operator's disk would name the page behind its next walk (journal.hpp).
struct StoreImage {
  uint64_t base_seq = 0;  ///< next journal sequence at snapshot time
  std::vector<oram::EpochRegistry::Pin> epoch_history;  ///< committed only
  std::map<u256, uint64_t> page_tags;
  std::map<u256, Bytes> pages;  ///< block-size-padded page contents
  std::set<uint64_t> pending_bundles;  ///< admitted, not yet resolved
  uint64_t next_bundle_id = 0;
};

namespace checkpoint {

std::string checkpoint_path(uint64_t generation);
std::string journal_path(uint64_t generation);

Bytes serialize(uint64_t generation, const StoreImage& image);
/// nullopt on any structural or checksum violation — never a partial image.
std::optional<StoreImage> parse(BytesView data);

/// Publishes `image` as generation `generation` with the atomic-rename
/// sequence above, then garbage-collects generation-2 files. Returns the
/// checkpoint's serialized size (the full-image write cost).
size_t write(SimFs& fs, uint64_t generation, const StoreImage& image);

// --- v2: incremental (CoW) checkpoint manifests (DESIGN.md §16) ---
//
// A v2 checkpoint does not re-serialize page payloads: they already live in
// a pagedstore::PagedStore's segment files (appended when dirty pages were
// flushed or evicted). The checkpoint file is a MANIFEST — the image's
// metadata plus one locator per page — so publishing costs O(dirty pages +
// metadata), not O(state). load_newest resolves the locators fail-closed
// (page checksum + id re-verified); a manifest pointing at a torn or
// missing segment record invalidates that generation and recovery falls
// back, exactly like a corrupt v1 image.

/// Where one page's payload lives at snapshot time.
struct PageManifestEntry {
  u256 id;
  pagedstore::PageLocator locator;
};

struct Manifest {
  StoreImage meta;  ///< `pages` values empty: the payloads live in segments
  std::string store_name;  ///< the PagedStore's segment-file prefix
  std::vector<PageManifestEntry> pages;  ///< id-ordered
};

Bytes serialize_manifest(uint64_t generation, const Manifest& manifest);
/// nullopt on any structural/checksum violation or a non-v2 version.
std::optional<Manifest> parse_manifest(BytesView data);
/// Publishes a v2 manifest with the same atomic-rename sequence and
/// generation GC as write(). Segment GC is the caller's job (the segments a
/// retired manifest referenced may still back the surviving one). Returns
/// the manifest's serialized size.
size_t write_manifest(SimFs& fs, uint64_t generation, const Manifest& manifest);

/// Loads the newest generation whose checkpoint file parses and verifies.
/// v2 manifests are resolved against their segment files; any unresolvable
/// page fails the whole generation (fall back, never a partial image).
std::optional<std::pair<uint64_t, StoreImage>> load_newest(const SimFs& fs);

}  // namespace checkpoint

}  // namespace hardtape::durability
