#include "durability/checkpoint.hpp"

#include <algorithm>
#include <cstring>

#include "common/codec.hpp"

namespace hardtape::durability::checkpoint {

namespace {

using codec::put_u256;
using codec::put_u32;
using codec::put_u64;
using codec::Reader;

constexpr char kMagic[8] = {'H', 'T', 'C', 'K', 'P', 'T', '0', '1'};
// The full image ("v1") and the manifest ("v2") layouts. Versions 1 to 4
// stay unused: 1 and 2 carried ORAM leaves, 3 and 4 an 8-byte trailer that
// checksummed differently, and load_newest must refuse them like any unknown
// version rather than misparse them.
constexpr uint32_t kVersion = 5;          ///< full image inline
constexpr uint32_t kManifestVersion = 6;  ///< incremental: page locators
constexpr size_t kChecksumSize = 4;

// --- sections shared by the v1 image and the v2 manifest ---

void put_history(Bytes& out, const StoreImage& image) {
  put_u32(out, static_cast<uint32_t>(image.epoch_history.size()));
  for (const auto& pin : image.epoch_history) {
    put_u64(out, pin.epoch);
    out.insert(out.end(), pin.state_root.bytes.begin(), pin.state_root.bytes.end());
    put_u64(out, pin.block_number);
  }
}

void put_page_tags(Bytes& out, const StoreImage& image) {
  put_u32(out, static_cast<uint32_t>(image.page_tags.size()));
  for (const auto& [id, epoch] : image.page_tags) {
    put_u256(out, id);
    put_u64(out, epoch);
  }
}

void put_pending(Bytes& out, const StoreImage& image) {
  put_u32(out, static_cast<uint32_t>(image.pending_bundles.size()));
  for (const uint64_t id : image.pending_bundles) put_u64(out, id);
}

void read_history(Reader& r, StoreImage& image) {
  const uint32_t history_count = r.u32();
  for (uint32_t i = 0; r.ok && i < history_count; ++i) {
    oram::EpochRegistry::Pin pin;
    pin.epoch = r.u64();
    pin.state_root = r.h256();
    pin.block_number = r.u64();
    image.epoch_history.push_back(pin);
  }
}

void read_page_tags(Reader& r, StoreImage& image) {
  const uint32_t tag_count = r.u32();
  for (uint32_t i = 0; r.ok && i < tag_count; ++i) {
    const u256 id = r.big();
    image.page_tags[id] = r.u64();
  }
}

void read_pending(Reader& r, StoreImage& image) {
  const uint32_t pending_count = r.u32();
  for (uint32_t i = 0; r.ok && i < pending_count; ++i) {
    image.pending_bundles.insert(r.u64());
  }
}

/// Magic + trailing checksum; both versions share the frame. Returns the
/// body length (without checksum), or nullopt on violation.
std::optional<size_t> verify_frame(BytesView data) {
  constexpr size_t kMinSize = sizeof(kMagic) + 4 + kChecksumSize;
  if (data.size() < kMinSize) return std::nullopt;
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  const size_t body_len = data.size() - kChecksumSize;
  if (codec::crc32c(data.first(body_len)) != codec::get_u32(data.data() + body_len)) {
    return std::nullopt;
  }
  return body_len;
}

/// The version field of a frame-verified checkpoint file.
uint32_t peek_version(BytesView data) {
  return codec::get_u32(data.data() + sizeof(kMagic));
}

/// The atomic-publish tail shared by write() and write_manifest().
void publish(SimFs& fs, uint64_t generation, const Bytes& serialized) {
  const std::string tmp = checkpoint_path(generation) + ".tmp";
  fs.append(tmp, serialized);
  fs.fsync(tmp);
  fs.rename(tmp, checkpoint_path(generation));
  fs.sync_dir();
  // Only after the new generation is durably published may the one-before-
  // previous be reclaimed; keeping generation-1 around means even a
  // checkpoint whose own bytes were corrupted in flight leaves recovery a
  // complete fallback chain.
  if (generation >= 2) {
    fs.remove(checkpoint_path(generation - 2));
    fs.remove(journal_path(generation - 2));
    fs.sync_dir();
  }
}

}  // namespace

std::string checkpoint_path(uint64_t generation) {
  return "ckpt-" + std::to_string(generation);
}

std::string journal_path(uint64_t generation) {
  return "wal-" + std::to_string(generation);
}

Bytes serialize(uint64_t generation, const StoreImage& image) {
  Bytes out(kMagic, kMagic + sizeof(kMagic));
  put_u32(out, kVersion);
  put_u64(out, generation);
  put_u64(out, image.base_seq);
  put_u64(out, image.next_bundle_id);

  put_history(out, image);
  put_page_tags(out, image);

  put_u32(out, static_cast<uint32_t>(image.pages.size()));
  for (const auto& [id, data] : image.pages) {
    put_u256(out, id);
    put_u32(out, static_cast<uint32_t>(data.size()));
    append(out, data);
  }

  put_pending(out, image);

  put_u32(out, codec::crc32c(out));
  return out;
}

std::optional<StoreImage> parse(BytesView data) {
  const auto body_len = verify_frame(data);
  if (!body_len.has_value()) return std::nullopt;

  Reader r{data.data() + sizeof(kMagic), *body_len - sizeof(kMagic)};
  if (r.u32() != kVersion) return std::nullopt;
  (void)r.u64();  // generation (the filename is authoritative)

  StoreImage image;
  image.base_seq = r.u64();
  image.next_bundle_id = r.u64();

  read_history(r, image);
  read_page_tags(r, image);

  const uint32_t page_count = r.u32();
  for (uint32_t i = 0; r.ok && i < page_count; ++i) {
    const u256 id = r.big();
    image.pages[id] = r.blob();
  }

  read_pending(r, image);

  if (!r.ok || r.remaining != 0) return std::nullopt;
  return image;
}

size_t write(SimFs& fs, uint64_t generation, const StoreImage& image) {
  Bytes serialized = serialize(generation, image);
  const size_t bytes = serialized.size();
  publish(fs, generation, serialized);
  return bytes;
}

Bytes serialize_manifest(uint64_t generation, const Manifest& manifest) {
  Bytes out(kMagic, kMagic + sizeof(kMagic));
  put_u32(out, kManifestVersion);
  put_u64(out, generation);
  put_u64(out, manifest.meta.base_seq);
  put_u64(out, manifest.meta.next_bundle_id);

  put_u32(out, static_cast<uint32_t>(manifest.store_name.size()));
  out.insert(out.end(), manifest.store_name.begin(), manifest.store_name.end());

  put_history(out, manifest.meta);
  put_page_tags(out, manifest.meta);

  put_u32(out, static_cast<uint32_t>(manifest.pages.size()));
  for (const auto& entry : manifest.pages) {
    put_u256(out, entry.id);
    put_u64(out, entry.locator.segment);
    put_u64(out, entry.locator.offset);
    put_u32(out, entry.locator.length);
  }

  put_pending(out, manifest.meta);

  put_u32(out, codec::crc32c(out));
  return out;
}

std::optional<Manifest> parse_manifest(BytesView data) {
  const auto body_len = verify_frame(data);
  if (!body_len.has_value()) return std::nullopt;

  Reader r{data.data() + sizeof(kMagic), *body_len - sizeof(kMagic)};
  if (r.u32() != kManifestVersion) return std::nullopt;
  (void)r.u64();  // generation (the filename is authoritative)

  Manifest manifest;
  manifest.meta.base_seq = r.u64();
  manifest.meta.next_bundle_id = r.u64();

  const Bytes name = r.blob();
  manifest.store_name.assign(name.begin(), name.end());

  read_history(r, manifest.meta);
  read_page_tags(r, manifest.meta);

  const uint32_t page_count = r.u32();
  for (uint32_t i = 0; r.ok && i < page_count; ++i) {
    PageManifestEntry entry;
    entry.id = r.big();
    entry.locator.segment = r.u64();
    entry.locator.offset = r.u64();
    entry.locator.length = r.u32();
    manifest.pages.push_back(entry);
  }

  read_pending(r, manifest.meta);

  if (!r.ok || r.remaining != 0) return std::nullopt;
  return manifest;
}

size_t write_manifest(SimFs& fs, uint64_t generation, const Manifest& manifest) {
  Bytes serialized = serialize_manifest(generation, manifest);
  const size_t bytes = serialized.size();
  publish(fs, generation, serialized);
  return bytes;
}

namespace {

/// Resolves a v2 manifest into a full image: every page is read back from
/// its segment file through the verifying reader. Any unresolvable page —
/// missing segment, torn record, checksum or id mismatch — fails the WHOLE
/// generation: recovery must fall back, never run on a partial image.
std::optional<StoreImage> resolve_manifest(const SimFs& fs, Manifest&& manifest) {
  StoreImage image = std::move(manifest.meta);
  for (const auto& entry : manifest.pages) {
    auto page = pagedstore::PagedStore::read_page_at(fs, manifest.store_name,
                                                     entry.locator, entry.id);
    if (!page.has_value()) return std::nullopt;
    image.pages[entry.id] = std::move(page->payload);
  }
  return image;
}

}  // namespace

std::optional<std::pair<uint64_t, StoreImage>> load_newest(const SimFs& fs) {
  std::vector<uint64_t> generations;
  for (const std::string& name : fs.list()) {
    if (const auto gen = codec::numbered_suffix(name, "ckpt-")) generations.push_back(*gen);
  }
  std::sort(generations.rbegin(), generations.rend());
  for (const uint64_t gen : generations) {
    const auto data = fs.read(checkpoint_path(gen));
    if (!data.has_value()) continue;
    if (!verify_frame(*data).has_value()) continue;
    switch (peek_version(*data)) {
      case kVersion: {
        auto image = parse(*data);
        if (image.has_value()) return std::make_pair(gen, std::move(*image));
        break;
      }
      case kManifestVersion: {
        auto manifest = parse_manifest(*data);
        if (!manifest.has_value()) break;
        auto image = resolve_manifest(fs, std::move(*manifest));
        if (image.has_value()) return std::make_pair(gen, std::move(*image));
        break;
      }
      default:
        break;  // older layout or future version: unreadable evidence, fall back
    }
  }
  return std::nullopt;
}

}  // namespace hardtape::durability::checkpoint
