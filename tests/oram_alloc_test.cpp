// Heap allocations of an ORAM read walk, counted by a replaced global
// operator new. It is its own executable so that the counter sees nothing
// but this test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "crypto/keccak.hpp"
#include "oram/path_oram.hpp"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hardtape::oram {
namespace {

BlockId bid(uint64_t n) { return crypto::keccak256(u256{n}.to_be_bytes_vec()).to_u256(); }

// A walk reads and rewrites its path in place (DESIGN.md §10): it copies no
// slot out of the tree or back, zero-fills no free slot and allocates for
// the blocks it stashes, not for the slots it rewrites. At the geometry of
// the end-to-end benchmark's shards a read walk rewrites 48 slots and meets
// about 5.5 blocks; copying the path cost 117 allocations a walk.
TEST(OramAllocations, AWarmReadWalkAllocatesFewerTimesThanItHasSlots) {
  OramServer server(OramConfig{.block_size = 1024, .bucket_capacity = 4, .capacity = 2048});
  crypto::AesKey128 key{};
  key[0] = 1;
  OramClient client(server, key, /*rng_seed=*/175, SealMode::kChaChaHmac);
  constexpr uint64_t kPages = 175;
  Pages pages;
  Random contents(1);
  for (uint64_t i = 0; i < kPages; ++i) pages.emplace_back(bid(i), contents.bytes(1024));
  client.bulk_load(pages);
  const size_t slots_per_walk = (server.depth() + 1) * server.config().bucket_capacity;
  ASSERT_EQ(slots_per_walk, 48u);

  Random rng(2);
  for (int walk = 0; walk < 1000; ++walk) (void)client.read(bid(rng.uniform(kPages)));
  constexpr int kWalks = 5000;
  const uint64_t before = g_allocations.load();
  size_t found = 0;
  for (int walk = 0; walk < kWalks; ++walk) found += client.read(bid(rng.uniform(kPages))) ? 1 : 0;
  const double per_walk = static_cast<double>(g_allocations.load() - before) / kWalks;
  EXPECT_EQ(found, static_cast<size_t>(kWalks));
  EXPECT_LT(per_walk, static_cast<double>(slots_per_walk));
  std::printf("heap allocations per read walk: %.1f\n", per_walk);
}

}  // namespace
}  // namespace hardtape::oram
