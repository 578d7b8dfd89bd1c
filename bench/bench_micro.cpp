// Wall-clock microbenchmarks (google-benchmark) of the real substrate —
// demonstrating that the cryptography, ORAM and EVM in this repository are
// actual implementations, not stubs. Reported times are host times and are
// NOT the paper's numbers (those come from the simulated cost models; see
// DESIGN.md §1). All standard --benchmark_* flags apply (CI perf-smoke
// relies on them).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/codec.hpp"
#include "common/random.hpp"
#include "crypto/chacha20_poly1305.hpp"
#include "crypto/keccak.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "evm/assembler.hpp"
#include "evm/interpreter.hpp"
#include "oram/path_oram.hpp"
#include "state/overlay.hpp"
#include "trie/mpt.hpp"

namespace {

using namespace hardtape;

// The sizes the system hashes: a storage key or SHA3 word, one rate block,
// 1 KiB, and about one paged ORAM bucket record (4 sealed 1,088-byte slots
// plus a 40-byte id and generation).
void BM_Keccak256(benchmark::State& state) {
  const Bytes data = Random(1).bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::keccak256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(32)->Arg(136)->Arg(1024)->Arg(4392);

// The checksum on every page, journal and checkpoint record, at the same
// sizes as BM_Keccak256 so the two read side by side.
void BM_Crc32c(benchmark::State& state) {
  const Bytes data = Random(1).bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(codec::crc32c(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(32)->Arg(136)->Arg(1024)->Arg(4392);

void BM_Sha256_1KB(benchmark::State& state) {
  const Bytes data = Random(2).bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

// The channel's seal shape: a 1 KB body with the 32-byte frame header as
// additional data.
void BM_Aead_Seal1KB(benchmark::State& state) {
  const crypto::ChaChaKey key = crypto::chacha_key(crypto::AesKey128{});
  const crypto::ChaChaNonce nonce{};
  const Bytes header = Random(4).bytes(32);
  Bytes data = Random(3).bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::chacha20_poly1305_seal(key, nonce, header, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Aead_Seal1KB);

void BM_EcdsaSign(benchmark::State& state) {
  const crypto::PrivateKey key(u256{12345});
  const H256 digest = crypto::keccak256("benchmark");
  for (auto _ : state) benchmark::DoNotOptimize(key.sign(digest));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const crypto::PrivateKey key(u256{12345});
  const H256 digest = crypto::keccak256("benchmark");
  const auto sig = key.sign(digest);
  const auto pub = key.public_key();
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ecdsa_verify(pub, digest, sig));
}
BENCHMARK(BM_EcdsaVerify);

void BM_U256_MulMod(benchmark::State& state) {
  const u256 a = crypto::keccak256("a").to_u256();
  const u256 b = crypto::keccak256("b").to_u256();
  const u256 m = crypto::keccak256("m").to_u256();
  for (auto _ : state) benchmark::DoNotOptimize(u256::mulmod(a, b, m));
}
BENCHMARK(BM_U256_MulMod);

void BM_MptInsert(benchmark::State& state) {
  Random rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    trie::MerklePatriciaTrie trie;
    std::vector<std::pair<Bytes, Bytes>> kvs;
    for (int i = 0; i < 64; ++i) kvs.emplace_back(rng.bytes(32), rng.bytes(32));
    state.ResumeTiming();
    for (const auto& [k, v] : kvs) trie.put(k, v);
    benchmark::DoNotOptimize(trie.root_hash());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MptInsert);

void BM_OramAccess(benchmark::State& state) {
  oram::OramServer server(oram::OramConfig{.block_size = 1024, .capacity = 1024});
  crypto::AesKey128 key{};
  oram::OramClient client(server, key, 1, oram::SealMode::kChaChaHmac);
  Random rng(4);
  for (uint64_t i = 0; i < 256; ++i) {
    client.write(crypto::keccak256(u256{i}.to_be_bytes_vec()).to_u256(),
                 Bytes(1024, static_cast<uint8_t>(i)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.read(crypto::keccak256(u256{i++ % 256}.to_be_bytes_vec()).to_u256()));
  }
}
BENCHMARK(BM_OramAccess);

void BM_EvmErc20Transfer(benchmark::State& state) {
  state::InMemoryState base;
  Address token, alice, bob;
  token.bytes[19] = 0x10;
  alice.bytes[19] = 0xA1;
  bob.bytes[19] = 0xB0;
  // Minimal transfer loop: reuse the evm_test-style contract via assembler.
  base.put_code(token, evm::assemble(R"(
    PUSH1 0x24 CALLDATALOAD
    CALLER SLOAD
    DUP2 SWAP1 SUB
    CALLER SSTORE
    PUSH1 0x04 CALLDATALOAD
    DUP1 SLOAD DUP3 ADD SWAP1 SSTORE
    PUSH1 0x01 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
  )"));
  base.put_account(alice, state::Account{.balance = u256{1} << 80});
  base.put_storage(token, alice.to_u256(), u256{1} << 70);

  evm::Transaction tx;
  tx.from = alice;
  tx.to = token;
  Bytes data(4, 0);
  append(data, bob.to_u256().to_be_bytes_vec());
  append(data, u256{1}.to_be_bytes_vec());
  tx.data = data;
  tx.gas_limit = 200'000;

  for (auto _ : state) {
    state::OverlayState overlay(base);
    evm::Interpreter interp(overlay, evm::BlockContext{});
    benchmark::DoNotOptimize(interp.execute_transaction(tx));
  }
}
BENCHMARK(BM_EvmErc20Transfer);

}  // namespace

BENCHMARK_MAIN();
