// Obliviousness-audit smoke over the obs tracing layer (threats A5/A7).
//
// Two harnesses, each run faithful and ablated:
//
//  1. Engine / prefetch channel (A7): two workloads of identical public
//     shape — single-tx ERC-20 transfer bundles on one shared token — whose
//     SECRET differs (which accounts transact). Both run through the full
//     PreExecutionEngine with tracing on; the SP projections of the traced
//     query streams must audit indistinguishable (exact type sequence, gap
//     KS, per-trace type-gap z). The ablated view rebuilds the projection
//     from the DEMAND timeline — what the SP would see with the pagewise
//     code prefetcher disabled — and must FAIL the audit (code fetches
//     become timing-predictable: the type-gap z channel).
//
//  2. Pager / swap-padding channel (A5): two secret call-stack shapes
//     (frames of 3 vs 4 pages) driven through CallStackPager with a small
//     layer 2, many sessions each. With noisy padding (max_noise_pages = 8)
//     the observed swap-size distributions must be statistically
//     indistinguishable (KS); with padding ablated (max_noise_pages = 0)
//     the observed counts ARE the secret frame sizes and the audit must
//     FAIL on swap_size_ks.
//
//  3. Sharded-store / shard-routing channel (PR 6): the sharded store's
//     adversary view is a (shard, leaf) stream. A skewed workload (a few hot
//     pages taking most accesses) drives a ShardedOramStore directly: with
//     the faithful per-access shard redraw the stream must audit uniform
//     (audit_shard_obliviousness PASS); with pin_shard_assignment the hot
//     pages hammer their fixed shards and the shard_balance_z channel must
//     FAIL. The session streams of the two engine runs from harness 1 are
//     additionally audited per shard — the full system's view, not just the
//     store in isolation, must stay uniform.
//
// Usage: bench_obs [--out FILE] [--artifacts-dir DIR]
// Writes BENCH_obs_audit.json plus artifacts: TRACE_obs_intent_{a,b}.jsonl,
// TRACE_obs_pager.jsonl, METRICS_obs.prom, METRICS_obs.json.
// Exit 1 when a faithful audit FAILS or an ablated audit PASSES (either
// means the leakage regression gate is broken).
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/random.hpp"
#include "memlayer/pager.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "oram/sharded.hpp"
#include "service/engine.hpp"
#include "workload/contracts.hpp"

using namespace hardtape;

namespace {

service::EngineConfig engine_config(obs::TraceSink* sink) {
  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.num_hevms = 1;  // one worker: ring 0 holds the whole SP timeline in order
  config.queue_depth = 16;
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 8192,
                                 .max_stash_blocks = 512};
  config.seal_mode = oram::SealMode::kChaChaHmac;
  config.perform_channel_crypto = false;
  config.trace = sink;
  return config;
}

// Bundles of fixed public shape: each is [ERC-20 transfer, DEX swap,
// depth-6 router chain] against SHARED contracts, with fixed amounts and
// depths. The secret intent is WHICH accounts transact: `user_offset`
// rotates the participant set. Only users with addresses 1..30 are used so
// every balance slot lands in the token's storage group 0 — the public
// query shape (profile sequence, record counts, call depths) is then
// identical by construction across intents, which is exactly the
// precondition the exact audit channels assume. The mixed profiles matter:
// the deeper calls spread code fetches through the timeline, giving the
// timing channels something real to measure (cf. bench_ablation_oram
// ablation 3, which uses the full evaluation mix).
std::vector<std::vector<evm::Transaction>> make_intent(
    const workload::WorkloadGenerator& gen, size_t user_offset, size_t bundles) {
  const auto& users = gen.users();
  const Address token = gen.tokens().front();
  const Address dex = gen.dexes().front();
  const Address router = gen.routers().front();
  const size_t usable = std::min<size_t>(users.size(), 30);
  auto user = [&](size_t i) { return users[(user_offset + i) % usable]; };
  std::vector<std::vector<evm::Transaction>> out;
  for (size_t i = 0; i < bundles; ++i) {
    auto tx = [&](const Address& from, const Address& to, Bytes data,
                  uint64_t gas = 2'000'000) {
      evm::Transaction t;
      t.from = from;
      t.to = to;
      t.data = std::move(data);
      t.gas_limit = gas;
      t.gas_price = u256{10};
      return t;
    };
    std::vector<evm::Transaction> bundle;
    bundle.push_back(tx(user(3 * i), token, workload::erc20_transfer(user(3 * i + 1), u256{1000})));
    bundle.push_back(tx(user(3 * i + 1), dex, workload::dex_swap(u256{50'000})));
    bundle.push_back(tx(user(3 * i + 2), router,
                        workload::router_route(4, token, user(3 * i), u256{10}),
                        5'000'000));
    out.push_back(std::move(bundle));
  }
  return out;
}

/// The sharded store's adversary view of one engine run: every session-phase
/// walk as (shard, shard-local leaf), plus the public geometry.
struct ShardView {
  std::vector<std::pair<uint32_t, uint64_t>> walks;
  uint32_t shard_count = 0;
  uint64_t leaf_count = 0;
};

bool run_intent(node::NodeSimulator& node,
                const std::vector<std::vector<evm::Transaction>>& bundles,
                obs::TraceSink& sink, std::vector<service::SessionOutcome>& outcomes,
                std::string* prom, std::string* json, ShardView* shards = nullptr) {
  service::PreExecutionEngine engine(node, engine_config(&sink));
  if (engine.synchronize() != Status::kOk) return false;
  // Audit the session-visible stream only: the sync-phase bulk install is a
  // one-time public event, not part of the per-session view.
  engine.oram_store().clear_observations();
  engine.start();
  for (const auto& bundle : bundles) engine.submit(bundle);
  outcomes = engine.drain();
  if (prom != nullptr) *prom = engine.metrics_prometheus();
  if (json != nullptr) *json = engine.metrics_json();
  if (shards != nullptr) {
    shards->walks = engine.oram_store().observed_walks();
    shards->shard_count = static_cast<uint32_t>(engine.oram_store().shard_count());
    shards->leaf_count = engine.oram_store().leaf_count();
  }
  for (const auto& outcome : outcomes) {
    if (outcome.status != Status::kOk) return false;
  }
  return true;
}

// The SP's view with the prefetcher ablated: code queries fire at demand
// time. prefetcher.schedule() is a pure function of the demand timeline, so
// the demand timeline IS the observed stream of a prefetch-disabled build.
obs::SpTrace project_demand(const std::vector<service::SessionOutcome>& outcomes) {
  obs::SpTrace sp;
  for (const auto& outcome : outcomes) {
    sp.session_starts.push_back(sp.queries.size());
    for (const auto& q : outcome.query_stats.demand_timeline) {
      sp.queries.push_back({q.time_ns, static_cast<uint8_t>(q.type)});
    }
  }
  return sp;
}

// Drives one secret call-stack shape through the pager: `sessions` sessions
// of `depth` frames of `frame_pages` pages each, traced into `ring`. The
// small layer 2 (16 pages) forces spills, so the observed swap counts are
// frame_pages + noise — the A5 channel in isolation.
obs::SpTrace pager_trace(size_t frame_pages, size_t max_noise, obs::TraceRing& ring) {
  constexpr size_t kSessions = 32;
  constexpr int kDepth = 12;
  for (uint64_t session = 0; session < kSessions; ++session) {
    memlayer::MemLayerConfig config;
    config.l2_bytes = 16 * 1024;  // 16 pages; frame limit 8
    config.max_noise_pages = max_noise;
    config.rng_seed = memlayer::noise_stream(0x0b5eed, session, /*attempt=*/0);
    config.trace = &ring;
    const crypto::AesKey128 key{};
    memlayer::CallStackPager pager(config, key);
    for (int d = 0; d < kDepth; ++d) {
      if (pager.push_frame(frame_pages) != Status::kOk) return {};
    }
    for (int d = 0; d < kDepth; ++d) pager.pop_frame();
  }
  return obs::SpTrace::project(ring.events());
}

// Harness 3 driver: a skewed workload (4 hot pages take ~60% of accesses)
// against a ShardedOramStore, faithful or pinned. The access pattern is
// IDENTICAL across the two modes (same seed); only the routing policy
// differs — so a verdict flip is attributable to the redraw alone.
obs::AuditReport shard_store_audit(bool pin_shard_assignment) {
  auto config = oram::ShardedOramStore::partition(
      oram::OramConfig{.block_size = 64, .capacity = 4096, .max_stash_blocks = 512},
      /*shard_count=*/8);
  config.pin_shard_assignment = pin_shard_assignment;
  oram::ShardedOramStore store(config, crypto::AesKey128{}, /*rng_seed=*/0x0b5,
                               oram::SealMode::kChaChaHmac);
  Random rng(0x7a1e);
  std::vector<oram::BlockId> ids;
  for (uint64_t i = 0; i < 64; ++i) {
    ids.push_back(crypto::keccak256(u256{i + 1}.to_be_bytes_vec()).to_u256());
    store.write(ids.back(), Bytes(64, static_cast<uint8_t>(i)));
  }
  store.clear_observations();
  for (int i = 0; i < 4096; ++i) {
    const size_t pick = rng.uniform(10) < 6 ? rng.uniform(4) : rng.uniform(64);
    store.read(ids[pick]);
  }
  return obs::audit_shard_obliviousness(store.observed_walks(),
                                        static_cast<uint32_t>(store.shard_count()),
                                        store.leaf_count());
}

void add_rows(bench::Table& table, const std::string& name, const obs::AuditReport& report,
              bool expect_pass) {
  const bool ok = report.pass == expect_pass;
  table.add_row({name, report.pass ? "PASS" : "FAIL", expect_pass ? "PASS" : "FAIL",
                 ok ? "yes" : "NO"});
}

void write_file(const std::string& path, const std::string& content, bool& ok) {
  std::ofstream out(path);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    ok = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_obs_audit.json";
  std::string artifacts_dir = ".";
  for (int i = 1; i < argc - 1; ++i) {
    if (!std::strcmp(argv[i], "--out")) out_path = argv[i + 1];
    if (!std::strcmp(argv[i], "--artifacts-dir")) artifacts_dir = argv[i + 1];
  }

  // --- harness 1: engine, prefetch channel ---
  bench::EvaluationSetup setup(/*block_count=*/1, /*txs_per_block=*/8);
  constexpr size_t kBundles = 24;
  const auto intent_a = make_intent(setup.generator, /*user_offset=*/0, kBundles);
  const auto intent_b = make_intent(setup.generator, /*user_offset=*/15, kBundles);

  // Big rings: per-opcode retire events share the ring with the SP timeline
  // and must not evict it.
  obs::TraceSink sink_a({.ring_capacity = 1 << 17});
  obs::TraceSink sink_b({.ring_capacity = 1 << 17});
  std::vector<service::SessionOutcome> outcomes_a, outcomes_b;
  std::string metrics_prom, metrics_json;
  ShardView shards_a, shards_b;
  if (!run_intent(setup.node, intent_a, sink_a, outcomes_a, &metrics_prom, &metrics_json,
                  &shards_a) ||
      !run_intent(setup.node, intent_b, sink_b, outcomes_b, nullptr, nullptr, &shards_b)) {
    std::fprintf(stderr, "error: engine run failed\n");
    return 1;
  }
  if (sink_a.total_dropped() != 0 || sink_b.total_dropped() != 0) {
    std::fprintf(stderr, "error: trace ring dropped events (capacity too small)\n");
    return 1;
  }

  const obs::AuditConfig audit_config;  // defaults; exact swap schedule relaxed
  const auto sp_a = obs::SpTrace::project(sink_a.ring(0).events());
  const auto sp_b = obs::SpTrace::project(sink_b.ring(0).events());
  const auto engine_faithful = obs::audit_obliviousness(sp_a, sp_b, audit_config);
  const auto engine_ablated =
      obs::audit_obliviousness(project_demand(outcomes_a), project_demand(outcomes_b),
                               audit_config);

  // --- harness 2: pager, swap-padding channel ---
  obs::TraceSink pager_sink({.ring_capacity = 1 << 14});
  const auto pager_a8 = pager_trace(/*frame_pages=*/3, /*max_noise=*/8, pager_sink.ring(10));
  const auto pager_b8 = pager_trace(/*frame_pages=*/4, /*max_noise=*/8, pager_sink.ring(11));
  const auto pager_a0 = pager_trace(/*frame_pages=*/3, /*max_noise=*/0, pager_sink.ring(12));
  const auto pager_b0 = pager_trace(/*frame_pages=*/4, /*max_noise=*/0, pager_sink.ring(13));
  const auto pager_faithful = obs::audit_obliviousness(pager_a8, pager_b8, audit_config);
  const auto pager_ablated = obs::audit_obliviousness(pager_a0, pager_b0, audit_config);

  // --- harness 3: sharded store, shard-routing channel ---
  const auto shard_faithful = shard_store_audit(/*pin_shard_assignment=*/false);
  const auto shard_pinned = shard_store_audit(/*pin_shard_assignment=*/true);
  const auto shard_engine_a = obs::audit_shard_obliviousness(
      shards_a.walks, shards_a.shard_count, shards_a.leaf_count);
  const auto shard_engine_b = obs::audit_shard_obliviousness(
      shards_b.walks, shards_b.shard_count, shards_b.leaf_count);

  // --- report ---
  bench::Table table({"audit", "result", "expected", "ok"});
  add_rows(table, "engine faithful (prefetch on)", engine_faithful, true);
  add_rows(table, "engine ablated (prefetch off)", engine_ablated, false);
  add_rows(table, "pager faithful (noise=8)", pager_faithful, true);
  add_rows(table, "pager ablated (noise=0)", pager_ablated, false);
  add_rows(table, "shard store faithful (redraw)", shard_faithful, true);
  add_rows(table, "shard store ablated (pinned)", shard_pinned, false);
  add_rows(table, "shard engine intent a", shard_engine_a, true);
  add_rows(table, "shard engine intent b", shard_engine_b, true);
  table.print("Obliviousness audit (faithful must PASS, ablated must FAIL)");
  std::printf("\n-- engine faithful --\n%s", engine_faithful.summary().c_str());
  std::printf("\n-- engine prefetch-ablated --\n%s", engine_ablated.summary().c_str());
  std::printf("\n-- pager faithful --\n%s", pager_faithful.summary().c_str());
  std::printf("\n-- pager noise-ablated --\n%s", pager_ablated.summary().c_str());
  std::printf("\n-- shard store faithful --\n%s", shard_faithful.summary().c_str());
  std::printf("\n-- shard store pinned --\n%s", shard_pinned.summary().c_str());
  std::printf("\n-- shard engine intent a --\n%s", shard_engine_a.summary().c_str());
  std::printf("\n-- shard engine intent b --\n%s", shard_engine_b.summary().c_str());

  bool artifacts_ok = true;
  {
    std::ofstream trace_a(artifacts_dir + "/TRACE_obs_intent_a.jsonl");
    sink_a.write_jsonl(trace_a);
    trace_a.flush();
    artifacts_ok &= bool(trace_a);
    std::ofstream trace_b(artifacts_dir + "/TRACE_obs_intent_b.jsonl");
    sink_b.write_jsonl(trace_b);
    trace_b.flush();
    artifacts_ok &= bool(trace_b);
    std::ofstream trace_p(artifacts_dir + "/TRACE_obs_pager.jsonl");
    pager_sink.write_jsonl(trace_p);
    trace_p.flush();
    artifacts_ok &= bool(trace_p);
  }
  write_file(artifacts_dir + "/METRICS_obs.prom", metrics_prom, artifacts_ok);
  write_file(artifacts_dir + "/METRICS_obs.json", metrics_json, artifacts_ok);

  const bool ok = engine_faithful.pass && !engine_ablated.pass && pager_faithful.pass &&
                  !pager_ablated.pass && shard_faithful.pass && !shard_pinned.pass &&
                  shard_engine_a.pass && shard_engine_b.pass && artifacts_ok;
  {
    std::ofstream json(out_path);
    json << "{\n  \"bench\": \"obs_audit\",\n"
         << "  \"bundles\": " << kBundles << ",\n"
         << "  \"trace_events\": " << (sink_a.total_emitted() + sink_b.total_emitted())
         << ",\n"
         << "  \"engine_faithful\": " << engine_faithful.json() << ",\n"
         << "  \"engine_prefetch_ablated\": " << engine_ablated.json() << ",\n"
         << "  \"pager_faithful\": " << pager_faithful.json() << ",\n"
         << "  \"pager_noise_ablated\": " << pager_ablated.json() << ",\n"
         << "  \"shard_store_faithful\": " << shard_faithful.json() << ",\n"
         << "  \"shard_store_pinned\": " << shard_pinned.json() << ",\n"
         << "  \"shard_engine_intent_a\": " << shard_engine_a.json() << ",\n"
         << "  \"shard_engine_intent_b\": " << shard_engine_b.json() << ",\n"
         << "  \"shard_walks\": " << shards_a.walks.size() << ",\n"
         << "  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
    json.flush();
    if (!json) {
      std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::printf("\nwrote %s (+ trace/metrics artifacts in %s)\n", out_path.c_str(),
              artifacts_dir.c_str());
  std::printf("audit gate: %s\n", ok ? "OK" : "BROKEN");
  return ok ? 0 : 1;
}
