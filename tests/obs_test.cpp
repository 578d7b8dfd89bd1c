// Tests for the obs subsystem: nearest-rank percentiles (the bench p99
// off-by-one regression), the unified metrics registry, trace rings, the
// obliviousness auditor's statistics, and — end to end — the determinism of
// noise-padded swap traces across worker counts (the noise_stream fix).
#include <gtest/gtest.h>

#include <sstream>

#include "memlayer/pager.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/percentile.hpp"
#include "obs/trace.hpp"
#include "service/engine.hpp"
#include "workload/generator.hpp"

namespace hardtape::obs {
namespace {

// --- percentile (satellite: bench_throughput p99 indexed max for n=100) ---

TEST(Percentile, NearestRankP99) {
  // rank = ceil(p/100 * n), 1-based. The bug this pins: for n=100 the old
  // bench arithmetic picked rank 100 (the max) instead of rank 99.
  EXPECT_EQ(percentile_rank(1, 99.0), 1u);
  EXPECT_EQ(percentile_rank(2, 99.0), 2u);
  EXPECT_EQ(percentile_rank(99, 99.0), 99u);
  EXPECT_EQ(percentile_rank(100, 99.0), 99u);
  EXPECT_EQ(percentile_rank(101, 99.0), 100u);
}

TEST(Percentile, NearestRankP50AndP100) {
  EXPECT_EQ(percentile_rank(100, 50.0), 50u);
  EXPECT_EQ(percentile_rank(101, 50.0), 51u);
  EXPECT_EQ(percentile_rank(100, 100.0), 100u);
  EXPECT_EQ(percentile_rank(7, 25.0), 2u);
}

TEST(Percentile, Values) {
  std::vector<uint64_t> samples;
  for (uint64_t v = 1; v <= 100; ++v) samples.push_back(101 - v);  // unsorted
  EXPECT_EQ(percentile(samples, 99.0), 99u);   // NOT 100 (the old bug)
  EXPECT_EQ(percentile(samples, 100.0), 100u);
  EXPECT_EQ(percentile(samples, 50.0), 50u);
  EXPECT_EQ(percentile(std::vector<uint64_t>{42}, 99.0), 42u);
}

TEST(Percentile, ErrorCases) {
  EXPECT_THROW(percentile_rank(0, 99.0), UsageError);
  EXPECT_THROW(percentile_rank(10, 0.0), UsageError);
  EXPECT_THROW(percentile_rank(10, 100.5), UsageError);
}

// --- metrics registry ---

TEST(Registry, CountersGaugesHistograms) {
  Registry registry;
  registry.counter("requests").add(3);
  registry.counter("requests").add(2);
  registry.gauge("depth").set(4.5);
  auto& hist = registry.histogram("latency", "bundle latency");
  for (uint64_t v = 1; v <= 100; ++v) hist.observe(v);

  EXPECT_EQ(registry.counter("requests").value(), 5u);
  EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), 4.5);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.percentile(99.0), 99u);  // shared nearest-rank helper
}

TEST(Registry, KindConflictThrows) {
  Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), UsageError);
  EXPECT_THROW(registry.histogram("x"), UsageError);
}

TEST(Registry, Exposition) {
  Registry registry;
  registry.counter("hardtape_bundles_total", "bundles executed").add(7);
  registry.histogram("hardtape_latency_ns").observe(10);
  const std::string prom = registry.prometheus_text();
  EXPECT_NE(prom.find("# TYPE hardtape_bundles_total counter"), std::string::npos);
  EXPECT_NE(prom.find("hardtape_bundles_total 7"), std::string::npos);
  EXPECT_NE(prom.find("hardtape_latency_ns_count 1"), std::string::npos);
  const std::string json = registry.json();
  EXPECT_NE(json.find("\"hardtape_bundles_total\": 7"), std::string::npos);
}

// --- JSON escaping (satellite: hostile-contract bytes in exported fields) ---

TEST(JsonEscape, ControlCharactersAndQuotes) {
  // The satellite's exact adversarial bytes: '\n' splits a JSONL record in
  // two, '"' terminates the string early, 0x01 is an unescaped control byte
  // strict parsers reject.
  const std::string hostile = std::string("li\nne\"quote") + '\x01' + "end";
  const std::string escaped = json_escape(hostile);
  EXPECT_EQ(escaped, "li\\nne\\\"quote\\u0001end");
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\x01'), std::string::npos);
  EXPECT_EQ(json_escape("tab\there\rcr\\slash"), "tab\\there\\rcr\\\\slash");
  EXPECT_EQ(json_escape(std::string_view("\x00\x1f", 2)), "\\u0000\\u001f");
}

TEST(JsonEscape, ValidUtf8PassesThrough) {
  // 2-, 3- and 4-byte sequences survive untouched.
  const std::string utf8 = "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x94\x92";
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_EQ(json_escape("plain ascii"), "plain ascii");
}

TEST(JsonEscape, MalformedUtf8EscapedByteWise) {
  // Stray continuation byte, invalid lead bytes, truncated sequence, and
  // overlong encoding all become \u00XX instead of leaking raw bytes.
  EXPECT_EQ(json_escape("\x80"), "\\u0080");
  EXPECT_EQ(json_escape("\xff\xfe"), "\\u00ff\\u00fe");
  EXPECT_EQ(json_escape("\xe4\xb8"), "\\u00e4\\u00b8");      // truncated 3-byte
  EXPECT_EQ(json_escape("\xc0\xaf"), "\\u00c0\\u00af");      // overlong '/'
  EXPECT_EQ(json_escape("\xed\xa0\x80"), "\\u00ed\\u00a0\\u0080");  // surrogate
  // Resynchronizes: garbage then valid UTF-8 then garbage.
  EXPECT_EQ(json_escape("\x80ok\xc3\xa9\xff"), "\\u0080ok\xc3\xa9\\u00ff");
}

TEST(JsonEscape, RegistryNamesAreEscapedInJson) {
  Registry registry;
  registry.counter("bad\nname\"x").add(1);
  const std::string json = registry.json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("bad\\nname\\\"x"), std::string::npos);
}

// --- trace rings ---

TEST(TraceRing, SequenceAndBoundedDrop) {
  TraceSink sink({.ring_capacity = 4, .capture_wall_time = false});
  TraceRing& ring = sink.ring(0);
  for (uint64_t i = 0; i < 6; ++i) {
    ring.append(TraceCategory::kOram, static_cast<uint16_t>(TraceCode::kOramIssue), i * 10, i);
  }
  EXPECT_EQ(ring.emitted(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 2u);  // oldest two overwritten
  EXPECT_EQ(events.back().seq, 5u);
  EXPECT_EQ(events.back().a, 5u);
  EXPECT_EQ(sink.total_emitted(), 6u);
  EXPECT_EQ(sink.total_dropped(), 2u);
}

TEST(TraceRing, StableRingPerWorker) {
  TraceSink sink;
  TraceRing& a = sink.ring(3);
  TraceRing& b = sink.ring(3);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(sink.ring(-2).worker(), -2);
}

TEST(TraceSink, JsonlDeterministicFields) {
  TraceSink sink({.ring_capacity = 16, .capture_wall_time = false});
  sink.ring(1).append(TraceCategory::kSwap, static_cast<uint16_t>(TraceCode::kSwapEvict),
                      100, /*pages=*/9, /*noise=*/2, /*depth=*/3);
  sink.ring(0).append(TraceCategory::kOpcode, /*opcode=*/0x01, 50, /*pc=*/7, /*gas=*/21);
  std::ostringstream out;
  sink.write_jsonl(out);
  const std::string text = out.str();
  // Ordered by (worker, seq): the opcode line (worker 0) comes first.
  EXPECT_LT(text.find("\"op\":1"), text.find("swap_evict"));
  EXPECT_NE(text.find("\"worker\":1"), std::string::npos);
  EXPECT_NE(text.find("\"sim_ns\":100"), std::string::npos);
  EXPECT_NE(text.find("\"a\":9"), std::string::npos);
  // wall time capture disabled => deterministic zero
  EXPECT_NE(text.find("\"wall_ns\":0"), std::string::npos);
}

// --- auditor statistics ---

TEST(Audit, KsStatistic) {
  const std::vector<uint64_t> base{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_DOUBLE_EQ(ks_statistic(base, base), 0.0);
  EXPECT_DOUBLE_EQ(ks_statistic({1, 2, 3}, {10, 11, 12}), 1.0);  // disjoint
  EXPECT_DOUBLE_EQ(ks_statistic({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(ks_statistic({1}, {}), 1.0);
  const double shifted = ks_statistic({1, 2, 3, 4}, {2, 3, 4, 5});
  EXPECT_GT(shifted, 0.0);
  EXPECT_LT(shifted, 1.0);
}

SpTrace make_queries(const std::vector<std::pair<uint64_t, uint8_t>>& qs) {
  SpTrace sp;
  for (const auto& [t, type] : qs) sp.queries.push_back({t, type});
  return sp;
}

TEST(Audit, IdenticalTracesPass) {
  SpTrace sp = make_queries({{0, 1}, {10, 2}, {25, 3}, {40, 1}});
  sp.swaps = {{5, static_cast<uint16_t>(TraceCode::kSwapEvict), 8}};
  AuditConfig config;
  config.min_samples = 2;
  const auto report = audit_obliviousness(sp, sp, config);
  EXPECT_TRUE(report.pass) << report.summary();
}

TEST(Audit, TypeSequenceMismatchFails) {
  const SpTrace a = make_queries({{0, 1}, {10, 2}, {20, 3}});
  const SpTrace b = make_queries({{0, 1}, {10, 3}, {20, 2}});
  const auto report = audit_obliviousness(a, b);
  EXPECT_FALSE(report.pass);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().channel, "query_type_sequence");
  EXPECT_FALSE(report.findings.front().pass);
  EXPECT_NE(report.findings.front().detail.find("first_diff_at=1"), std::string::npos);
}

TEST(Audit, QueryCountMismatchFails) {
  const SpTrace a = make_queries({{0, 1}, {10, 1}});
  const SpTrace b = make_queries({{0, 1}, {10, 1}, {20, 1}});
  const auto report = audit_obliviousness(a, b);
  EXPECT_FALSE(report.pass);
}

TEST(Audit, ExactSwapScheduleOnlyWhenRequired) {
  SpTrace a, b;
  a.swaps = {{0, static_cast<uint16_t>(TraceCode::kSwapEvict), 4}};
  b.swaps = {{0, static_cast<uint16_t>(TraceCode::kSwapLoad), 4}};
  AuditConfig relaxed;  // default: swap channel deferred to swap_size_ks
  EXPECT_TRUE(audit_obliviousness(a, b, relaxed).pass);
  AuditConfig strict;
  strict.require_exact_swap_schedule = true;
  EXPECT_FALSE(audit_obliviousness(a, b, strict).pass);
}

TEST(Audit, SwapSizeDistributionLeakFails) {
  // Intent a always swaps 3 pages, intent b always 9: with no padding the
  // distributions are disjoint and KS = 1.
  SpTrace a, b;
  for (uint64_t i = 0; i < 32; ++i) {
    a.swaps.push_back({i, static_cast<uint16_t>(TraceCode::kSwapEvict), 3});
    b.swaps.push_back({i, static_cast<uint16_t>(TraceCode::kSwapEvict), 9});
  }
  const auto report = audit_obliviousness(a, b);
  EXPECT_FALSE(report.pass);
  bool found = false;
  for (const auto& f : report.findings) {
    if (f.channel == "swap_size_ks") {
      found = true;
      EXPECT_FALSE(f.pass);
      EXPECT_DOUBLE_EQ(f.statistic, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Audit, SessionBoundariesDoNotWrapGaps) {
  // Two sessions whose clocks both start at 0: the naive gap across the
  // boundary (5 -> 0) would wrap uint64. With the boundary marked, gaps are
  // {5, 5} per session and the KS against an identical trace is 0.
  SpTrace sp = make_queries({{0, 1}, {5, 1}, {0, 1}, {5, 1}});
  sp.session_starts = {0, 2};
  const auto gaps = sp.query_gaps();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], 5u);
  EXPECT_EQ(gaps[1], 5u);
}

TEST(Audit, ProjectExtractsSpView) {
  TraceSink sink({.capture_wall_time = false});
  TraceRing& ring = sink.ring(0);
  ring.append(TraceCategory::kBundle, static_cast<uint16_t>(TraceCode::kBundleStart), 0, 7);
  ring.append(TraceCategory::kOpcode, 0x60, 1, 0, 100);  // dropped: not SP-visible
  ring.append(TraceCategory::kOram, static_cast<uint16_t>(TraceCode::kOramIssue), 10,
              /*type=*/2);
  ring.append(TraceCategory::kOram, static_cast<uint16_t>(TraceCode::kOramComplete), 11, 0);
  ring.append(TraceCategory::kSwap, static_cast<uint16_t>(TraceCode::kSwapLoad), 12,
              /*pages=*/6, /*noise=*/1);
  const SpTrace sp = SpTrace::project(ring.events());
  ASSERT_EQ(sp.queries.size(), 1u);
  EXPECT_EQ(sp.queries[0].type, 2);
  ASSERT_EQ(sp.swaps.size(), 1u);
  EXPECT_EQ(sp.swaps[0].pages, 6u);
  ASSERT_EQ(sp.session_starts.size(), 1u);
  EXPECT_EQ(sp.session_starts[0], 0u);
}

TEST(Audit, CodeGapDispersionDetectsMetronomicCodeFetches) {
  // Demand-time signature: every code fetch trails its trigger by exactly
  // the model latency, KV gaps jitter. CV ratio ~ 0 => FAIL the channel.
  SpTrace demand;
  uint64_t t = 0;
  for (int i = 0; i < 40; ++i) {
    t += 100 + (i * 37) % 90;  // jittered KV gap
    demand.queries.push_back({t, 2});
    t += 50;  // constant code latency
    demand.queries.push_back({t, 3});
  }
  EXPECT_LT(code_gap_dispersion(demand, 3), 0.3);

  SpTrace shaped = demand;
  for (size_t i = 1; i < shaped.queries.size(); i += 2) {
    shaped.queries[i].sim_ns += (i * 53) % 70;  // prefetch-style jitter
  }
  EXPECT_GT(code_gap_dispersion(shaped, 3), 0.3);
  // Degenerate traces carry no signal.
  EXPECT_DOUBLE_EQ(code_gap_dispersion(SpTrace{}, 3), 1.0);
}

// --- per-shard audit (PR 6: sharded oblivious store) ---

TEST(ShardAudit, UniformKsStatistic) {
  // A perfectly balanced sample over the full support sits at 1/support.
  std::vector<uint64_t> balanced;
  for (uint64_t v = 0; v < 64; ++v) balanced.push_back(v);
  EXPECT_LE(uniform_ks_statistic(balanced, 64), 1.0 / 64 + 1e-12);
  // A point mass at 0 deviates maximally: ECDF jumps to 1 at F(0) = 1/s.
  EXPECT_NEAR(uniform_ks_statistic(std::vector<uint64_t>(32, 0), 64), 1.0 - 1.0 / 64,
              1e-12);
  EXPECT_DOUBLE_EQ(uniform_ks_statistic({}, 64), 0.0);
}

TEST(ShardAudit, UniformWalksPass) {
  // i.i.d. uniform (shard, leaf) pairs — the faithful redraw's view.
  Random rng(0x5eed);
  std::vector<std::pair<uint32_t, uint64_t>> walks;
  for (int i = 0; i < 4096; ++i) {
    walks.emplace_back(static_cast<uint32_t>(rng.uniform(8)), rng.uniform(512));
  }
  const auto report = audit_shard_obliviousness(walks, 8, 512);
  EXPECT_TRUE(report.pass) << report.summary();
  EXPECT_EQ(report.findings.size(), 1u + 8u);  // balance + one KS per shard
}

TEST(ShardAudit, PinnedHotShardFailsBalance) {
  // A pinned hot page: 40% of all walks land on shard 2 (expected 12.5%).
  Random rng(0x5eed);
  std::vector<std::pair<uint32_t, uint64_t>> walks;
  for (int i = 0; i < 4096; ++i) {
    const uint32_t shard =
        i % 5 < 2 ? 2u : static_cast<uint32_t>(rng.uniform(8));
    walks.emplace_back(shard, rng.uniform(512));
  }
  const auto report = audit_shard_obliviousness(walks, 8, 512);
  EXPECT_FALSE(report.pass);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().channel, "shard_balance_z");
  EXPECT_FALSE(report.findings.front().pass);
  EXPECT_NE(report.findings.front().detail.find("worst_shard=2"), std::string::npos);
}

TEST(ShardAudit, NonUniformLeavesFailKs) {
  // Shards visited uniformly but one shard's leaves concentrate in the low
  // half of its range — a broken in-shard position map.
  Random rng(0x5eed);
  std::vector<std::pair<uint32_t, uint64_t>> walks;
  for (int i = 0; i < 4096; ++i) {
    const auto shard = static_cast<uint32_t>(rng.uniform(8));
    walks.emplace_back(shard, shard == 3 ? rng.uniform(256) : rng.uniform(512));
  }
  const auto report = audit_shard_obliviousness(walks, 8, 512);
  EXPECT_FALSE(report.pass);
  for (const auto& f : report.findings) {
    if (f.channel == "shard3_leaf_ks") {
      EXPECT_FALSE(f.pass);
    }
    if (f.channel == "shard1_leaf_ks") {
      EXPECT_TRUE(f.pass);
    }
  }
}

TEST(ShardAudit, SparseShardsAreSkippedNotFailed) {
  const std::vector<std::pair<uint32_t, uint64_t>> walks{{0, 1}, {1, 2}, {2, 3}};
  const auto report = audit_shard_obliviousness(walks, 8, 512);
  EXPECT_TRUE(report.pass) << report.summary();
}

// --- noise stream (satellite: per-session padding RNG derivation) ---

TEST(NoiseStream, KeyedOnSeedBundleAttempt) {
  const uint64_t base = memlayer::noise_stream(1, 0, 0);
  EXPECT_NE(base, memlayer::noise_stream(2, 0, 0));     // engine seed
  EXPECT_NE(base, memlayer::noise_stream(1, 1, 0));     // bundle id
  EXPECT_NE(base, memlayer::noise_stream(1, 0, 1));     // retry attempt
  EXPECT_EQ(base, memlayer::noise_stream(1, 0, 0));     // pure function
}

}  // namespace
}  // namespace hardtape::obs

// --- end-to-end: swap-trace determinism across worker counts ---

namespace hardtape::service {
namespace {

class ObsEngineTest : public ::testing::Test {
 protected:
  ObsEngineTest() {
    gen_.deploy(node_.world());
    node_.produce_block({});
  }

  EngineConfig make_config(int workers, obs::TraceSink* sink = nullptr) {
    EngineConfig config;
    config.security = SecurityConfig::full();
    config.num_hevms = workers;
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
    config.seal_mode = oram::SealMode::kChaChaHmac;
    config.perform_channel_crypto = false;
    // Small layer 2 so the deep router chains below actually spill — the
    // swap schedule (counts + noise padding) is then a real trace to compare.
    config.core.l2.l2_bytes = 16 * 1024;
    config.trace = sink;
    return config;
  }

  std::vector<std::vector<evm::Transaction>> make_bundles(size_t count) {
    std::vector<std::vector<evm::Transaction>> bundles;
    for (size_t i = 0; i < count; ++i) {
      evm::Transaction route;
      route.from = gen_.users()[i % gen_.users().size()];
      route.to = gen_.routers()[i % gen_.routers().size()];
      route.data = workload::router_route(3 + i % 4, gen_.tokens()[0],
                                          gen_.users()[(i + 1) % gen_.users().size()],
                                          u256{5});
      route.gas_limit = 5'000'000;
      bundles.push_back({route});
    }
    return bundles;
  }

  std::vector<SessionOutcome> run(int workers, obs::TraceSink* sink,
                                  const std::vector<std::vector<evm::Transaction>>& bundles) {
    PreExecutionEngine engine(node_, make_config(workers, sink));
    EXPECT_EQ(engine.synchronize(), Status::kOk);
    engine.start();
    for (const auto& bundle : bundles) engine.submit(bundle);
    return engine.drain();
  }

  node::NodeSimulator node_;
  workload::WorkloadGenerator gen_{workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 2}};
};

// The noise_stream satellite fix: swap padding derives from (seed, bundle,
// attempt), so the noisy swap schedule of every bundle is identical whether
// 1 or 8 workers ran it — the property the leakage auditor depends on.
TEST_F(ObsEngineTest, SwapTracesIdenticalAtOneVsEightWorkers) {
  const auto bundles = make_bundles(16);
  const auto one = run(1, nullptr, bundles);
  const auto eight = run(8, nullptr, bundles);
  ASSERT_EQ(one.size(), eight.size());
  size_t bundles_with_swaps = 0;
  for (size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i].bundle_id, eight[i].bundle_id);
    const auto& a = one[i].report.swap_events;
    const auto& b = eight[i].report.swap_events;
    ASSERT_EQ(a.size(), b.size()) << "bundle " << i;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].kind, b[j].kind) << "bundle " << i << " event " << j;
      EXPECT_EQ(a[j].pages, b[j].pages) << "bundle " << i << " event " << j;
      EXPECT_EQ(a[j].noise_pages, b[j].noise_pages) << "bundle " << i << " event " << j;
    }
    if (!a.empty()) ++bundles_with_swaps;
  }
  // The comparison must not be vacuous.
  EXPECT_GT(bundles_with_swaps, 0u);
}

// Tracing is observation-only: a traced run computes bit-identical outcomes
// to an untraced one, and the traced swap events mirror the pager's report.
TEST_F(ObsEngineTest, TracingDoesNotPerturbOutcomes) {
  const auto bundles = make_bundles(8);
  const auto plain = run(1, nullptr, bundles);
  obs::TraceSink sink({.ring_capacity = 1 << 16});
  const auto traced = run(1, &sink, bundles);
  ASSERT_EQ(plain.size(), traced.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_TRUE(outcomes_bit_identical(plain[i], traced[i])) << "bundle " << i;
  }
  // The traced kSwap events carry the same observed page counts the report
  // records (append happens beside events_.push_back, never instead of it).
  uint64_t report_swaps = 0;
  for (const auto& outcome : traced) report_swaps += outcome.report.swap_events.size();
  uint64_t ring_swaps = 0;
  for (const auto& event : sink.ring(0).events()) {
    if (event.category == obs::TraceCategory::kSwap) ++ring_swaps;
  }
  EXPECT_EQ(ring_swaps, report_swaps);
  EXPECT_EQ(sink.total_dropped(), 0u);
}

}  // namespace
}  // namespace hardtape::service

// --- audit-trace symmetry (satellite: EXTCODECOPY source-side kCode read) ---
//
// The obliviousness auditor consumes the observer's memory-access stream; a
// copy opcode that reads code without reporting the kCode touch is a hole in
// the audit trace. CODECOPY and EXTCODECOPY move the same kind of data
// (code region -> frame memory), so they must emit the same event shape:
// one kCode read of the source range, then one kMemory write of the
// destination range.

#include "evm/assembler.hpp"
#include "evm/interpreter.hpp"
#include "state/overlay.hpp"
#include "state/world_state.hpp"

namespace hardtape::evm {
namespace {

struct MemEvent {
  MemoryLike region;
  uint64_t offset;
  uint64_t size;
  bool is_write;
};

class MemAccessRecorder : public ExecutionObserver {
 public:
  void on_memory_access(MemoryLike region, uint64_t offset, uint64_t size,
                        bool is_write) override {
    events.push_back({region, offset, size, is_write});
  }
  std::vector<MemEvent> events;
};

// Runs `source` at a contract whose state also holds `ext_code` at address
// 0x..EE, returning every memory-access event the copy emitted.
std::vector<MemEvent> copy_events(const std::string& source) {
  Address contract{};
  contract.bytes[19] = 0xCC;
  Address ext{};
  ext.bytes[19] = 0xEE;

  state::InMemoryState base;
  base.put_code(contract, assemble(source));
  base.put_code(ext, assemble("PUSH1 0x2a PUSH1 0x00 MSTORE"));
  state::OverlayState overlay(base);
  Interpreter interp(overlay, BlockContext{});
  MemAccessRecorder recorder;
  interp.set_observer(&recorder);

  Interpreter::Message msg;
  msg.code_address = contract;
  msg.recipient = contract;
  msg.gas = 1'000'000;
  msg.depth = 1;
  const CallResult result = interp.call(msg);
  EXPECT_EQ(result.status, VmStatus::kSuccess);
  return recorder.events;
}

TEST(AuditTrace, ExtcodecopyEmitsSameEventShapeAsCodecopy) {
  // Both programs copy 7 bytes from source offset 2 to memory offset 5.
  const auto codecopy =
      copy_events("PUSH1 0x07 PUSH1 0x02 PUSH1 0x05 CODECOPY STOP");
  const auto extcodecopy = copy_events(
      "PUSH1 0x07 PUSH1 0x02 PUSH1 0x05 PUSH1 0xEE EXTCODECOPY STOP");

  // CODECOPY is the reference shape: kCode read of [2, 2+7), then kMemory
  // write of [5, 5+7).
  ASSERT_EQ(codecopy.size(), 2u);
  EXPECT_EQ(codecopy[0].region, MemoryLike::kCode);
  EXPECT_EQ(codecopy[0].offset, 2u);
  EXPECT_EQ(codecopy[0].size, 7u);
  EXPECT_FALSE(codecopy[0].is_write);
  EXPECT_EQ(codecopy[1].region, MemoryLike::kMemory);
  EXPECT_EQ(codecopy[1].offset, 5u);
  EXPECT_EQ(codecopy[1].size, 7u);
  EXPECT_TRUE(codecopy[1].is_write);

  // EXTCODECOPY must be symmetric: the external code read may not vanish
  // from the audit trace just because the bytes came from another account.
  ASSERT_EQ(extcodecopy.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(extcodecopy[i].region, codecopy[i].region) << "event " << i;
    EXPECT_EQ(extcodecopy[i].offset, codecopy[i].offset) << "event " << i;
    EXPECT_EQ(extcodecopy[i].size, codecopy[i].size) << "event " << i;
    EXPECT_EQ(extcodecopy[i].is_write, codecopy[i].is_write) << "event " << i;
  }
}

TEST(AuditTrace, ExtcodecopyZeroLengthEmitsNoMemoryEvents) {
  // len == 0 copies nothing and, like CODECOPY, must stay silent.
  const auto events = copy_events(
      "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0xEE EXTCODECOPY STOP");
  EXPECT_TRUE(events.empty());
}

}  // namespace
}  // namespace hardtape::evm
