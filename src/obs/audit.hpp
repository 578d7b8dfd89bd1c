// Obliviousness auditor (obs subsystem).
//
// The HarDTAPE security argument (threats A5/A7) is that the service
// provider's view of a pre-execution — the ORAM query stream and the
// layer-2/3 swap schedule — is independent of transaction secrets. The
// auditor turns that claim into a regression test: run the SAME public
// workload shape twice with different secret intents (different storage
// keys, different code paths of equal public cost), project both traces
// onto what the SP can see, and demand the projections be identical where
// the design says identical and statistically indistinguishable where the
// design says padded/shaped.
//
// Channels checked, from strongest to weakest guarantee:
//   1. query type sequence      — exact match (ORAM requests are fixed-shape;
//                                 only the page *type* mix is public workload)
//   2. per-type query counts    — exact match
//   3. swap event schedule      — exact match of kind sequence and count
//   4. inter-query sim-time gaps— two-sample Kolmogorov–Smirnov ≤ threshold,
//                                 plus two per-trace statistics on the gap
//                                 before code vs KV queries: a mean effect
//                                 size (bench_ablation_oram ablation 3) and
//                                 a dispersion ratio. The dispersion ratio is
//                                 the prefetch-ablation detector: demand-time
//                                 code fetches trail their trigger by a FIXED
//                                 model latency (zero jitter), so near-zero
//                                 code-gap dispersion means the SP can mark
//                                 frame entries (contract fingerprinting,
//                                 paper §IV-D problem 3)
//   5. observed swap sizes      — two-sample KS ≤ threshold (noise padding
//                                 must blur intent-dependent frame sizes,
//                                 cf. bench_ablation_memlayer ablation 2)
//
// The auditor consumes SpTrace projections built from TraceEvents; building
// the projection deliberately DROPS everything the SP cannot see (opcodes,
// gas, wall time, bundle internals).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hardtape::obs {

/// One SP-visible ORAM query: issue time on the deterministic sim clock and
/// the public page type (code / KV / account — encoded small int).
struct SpQuery {
  uint64_t sim_ns = 0;
  uint8_t type = 0;
};

/// One SP-visible swap on the untrusted memory bus: observed (padded) page
/// count and direction.
struct SpSwap {
  uint64_t sim_ns = 0;
  uint16_t code = 0;  ///< TraceCode::kSwapEvict or kSwapLoad
  uint64_t pages = 0;
};

/// Projection of a trace onto the service provider's view.
struct SpTrace {
  std::vector<SpQuery> queries;
  std::vector<SpSwap> swaps;
  /// Indices into `queries` where a new session's timeline begins (each
  /// session's sim clock restarts at 0). Gap statistics never straddle a
  /// boundary — the SP observes per-session timing, and a cross-session
  /// "gap" between two unrelated clocks is meaningless (and would wrap
  /// uint64 when the next session starts earlier). Empty = single session.
  std::vector<size_t> session_starts;

  /// Extract the SP-visible projection from raw trace events. Opcode events
  /// are discarded; kOram issue events become queries (a = type); kSwap
  /// events become swaps (a = observed pages); kBundleStart events mark
  /// session boundaries (other bundle events are dropped).
  static SpTrace project(const std::vector<TraceEvent>& events);

  /// (gap, type of the query the gap precedes), skipping session boundaries.
  std::vector<std::pair<uint64_t, uint8_t>> typed_gaps() const;
  std::vector<uint64_t> query_gaps() const;  ///< successive sim-time deltas
  std::vector<uint64_t> swap_sizes() const;
};

struct AuditConfig {
  /// Max acceptable two-sample KS statistic on gap / swap-size samples.
  double ks_threshold = 0.20;
  /// Max acceptable |effect size| for mean-gap-before-code vs -before-KV.
  double type_gap_z_threshold = 3.0;
  /// Min acceptable CV(code gaps) / CV(KV gaps). Below this, code-fetch
  /// timing is too regular: fetches are locked to frame entry (the
  /// prefetch-ablated signature; faithful runs sit near 1.0).
  double code_gap_dispersion_min = 0.3;
  /// Statistical checks are skipped (reported as pass with detail) below
  /// this many samples per side — too little data to distinguish anything.
  size_t min_samples = 16;
  /// Page type encoding treated as "code" for the type-gap z statistic
  /// (matches oram::PageType::kCode; obs stays oram-agnostic).
  uint8_t code_type = 3;
  /// When true, channel 3 demands the swap kind sequence and count match
  /// exactly — appropriate for same-intent determinism checks (e.g. 1 vs 8
  /// workers). Across DIFFERENT intents the noise draws legitimately change
  /// how often eviction fires, so the default defers the swap channel to the
  /// statistical size test (channel 5).
  bool require_exact_swap_schedule = false;
};

struct AuditFinding {
  std::string channel;  ///< e.g. "query_type_sequence", "swap_size_ks"
  bool pass = false;
  double statistic = 0.0;  ///< the measured value (0/1 for exact channels)
  double threshold = 0.0;
  std::string detail;
};

struct AuditReport {
  std::vector<AuditFinding> findings;
  bool pass = true;  ///< AND of all findings

  std::string summary() const;  ///< one line per finding, human-readable
  std::string json() const;
};

/// Two-sample Kolmogorov–Smirnov statistic: sup |F_a(x) - F_b(x)| over the
/// pooled sample. 0 = identical empirical distributions, 1 = disjoint.
double ks_statistic(std::vector<uint64_t> a, std::vector<uint64_t> b);

/// Effect size (mean difference / pooled stddev, the bench_ablation_oram
/// "type distinguishability" statistic) of the gap preceding code-type
/// queries vs all other types, within one trace. Large |z| means query type
/// is predictable from timing — the A7 channel.
double type_gap_z(const SpTrace& trace, uint8_t code_type);

/// Coefficient-of-variation ratio CV(gap before code) / CV(gap before other
/// types), within one trace. Near zero = code fetches trail their trigger at
/// a fixed latency (demand-time fetching: the SP reads frame entries right
/// off the timeline). Returns 1 when either side is degenerate (<2 samples
/// or zero mean/CV denominator) — no signal, not a violation.
double code_gap_dispersion(const SpTrace& trace, uint8_t code_type);

/// Run every channel check on two SP projections captured from runs with
/// different secret intents under identical public parameters.
AuditReport audit_obliviousness(const SpTrace& a, const SpTrace& b,
                                const AuditConfig& config = {});

// ---------------------------------------------------------------------------
// Per-shard audit (PR 6). With the sharded store the SP's per-access view
// is a (shard, leaf) pair instead of one global leaf. The security claim of
// oram/sharded.hpp is that the pair is i.i.d. uniform: shard draws uniform
// over shards, leaf draws uniform over that shard's leaves, independent of
// which block was touched. The auditor tests exactly those two marginals:
//   1. shard_balance_z  — worst-shard binomial z of the shard-visit counts
//                         vs uniform. THE sharding leak detector: pinning a
//                         hot block to a fixed shard (pin_shard_assignment
//                         ablation) concentrates its accesses there and the
//                         worst bin blows up.
//   2. shard<i>_leaf_ks — per shard, one-sample KS of the observed leaf
//                         sequence vs discrete uniform over the shard's
//                         leaves, normalized to sqrt(n)*D so one threshold
//                         covers unevenly loaded shards.
// Every request walks: nothing merges duplicate requests, so
// each access contributes exactly one (shard, leaf) observation and the
// walk count equals the request count.

struct ShardAuditConfig {
  /// Max acceptable sqrt(n) * one-sample-KS per shard. Under uniformity
  /// sqrt(n)*D stays ~O(1) regardless of n (Kolmogorov: P(sqrt(n)*D > 1.95)
  /// ~ 0.001); discreteness of the leaf support only lowers it.
  double leaf_ks_threshold = 2.0;
  /// Max acceptable |binomial z| of any shard's visit count vs uniform.
  /// Faithful redraw keeps the worst of S bins within ~3 sigma; a pinned hot
  /// page pushes its shard tens of sigma out.
  double shard_balance_z_threshold = 4.5;
  /// Per-shard leaf KS is skipped (pass with detail) under this many walks.
  size_t min_samples = 16;
};

/// One-sample KS statistic of `sample` vs the discrete uniform distribution
/// on [0, support): sup |F_emp(x) - (x+1)/support|.
double uniform_ks_statistic(std::vector<uint64_t> sample, uint64_t support);

/// Audit a sharded store's adversary view: `walks` is the global observation
/// order of (shard, shard-local leaf) pairs (ShardedOramStore::
/// observed_walks()), `shard_count`/`leaf_count` its public geometry.
AuditReport audit_shard_obliviousness(
    const std::vector<std::pair<uint32_t, uint64_t>>& walks, uint32_t shard_count,
    uint64_t leaf_count, const ShardAuditConfig& config = {});

}  // namespace hardtape::obs
