// Crash drill (PR 5): seeded power-loss sweep over the durability layer,
// measuring warm restart against cold re-sync and holding the recovery
// invariants at every crash point.
//
// One trial = one seeded power loss. A rehearsal run (no crash) records the
// filesystem op stream; targeted crash points are aimed at its semantically
// interesting ops (journal tail, checkpoint tmp write, the checkpoint
// rename, a group-commit fsync, a delta-sync install, a directory sync) and
// a further batch of uniformly seeded points covers the rest. The drive is
// serialized (submit, then resync as a barrier) so the op stream — and
// therefore what each crash point means — is identical across runs.
//
// Per trial, with the crash resolved by the seeded CrashPlan stream:
//
//   R1  Recovery::replay is fail-closed: it always yields a usable image,
//       and every recovered page tag is <= the recovered committed epoch;
//   R2  warm restart lands on the live head: pinned root == node head, and
//       the engine's max page epoch <= its committed store epoch;
//   R3  bundles whose resolve mark survived keep their pre-crash outcomes
//       (checked against the rehearsal, same timeline);
//   R4  bundles re-admitted after the crash resolve semantically identical
//       to a cold engine executing them at the same head — the warm path
//       is transparent;
//   R5  exactly one combined outcome per submitted bundle id;
//   R6  aggregate wall time: warm recovery (replay + adopt + engine
//       construction + warm_restart) beats cold recovery (engine
//       construction + synchronize()) summed over trials with a recoverable
//       image — the journal must buy the availability it promises. Both
//       timers include building the engine, so neither side is charged a
//       cost the other skips.
//
// Paged mode (PR 10, --paged): the same drill with every state layer routed
// through the paged backend — the node's trie over a PagedNodeStore, the
// engine's ORAM slots over PagedSlotStore segments on the SAME crash-armed
// fs, and the DurableStore mirror in incremental-checkpoint mode. --scale N
// multiplies the deployed state population (the big-state drill runs at
// 10x), and the run additionally reports the memory-bound evidence the CI
// gate checks: analytic pool budget vs the measured peak resident bytes,
// the full-image size vs the last incremental checkpoint's cost, and a
// 1-vs-8-worker rehearsal image comparison (bit-identical by construction
// of the serialized drive).
//
// Usage: bench_crash [--quick] [--paged] [--scale N] [--pool-pages N]
//                    [--bundles N] [--blocks N] [--trials N]
//                    [--seed S] [--out FILE]
// Writes BENCH_crash.json. Exit 1 on any invariant violation.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "durability/checkpoint.hpp"
#include "durability/durable_store.hpp"
#include "durability/recovery.hpp"
#include "durability/vfs.hpp"
#include "faults/crash_plan.hpp"
#include "oram/slot_store.hpp"
#include "service/engine.hpp"
#include "trie/paged_node_store.hpp"

using namespace hardtape;
using durability::DurableStore;
using durability::SimFs;

namespace {

struct CrashOptions {
  size_t bundles = 24;
  size_t blocks = 6;
  size_t uniform_trials = 8;
  uint64_t seed = 0xc4a5;
  std::string out_path = "BENCH_crash.json";
  /// Paged state backend everywhere (trie + ORAM slots + incremental
  /// checkpoints). Off by default: the plain drill stays bit-identical to
  /// the pre-paging bench.
  bool paged = false;
  /// Deployed-state multiplier (accounts/contracts/pairs); the ORAM
  /// capacity scales with it so the bigger world still fits the tree.
  size_t scale = 1;
  /// Buffer-pool cap (pages/buckets) for every paged layer. Each ORAM
  /// shard still raises this to its walk working set when set lower.
  size_t pool_pages = 64;
};

struct TrialResult {
  uint64_t trial = 0;
  std::string label;
  uint64_t crash_at_op = 0;
  durability::RecoveryStats recovery;
  bool recovered_history = false;  ///< image carried at least one epoch
  bool cold_fallback = false;      ///< warm_restart declined; cold sync used
  size_t resolved_durably = 0;
  size_t resubmitted = 0;
  uint64_t warm_ns = 0;  ///< replay + adopt + engine construction + warm_restart
  uint64_t cold_ns = 0;  ///< reference engine's construction + cold synchronize()
  /// Deterministic work comparison: Merkle-verified slots to get live again.
  uint64_t warm_verified_slots = 0;
  uint64_t cold_verified_slots = 0;
  uint64_t pages_restored = 0;
  std::vector<std::string> violations;
};

uint64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr uint64_t kCheckpointEvery = 512;

// `oram_fs` is where a paged engine spills ORAM slot segments. The crash
// engine gets the ARMED fs (a power loss must take the slot spill with it);
// the warm/reference engines get their own fresh fs.
service::EngineConfig engine_config(DurableStore* durable, SimFs* oram_fs,
                                    const CrashOptions& opts) {
  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.num_hevms = 1;  // one worker -> one deterministic fs op stream
  config.oram = oram::OramConfig{.block_size = oram::kPageSize,
                                 .capacity = 8192 * opts.scale,
                                 .max_stash_blocks = 512};
  if (opts.paged && oram_fs != nullptr) {
    config.oram.backend = oram::SlotBackend::kPaged;
    config.oram.backing_fs = oram_fs;
    config.oram.buffer_pool_pages = opts.pool_pages;
  }
  config.seal_mode = oram::SealMode::kChaChaHmac;
  config.perform_channel_crypto = false;
  config.durable = durable;
  return config;
}

durability::DurableConfig durable_config(const CrashOptions& opts) {
  // Paged mode checkpoints on a tighter cadence: an incremental checkpoint
  // costs O(dirty pages), so rolling often is cheap and keeps the measured
  // "last checkpoint" a steady-state CoW delta instead of the initial
  // full-sync image.
  return {.checkpoint_every_records = opts.paged ? kCheckpointEvery / 32
                                                 : kCheckpointEvery,
          .incremental_checkpoints = opts.paged,
          .buffer_pool_pages = opts.pool_pages};
}

// Memory-bound evidence for the paged drill (CI gates these against the
// full-image size: the pool budget must sit strictly below full state, and
// the pools must honor it).
struct PagedMetrics {
  uint64_t pool_budget_bytes = 0;       ///< analytic cap across every pool
  uint64_t peak_pool_bytes = 0;         ///< measured high-water, summed
  uint64_t full_image_bytes = 0;        ///< serialized full image (v1 cost)
  uint64_t incremental_ckpt_bytes = 0;  ///< newest CoW checkpoint's cost
  uint64_t checkpoints_written = 0;
  bool workers_identical = true;  ///< 1-worker vs 8-worker rehearsal image
};


// The identical serialized drive used by the rehearsal and by every trial:
// submit one bundle, barrier on resync() (quiesces the pool), and advance
// the chain at fixed points. Returns outcomes keyed by bundle id.
std::map<uint64_t, service::SessionOutcome> drive(
    service::PreExecutionEngine& engine, node::NodeSimulator& node,
    const std::vector<evm::Transaction>& txs, const CrashOptions& opts) {
  engine.start();
  const size_t tick_every =
      std::max<size_t>(1, opts.bundles / std::max<size_t>(1, opts.blocks));
  size_t ticks_done = 0;
  for (size_t i = 0; i < opts.bundles; ++i) {
    engine.submit({txs[i % txs.size()]});
    (void)engine.resync();  // barrier: the bundle resolves before we go on
    if ((i + 1) % tick_every == 0 && ticks_done < opts.blocks) {
      node.produce_block({txs[(opts.bundles + ticks_done) % txs.size()]});
      ++ticks_done;
    }
  }
  std::map<uint64_t, service::SessionOutcome> by_id;
  for (auto& outcome : engine.drain()) by_id[outcome.bundle_id] = outcome;
  return by_id;
}

// Fresh deterministic chain per run: every trial replays the exact same
// block history, so outcomes are comparable across rehearsal and trials.
// In paged mode the node's world lives on a PagedNodeStore over the node's
// OWN fs — never crash-armed (the node is the untrusted party; the drill
// crashes HarDTAPE's durable state, not the chain).
struct ChainFixture {
  durability::SimFs node_fs;
  std::unique_ptr<trie::PagedNodeStore> node_store;
  bench::EvaluationSetup setup;
  std::vector<evm::Transaction> txs;
  explicit ChainFixture(const CrashOptions& opts)
      : node_store(opts.paged
                       ? std::make_unique<trie::PagedNodeStore>(
                             node_fs, pagedstore::PagedStoreConfig{
                                          .name = "node-trie",
                                          .buffer_pool_pages = opts.pool_pages})
                       : nullptr),
        setup(4, 16, opts.seed, opts.scale, node_store.get()),
        txs(setup.all_transactions()) {}
};

// Summed high-water RAM across every buffer pool in play: the durable
// mirror, each ORAM shard's slot store, and the node's trie store.
uint64_t measured_pool_peak(service::PreExecutionEngine& engine,
                            const DurableStore& store, const ChainFixture& chain) {
  uint64_t total = 0;
  if (const auto s = store.pool_stats()) total += s->peak_resident_bytes;
  oram::ShardedOramStore& shards = engine.oram_store();
  for (size_t i = 0; i < shards.shard_count(); ++i) {
    if (const auto s = shards.server(i).slot_pool_stats()) {
      total += s->peak_resident_bytes;
    }
  }
  if (chain.node_store != nullptr) {
    total += chain.node_store->pool_stats().peak_resident_bytes;
  }
  return total;
}

// The analytic budget the measured peak must stay under: pages x payload
// bytes per pool, with each ORAM shard's cap raised to its walk working set
// exactly as PagedSlotStore raises it.
uint64_t analytic_pool_budget(service::PreExecutionEngine& engine,
                              const CrashOptions& opts) {
  uint64_t total = opts.pool_pages * oram::kPageSize;  // durable mirror
  oram::ShardedOramStore& shards = engine.oram_store();
  const oram::OramConfig& shard_cfg = shards.server(0).config();
  const uint64_t bucket_bytes = oram::PagedSlotStore::bucket_page_bytes(
      shard_cfg.bucket_capacity, shard_cfg.block_size);
  for (size_t i = 0; i < shards.shard_count(); ++i) {
    const size_t pages = std::max(
        opts.pool_pages, 2 * (shards.server(i).depth() + 1));
    total += pages * bucket_bytes;
  }
  total += opts.pool_pages * trie::PagedNodeStore::kDefaultPagePayload;
  return total;
}

struct TargetPoint {
  std::string label;
  uint64_t op = 0;
};

// Aim crashes at the rehearsal op stream's load-bearing moments.
std::vector<TargetPoint> targeted_points(const std::vector<durability::FsOpRecord>& log) {
  std::vector<TargetPoint> points;
  auto add = [&points](const char* label, std::optional<uint64_t> op) {
    if (op) points.push_back({label, *op});
  };
  std::optional<uint64_t> journal_tail, ckpt_tmp, ckpt_rename, commit_fsync,
      resync_install, dir_sync;
  for (const auto& record : log) {
    const bool wal = record.path.rfind("wal-", 0) == 0;
    if (record.op == durability::FsOp::kAppend && wal) {
      journal_tail = record.index;  // keeps the last one
      if (record.index > log.size() / 2 && !resync_install) resync_install = record.index;
    }
    if (record.op == durability::FsOp::kAppend &&
        record.path.find(".tmp") != std::string::npos && !ckpt_tmp) {
      ckpt_tmp = record.index;
    }
    if (record.op == durability::FsOp::kRename && !ckpt_rename) ckpt_rename = record.index;
    if (record.op == durability::FsOp::kFsync && wal &&
        record.index > log.size() / 3 && !commit_fsync) {
      commit_fsync = record.index;
    }
    if (record.op == durability::FsOp::kSyncDir) dir_sync = record.index;
  }
  add("journal-tail", journal_tail);
  add("ckpt-mid-write", ckpt_tmp);
  add("ckpt-publish-rename", ckpt_rename);
  add("epoch-commit-fsync", commit_fsync);
  add("mid-resync-install", resync_install);
  add("dir-sync", dir_sync);
  return points;
}

TrialResult run_trial(uint64_t trial, const std::string& label,
                      const durability::CrashConfig& crash,
                      const CrashOptions& opts,
                      const std::map<uint64_t, service::SessionOutcome>& baseline) {
  TrialResult result;
  result.trial = trial;
  result.label = label;
  result.crash_at_op = crash.crash_at_op;
  auto violate = [&result](const std::string& what) { result.violations.push_back(what); };

  ChainFixture chain(opts);
  SimFs fs;
  fs.arm(crash);

  std::map<uint64_t, service::SessionOutcome> crashed_outcomes;
  {
    DurableStore store(fs, durable_config(opts));
    service::PreExecutionEngine engine(chain.setup.node,
                                       engine_config(&store, &fs, opts));
    if (engine.synchronize() == Status::kOk) {
      crashed_outcomes = drive(engine, chain.setup.node, chain.txs, opts);
    } else if (!fs.crashed()) {
      // Power loss DURING the initial sync is a legitimate trial in paged
      // mode (the slot spill lives on the armed fs, so sync fails closed
      // once the fs dies); recovery below must still produce a usable
      // image. A sync failure on a live fs is a real violation.
      violate("pre-crash synchronize() failed");
      return result;
    }
  }
  if (!fs.crashed()) violate("armed crash point was never reached");

  // --- power back on: recover, adopt, warm restart ---
  fs.restart();
  const uint64_t warm_start = now_ns();
  const auto recovered = durability::Recovery::replay(fs);
  SimFs fs2;
  DurableStore store2(fs2, durable_config(opts));
  store2.adopt(recovered);
  service::PreExecutionEngine engine(chain.setup.node,
                                     engine_config(&store2, &fs2, opts));
  const Status warm = engine.warm_restart(recovered);
  result.warm_ns = now_ns() - warm_start;
  result.recovery = recovered.stats;
  result.recovered_history = !recovered.image.epoch_history.empty();

  if (warm != Status::kOk) {
    result.cold_fallback = true;
    if (engine.synchronize() != Status::kOk) {
      violate("warm restart AND cold fallback failed");
      return result;
    }
  }
  {
    const auto metrics = engine.snapshot();
    result.warm_verified_slots = metrics.sync_verified_slots;
    result.pages_restored = metrics.pages_restored;
  }

  // R1: fail-closed image — no page newer than the committed store epoch.
  const uint64_t committed_epoch =
      recovered.image.epoch_history.empty() ? 0
                                            : recovered.image.epoch_history.back().epoch;
  for (const auto& [id, epoch] : recovered.image.page_tags) {
    if (epoch > committed_epoch) {
      violate("R1: recovered page tagged epoch " + std::to_string(epoch) +
              " > committed " + std::to_string(committed_epoch));
      break;
    }
  }
  // R2: live again at the head, store never ahead of its commit.
  if (engine.pinned_header().state_root != chain.setup.node.head().state_root) {
    violate("R2: restarted engine not pinned to the node head");
  }
  if (engine.epoch_registry().max_page_epoch() > engine.epoch_registry().store_epoch()) {
    violate("R2: max page epoch > store epoch after restart");
  }

  // R3 + the resubmission set: a bundle is settled iff its resolve mark
  // survived (admitted in the image and no longer pending).
  std::vector<uint64_t> to_resubmit;
  for (uint64_t id = 0; id < opts.bundles; ++id) {
    const bool admitted = id < recovered.image.next_bundle_id;
    const bool pending = recovered.image.pending_bundles.count(id) != 0;
    if (admitted && !pending) {
      ++result.resolved_durably;
      const auto it = crashed_outcomes.find(id);
      const auto base = baseline.find(id);
      if (it == crashed_outcomes.end() || base == baseline.end() ||
          !service::outcomes_semantically_identical(it->second, base->second)) {
        violate("R3: durably resolved bundle " + std::to_string(id) +
                " diverged from the rehearsal");
      }
    } else {
      to_resubmit.push_back(id);
    }
  }
  result.resubmitted = to_resubmit.size();

  engine.start();
  for (uint64_t id : to_resubmit) {
    engine.resubmit(id, {chain.txs[id % chain.txs.size()]}, /*attempt=*/1);
  }
  std::map<uint64_t, service::SessionOutcome> readmitted;
  for (auto& outcome : engine.drain()) readmitted[outcome.bundle_id] = outcome;

  // R4 reference + cold timing: a fresh engine, no journal, same head.
  ChainFixture ref_chain(opts);
  for (uint64_t n = ref_chain.setup.node.head_number();
       n < chain.setup.node.head_number(); ++n) {
    ref_chain.setup.node.produce_block(
        {ref_chain.txs[(opts.bundles + (n - 1)) % ref_chain.txs.size()]});
  }
  const uint64_t cold_start = now_ns();
  SimFs ref_fs;
  service::PreExecutionEngine reference(ref_chain.setup.node,
                                        engine_config(nullptr, &ref_fs, opts));
  if (reference.synchronize() != Status::kOk) {
    violate("reference cold synchronize() failed");
    return result;
  }
  result.cold_ns = now_ns() - cold_start;
  result.cold_verified_slots = reference.snapshot().sync_verified_slots;
  // R6 (deterministic half): with a recovered image, getting live again must
  // re-verify strictly less than a cold full sync.
  if (result.recovered_history && !result.cold_fallback &&
      result.warm_verified_slots >= result.cold_verified_slots) {
    violate("R6: warm restart verified " + std::to_string(result.warm_verified_slots) +
            " slots, cold sync only " + std::to_string(result.cold_verified_slots));
  }
  reference.start();
  std::vector<uint64_t> reference_ids;
  for (uint64_t id : to_resubmit) {
    reference_ids.push_back(
        reference.submit({ref_chain.txs[id % ref_chain.txs.size()]}).bundle_id);
  }
  std::map<uint64_t, service::SessionOutcome> reference_outcomes;
  for (auto& outcome : reference.drain()) reference_outcomes[outcome.bundle_id] = outcome;

  for (size_t i = 0; i < to_resubmit.size(); ++i) {
    const auto got = readmitted.find(to_resubmit[i]);
    const auto want = reference_outcomes.find(reference_ids[i]);
    if (got == readmitted.end()) {
      violate("R5: no outcome for re-admitted bundle " + std::to_string(to_resubmit[i]));
      continue;
    }
    // The reference engine numbered the bundle afresh; identity is checked
    // by construction of the pairing, so align the id before comparing.
    service::SessionOutcome want_aligned;
    if (want != reference_outcomes.end()) {
      want_aligned = want->second;
      want_aligned.bundle_id = to_resubmit[i];
    }
    if (want == reference_outcomes.end() ||
        !service::outcomes_semantically_identical(got->second, want_aligned)) {
      violate("R4: re-admitted bundle " + std::to_string(to_resubmit[i]) +
              " diverged from a cold engine at the same head");
    }
  }
  // R5: one combined outcome per id, nothing extra.
  if (readmitted.size() != to_resubmit.size()) {
    violate("R5: " + std::to_string(readmitted.size()) + " readmitted outcomes for " +
            std::to_string(to_resubmit.size()) + " resubmissions");
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  CrashOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      opts.bundles = 10;
      opts.blocks = 2;
      opts.uniform_trials = 3;
    }
    if (!std::strcmp(argv[i], "--paged")) opts.paged = true;
    if (i >= argc - 1) continue;
    if (!std::strcmp(argv[i], "--bundles")) opts.bundles = std::strtoull(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--blocks")) opts.blocks = std::strtoull(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--trials")) opts.uniform_trials = std::strtoull(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--seed")) opts.seed = std::strtoull(argv[i + 1], nullptr, 0);
    if (!std::strcmp(argv[i], "--scale")) opts.scale = std::strtoull(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--pool-pages")) opts.pool_pages = std::strtoull(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--out")) opts.out_path = argv[i + 1];
  }
  if (opts.scale == 0) opts.scale = 1;

  // --- rehearsal: the uncrashed timeline every trial is measured against ---
  ChainFixture chain(opts);
  SimFs rehearsal_fs;
  std::map<uint64_t, service::SessionOutcome> baseline;
  PagedMetrics paged;
  Bytes rehearsal_image;
  {
    DurableStore store(rehearsal_fs, durable_config(opts));
    service::PreExecutionEngine engine(chain.setup.node,
                                       engine_config(&store, &rehearsal_fs, opts));
    if (engine.synchronize() != Status::kOk) {
      std::fprintf(stderr, "rehearsal synchronize() failed\n");
      return 1;
    }
    baseline = drive(engine, chain.setup.node, chain.txs, opts);
    if (opts.paged) {
      rehearsal_image = durability::checkpoint::serialize(0, store.image_snapshot());
      paged.full_image_bytes = rehearsal_image.size();
      paged.incremental_ckpt_bytes = store.stats().last_checkpoint_bytes;
      paged.checkpoints_written = store.stats().checkpoints_written;
      paged.peak_pool_bytes = measured_pool_peak(engine, store, chain);
      paged.pool_budget_bytes = analytic_pool_budget(engine, opts);
    }
  }
  // Determinism across worker counts: the drive is serialized (submit, then
  // resync as a barrier), so an 8-worker rehearsal must land on the exact
  // same durable image, byte for byte.
  if (opts.paged) {
    ChainFixture chain8(opts);
    SimFs fs8;
    DurableStore store8(fs8, durable_config(opts));
    auto config8 = engine_config(&store8, &fs8, opts);
    config8.num_hevms = 8;
    service::PreExecutionEngine engine8(chain8.setup.node, config8);
    if (engine8.synchronize() != Status::kOk) {
      std::fprintf(stderr, "8-worker rehearsal synchronize() failed\n");
      return 1;
    }
    (void)drive(engine8, chain8.setup.node, chain8.txs, opts);
    paged.workers_identical =
        durability::checkpoint::serialize(0, store8.image_snapshot()) ==
        rehearsal_image;
  }
  const uint64_t total_ops = rehearsal_fs.op_count();
  const auto op_log = rehearsal_fs.op_log();
  std::printf("rehearsal: %zu bundles, %llu fs ops\n", baseline.size(),
              static_cast<unsigned long long>(total_ops));

  faults::CrashPlan plan(opts.seed);
  std::vector<TrialResult> trials;
  uint64_t trial_index = 0;
  for (const auto& point : targeted_points(op_log)) {
    trials.push_back(run_trial(trial_index, point.label,
                               plan.spec_at(trial_index, 0, point.op), opts, baseline));
    ++trial_index;
  }
  for (size_t i = 0; i < opts.uniform_trials; ++i) {
    trials.push_back(run_trial(trial_index, "uniform",
                               plan.spec(trial_index, 0, total_ops), opts, baseline));
    ++trial_index;
  }

  uint64_t warm_total_ns = 0, cold_total_ns = 0;
  size_t recoverable = 0, violations = 0;
  for (const auto& t : trials) {
    violations += t.violations.size();
    if (t.recovered_history && !t.cold_fallback) {
      warm_total_ns += t.warm_ns;
      cold_total_ns += t.cold_ns;
      ++recoverable;
    }
  }
  const double speedup =
      warm_total_ns > 0 ? double(cold_total_ns) / double(warm_total_ns) : 0.0;
  // R6: over the recoverable trials, warm recovery must beat cold re-sync.
  const bool warm_wins = recoverable == 0 || cold_total_ns > warm_total_ns;

  bench::Table table({"trial", "crash point", "op", "stop reason", "ckpt", "gen",
                      "replayed", "truncated", "settled", "resubmitted", "restored",
                      "slots w/c", "warm ms", "cold ms", "viol"});
  for (const auto& t : trials) {
    table.add_row({std::to_string(t.trial), t.label, std::to_string(t.crash_at_op),
                   t.recovery.stop_reason.empty() ? "-" : t.recovery.stop_reason,
                   t.recovery.used_checkpoint ? "y" : "n",
                   std::to_string(t.recovery.next_generation),
                   std::to_string(t.recovery.records_replayed),
                   std::to_string(t.recovery.bytes_truncated),
                   std::to_string(t.resolved_durably), std::to_string(t.resubmitted),
                   std::to_string(t.pages_restored),
                   std::to_string(t.warm_verified_slots) + "/" +
                       std::to_string(t.cold_verified_slots),
                   bench::fmt(t.warm_ns / 1e6, 2), bench::fmt(t.cold_ns / 1e6, 2),
                   std::to_string(t.violations.size())});
  }
  table.print("Crash drill (seeded power loss -> recovery -> warm restart)");
  std::printf("\nwarm total %.2f ms vs cold total %.2f ms over %zu recoverable "
              "trials (speedup %.2fx)\n",
              warm_total_ns / 1e6, cold_total_ns / 1e6, recoverable, speedup);

  for (const auto& t : trials) {
    for (const auto& v : t.violations) {
      std::fprintf(stderr, "violation (trial %llu, %s): %s\n",
                   static_cast<unsigned long long>(t.trial), t.label.c_str(), v.c_str());
    }
  }
  if (!warm_wins) {
    std::fprintf(stderr, "violation (R6): warm recovery slower than cold re-sync "
                         "in aggregate\n");
  }
  bool paged_ok = true;
  if (opts.paged) {
    std::printf("\npaged drill (scale %zux, pool %zu pages): budget %llu B, "
                "peak %llu B, full image %llu B, last incremental ckpt %llu B "
                "(%llu checkpoints), 8-worker image %s\n",
                opts.scale, opts.pool_pages,
                static_cast<unsigned long long>(paged.pool_budget_bytes),
                static_cast<unsigned long long>(paged.peak_pool_bytes),
                static_cast<unsigned long long>(paged.full_image_bytes),
                static_cast<unsigned long long>(paged.incremental_ckpt_bytes),
                static_cast<unsigned long long>(paged.checkpoints_written),
                paged.workers_identical ? "identical" : "DIVERGED");
    if (paged.peak_pool_bytes > paged.pool_budget_bytes) {
      std::fprintf(stderr, "violation (paged): pool peak exceeded the budget\n");
      paged_ok = false;
    }
    if (!paged.workers_identical) {
      std::fprintf(stderr, "violation (paged): 8-worker rehearsal image diverged "
                           "from the 1-worker image\n");
      paged_ok = false;
    }
  }
  const bool ok = violations == 0 && warm_wins && paged_ok;

  std::ofstream json(opts.out_path);
  json << "{\n  \"bench\": \"crash\",\n  \"bundles\": " << opts.bundles
       << ",\n  \"blocks\": " << opts.blocks
       << ",\n  \"seed\": " << opts.seed
       << ",\n  \"paged\": " << (opts.paged ? "true" : "false")
       << ",\n  \"scale\": " << opts.scale
       << ",\n  \"pool_pages\": " << opts.pool_pages
       << ",\n  \"pool_budget_bytes\": " << paged.pool_budget_bytes
       << ",\n  \"peak_pool_bytes\": " << paged.peak_pool_bytes
       << ",\n  \"full_image_bytes\": " << paged.full_image_bytes
       << ",\n  \"incremental_ckpt_bytes\": " << paged.incremental_ckpt_bytes
       << ",\n  \"checkpoints_written\": " << paged.checkpoints_written
       << ",\n  \"workers_identical\": " << (paged.workers_identical ? "true" : "false")
       << ",\n  \"rehearsal_fs_ops\": " << total_ops
       << ",\n  \"trials\": [\n";
  for (size_t i = 0; i < trials.size(); ++i) {
    const auto& t = trials[i];
    json << (i ? ",\n" : "") << "    {\"trial\": " << t.trial << ", \"label\": \""
         << t.label << "\", \"crash_at_op\": " << t.crash_at_op
         << ", \"stop_reason\": \"" << t.recovery.stop_reason
         << "\", \"used_checkpoint\": " << (t.recovery.used_checkpoint ? "true" : "false")
         << ", \"generation\": " << t.recovery.next_generation
         << ", \"records_replayed\": " << t.recovery.records_replayed
         << ", \"bytes_truncated\": " << t.recovery.bytes_truncated
         << ", \"epochs_aborted\": " << t.recovery.epochs_aborted
         << ", \"recovered_history\": " << (t.recovered_history ? "true" : "false")
         << ", \"cold_fallback\": " << (t.cold_fallback ? "true" : "false")
         << ", \"resolved_durably\": " << t.resolved_durably
         << ", \"resubmitted\": " << t.resubmitted
         << ", \"pages_restored\": " << t.pages_restored
         << ", \"warm_verified_slots\": " << t.warm_verified_slots
         << ", \"cold_verified_slots\": " << t.cold_verified_slots
         << ", \"warm_ns\": " << t.warm_ns << ", \"cold_ns\": " << t.cold_ns
         << ", \"violations\": " << t.violations.size() << "}";
  }
  json << "\n  ],\n  \"recoverable_trials\": " << recoverable
       << ",\n  \"warm_total_ns\": " << warm_total_ns
       << ",\n  \"cold_total_ns\": " << cold_total_ns
       << ",\n  \"warm_speedup\": " << bench::fmt(speedup, 3)
       << ",\n  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", opts.out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", opts.out_path.c_str());
  std::printf("crash drill verdict: %s\n", ok ? "all invariants hold" : "VIOLATIONS");
  return ok ? 0 : 1;
}
