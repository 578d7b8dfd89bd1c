// The benchmark's three workloads and the deployment (chain fixture +
// engine) each one runs against.
//
// Every workload drives the public service::PreExecutionEngine with one
// engine worker and one bundle in flight. Inputs come from
// workload::WorkloadGenerator (the Table I mix) through
// bench::EvaluationSetup; the engine receives only the generated bundles.
//
//  oram-static   -full, RAM slot backend, static chain, no journal. Timed
//                host time is almost all the ORAM read path; set-up is the
//                cold sync (one oblivious path walk per page).
//  evm-local     -ES: state read locally, no ORAM; 8-transaction bundles.
//                Host time is HEVM/EVM interpretation, the cost-model
//                observers and layer-2 paging: the control that must not
//                move under ORAM, sync or durability changes.
//  live-durable  -full on a live chain: every 16 bundles a block of four
//                recently pre-executed transactions lands and is
//                delta-synced at the next admission; a DurableStore with
//                incremental checkpoints every 16 records; ORAM slots and
//                the node trie on the paged backend with 64-page pools. The
//                run ends with a power cut and a warm restart.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "durability/durable_store.hpp"
#include "durability/recovery.hpp"
#include "obs/trace.hpp"
#include "pagedstore/buffer_pool.hpp"
#include "service/engine.hpp"
#include "trie/paged_node_store.hpp"

namespace perfbench {

using namespace hardtape;
using Bundle = std::vector<evm::Transaction>;

struct WorkloadSpec {
  const char* name;
  service::SecurityConfig security;
  size_t txs_per_bundle;
  /// Bundles in the fixed window over which the simulated metrics and the
  /// layer counts are taken. The timed phase always completes it, so those
  /// figures depend on the seed alone, never on host speed.
  size_t window_bundles;
  /// Live chain (a block every kBundlesPerBlock bundles) with a DurableStore
  /// and paged slot and trie backends.
  bool live;
};

std::optional<WorkloadSpec> find_workload(std::string_view name);

inline constexpr size_t kBundlesPerBlock = 16;
inline constexpr size_t kTxsPerBlock = 4;

/// Counts and times every get of the node's MPT (traced runs only).
class TimingNodeStore final : public trie::NodeStore {
 public:
  explicit TimingNodeStore(trie::NodeStore& inner) : inner_(inner) {}

  void put(const H256& hash, BytesView encoded) override { inner_.put(hash, encoded); }
  std::optional<Bytes> get(const H256& hash) const override {
    const auto start = std::chrono::steady_clock::now();
    auto node = inner_.get(hash);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    gets_.fetch_add(1, std::memory_order_relaxed);
    get_ns_.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
    return node;
  }
  size_t node_count() const override { return inner_.node_count(); }

  uint64_t gets() const { return gets_.load(std::memory_order_relaxed); }
  uint64_t get_ns() const { return get_ns_.load(std::memory_order_relaxed); }

 private:
  trie::NodeStore& inner_;
  mutable std::atomic<uint64_t> gets_{0};
  mutable std::atomic<uint64_t> get_ns_{0};
};

struct DeployOptions {
  uint64_t seed = 1;
  bool traced = false;  ///< NodeStore decorator + engine trace sink
  std::function<void(const service::SessionOutcome&)> on_outcome;
};

/// One set-up of a workload: the chain fixture, the durable store (if any)
/// and a synchronized, started engine. Construction IS the set-up the
/// benchmark times.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, const DeployOptions& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const WorkloadSpec& spec() const { return spec_; }
  node::NodeSimulator& node() { return setup_->node; }
  service::PreExecutionEngine& engine() { return *engine_; }
  const std::vector<Bundle>& bundles() const { return bundles_; }
  /// The live-chain block produced before bundle number `bundle`.
  Bundle block_before(size_t bundle) const;

  obs::TraceSink* trace() { return trace_.get(); }
  const TimingNodeStore* timing_store() const { return timing_store_.get(); }
  durability::DurableStore* store() { return store_.get(); }
  durability::SimFs* durable_fs() { return durable_fs_.get(); }
  uint64_t sync_ns() const { return sync_ns_; }

  /// Every buffer pool in play (node trie, ORAM shards, durable mirror).
  std::vector<pagedstore::BufferPoolStats> pool_stats();
  /// Bytes of every paged-store segment file currently on disk.
  uint64_t segment_bytes() const;

  /// Power loss: the durable disk keeps only what was synced, and the
  /// engine and its store are gone. The chain (the untrusted node) and the
  /// disk survive for restart().
  void power_cut();

  /// One restart after power_cut(): replay the disk, adopt the image into a
  /// fresh store, warm-restart a fresh engine and start it. Without a
  /// journal the disk is empty and warm_restart() falls back to a cold
  /// synchronize(). Times each step; the restarted engine stays up until
  /// the next restart() or destruction.
  struct RestartTiming {
    uint64_t replay_ns = 0;
    uint64_t adopt_ns = 0;
    uint64_t warm_restart_ns = 0;  ///< engine construction + warm_restart + start
    durability::RecoveryStats recovery;
    size_t recovered_pages = 0;
    Status status = Status::kOk;
    bool pinned_at_head = false;
    bool epochs_consistent = false;
  };
  RestartTiming restart();
  service::PreExecutionEngine& restarted_engine() { return *restarted_engine_; }

 private:
  service::EngineConfig engine_config(durability::DurableStore* durable,
                                      durability::SimFs* oram_fs) const;

  WorkloadSpec spec_;
  DeployOptions options_;
  // Declaration order is construction order; the engines are torn down
  // before the stores, fixtures and file systems they reference.
  std::unique_ptr<durability::SimFs> node_fs_;
  std::unique_ptr<durability::SimFs> durable_fs_;
  std::unique_ptr<trie::NodeStore> base_store_;
  std::unique_ptr<TimingNodeStore> timing_store_;
  std::unique_ptr<bench::EvaluationSetup> setup_;
  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<durability::DurableStore> store_;
  std::unique_ptr<service::PreExecutionEngine> engine_;
  std::unique_ptr<durability::SimFs> restart_fs_;
  std::unique_ptr<durability::DurableStore> restart_store_;
  std::unique_ptr<service::PreExecutionEngine> restarted_engine_;

  std::vector<Bundle> bundles_;
  uint64_t sync_ns_ = 0;
};

}  // namespace perfbench
