#include "hevm/hevm_core.hpp"

#include "common/errors.hpp"

namespace hardtape::hevm {

void HevmCore::assign(const state::StateReader& base, evm::BlockContext block,
                      const crypto::AesKey128& session_key, uint64_t noise_seed) {
  if (busy()) throw UsageError("hevm core busy: bundles must queue");
  Session session;
  session.overlay = std::make_unique<state::OverlayState>(base);
  session.interpreter = std::make_unique<evm::Interpreter>(*session.overlay, std::move(block));
  session.interpreter->set_frame_memory_limit(config_.l2.l2_bytes / 2);
  memlayer::MemLayerConfig l2 = config_.l2;
  l2.rng_seed = noise_seed;
  if (config_.trace != nullptr) {
    l2.trace = config_.trace;  // pager swap events share this core's ring
    l2.clock = &clock_;
  }
  session.observer = std::make_unique<HevmObserver>(clock_, config_.cost, l2, session_key,
                                                    config_.record_steps, config_.trace);
  session.interpreter->set_observer(session.observer.get());
  session_ = std::move(session);
  clock_.advance_ns(config_.cost.reset_ns());  // clear all on-chip memories
}

state::OverlayState& HevmCore::overlay() {
  if (!session_) throw UsageError("hevm core idle");
  return *session_->overlay;
}

BundleReport HevmCore::execute_bundle(const std::vector<evm::Transaction>& txs) {
  if (!session_) throw UsageError("hevm core idle: assign() first");
  Session& s = *session_;

  BundleReport report;
  const sim::SimStopwatch bundle_watch(clock_);

  for (const evm::Transaction& tx : txs) {
    if (report.aborted) break;
    sim::SimStopwatch tx_watch(clock_);

    evm::TxResult result = s.interpreter->execute_transaction(tx);

    TxTraceReport trace;
    trace.status = result.status;
    trace.return_data = std::move(result.output);
    trace.gas_used = result.gas_used;
    trace.create_address = result.create_address;
    trace.logs = std::move(result.logs);
    trace.steps = s.observer->take_steps();
    trace.storage_writes = s.overlay->tx_storage_writes();
    trace.sim_time_ns = tx_watch.elapsed_ns();

    if (result.status == evm::VmStatus::kMemoryOverflow ||
        s.observer->stats().memory_overflows > 0) {
      report.aborted = true;  // §IV-B: the bundle is treated as an attack
    }
    report.transactions.push_back(std::move(trace));
  }

  report.final_balances = s.overlay->balance_changes();
  report.sim_time_ns = bundle_watch.elapsed_ns();
  report.instructions = s.observer->instructions();
  report.memory_stats = s.observer->stats();
  report.swap_events = s.observer->pager().swap_events();
  return report;
}

void HevmCore::release() {
  // Hardware reset: all on-chip memories cleared, overlay (the temporary
  // world-state modifications) discarded.
  session_.reset();
}

}  // namespace hardtape::hevm
