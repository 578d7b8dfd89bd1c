#include "hevm/hevm_core.hpp"

#include "common/errors.hpp"

namespace hardtape::hevm {

namespace {

/// Emits one kOpcode trace event per retired instruction, stamped with the
/// core's simulated clock. Placed after the cycle observer in the chain so
/// sim_ns reflects retire time, not issue time.
class OpcodeTraceObserver : public evm::ExecutionObserver {
 public:
  OpcodeTraceObserver(obs::TraceRing& ring, const sim::SimClock& clock)
      : ring_(ring), clock_(clock) {}

  void on_step(const StepInfo& info) override {
    ring_.append(obs::TraceCategory::kOpcode, info.opcode, clock_.now_ns(), info.pc,
                 info.gas_left, static_cast<uint64_t>(info.depth));
  }

 private:
  obs::TraceRing& ring_;
  const sim::SimClock& clock_;
};

}  // namespace

void HevmCore::assign(const state::StateReader& base, evm::BlockContext block,
                      const crypto::AesKey128& session_key, uint64_t noise_seed) {
  if (busy()) throw UsageError("hevm core busy: bundles must queue");
  Session session;
  session.overlay = std::make_unique<state::OverlayState>(base);
  session.interpreter = std::make_unique<evm::Interpreter>(*session.overlay, std::move(block));
  session.interpreter->set_frame_memory_limit(config_.l2.l2_bytes / 2);
  session.cycles = std::make_unique<HevmCycleObserver>(clock_, config_.cost);
  memlayer::MemLayerConfig l2 = config_.l2;
  l2.rng_seed = noise_seed;
  if (config_.trace != nullptr) {
    l2.trace = config_.trace;  // pager swap events share this core's ring
    l2.clock = &clock_;
  }
  session.memory = std::make_unique<memlayer::MemLayerObserver>(config_.l1, l2, session_key);
  session.tracer = std::make_unique<evm::StepTracer>();
  session.chain = std::make_unique<evm::ObserverChain>();
  session.chain->add(session.cycles.get());
  session.chain->add(session.memory.get());
  session.tracer->set_record_steps(config_.record_steps);
  session.chain->add(session.tracer.get());
  if (config_.trace != nullptr) {
    session.opcode_trace = std::make_unique<OpcodeTraceObserver>(*config_.trace, clock_);
    session.chain->add(session.opcode_trace.get());
  }
  session.interpreter->set_observer(session.chain.get());
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
    s.tracer->clear();

    const evm::TxResult result = s.interpreter->execute_transaction(tx);

    TxTraceReport trace;
    trace.status = result.status;
    trace.return_data = result.output;
    trace.gas_used = result.gas_used;
    trace.create_address = result.create_address;
    trace.logs = s.tracer->logs();
    if (config_.record_steps) trace.steps = s.tracer->steps();
    trace.storage_writes = s.overlay->tx_storage_writes();
    trace.sim_time_ns = tx_watch.elapsed_ns();

    if (result.status == evm::VmStatus::kMemoryOverflow ||
        s.memory->stats().memory_overflows > 0) {
      report.aborted = true;  // §IV-B: the bundle is treated as an attack
    }
    report.transactions.push_back(std::move(trace));
  }

  report.final_balances = s.overlay->balance_changes();
  report.sim_time_ns = bundle_watch.elapsed_ns();
  report.instructions = s.cycles->instructions();
  report.memory_stats = s.memory->stats();
  report.swap_events = s.memory->pager().swap_events();
  return report;
}

void HevmCore::release() {
  // Hardware reset: all on-chip memories cleared, overlay (the temporary
  // world-state modifications) discarded.
  session_.reset();
}

}  // namespace hardtape::hevm
