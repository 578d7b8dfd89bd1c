// Software baselines sharing the semantic interpreter: the "Geth role"
// (paper Figure 4 baseline) and the TSC-VEE comparator (Figure 5).
//
// Both execute the same evm::Interpreter as the HEVM — only the one attached
// observer differs — which is exactly how the paper frames them: Geth is
// the functional reference ("the HEVM should be functionally equivalent to
// the interpreter module of Geth"), and trace equality between roles is the
// §VI-B correctness methodology.
#pragma once

#include "evm/interpreter.hpp"
#include "hevm/cycle_observer.hpp"
#include "sim/clock.hpp"

namespace hardtape::hevm {

struct BaselineResult {
  evm::TxResult tx;
  uint64_t sim_time_ns = 0;
  std::vector<evm::Step> steps;  ///< populated when record_steps
};

/// Executes transactions with a software cost model. Template on the model
/// so Geth and TSC-VEE share the implementation.
template <typename CostModel>
class SoftwareRole {
 public:
  SoftwareRole(const state::StateReader& base, evm::BlockContext block,
               sim::SimClock& clock, const CostModel& model = {},
               uint64_t tx_overhead_ns = 0, bool record_steps = false)
      : overlay_(base),
        interpreter_(overlay_, std::move(block)),
        clock_(clock),
        observer_(clock, model, record_steps),
        tx_overhead_ns_(tx_overhead_ns) {
    interpreter_.set_observer(&observer_);
  }

  BaselineResult execute(const evm::Transaction& tx) {
    const sim::SimStopwatch watch(clock_);
    clock_.advance_ns(tx_overhead_ns_);
    BaselineResult result;
    result.tx = interpreter_.execute_transaction(tx);
    result.steps = observer_.take_steps();
    result.sim_time_ns = watch.elapsed_ns();
    return result;
  }

  state::OverlayState& overlay() { return overlay_; }
  evm::Interpreter& interpreter() { return interpreter_; }

 private:
  state::OverlayState overlay_;
  evm::Interpreter interpreter_;
  sim::SimClock& clock_;
  SoftwareCycleObserver<CostModel> observer_;
  uint64_t tx_overhead_ns_;
};

class GethRole : public SoftwareRole<sim::GethCostModel> {
 public:
  GethRole(const state::StateReader& base, evm::BlockContext block, sim::SimClock& clock,
           bool record_steps = false, sim::GethCostModel model = {})
      : SoftwareRole(base, std::move(block), clock, model, model.ns_tx_overhead,
                     record_steps) {}
};

class TscVeeRole : public SoftwareRole<sim::TscVeeCostModel> {
 public:
  TscVeeRole(const state::StateReader& base, evm::BlockContext block, sim::SimClock& clock,
             bool record_steps = false)
      : SoftwareRole(base, std::move(block), clock, sim::TscVeeCostModel{}, 0,
                     record_steps) {}
};

}  // namespace hardtape::hevm
