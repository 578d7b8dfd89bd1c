// The one observer of each execution role (DESIGN.md §6): the HEVM core's
// pipeline cycle model over its layer-2 pager, and the software roles'
// per-op cost models. Both record the step-level trace when asked.
#pragma once

#include <utility>
#include <vector>

#include "evm/trace.hpp"
#include "memlayer/observer.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "sim/costs.hpp"

namespace hardtape::hevm {

/// The HEVM core's observer: advances a SimClock by the 4-stage pipeline
/// cost of every retired instruction and of every frame switch, drives the
/// layer-2 call-stack pager (memlayer::MemLayerObserver), records steps when
/// `record_steps`, and emits one kOpcode event per instruction when a trace
/// ring is given.
class HevmObserver final : public memlayer::MemLayerObserver {
 public:
  HevmObserver(sim::SimClock& clock, const sim::HevmCostModel& model,
               const memlayer::MemLayerConfig& l2, const crypto::AesKey128& session_key,
               bool record_steps, obs::TraceRing* trace)
      : MemLayerObserver(l2, session_key),
        clock_(clock),
        model_(model),
        record_steps_(record_steps),
        trace_(trace) {}

  void on_step(const evm::Step& step) override {
    clock_.advance_ns(model_.op_ns(evm::opcode_info(step.opcode).op_class, step.opcode));
    ++instructions_;
    if (record_steps_) steps_.push_back(step);
    if (trace_ != nullptr) {
      // Stamped after the charge: sim_ns is the retire time, not the issue time.
      trace_->append(obs::TraceCategory::kOpcode, step.opcode, clock_.now_ns(), step.pc,
                     step.gas_left, static_cast<uint64_t>(step.depth));
    }
  }

  void on_frame_enter(const FrameInfo& info) override {
    // Frame creation: dump layer-1 to layer-2, initialize the new context.
    // Charged before the pager push, so its swap events carry the new time.
    clock_.advance_ns(model_.cycles_call * model_.cycle_ns());
    MemLayerObserver::on_frame_enter(info);
  }

  uint64_t instructions() const { return instructions_; }
  /// The steps recorded since the last call (one transaction's, by use).
  std::vector<evm::Step> take_steps() { return std::exchange(steps_, {}); }

 private:
  sim::SimClock& clock_;
  sim::HevmCostModel model_;
  bool record_steps_;
  obs::TraceRing* trace_;
  uint64_t instructions_ = 0;
  std::vector<evm::Step> steps_;
};

/// The software roles' observer (Geth baseline, TSC-VEE comparator):
/// per-op nanosecond costs on their respective hosts, and the step-level
/// trace when `record_steps`.
template <typename CostModel>
class SoftwareCycleObserver final : public evm::ExecutionObserver {
 public:
  SoftwareCycleObserver(sim::SimClock& clock, const CostModel& model, bool record_steps)
      : clock_(clock), model_(model), record_steps_(record_steps) {}

  void on_step(const evm::Step& step) override {
    clock_.advance_ns(model_.op_ns(evm::opcode_info(step.opcode).op_class, step.opcode));
    if (record_steps_) steps_.push_back(step);
  }

  /// The steps recorded since the last call (one transaction's, by use).
  std::vector<evm::Step> take_steps() { return std::exchange(steps_, {}); }

 private:
  sim::SimClock& clock_;
  CostModel model_;
  bool record_steps_;
  std::vector<evm::Step> steps_;
};

}  // namespace hardtape::hevm
