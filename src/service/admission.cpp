#include "service/admission.hpp"

#include <string>

#include "common/errors.hpp"

namespace hardtape::service {

const char* to_string(BrownoutState state) {
  switch (state) {
    case BrownoutState::kHealthy: return "healthy";
    case BrownoutState::kShedLowPriority: return "shed-low-priority";
    case BrownoutState::kAdmitNone: return "admit-none";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         obs::Registry* registry)
    : config_(std::move(config)), registry_(registry) {
  if (registry_ == nullptr) {
    throw UsageError("AdmissionController requires a metrics registry");
  }
  brownout_gauge_ = &registry_->gauge(
      "hardtape_service_brownout_state",
      "overload ladder rung: 0 healthy, 1 shed-low-priority, 2 admit-none");
  depth_gauge_ = &registry_->gauge("hardtape_service_queue_depth",
                                   "requests queued across all tenants");
  brownout_gauge_->set(0);
  depth_gauge_->set(0);
  for (const TenantConfig& t : config_.tenants) tenant(t.tenant_id);
}

AdmissionController::Tenant& AdmissionController::tenant(uint64_t tenant_id) {
  auto it = tenants_.find(tenant_id);
  if (it != tenants_.end()) return it->second;

  Tenant t;
  t.config = config_.defaults;
  t.config.tenant_id = tenant_id;
  for (const TenantConfig& c : config_.tenants) {
    if (c.tenant_id == tenant_id) {
      t.config = c;
      break;
    }
  }
  if (t.config.weight == 0) {
    throw UsageError("AdmissionController: tenant weight must be >= 1");
  }
  const std::string prefix =
      "hardtape_service_tenant_" + std::to_string(tenant_id) + "_";
  t.admitted = &registry_->counter(prefix + "admitted_total",
                                   "requests accepted into the tenant queue");
  t.shed = &registry_->counter(prefix + "shed_total",
                               "requests refused with kOverloaded");
  t.deadline_exceeded =
      &registry_->counter(prefix + "deadline_exceeded_total",
                          "requests refused with kDeadlineExceeded");
  t.queue_wait = &registry_->histogram(prefix + "queue_wait_sim_ns",
                                       "sim ns from admission to dispatch");
  return tenants_.emplace(tenant_id, std::move(t)).first->second;
}

Status AdmissionController::admit(QueuedRequest request, uint64_t now_ns) {
  Tenant& t = tenant(request.tenant_id);
  // Dead on arrival beats every other verdict: even a healthy service must
  // not queue work whose answer is already worthless (the SP's link may have
  // sat on the frame past the client's own budget).
  if (request.deadline_ns != 0 && now_ns >= request.deadline_ns) {
    t.deadline_exceeded->add();
    return Status::kDeadlineExceeded;
  }
  const bool shed_this_rung =
      state_ == BrownoutState::kAdmitNone ||
      (state_ == BrownoutState::kShedLowPriority &&
       t.config.priority < config_.shed_priority_floor);
  if (shed_this_rung || t.queue.size() >= t.config.queue_capacity) {
    t.shed->add();
    return Status::kOverloaded;
  }
  request.enqueue_ns = now_ns;
  t.queue.push_back(std::move(request));
  ++total_queued_;
  t.admitted->add();
  update_brownout();
  return Status::kOk;
}

std::optional<AdmissionController::Pick> AdmissionController::next(
    uint64_t now_ns) {
  if (total_queued_ == 0) return std::nullopt;
  // One bounded pass over the tenant ring starting at the cursor. Every
  // visited tenant either yields a pick (return) or advances the cursor, so
  // a full silent pass proves nothing is dispatchable right now.
  const size_t tenant_count = tenants_.size();
  auto it = tenants_.lower_bound(cursor_);
  if (it == tenants_.end()) it = tenants_.begin();
  for (size_t visited = 0; visited < tenant_count; ++visited) {
    Tenant& t = it->second;
    const auto advance = [&] {
      ++it;
      if (it == tenants_.end()) it = tenants_.begin();
      cursor_ = it->first;
    };
    // Expired heads first: they leave the queue as kDeadlineExceeded
    // verdicts, free of charge — no deficit, no in-flight slot, no device.
    // The cursor stays put so the tenant's live head is considered next.
    if (!t.queue.empty() && t.queue.front().deadline_ns != 0 &&
        now_ns >= t.queue.front().deadline_ns) {
      Pick pick{std::move(t.queue.front()), /*expired=*/true};
      t.queue.pop_front();
      --total_queued_;
      t.deadline_exceeded->add();
      t.queue_wait->observe(now_ns - pick.request.enqueue_ns);
      update_brownout();
      return pick;
    }
    if (t.queue.empty()) {
      // Idle tenants carry no deficit into their next busy period (DRR's
      // memoryless rule — saved-up credit would defeat the fairness bound).
      t.deficit = 0;
      advance();
      continue;
    }
    if (t.in_flight >= t.config.max_in_flight) {
      advance();  // at quota: skipped, deficit intact
      continue;
    }
    if (t.deficit == 0) {
      t.deficit = static_cast<uint64_t>(kDrrQuantumBase) * t.config.weight;
    }
    Pick pick{std::move(t.queue.front()), /*expired=*/false};
    t.queue.pop_front();
    --total_queued_;
    --t.deficit;
    ++t.in_flight;
    t.queue_wait->observe(now_ns - pick.request.enqueue_ns);
    if (t.deficit == 0) advance();  // quantum spent: next round, next tenant
    update_brownout();
    return pick;
  }
  return std::nullopt;
}

void AdmissionController::readmit(QueuedRequest request, uint64_t now_ns) {
  Tenant& t = tenant(request.tenant_id);
  request.enqueue_ns = now_ns;
  // Front of the tenant queue, no shed checks: this request was already
  // admitted once and lost its device through no fault of its own (see the
  // header contract). Deadline expiry still applies at the next DRR pass.
  t.queue.push_front(std::move(request));
  ++total_queued_;
  update_brownout();
}

void AdmissionController::on_complete(uint64_t tenant_id) {
  Tenant& t = tenant(tenant_id);
  if (t.in_flight == 0) {
    throw UsageError("AdmissionController::on_complete without a dispatch");
  }
  --t.in_flight;
}

void AdmissionController::update_brownout() {
  const size_t depth = total_queued_;
  // One rung per update, with independent enter/exit marks per rung: a
  // workload oscillating around a single threshold sees the state change
  // once, not every sample.
  switch (state_) {
    case BrownoutState::kHealthy:
      if (depth >= config_.admit_none_depth_enter) {
        state_ = BrownoutState::kAdmitNone;
      } else if (depth >= config_.shed_depth_enter) {
        state_ = BrownoutState::kShedLowPriority;
      }
      break;
    case BrownoutState::kShedLowPriority:
      if (depth >= config_.admit_none_depth_enter) {
        state_ = BrownoutState::kAdmitNone;
      } else if (depth < config_.shed_depth_exit) {
        state_ = BrownoutState::kHealthy;
      }
      break;
    case BrownoutState::kAdmitNone:
      if (depth < config_.admit_none_depth_exit) {
        state_ = BrownoutState::kShedLowPriority;
      }
      break;
  }
  brownout_gauge_->set(static_cast<double>(static_cast<uint8_t>(state_)));
  depth_gauge_->set(static_cast<double>(depth));
}

}  // namespace hardtape::service
