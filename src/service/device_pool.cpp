#include "service/device_pool.hpp"

#include <algorithm>
#include <string>

#include "common/errors.hpp"

namespace hardtape::service {

const char* to_string(DeviceState state) {
  switch (state) {
    case DeviceState::kJoining: return "joining";
    case DeviceState::kServing: return "serving";
    case DeviceState::kDraining: return "draining";
    case DeviceState::kQuarantined: return "quarantined";
    case DeviceState::kDead: return "dead";
  }
  return "unknown";
}

const char* to_string(DeviceEventKind kind) {
  switch (kind) {
    case DeviceEventKind::kJoin: return "join";
    case DeviceEventKind::kServe: return "serve";
    case DeviceEventKind::kDrainStart: return "drain-start";
    case DeviceEventKind::kDrainDone: return "drain-done";
    case DeviceEventKind::kCrash: return "crash";
    case DeviceEventKind::kStickyFault: return "sticky-fault";
    case DeviceEventKind::kQuarantine: return "quarantine";
    case DeviceEventKind::kRejoin: return "rejoin";
  }
  return "unknown";
}

DevicePool::DevicePool(DevicePoolConfig config, obs::Registry* registry)
    : config_(config), registry_(registry) {
  if (registry_ == nullptr) {
    throw UsageError("DevicePool requires a metrics registry");
  }
  serving_gauge_ = &registry_->gauge("hardtape_service_devices_serving",
                                     "devices in the serving state");
  total_gauge_ = &registry_->gauge("hardtape_service_devices_total",
                                   "devices ever added to the pool");
  hot_adds_ = &registry_->counter("hardtape_service_device_hot_adds_total",
                                  "devices added after construction");
  crashes_ = &registry_->counter("hardtape_service_device_crashes_total",
                                 "abrupt device deaths (incl. flaps)");
  sticky_faults_ =
      &registry_->counter("hardtape_service_device_sticky_faults_total",
                          "bindings whose result failed health checks");
  quarantines_ =
      &registry_->counter("hardtape_service_device_quarantines_total",
                          "breaker trips quarantining a device");
  rejoins_ = &registry_->counter("hardtape_service_device_rejoins_total",
                                 "devices re-admitted after quarantine/flap");
  drains_started_ =
      &registry_->counter("hardtape_service_device_drains_started_total",
                          "graceful drains requested");
  drains_completed_ =
      &registry_->counter("hardtape_service_device_drains_completed_total",
                          "drains that reached dead");
  for (size_t i = 0; i < config_.initial_devices; ++i) {
    const uint32_t id = static_cast<uint32_t>(devices_.size());
    devices_.push_back(Device{});
    devices_.back().state_gauge = &registry_->gauge(
        "hardtape_service_device_" + std::to_string(id) + "_state",
        "device lifecycle state: 0 joining, 1 serving, 2 draining, "
        "3 quarantined, 4 dead");
    // The initial fleet skips warmup: it is the legacy static pool, serving
    // from sim time 0 (existing tests and benches depend on that shape).
    log(id, DeviceEventKind::kJoin, 0);
    set_state(id, DeviceState::kServing);
    log(id, DeviceEventKind::kServe, 0);
  }
  total_gauge_->set(static_cast<double>(devices_.size()));
  refresh_serving_gauge();
}

DevicePool::Device& DevicePool::device_at(uint32_t device) {
  if (device >= devices_.size()) {
    throw UsageError("DevicePool: unknown device id");
  }
  return devices_[device];
}

const DevicePool::Device& DevicePool::device_at(uint32_t device) const {
  if (device >= devices_.size()) {
    throw UsageError("DevicePool: unknown device id");
  }
  return devices_[device];
}

void DevicePool::log(uint32_t device, DeviceEventKind kind, uint64_t at_ns) {
  events_.push_back(DeviceEvent{at_ns, device, kind});
}

void DevicePool::set_state(uint32_t device, DeviceState state) {
  Device& d = devices_[device];
  d.state = state;
  d.state_gauge->set(static_cast<double>(static_cast<uint8_t>(state)));
}

void DevicePool::refresh_serving_gauge() {
  serving_gauge_->set(static_cast<double>(serving_count()));
}

uint32_t DevicePool::add_device(uint64_t now_ns) {
  const uint32_t id = static_cast<uint32_t>(devices_.size());
  devices_.push_back(Device{});
  Device& d = devices_.back();
  d.state_gauge = &registry_->gauge(
      "hardtape_service_device_" + std::to_string(id) + "_state",
      "device lifecycle state: 0 joining, 1 serving, 2 draining, "
      "3 quarantined, 4 dead");
  hot_adds_->add();
  total_gauge_->set(static_cast<double>(devices_.size()));
  log(id, DeviceEventKind::kJoin, now_ns);
  if (config_.join_warmup_ns == 0) {
    set_state(id, DeviceState::kServing);
    log(id, DeviceEventKind::kServe, now_ns);
  } else {
    set_state(id, DeviceState::kJoining);
    d.wake_ns = now_ns + config_.join_warmup_ns;
  }
  refresh_serving_gauge();
  return id;
}

std::optional<DeviceState> DevicePool::start_drain(uint32_t device,
                                                   uint64_t now_ns) {
  Device& d = device_at(device);
  if (d.state == DeviceState::kDead || d.state == DeviceState::kDraining) {
    return std::nullopt;  // idempotent: already gone or already draining
  }
  drains_started_->add();
  log(device, DeviceEventKind::kDrainStart, now_ns);
  if (d.state == DeviceState::kServing && d.busy) {
    // The in-flight session gets drain_grace_ns to finish; the FrontDoor
    // schedules the deadline that cuts it otherwise.
    set_state(device, DeviceState::kDraining);
    refresh_serving_gauge();
    return DeviceState::kDraining;
  }
  // Idle, joining or quarantined: nothing bound, the drain completes now.
  drain_done(device, now_ns);
  refresh_serving_gauge();
  return std::nullopt;
}

void DevicePool::finish_drain(uint32_t device, uint64_t now_ns) {
  if (device_at(device).state != DeviceState::kDraining) {
    throw UsageError("DevicePool::finish_drain on a device not draining");
  }
  drain_done(device, now_ns);
}

void DevicePool::drain_done(uint32_t device, uint64_t now_ns) {
  Device& d = devices_[device];
  d.busy = false;
  d.wake_ns = UINT64_MAX;
  set_state(device, DeviceState::kDead);
  log(device, DeviceEventKind::kDrainDone, now_ns);
  drains_completed_->add();
}

std::optional<uint32_t> DevicePool::acquire(uint64_t) {
  for (uint32_t id = 0; id < devices_.size(); ++id) {
    Device& d = devices_[id];
    if (d.state == DeviceState::kServing && !d.busy) {
      d.busy = true;
      return id;
    }
  }
  return std::nullopt;
}

faults::FaultDecision DevicePool::binding_fate(uint32_t device) {
  Device& d = device_at(device);
  const uint64_t index = d.binding_count++;
  if (config_.fault_plan == nullptr) return {};
  return config_.fault_plan->decide(faults::FaultSite::kDeviceBinding, device, index);
}

void DevicePool::complete(uint32_t device, uint64_t now_ns) {
  Device& d = device_at(device);
  d.busy = false;
  d.sticky_streak = 0;
  if (d.state == DeviceState::kDraining) {
    // The in-flight session it was waiting for just finished cleanly.
    drain_done(device, now_ns);
  }
}

void DevicePool::sticky_fault(uint32_t device, uint64_t now_ns) {
  Device& d = device_at(device);
  d.busy = false;
  sticky_faults_->add();
  log(device, DeviceEventKind::kStickyFault, now_ns);
  if (d.state == DeviceState::kDraining) {
    // Draining anyway: no point probing a device on its way out.
    drain_done(device, now_ns);
    return;
  }
  ++d.sticky_streak;
  if (config_.quarantine_threshold > 0 &&
      d.sticky_streak >= config_.quarantine_threshold) {
    d.sticky_streak = 0;
    ++d.quarantines;
    quarantines_->add();
    set_state(device, DeviceState::kQuarantined);
    // Deterministic backoff, growing with this device's quarantine history;
    // the device id is the jitter stream so probes de-synchronize.
    const uint64_t delay =
        sim::backoff_delay_ns(config_.probe_backoff,
                              static_cast<int>(d.quarantines), device);
    d.wake_ns = now_ns + std::max<uint64_t>(1, delay);
    log(device, DeviceEventKind::kQuarantine, now_ns);
    refresh_serving_gauge();
  }
}

void DevicePool::crash(uint32_t device, uint64_t now_ns,
                       uint64_t rejoin_at_ns) {
  Device& d = device_at(device);
  if (d.state == DeviceState::kDead) return;
  d.busy = false;
  crashes_->add();
  log(device, DeviceEventKind::kCrash, now_ns);
  if (d.state == DeviceState::kDraining) {
    // On its way out anyway: a death, even one the repair would undo, ends
    // the drain. The operator asked for this device to leave.
    drain_done(device, now_ns);
  } else if (rejoin_at_ns == 0) {
    d.wake_ns = UINT64_MAX;
    set_state(device, DeviceState::kDead);
  } else {
    // Flap: down for repair, back at rejoin_at_ns.
    set_state(device, DeviceState::kQuarantined);
    d.wake_ns = std::max(rejoin_at_ns, now_ns + 1);
  }
  refresh_serving_gauge();
}

void DevicePool::advance_to(uint64_t now_ns) {
  // Apply due transitions in (wake, id) order so simultaneous wakes produce
  // one deterministic event order.
  for (;;) {
    uint32_t best = UINT32_MAX;
    uint64_t best_wake = UINT64_MAX;
    for (uint32_t id = 0; id < devices_.size(); ++id) {
      if (devices_[id].wake_ns < best_wake) {
        best_wake = devices_[id].wake_ns;
        best = id;
      }
    }
    if (best == UINT32_MAX || best_wake > now_ns) return;
    Device& d = devices_[best];
    d.wake_ns = UINT64_MAX;
    if (d.state == DeviceState::kJoining) {
      set_state(best, DeviceState::kServing);
      log(best, DeviceEventKind::kServe, best_wake);
    } else if (d.state == DeviceState::kQuarantined) {
      rejoins_->add();
      set_state(best, DeviceState::kServing);
      log(best, DeviceEventKind::kRejoin, best_wake);
    }
    refresh_serving_gauge();
  }
}

uint64_t DevicePool::next_transition_ns() const {
  uint64_t earliest = UINT64_MAX;
  for (const Device& d : devices_) earliest = std::min(earliest, d.wake_ns);
  return earliest;
}

DeviceState DevicePool::state(uint32_t device) const {
  return device_at(device).state;
}

bool DevicePool::busy(uint32_t device) const { return device_at(device).busy; }

bool DevicePool::has_idle() const {
  for (const Device& d : devices_) {
    if (d.state == DeviceState::kServing && !d.busy) return true;
  }
  return false;
}

bool DevicePool::can_ever_serve() const {
  for (const Device& d : devices_) {
    if (d.state == DeviceState::kJoining ||
        d.state == DeviceState::kServing ||
        d.state == DeviceState::kQuarantined) {
      return true;
    }
  }
  return false;
}

size_t DevicePool::serving_count() const {
  size_t n = 0;
  for (const Device& d : devices_) {
    if (d.state == DeviceState::kServing) ++n;
  }
  return n;
}

}  // namespace hardtape::service
