#include "service/front_door.hpp"

#include <algorithm>

#include "faults/faulty_link.hpp"

namespace hardtape::service {

void FrontDoor::Mailbox::post(const SessionOutcome& outcome) {
  {
    std::lock_guard lock(mu);
    ready[outcome.bundle_id] = outcome;
  }
  cv.notify_all();
}

SessionOutcome FrontDoor::Mailbox::take(uint64_t bundle_id) {
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return ready.find(bundle_id) != ready.end(); });
  auto node = ready.extract(bundle_id);
  return std::move(node.mapped());
}

FrontDoor::FrontDoor(PreExecutionEngine& engine, FrontDoorConfig config)
    : engine_(engine),
      admission_(std::move(config.admission), &engine.metrics_registry()),
      pool_(config.devices, &engine.metrics_registry()) {
  if (pool_.size() == 0) {
    throw UsageError("FrontDoor: need at least one device");
  }
  engine_.set_on_outcome(
      [this](const SessionOutcome& outcome) { mailbox_.post(outcome); });
  obs::Registry& registry = engine_.metrics_registry();
  frames_total_ = &registry.counter("hardtape_service_frames_total",
                                    "frames delivered to the front door");
  frames_rejected_ =
      &registry.counter("hardtape_service_frames_rejected_total",
                        "frames the channel refused (tamper, replay)");
  frames_malformed_ =
      &registry.counter("hardtape_service_frames_malformed_total",
                        "authenticated frames that failed to parse");
  dispatched_total_ = &registry.counter("hardtape_service_dispatched_total",
                                        "requests handed to a device");
  failovers_total_ =
      &registry.counter("hardtape_service_failovers_total",
                        "bindings lost to device death/drain and re-admitted");
  retry_exhausted_total_ =
      &registry.counter("hardtape_service_failover_retry_exhausted_total",
                        "requests terminal kRetryExhausted after failovers");
  device_lost_total_ =
      &registry.counter("hardtape_service_device_lost_total",
                        "requests terminal kDeviceLost (fleet gone)");
  rebind_latency_ =
      &registry.histogram("hardtape_service_rebind_latency_sim_ns",
                          "sim ns from binding cut to failover re-dispatch");
  sessions_gauge_ =
      &registry.gauge("hardtape_service_sessions_open", "open sessions");
}

uint64_t FrontDoor::connect(const crypto::AesKey128& key) {
  const uint64_t conn_id = next_conn_id_++;
  Connection conn{hypervisor::SecureChannel(key, hypervisor::ChannelRole::kResponder),
                  /*session_id=*/0};
  conn.channel.set_lossy_transport(true);
  connections_.emplace(conn_id, std::move(conn));
  return conn_id;
}

std::vector<hypervisor::SecureMessage> FrontDoor::deliver(
    uint64_t conn_id, const hypervisor::SecureMessage& frame,
    uint64_t arrival_ns) {
  const auto conn_it = connections_.find(conn_id);
  if (conn_it == connections_.end()) {
    throw UsageError("FrontDoor: unknown connection");
  }
  Connection& conn = conn_it->second;
  frames_total_->add();
  advance(std::max(arrival_ns, now_ns_));

  auto opened = conn.channel.open(frame, kMaxRequestBodyBytes,
                                  /*max_target_offset=*/0);
  if (opened.status != Status::kOk) {
    // Tampered, replayed or malformed-at-the-channel bytes: they never
    // authenticated as the client's words, so they earn no reply and touch
    // no session state (the channel did not advance its window either).
    frames_rejected_->add();
    return {};
  }
  auto request = RequestFrame::decode(opened.body);
  ResponseFrame response;
  if (!request.has_value()) {
    // Authenticated garbage: the client really sent this, so it gets an
    // honest error, but the session state machine is left untouched.
    frames_malformed_->add();
    response.status = Status::kMalformedMessage;
  } else {
    response = handle_frame(conn, conn_id, *request);
  }
  std::vector<hypervisor::SecureMessage> out;
  out.push_back(conn.channel.seal(hypervisor::MessageType::kBundleSubmit,
                                  /*target_offset=*/0, response.encode()));
  return out;
}

ResponseFrame FrontDoor::handle_frame(Connection& conn, uint64_t conn_id,
                                      const RequestFrame& request) {
  ResponseFrame response;
  response.verb = request.verb;
  response.session_id = request.session_id;
  response.request_id = request.request_id;

  if (request.verb == Verb::kOpenSession) {
    return handle_open(conn, conn_id, request);
  }
  const auto it = sessions_.find(request.session_id);
  if (it == sessions_.end()) {
    response.status = Status::kNotFound;
    return response;
  }
  Session& session = it->second;
  if (session.conn_id != conn_id) {
    // A session is private to the connection that opened it; another
    // authenticated client naming it is a policy violation, not a miss.
    response.status = Status::kRejected;
    return response;
  }
  if (request.verb == Verb::kCloseSession) {
    if (session.open) {
      session.open = false;
      --open_sessions_;
      sessions_gauge_->set(static_cast<double>(open_sessions_));
    }
    response.status = Status::kOk;  // idempotent
    return response;
  }
  if (!session.open) {
    response.status = Status::kNotFound;
    return response;
  }
  if (request.verb == Verb::kSubmit) return handle_submit(session, request);
  return handle_poll(session, request);
}

ResponseFrame FrontDoor::handle_open(Connection& conn, uint64_t conn_id,
                                     const RequestFrame& request) {
  ResponseFrame response;
  response.verb = Verb::kOpenSession;
  response.request_id = request.request_id;
  if (conn.session_id != 0) {
    // Idempotent re-open (the client's open response was lost): hand back
    // the existing session as long as the tenant claim matches.
    Session& session = sessions_.at(conn.session_id);
    if (session.open && session.tenant_id == request.tenant_id) {
      response.session_id = session.session_id;
      response.status = Status::kOk;
      return response;
    }
    if (session.open) {
      response.status = Status::kRejected;  // same conn, different tenant
      return response;
    }
  }
  if (open_sessions_ >= kMaxOpenSessions) {
    response.status = Status::kOverloaded;
    return response;
  }
  Session session;
  session.session_id = next_session_id_++;
  session.tenant_id = request.tenant_id;
  session.conn_id = conn_id;
  session.open = true;
  conn.session_id = session.session_id;
  response.session_id = session.session_id;
  response.status = Status::kOk;
  sessions_.emplace(session.session_id, std::move(session));
  ++open_sessions_;
  sessions_gauge_->set(static_cast<double>(open_sessions_));
  return response;
}

ResponseFrame FrontDoor::handle_submit(Session& session,
                                       const RequestFrame& request) {
  ResponseFrame response;
  response.verb = Verb::kSubmit;
  response.session_id = session.session_id;
  response.request_id = request.request_id;

  const auto existing = session.requests.find(request.request_id);
  if (existing != session.requests.end()) {
    // Idempotent resubmit (response lost on the wire): same verdict, no
    // second admission, no second execution.
    response.status = existing->second.admission_status;
    return response;
  }

  QueuedRequest queued;
  queued.session_id = session.session_id;
  queued.tenant_id = session.tenant_id;
  queued.request_id = request.request_id;
  queued.deadline_ns = request.deadline_ns == 0
                           ? 0
                           : request.client_time_ns + request.deadline_ns;
  const Status verdict = admission_.admit(std::move(queued), now_ns_);

  RequestState state;
  state.deadline_ns = request.deadline_ns == 0
                          ? 0
                          : request.client_time_ns + request.deadline_ns;
  state.admission_status = verdict;
  if (verdict == Status::kOk) {
    // The moment that buys worker-count independence: the engine id — and
    // with it the session's RNG and fault streams — is fixed here, in
    // arrival order, before any scheduling happens. A failover re-executes
    // under this same id at attempt+1, so the bundle is retained until the
    // request is terminal (a dead device's sealed state cannot be resumed).
    state.bundle_id = next_bundle_id_++;
    state.bundle = request.bundle;
  } else {
    state.stage = Stage::kDone;
    state.done_ns = now_ns_;
    state.outcome_status = verdict;
  }
  session.requests.emplace(request.request_id, std::move(state));
  response.status = verdict;
  if (verdict == Status::kOk) dispatch();
  return response;
}

ResponseFrame FrontDoor::handle_poll(Session& session,
                                     const RequestFrame& request) {
  ResponseFrame response;
  response.verb = Verb::kPoll;
  response.session_id = session.session_id;
  response.request_id = request.request_id;
  const auto it = session.requests.find(request.request_id);
  if (it == session.requests.end()) {
    response.status = Status::kNotFound;
    return response;
  }
  const RequestState& state = it->second;
  response.status = Status::kOk;
  if (state.stage == Stage::kDone) {
    response.done = true;
    response.outcome_status = state.outcome_status;
    response.queue_wait_ns = state.queue_wait_ns;
    response.exec_ns = state.exec_ns;
    response.gas_used = state.gas_used;
  } else if (state.stage == Stage::kQueued && state.deadline_ns != 0 &&
             now_ns_ >= state.deadline_ns) {
    // Aged out in its tenant queue; the DRR pass will discard it at the
    // next dispatch opportunity, but the client deserves the verdict now.
    response.done = true;
    response.outcome_status = Status::kDeadlineExceeded;
  }
  return response;
}

void FrontDoor::advance(uint64_t target_ns) {
  // One merged timeline: scheduled binding-end events and the pool's timed
  // transitions (warmup, quarantine backoff, flap rejoin), processed in sim
  // order with pool transitions first at a shared instant — a device that
  // rejoins at t must be bindable by work freed at t.
  for (;;) {
    const uint64_t pool_at = pool_.next_transition_ns();
    const uint64_t event_at =
        events_.empty() ? UINT64_MAX : events_.top().at_ns;
    const uint64_t at = std::min(pool_at, event_at);
    if (at > target_ns) break;
    now_ns_ = std::max(now_ns_, at);
    if (pool_at <= event_at) {
      pool_.advance_to(at);
    } else {
      const Event event = events_.top();
      events_.pop();
      handle_event(event);
    }
    dispatch();
  }
  now_ns_ = std::max(now_ns_, target_ns);
}

FrontDoor::ActiveBinding FrontDoor::cut_binding(uint32_t device) {
  const auto it = active_.find(device);
  if (it == active_.end()) {
    throw UsageError("FrontDoor: cut_binding on an idle device");
  }
  const ActiveBinding lost = it->second;
  active_.erase(it);
  // The interval ends at the cut, not at the completion that will never
  // come; any still-heaped event for this binding goes stale with it.
  bindings_[lost.binding_idx].end_ns = now_ns_;
  admission_.on_complete(lost.tenant_id);
  return lost;
}

void FrontDoor::handle_event(const Event& event) {
  const auto it = active_.find(event.device);
  if (it == active_.end() || it->second.gen != event.gen) {
    return;  // stale: the binding this event was scheduled for is gone
  }
  switch (event.kind) {
    case Event::Kind::kCompletion: {
      const ActiveBinding done = it->second;
      active_.erase(it);
      admission_.on_complete(done.tenant_id);
      if (done.sticky_fail) {
        // The device ran the session to the end but the result failed
        // health/attestation checks: fail closed — discard it, feed the
        // per-device breaker, re-execute elsewhere.
        pool_.sticky_fault(event.device, now_ns_);
        failover(done);
        break;
      }
      pool_.complete(event.device, now_ns_);
      if (RequestState* state =
              find_request(done.session_id, done.request_id)) {
        state->stage = Stage::kDone;
        state->done_ns = now_ns_;
        state->outcome_status = done.outcome_status;
        state->exec_ns = done.exec_ns;
        state->gas_used = done.gas_used;
      }
      break;
    }
    case Event::Kind::kDeviceDeath: {
      const ActiveBinding lost = cut_binding(event.device);
      pool_.crash(event.device, now_ns_, event.rejoin_at_ns);
      failover(lost);
      break;
    }
    case Event::Kind::kDrainDeadline: {
      if (pool_.state(event.device) != DeviceState::kDraining) return;
      // Grace expired with the session still running: cut it, finish the
      // drain, re-admit the bundle. Drains never strand a bound session.
      const ActiveBinding lost = cut_binding(event.device);
      pool_.finish_drain(event.device, now_ns_);
      failover(lost);
      break;
    }
  }
}

void FrontDoor::failover(const ActiveBinding& lost) {
  RequestState* state = find_request(lost.session_id, lost.request_id);
  if (state == nullptr) {
    throw UsageError("FrontDoor: failover for a request with no state");
  }
  failovers_total_->add();
  // Budgeted by the engine's own attempt budget: the failover attempt index
  // continues where the engine's internal requeues left off, so device
  // loss and backend faults spend the SAME bounded budget.
  const uint32_t next_attempt = lost.engine_attempt + 1;
  if (next_attempt >= kMaxBundleAttempts) {
    retry_exhausted_total_->add();
    state->stage = Stage::kDone;
    state->done_ns = now_ns_;
    state->outcome_status = Status::kRetryExhausted;
    return;
  }
  state->attempt = next_attempt;
  state->stage = Stage::kQueued;
  state->rebind_start_ns = now_ns_;
  QueuedRequest queued;
  queued.session_id = lost.session_id;
  queued.tenant_id = lost.tenant_id;
  queued.request_id = lost.request_id;
  queued.deadline_ns = state->deadline_ns;
  admission_.readmit(std::move(queued), now_ns_);
}

void FrontDoor::dispatch() {
  struct Launched {
    uint32_t device;
    uint64_t bundle_id;
    uint64_t session_id;
    uint64_t request_id;
    uint64_t tenant_id;
  };
  std::vector<Launched> burst;
  while (pool_.has_idle()) {
    auto pick = admission_.next(now_ns_);
    if (!pick.has_value()) break;
    RequestState* state =
        find_request(pick->request.session_id, pick->request.request_id);
    if (pick->expired) {
      // Blew its queue-wait budget: resolved without ever touching a
      // device. No binding, no engine submission, no execution.
      if (state != nullptr) {
        state->stage = Stage::kDone;
        state->done_ns = now_ns_;
        state->outcome_status = Status::kDeadlineExceeded;
        state->queue_wait_ns += now_ns_ - pick->request.enqueue_ns;
      }
      continue;
    }
    if (state == nullptr) {
      throw UsageError("FrontDoor: dispatched request has no state");
    }
    const uint32_t device = *pool_.acquire(now_ns_);
    state->stage = Stage::kRunning;
    state->dispatch_ns = now_ns_;
    state->queue_wait_ns += now_ns_ - pick->request.enqueue_ns;
    if (state->rebind_start_ns != 0) {
      rebind_latency_->observe(now_ns_ - state->rebind_start_ns);
      state->rebind_start_ns = 0;
    }
    dispatched_total_->add();
    burst.push_back(Launched{device, state->bundle_id,
                             pick->request.session_id,
                             pick->request.request_id,
                             pick->request.tenant_id});
    // Launch the whole burst before blocking on any outcome: the engine's
    // workers execute these sessions in parallel; only the bookkeeping
    // below is sequential. The request keeps its own copy of the bundle —
    // a later failover re-executes from it.
    std::vector<evm::Transaction> bundle = state->bundle;
    if (state->attempt == 0) {
      (void)engine_.submit_as(state->bundle_id, std::move(bundle));
    } else {
      (void)engine_.resubmit(state->bundle_id, std::move(bundle),
                             state->attempt);
    }
  }
  for (const Launched& launched : burst) {
    const SessionOutcome outcome = mailbox_.take(launched.bundle_id);
    // The simulated session time is how long the dedicated device is bound.
    // Clamp to 1ns so even a degenerate zero-cost session produces a
    // non-empty, auditable binding interval.
    const uint64_t duration = std::max<uint64_t>(1, outcome.end_to_end_ns);
    RequestState* state =
        find_request(launched.session_id, launched.request_id);
    if (state == nullptr) {
      throw UsageError("FrontDoor: launched request lost its state");
    }
    ActiveBinding binding;
    binding.gen = next_binding_gen_++;
    binding.binding_idx = bindings_.size();
    binding.bundle_id = launched.bundle_id;
    binding.session_id = launched.session_id;
    binding.request_id = launched.request_id;
    binding.tenant_id = launched.tenant_id;
    binding.outcome_status = outcome.status;
    binding.engine_attempt = outcome.attempt;
    binding.exec_ns = outcome.end_to_end_ns;
    uint64_t gas = 0;
    for (const auto& tx : outcome.report.transactions) gas += tx.gas_used;
    binding.gas_used = gas;

    // The fault plan decides this binding's fate — deterministically, keyed
    // on (device, per-device binding index).
    const faults::FaultDecision fate = pool_.binding_fate(launched.device);
    uint64_t end_ns = now_ns_ + duration;
    if (fate.kind == faults::FaultKind::kCrash ||
        fate.kind == faults::FaultKind::kFlap) {
      // Death mid-binding: at least 1ns served, cut no later than the
      // natural end. The sealed session state dies with the device.
      uint64_t served = static_cast<uint64_t>(
          fate.kill_frac * static_cast<double>(duration));
      served = std::clamp<uint64_t>(served, 1, duration);
      end_ns = now_ns_ + served;
      const uint64_t rejoin_at =
          fate.kind == faults::FaultKind::kFlap
              ? end_ns + std::max<uint64_t>(1, fate.downtime_ns)
              : 0;
      events_.push(Event{end_ns, next_event_seq_++,
                         Event::Kind::kDeviceDeath, launched.device,
                         binding.gen, rejoin_at});
    } else {
      binding.sticky_fail = fate.kind == faults::FaultKind::kSticky;
      events_.push(Event{end_ns, next_event_seq_++, Event::Kind::kCompletion,
                         launched.device, binding.gen, 0});
    }
    bindings_.push_back(Binding{launched.device, launched.session_id,
                                launched.bundle_id, now_ns_, end_ns});
    active_[launched.device] = binding;
  }
}

uint32_t FrontDoor::add_device() {
  const uint32_t id = pool_.add_device(now_ns_);
  dispatch();  // a zero-warmup device is bindable immediately
  return id;
}

void FrontDoor::drain_device(uint32_t device) {
  const auto pending = pool_.start_drain(device, now_ns_);
  if (pending.has_value()) {
    // In-flight session: give it the grace window, then cut. The deadline
    // is scheduled against the CURRENT binding generation — if the session
    // finishes (or the device dies) first, the deadline goes stale.
    const auto it = active_.find(device);
    if (it == active_.end()) {
      throw UsageError("FrontDoor: draining busy device with no binding");
    }
    events_.push(Event{now_ns_ + pool_.config().drain_grace_ns,
                       next_event_seq_++, Event::Kind::kDrainDeadline, device,
                       it->second.gen, 0});
  }
  advance(now_ns_);  // a zero-grace drain cuts at this very instant
}

void FrontDoor::kill_device(uint32_t device) {
  if (active_.count(device) != 0) {
    const ActiveBinding lost = cut_binding(device);
    pool_.crash(device, now_ns_, /*rejoin_at_ns=*/0);
    failover(lost);
  } else {
    pool_.crash(device, now_ns_, /*rejoin_at_ns=*/0);
  }
  dispatch();  // the failover may be dispatchable elsewhere right now
}

FrontDoor::RequestState* FrontDoor::find_request(uint64_t session_id,
                                                 uint64_t request_id) {
  const auto session_it = sessions_.find(session_id);
  if (session_it == sessions_.end()) return nullptr;
  const auto request_it = session_it->second.requests.find(request_id);
  if (request_it == session_it->second.requests.end()) return nullptr;
  return &request_it->second;
}

void FrontDoor::advance_to(uint64_t now_ns) {
  advance(std::max(now_ns, now_ns_));
}

void FrontDoor::resolve_queued_device_lost() {
  // No device will EVER serve again, so every queued request gets its
  // fail-closed terminal verdict now instead of waiting forever. Expired
  // picks still resolve as the (more specific) deadline verdict.
  for (;;) {
    auto pick = admission_.next(now_ns_);
    if (!pick.has_value()) break;
    if (!pick->expired) {
      // Charged in flight by next(); release immediately — nothing runs.
      admission_.on_complete(pick->request.tenant_id);
    }
    RequestState* state =
        find_request(pick->request.session_id, pick->request.request_id);
    if (state != nullptr) {
      state->stage = Stage::kDone;
      state->done_ns = now_ns_;
      state->outcome_status =
          pick->expired ? Status::kDeadlineExceeded : Status::kDeviceLost;
      state->queue_wait_ns += now_ns_ - pick->request.enqueue_ns;
    }
    if (!pick->expired) device_lost_total_->add();
  }
}

void FrontDoor::finish() {
  for (;;) {
    if (!events_.empty()) {
      advance(events_.top().at_ns);
      continue;
    }
    if (admission_.total_queued() == 0) break;
    // Nothing in flight but work is queued: the fleet may be temporarily
    // down (quarantine, flap repair, warmup). Jump to the next device
    // transition and try again.
    const uint64_t wake = pool_.next_transition_ns();
    if (wake != UINT64_MAX) {
      advance(wake);
      continue;
    }
    if (!pool_.can_ever_serve()) {
      resolve_queued_device_lost();
      break;
    }
    const size_t before = admission_.total_queued();
    dispatch();
    if (events_.empty() && admission_.total_queued() == before) {
      // Nothing in flight and nothing dispatchable: queued work that can
      // never run (a zero quota). Config error; bail instead of spinning.
      break;
    }
  }
}

FrontDoor::ChurnAudit FrontDoor::audit_bindings() const {
  const auto fail = [](std::string why) {
    return ChurnAudit{false, std::move(why)};
  };
  // Invariant (a): per-device binding intervals never overlap.
  std::map<uint32_t, std::vector<const Binding*>> by_device;
  for (const Binding& b : bindings_) {
    if (b.end_ns < b.start_ns) {
      return fail("binding on device " + std::to_string(b.device) +
                  " ends before it starts");
    }
    by_device[b.device].push_back(&b);
  }
  for (auto& [device, intervals] : by_device) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Binding* a, const Binding* b) {
                return a->start_ns < b->start_ns;
              });
    for (size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i]->start_ns < intervals[i - 1]->end_ns) {
        return fail("device " + std::to_string(device) +
                    " bound to two sessions at sim ns " +
                    std::to_string(intervals[i]->start_ns));
      }
    }
  }
  // Invariant (b): every interval fits inside one of its device's service
  // windows — [kServe/kRejoin .. kCrash/kQuarantine/kDrainDone). A binding
  // past a window close would mean a session ran on a dead/quarantined/
  // drained device.
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> windows;
  std::map<uint32_t, uint64_t> open_since;
  for (const DeviceEvent& event : pool_.events()) {
    switch (event.kind) {
      case DeviceEventKind::kServe:
      case DeviceEventKind::kRejoin:
        open_since[event.device] = event.at_ns;
        break;
      case DeviceEventKind::kCrash:
      case DeviceEventKind::kQuarantine:
      case DeviceEventKind::kDrainDone: {
        const auto it = open_since.find(event.device);
        if (it != open_since.end()) {
          windows[event.device].emplace_back(it->second, event.at_ns);
          open_since.erase(it);
        }
        break;
      }
      case DeviceEventKind::kJoin:
      case DeviceEventKind::kDrainStart:
      case DeviceEventKind::kStickyFault:
        break;  // neither opens nor closes a service window
    }
  }
  for (const auto& [device, since] : open_since) {
    windows[device].emplace_back(since, UINT64_MAX);  // still in service
  }
  for (const Binding& b : bindings_) {
    bool inside = false;
    for (const auto& [open, close] : windows[b.device]) {
      if (b.start_ns >= open && b.end_ns <= close) {
        inside = true;
        break;
      }
    }
    if (!inside) {
      return fail("binding [" + std::to_string(b.start_ns) + ", " +
                  std::to_string(b.end_ns) + ") on device " +
                  std::to_string(b.device) +
                  " extends past the device's service window");
    }
  }
  return ChurnAudit{};
}

ServiceClient::ServiceClient(FrontDoor& door, const crypto::AesKey128& key)
    : door_(door), channel_(key, hypervisor::ChannelRole::kInitiator) {
  channel_.set_lossy_transport(true);
  conn_id_ = door_.connect(key);
}

std::optional<ResponseFrame> ServiceClient::call(const RequestFrame& request,
                                                 uint64_t now_ns,
                                                 faults::FaultyLink* link) {
  auto sealed = channel_.seal(hypervisor::MessageType::kBundleSubmit,
                              /*target_offset=*/0, request.encode());
  std::vector<hypervisor::SecureMessage> on_wire;
  if (link != nullptr) {
    on_wire = link->transmit(std::move(sealed));
  } else {
    on_wire.push_back(std::move(sealed));
  }
  std::optional<ResponseFrame> first;
  for (const auto& frame : on_wire) {
    for (const auto& reply : door_.deliver(conn_id_, frame, now_ns)) {
      auto opened = channel_.open(reply, /*max_body_length=*/1 << 20,
                                  /*max_target_offset=*/0);
      if (opened.status != Status::kOk) continue;
      auto decoded = ResponseFrame::decode(opened.body);
      if (decoded.has_value() && !first.has_value()) first = decoded;
    }
  }
  return first;
}

}  // namespace hardtape::service
