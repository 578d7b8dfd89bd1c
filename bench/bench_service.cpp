// Service front-door overload sweep (PR 7): open-loop arrivals from four
// tenants pushed through the authenticated framed API, past saturation.
//
// The sweep first CALIBRATES saturation (mean full-security bundle service
// time over the device pool -> capacity in requests per simulated second),
// then drives open-loop load at {0.5, 1.0, 1.5, 2.0}x that capacity. Every
// request carries a deadline; the admission controller sheds what the
// brownout ladder or the per-tenant queues refuse and expires what ages
// out, so devices only ever run requests that can still meet their
// deadline. The load-shedding claim this bench gates: goodput at 2x
// saturation stays within 10% of goodput at saturation — overload degrades
// the refusal rate, not the work the service completes.
//
// Device-churn drill (PR 9, --device-churn): a second sweep over a larger
// fleet where k of N devices are killed/drained MID-LOAD at scheduled sim
// instants. Gates: every admitted bundle reaches a terminal status (zero
// unresolved, zero kDeviceLost — the fleet never fully dies), and goodput
// with k devices alive stays >= 0.8 x (k/N) x the full-fleet figure —
// failover costs re-execution, not proportionally more than the capacity
// actually lost.
//
// All rates and latencies are SIMULATED time (deterministic on any host);
// the engine's worker pool only changes how fast the host evaluates the
// model. Usage: bench_service [--quick] [--requests N] [--device-churn]
// [--out FILE]
// Writes BENCH_service.json, consumed by ci/check_bench.py --mode service.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>

#include "bench_common.hpp"
#include "obs/percentile.hpp"
#include "service/front_door.hpp"

using namespace hardtape;

namespace {

constexpr size_t kDevices = 3;
constexpr size_t kChurnDevices = 6;  // the churn drill's (larger) fleet
constexpr size_t kTenants = 4;

service::EngineConfig engine_config(size_t devices = kDevices) {
  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.num_hevms = devices;
  config.queue_depth = 32;
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 8192,
                                 .max_stash_blocks = 512};
  config.seal_mode = oram::SealMode::kChaChaHmac;
  config.perform_channel_crypto = false;
  return config;
}

service::FrontDoorConfig door_config(size_t devices = kDevices) {
  service::FrontDoorConfig config;
  config.devices.initial_devices = devices;
  // Tenant 1 is the shed-first batch class (priority below the brownout
  // floor); tenants 2-4 are the paying classes.
  for (uint64_t t = 1; t <= kTenants; ++t) {
    config.admission.tenants.push_back(service::TenantConfig{
        .tenant_id = t,
        .weight = t == 1 ? 1u : 2u,
        .queue_capacity = 32,
        .max_in_flight = static_cast<uint32_t>(devices),
        .priority = t == 1 ? 1u : 2u,
    });
  }
  config.admission.shed_priority_floor = 2;
  config.admission.shed_depth_enter = 48;
  config.admission.shed_depth_exit = 24;
  config.admission.admit_none_depth_enter = 96;
  config.admission.admit_none_depth_exit = 48;
  return config;
}

crypto::AesKey128 tenant_key(uint8_t tenant) {
  crypto::AesKey128 key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xb0 + tenant + 7 * i);
  }
  return key;
}

struct SweepPoint {
  double load_factor = 0;
  double offered_rps = 0;
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t completed_ok = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t horizon_ns = 0;
  double goodput_rps = 0;
  bool p99_bounded = false;
};

/// One point of the device-churn drill: k of N devices killed/drained
/// mid-load, every admitted request accounted for at the end.
struct ChurnPoint {
  uint64_t killed = 0;
  uint64_t drained = 0;
  uint64_t k_alive = 0;  ///< devices still in service after the churn ops
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed_ok = 0;
  uint64_t retry_exhausted = 0;
  uint64_t device_lost = 0;
  uint64_t unresolved = 0;  ///< admitted but never terminal — must be 0
  uint64_t failovers = 0;
  uint64_t horizon_ns = 0;
  double goodput_rps = 0;
  double min_goodput_rps = 0;  ///< the floor this point was held to
  bool goodput_ok = true;
  bool audit_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool device_churn = false;
  size_t requests_per_point = 160;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) quick = true;
    if (!std::strcmp(argv[i], "--device-churn")) device_churn = true;
    if (!std::strcmp(argv[i], "--requests") && i + 1 < argc) {
      requests_per_point = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[i + 1];
  }
  if (quick) requests_per_point = std::min<size_t>(requests_per_point, 48);
  const std::vector<double> load_factors =
      quick ? std::vector<double>{1.0, 2.0}
            : std::vector<double>{0.5, 1.0, 1.5, 2.0};

  bench::EvaluationSetup setup(/*block_count=*/1, /*txs_per_block=*/32);
  const auto txs = setup.all_transactions();
  auto bundle_for = [&](uint64_t id) {
    return std::vector<evm::Transaction>{txs[id % txs.size()]};
  };

  // --- calibration: mean service time -> saturation capacity ------------
  double mean_service_ns = 0;
  {
    service::PreExecutionEngine engine(setup.node, engine_config());
    if (engine.synchronize() != Status::kOk) return 1;
    std::vector<std::vector<evm::Transaction>> probe;
    for (uint64_t i = 0; i < 12; ++i) probe.push_back(bundle_for(i));
    const auto outcomes = engine.execute_serial(probe);
    uint64_t total = 0;
    for (const auto& o : outcomes) total += o.end_to_end_ns;
    mean_service_ns = static_cast<double>(total) / outcomes.size();
  }
  const double capacity_rps = kDevices * 1e9 / mean_service_ns;
  // Per-request budget: several times the healthy p99, so a service at
  // saturation answers well inside it, while at 2x the hopeless tail ages
  // past it and is expired instead of run.
  const uint64_t deadline_ns = static_cast<uint64_t>(8.0 * mean_service_ns);
  std::printf("calibration: mean service %.2f ms, %zu devices -> saturation "
              "%.1f req/s (sim), deadline %.1f ms\n",
              mean_service_ns / 1e6, kDevices, capacity_rps, deadline_ns / 1e6);

  // --- the sweep ---------------------------------------------------------
  std::vector<SweepPoint> sweep;
  for (const double load : load_factors) {
    service::PreExecutionEngine engine(setup.node, engine_config());
    if (engine.synchronize() != Status::kOk) return 1;
    service::FrontDoor door(engine, door_config());
    engine.start();

    std::vector<std::unique_ptr<service::ServiceClient>> clients;
    std::vector<uint64_t> sessions;
    for (uint64_t t = 1; t <= kTenants; ++t) {
      clients.push_back(std::make_unique<service::ServiceClient>(
          door, tenant_key(static_cast<uint8_t>(t))));
      service::RequestFrame open;
      open.verb = service::Verb::kOpenSession;
      open.tenant_id = t;
      auto response = clients.back()->call(open, 0);
      if (!response || response->status != Status::kOk) return 1;
      sessions.push_back(response->session_id);
    }

    SweepPoint point;
    point.load_factor = load;
    point.offered_rps = load * capacity_rps;
    const uint64_t interval_ns =
        static_cast<uint64_t>(1e9 / point.offered_rps);
    struct Issued {
      size_t tenant;
      uint64_t request_id;
      Status verdict;
    };
    std::vector<Issued> issued;
    for (uint64_t r = 0; r < requests_per_point; ++r) {
      const uint64_t now = r * interval_ns;
      const size_t tenant = r % kTenants;  // round-robin arrival mix
      service::RequestFrame submit;
      submit.verb = service::Verb::kSubmit;
      submit.session_id = sessions[tenant];
      submit.request_id = r + 1;
      submit.client_time_ns = now;
      submit.deadline_ns = deadline_ns;
      submit.bundle = bundle_for(r);
      auto response = clients[tenant]->call(submit, now);
      if (!response) return 1;  // the front door always answers
      issued.push_back({tenant, r + 1, response->status});
      ++point.offered;
    }
    door.finish();
    const auto outcomes = engine.drain();
    (void)outcomes;

    std::vector<uint64_t> latencies;
    for (const auto& request : issued) {
      switch (request.verdict) {
        case Status::kOk:
          ++point.admitted;
          break;
        case Status::kOverloaded:
          ++point.shed;
          continue;
        case Status::kDeadlineExceeded:
          ++point.deadline_exceeded;
          continue;
        default:
          continue;
      }
      service::RequestFrame poll;
      poll.verb = service::Verb::kPoll;
      poll.session_id = sessions[request.tenant];
      poll.request_id = request.request_id;
      auto response = clients[request.tenant]->call(poll, door.now_ns());
      if (!response || !response->done) return 1;  // nothing may hang
      if (response->outcome_status == Status::kDeadlineExceeded) {
        ++point.deadline_exceeded;  // aged out in queue, ran nothing
        continue;
      }
      if (response->outcome_status == Status::kOk) {
        ++point.completed_ok;
        latencies.push_back(response->queue_wait_ns + response->exec_ns);
      }
    }
    if (!latencies.empty()) {
      point.p50_ns = obs::percentile(latencies, 50);
      point.p99_ns = obs::percentile(latencies, 99);
      point.p999_ns = obs::percentile(latencies, 99.9);
    }
    point.horizon_ns = door.now_ns();
    point.goodput_rps = point.horizon_ns > 0
                            ? point.completed_ok * 1e9 / point.horizon_ns
                            : 0;
    // Every completed request beat its deadline by construction; "bounded"
    // additionally pins the p99 under deadline + one service time so a
    // dispatch-accounting bug cannot hide behind the deadline filter.
    point.p99_bounded =
        point.p99_ns <
        deadline_ns + static_cast<uint64_t>(2.0 * mean_service_ns);
    sweep.push_back(point);
  }

  bench::Table table({"load", "offered req/s", "admitted", "shed", "expired",
                      "completed", "p50 (ms)", "p99 (ms)", "p999 (ms)",
                      "goodput req/s"});
  for (const auto& p : sweep) {
    table.add_row({bench::fmt(p.load_factor, 2) + "x",
                   bench::fmt(p.offered_rps, 1), std::to_string(p.admitted),
                   std::to_string(p.shed), std::to_string(p.deadline_exceeded),
                   std::to_string(p.completed_ok),
                   bench::fmt(p.p50_ns / 1e6, 2), bench::fmt(p.p99_ns / 1e6, 2),
                   bench::fmt(p.p999_ns / 1e6, 2),
                   bench::fmt(p.goodput_rps, 1)});
  }
  table.print("Front-door overload sweep (simulated timeline)");

  double goodput_at_sat = 0, goodput_at_2x = 0;
  bool all_bounded = true;
  uint64_t shed_at_2x = 0;
  for (const auto& p : sweep) {
    if (p.load_factor == 1.0) goodput_at_sat = p.goodput_rps;
    if (p.load_factor == 2.0) {
      goodput_at_2x = p.goodput_rps;
      shed_at_2x = p.shed + p.deadline_exceeded;
    }
    all_bounded &= p.p99_bounded;
  }
  const double ratio = goodput_at_sat > 0 ? goodput_at_2x / goodput_at_sat : 0;

  // --- device-churn drill (--device-churn) -------------------------------
  // Same open-loop arrival schedule at 1.0x of the FULL churn fleet's
  // capacity for every point; mid-load, k devices are killed/drained. No
  // per-request deadline: with the fleet shrunk the backlog must DRAIN, not
  // expire, so goodput measures surviving capacity and every admitted
  // bundle must still reach a terminal status.
  constexpr double kMinGoodputFraction = 0.8;
  std::vector<ChurnPoint> churn;
  bool churn_ok = true;
  if (device_churn) {
    struct Scenario {
      size_t kill;
      size_t drain;
    };
    // 0%, 33% and 50% of the 6-device fleet churned mid-load.
    const std::vector<Scenario> scenarios{{0, 0}, {1, 1}, {2, 1}};
    const double churn_capacity_rps = kChurnDevices * 1e9 / mean_service_ns;
    const uint64_t interval_ns =
        static_cast<uint64_t>(1e9 / churn_capacity_rps);
    double full_goodput_rps = 0;
    for (const auto& scenario : scenarios) {
      service::PreExecutionEngine engine(setup.node,
                                         engine_config(kChurnDevices));
      if (engine.synchronize() != Status::kOk) return 1;
      service::FrontDoor door(engine, door_config(kChurnDevices));
      engine.start();

      std::vector<std::unique_ptr<service::ServiceClient>> clients;
      std::vector<uint64_t> sessions;
      for (uint64_t t = 1; t <= kTenants; ++t) {
        clients.push_back(std::make_unique<service::ServiceClient>(
            door, tenant_key(static_cast<uint8_t>(t))));
        service::RequestFrame open;
        open.verb = service::Verb::kOpenSession;
        open.tenant_id = t;
        auto response = clients.back()->call(open, 0);
        if (!response || response->status != Status::kOk) return 1;
        sessions.push_back(response->session_id);
      }

      ChurnPoint point;
      point.killed = scenario.kill;
      point.drained = scenario.drain;
      point.k_alive = kChurnDevices - scenario.kill - scenario.drain;
      struct Issued {
        size_t tenant;
        uint64_t request_id;
        Status verdict;
      };
      std::vector<Issued> issued;
      for (uint64_t r = 0; r < requests_per_point; ++r) {
        const uint64_t now = r * interval_ns;
        const size_t tenant = r % kTenants;
        service::RequestFrame submit;
        submit.verb = service::Verb::kSubmit;
        submit.session_id = sessions[tenant];
        submit.request_id = r + 1;
        submit.client_time_ns = now;
        submit.deadline_ns = 0;  // no expiry: the backlog must drain
        submit.bundle = bundle_for(r);
        auto response = clients[tenant]->call(submit, now);
        if (!response) return 1;
        issued.push_back({tenant, r + 1, response->status});
        ++point.offered;
        // The churn script, at deterministic sim instants mid-load:
        // abrupt kills a third of the way in, graceful drains at halfway.
        if (r + 1 == requests_per_point / 3) {
          for (uint32_t d = 0; d < scenario.kill; ++d) door.kill_device(d);
        }
        if (r + 1 == requests_per_point / 2) {
          for (uint32_t d = 0; d < scenario.drain; ++d) {
            door.drain_device(static_cast<uint32_t>(scenario.kill) + d);
          }
        }
      }
      door.finish();
      (void)engine.drain();

      for (const auto& request : issued) {
        if (request.verdict != Status::kOk) {
          ++point.shed;
          continue;
        }
        ++point.admitted;
        service::RequestFrame poll;
        poll.verb = service::Verb::kPoll;
        poll.session_id = sessions[request.tenant];
        poll.request_id = request.request_id;
        auto response = clients[request.tenant]->call(poll, door.now_ns());
        if (!response) return 1;
        if (!response->done) {
          ++point.unresolved;  // invariant (c) violation — gated below
          continue;
        }
        switch (response->outcome_status) {
          case Status::kOk: ++point.completed_ok; break;
          case Status::kRetryExhausted: ++point.retry_exhausted; break;
          case Status::kDeviceLost: ++point.device_lost; break;
          default: break;  // terminal, just not goodput
        }
      }
      point.failovers = engine.metrics_registry()
                            .counter("hardtape_service_failovers_total", "")
                            .value();
      point.horizon_ns = door.now_ns();
      point.goodput_rps = point.horizon_ns > 0
                              ? point.completed_ok * 1e9 / point.horizon_ns
                              : 0;
      point.audit_ok = door.audit_bindings().ok;
      if (point.k_alive == kChurnDevices) {
        full_goodput_rps = point.goodput_rps;
      } else {
        point.min_goodput_rps = kMinGoodputFraction * full_goodput_rps *
                                static_cast<double>(point.k_alive) /
                                static_cast<double>(kChurnDevices);
        point.goodput_ok = point.goodput_rps >= point.min_goodput_rps;
      }
      churn_ok &= point.goodput_ok && point.audit_ok &&
                  point.unresolved == 0 && point.device_lost == 0;
      churn.push_back(point);
    }

    bench::Table churn_table({"alive/total", "killed", "drained", "admitted",
                              "completed", "failovers", "retry-exhausted",
                              "unresolved", "goodput req/s", "floor req/s",
                              "audit"});
    for (const auto& p : churn) {
      churn_table.add_row(
          {std::to_string(p.k_alive) + "/" + std::to_string(kChurnDevices),
           std::to_string(p.killed), std::to_string(p.drained),
           std::to_string(p.admitted), std::to_string(p.completed_ok),
           std::to_string(p.failovers), std::to_string(p.retry_exhausted),
           std::to_string(p.unresolved), bench::fmt(p.goodput_rps, 1),
           bench::fmt(p.min_goodput_rps, 1), p.audit_ok ? "ok" : "FAIL"});
    }
    churn_table.print("Device-churn drill (simulated timeline)");
  }

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"service\",\n  \"quick\": "
       << (quick ? "true" : "false")
       << ",\n  \"requests_per_point\": " << requests_per_point
       << ",\n  \"calibration\": {\"mean_service_ns\": " << mean_service_ns
       << ", \"devices\": " << kDevices
       << ", \"capacity_rps\": " << capacity_rps
       << ", \"deadline_ns\": " << deadline_ns << "},\n  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    json << "    {\"load_factor\": " << p.load_factor
         << ", \"offered_rps\": " << p.offered_rps
         << ", \"offered\": " << p.offered << ", \"admitted\": " << p.admitted
         << ", \"shed\": " << p.shed
         << ", \"deadline_exceeded\": " << p.deadline_exceeded
         << ", \"completed_ok\": " << p.completed_ok
         << ", \"p50_ns\": " << p.p50_ns << ", \"p99_ns\": " << p.p99_ns
         << ", \"p999_ns\": " << p.p999_ns
         << ", \"horizon_ns\": " << p.horizon_ns
         << ", \"goodput_rps\": " << p.goodput_rps
         << ", \"p99_bounded\": " << (p.p99_bounded ? "true" : "false") << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  if (device_churn) {
    json << "  \"churn\": {\"devices\": " << kChurnDevices
         << ", \"min_goodput_fraction\": " << kMinGoodputFraction
         << ", \"points\": [\n";
    for (size_t i = 0; i < churn.size(); ++i) {
      const auto& p = churn[i];
      json << "    {\"k_alive\": " << p.k_alive << ", \"killed\": " << p.killed
           << ", \"drained\": " << p.drained << ", \"offered\": " << p.offered
           << ", \"admitted\": " << p.admitted << ", \"shed\": " << p.shed
           << ", \"completed_ok\": " << p.completed_ok
           << ", \"retry_exhausted\": " << p.retry_exhausted
           << ", \"device_lost\": " << p.device_lost
           << ", \"unresolved\": " << p.unresolved
           << ", \"failovers\": " << p.failovers
           << ", \"horizon_ns\": " << p.horizon_ns
           << ", \"goodput_rps\": " << p.goodput_rps
           << ", \"min_goodput_rps\": " << p.min_goodput_rps
           << ", \"goodput_ok\": " << (p.goodput_ok ? "true" : "false")
           << ", \"audit_ok\": " << (p.audit_ok ? "true" : "false") << "}"
           << (i + 1 < churn.size() ? "," : "") << "\n";
    }
    json << "  ], \"gates_ok\": " << (churn_ok ? "true" : "false") << "},\n";
  }
  json << "  \"gates\": {\"goodput_at_saturation_rps\": " << goodput_at_sat
       << ", \"goodput_at_2x_rps\": " << goodput_at_2x
       << ", \"goodput_ratio\": " << ratio
       << ", \"refused_at_2x\": " << shed_at_2x
       << ", \"all_p99_bounded\": " << (all_bounded ? "true" : "false")
       << "}\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  std::printf("shape checks: goodput(2x)/goodput(1x) %.3f (need >= 0.9): %s; "
              "p99 bounded at every point: %s; refusals at 2x: %llu\n",
              ratio, ratio >= 0.9 ? "yes" : "NO", all_bounded ? "yes" : "NO",
              static_cast<unsigned long long>(shed_at_2x));
  if (device_churn) {
    std::printf("churn checks: zero unresolved, zero device-lost, audit ok, "
                "goodput >= %.0f%% x (alive/total) x full-fleet: %s\n",
                kMinGoodputFraction * 100, churn_ok ? "yes" : "NO");
  }
  const bool base_ok = ratio >= 0.9 && all_bounded && shed_at_2x > 0;
  return (base_ok && (!device_churn || churn_ok)) ? 0 : 1;
}
