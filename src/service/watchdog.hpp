// Watchdog: wall-clock liveness monitor for the engine's worker pool.
//
// Simulated timeouts catch a backend that answers slowly *in the model*;
// they cannot catch a worker thread that stops making progress on the host
// (a wedged lock, a backend wrapper stuck in a real syscall). The watchdog
// covers that gap: every worker exposes a heartbeat counter it bumps as it
// makes progress plus a busy flag; a monitor thread samples them and flags
// any worker that has been busy on the same heartbeat for longer than the
// stall threshold. Detection is wall-clock and diagnostics-only — it feeds
// EngineMetrics and an optional callback (the engine sets none; the circuit
// breaker counts backend faults, not stalls), never the simulated timeline,
// so determinism of the reproduced numbers is untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hardtape::service {

/// One monitored worker's progress state, owned by the worker, sampled by
/// the watchdog. All members are atomics: no locks on the worker's hot path.
struct Heartbeat {
  std::atomic<uint64_t> beats{0};  ///< bump on every unit of progress
  std::atomic<bool> busy{false};   ///< true while a session is executing
};

class Watchdog {
 public:
  struct Config {
    uint64_t poll_interval_ms = 50;
    /// A busy worker whose heartbeat has not moved for this long is stalled.
    uint64_t stall_threshold_ms = 2'000;
  };

  /// `on_stall(worker_index)` fires once per stall episode (re-arms when the
  /// worker makes progress again). May be empty.
  Watchdog(std::vector<Heartbeat*> heartbeats, Config config,
           std::function<void(size_t)> on_stall = {})
      : heartbeats_(std::move(heartbeats)),
        config_(config),
        on_stall_(std::move(on_stall)),
        last_seen_(heartbeats_.size()) {}

  ~Watchdog() { stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void start() {
    std::lock_guard lock(mu_);
    if (running_) return;
    running_ = true;
    thread_ = std::thread([this] { loop(); });
  }

  /// Idempotent; joins the monitor thread.
  void stop() {
    {
      std::lock_guard lock(mu_);
      if (!running_) return;
      running_ = false;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  uint64_t stalls_detected() const { return stalls_.load(std::memory_order_relaxed); }

  /// One sampling pass (what the monitor thread runs each interval).
  /// Exposed so tests can drive detection without real-time sleeps.
  void poll_once() {
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < heartbeats_.size(); ++i) {
      Tracker& t = last_seen_[i];
      const uint64_t beats = heartbeats_[i]->beats.load(std::memory_order_relaxed);
      const bool busy = heartbeats_[i]->busy.load(std::memory_order_relaxed);
      if (!busy || beats != t.beats) {
        t.beats = beats;
        t.since = now;
        t.flagged = false;
        continue;
      }
      const auto stuck_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                now - t.since)
                                .count();
      if (!t.flagged && stuck_ms >= static_cast<int64_t>(config_.stall_threshold_ms)) {
        t.flagged = true;
        stalls_.fetch_add(1, std::memory_order_relaxed);
        if (on_stall_) on_stall_(i);
      }
    }
  }

 private:
  struct Tracker {
    uint64_t beats = 0;
    std::chrono::steady_clock::time_point since = std::chrono::steady_clock::now();
    bool flagged = false;
  };

  void loop() {
    std::unique_lock lock(mu_);
    while (running_) {
      cv_.wait_for(lock, std::chrono::milliseconds(config_.poll_interval_ms),
                   [this] { return !running_; });
      if (!running_) break;
      lock.unlock();
      poll_once();
      lock.lock();
    }
  }

  std::vector<Heartbeat*> heartbeats_;
  Config config_;
  std::function<void(size_t)> on_stall_;
  std::vector<Tracker> last_seen_;
  std::atomic<uint64_t> stalls_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace hardtape::service
