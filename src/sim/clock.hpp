// Simulated time (DESIGN.md §6).
//
// Every performance number in the benches comes from this clock driven by
// explicit cost models, never from host wall-clock time. That makes results
// deterministic and lets the shape of the paper's Figures 4/5 reproduce even
// though the host is not an XCZU15EV FPGA: on the prototype, time is
// cycles / frequency, and we model the cycles.
#pragma once

#include <chrono>
#include <cstdint>

namespace hardtape::sim {

/// Nanosecond-resolution simulated clock.
class SimClock {
 public:
  uint64_t now_ns() const { return now_ns_; }
  double now_ms() const { return static_cast<double>(now_ns_) / 1e6; }

  void advance_ns(uint64_t ns) { now_ns_ += ns; }
  void advance_us(double us) { now_ns_ += static_cast<uint64_t>(us * 1e3); }
  void advance_ms(double ms) { now_ns_ += static_cast<uint64_t>(ms * 1e6); }

  /// Advance to an absolute time (no-op if already past it).
  void advance_to(uint64_t t_ns) {
    if (t_ns > now_ns_) now_ns_ = t_ns;
  }

  void reset() { now_ns_ = 0; }

 private:
  uint64_t now_ns_ = 0;
};

/// Elapsed-time probe: mark a start point, measure the simulated delta.
class SimStopwatch {
 public:
  explicit SimStopwatch(const SimClock& clock) : clock_(clock), start_ns_(clock.now_ns()) {}
  uint64_t elapsed_ns() const { return clock_.now_ns() - start_ns_; }
  void restart() { start_ns_ = clock_.now_ns(); }

 private:
  const SimClock& clock_;
  uint64_t start_ns_;
};

/// Host wall-clock probe for the concurrency metrics (queue wait, lock
/// contention, engine wall throughput). Wall figures are host measurements
/// and must never feed the reproduced paper numbers — those always come from
/// SimClock. Each engine session threads its own SimClock; WallTimer is what
/// the engine uses to observe the real thread pool around those sessions.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  uint64_t elapsed_ns() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - start_)
                                     .count());
  }
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hardtape::sim
