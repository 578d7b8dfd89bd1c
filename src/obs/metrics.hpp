// Unified metrics registry (obs subsystem).
//
// One Registry per process component (the engine owns one, benches own one):
// named counters, gauges and histograms with Prometheus-style text
// exposition and a JSON dump for machine-readable artifacts. A typed struct
// such as EngineMetrics is assembled by its component and then published
// into the registry (PreExecutionEngine::publish_metrics copies each field
// into a gauge), and every percentile anywhere comes from the shared
// nearest-rank helper (obs/percentile.hpp).
//
// Concurrency: Counter/Gauge are lock-free atomics, Histogram takes a small
// mutex per observe (it keeps the full sample for exact percentiles — these
// are bench/engine-scale series, thousands of points, not line-rate events).
// Registry lookups take a mutex but return stable references: instruments
// are created once and never move or disappear, so hot paths should look up
// once and keep the reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/percentile.hpp"

namespace hardtape::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  double value() const { return decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t encode(double v) {
    uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
  }
  static double decode(uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::atomic<uint64_t> bits_{0};
};

/// Exact-sample histogram: keeps every observation for nearest-rank
/// percentiles (the series here are bundle latencies and gap samples, not
/// line-rate traffic).
class Histogram {
 public:
  void observe(uint64_t v) {
    std::lock_guard lock(mu_);
    samples_.push_back(v);
    sum_ += v;
  }
  uint64_t count() const {
    std::lock_guard lock(mu_);
    return samples_.size();
  }
  uint64_t sum() const {
    std::lock_guard lock(mu_);
    return sum_;
  }
  double mean() const {
    std::lock_guard lock(mu_);
    return samples_.empty() ? 0.0
                            : static_cast<double>(sum_) / static_cast<double>(samples_.size());
  }
  /// Nearest-rank percentile; 0 when the histogram is empty.
  uint64_t percentile(double p) const {
    std::lock_guard lock(mu_);
    if (samples_.empty()) return 0;
    return obs::percentile(samples_, p);
  }
  std::vector<uint64_t> snapshot() const {
    std::lock_guard lock(mu_);
    return samples_;
  }
  void reset() {
    std::lock_guard lock(mu_);
    samples_.clear();
    sum_ = 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> samples_;
  uint64_t sum_ = 0;
};

class Registry {
 public:
  /// Instruments are created on first use and live as long as the Registry;
  /// the returned references are stable. Registering one name with two
  /// different kinds throws UsageError.
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::string_view help = "");

  /// Prometheus text exposition format (HELP/TYPE + samples). Histograms are
  /// exposed as _count/_sum plus p50/p95/p99 quantile gauges.
  std::string prometheus_text() const;
  /// JSON object {name: value | {count,sum,mean,p50,p95,p99}} for artifacts.
  std::string json() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, std::string_view help, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;  // sorted => stable output
};

}  // namespace hardtape::obs
