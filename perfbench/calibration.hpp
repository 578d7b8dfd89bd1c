// Host-speed reference for normalizing wall times.
//
// On a shared virtual CPU, co-tenants slow throughput-bound code by 20-35%
// for stretches of seconds to minutes, so a raw wall time does not repeat
// from run to run. The benchmark therefore times frozen reference kernels on
// the same vCPU between bundles and reports every host time in seconds of a
// nominal host: raw / (slowdown of the reference).
//
// The kernels are a SHA-256 compression chain (the shape of slot seal/open
// and checksums) and a bytecode interpreter loop (EVM dispatch). They are
// private copies, never calls into src/crypto or src/evm, so a change that
// speeds those up cannot cancel its own gain.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct RefSample {
  double hash_ns = 0;      ///< SHA-256 compression chain
  double dispatch_ns = 0;  ///< interpreter-dispatch loop
};

/// Kernel times on the nominal host (a quiet vCPU of the 4-vCPU Xeon guest
/// the benchmark was written on). Frozen: changing them rescales every
/// reported host time.
inline constexpr RefSample kNominal{.hash_ns = 300'000, .dispatch_ns = 300'000};

/// Share of the hash kernel in the slowdown. Measured on all three
/// workloads, the hash kernel swings more than any of them under
/// co-tenant load while the dispatch kernel follows them closely.
inline constexpr double kHashWeight = 0.25;

/// Runs one reference slice: each kernel three times, the median of each.
RefSample sample_reference();

/// Slowdown of `sample` against the nominal host: a raw time divided by it
/// is nominal-host time.
inline double slowdown(const RefSample& sample) {
  return kHashWeight * sample.hash_ns / kNominal.hash_ns +
         (1 - kHashWeight) * sample.dispatch_ns / kNominal.dispatch_ns;
}

/// Time of a fixed dependent-load chase over 16 MB on each of `cpus`
/// (pinning the calling thread to each in turn; the caller re-pins).
std::vector<double> memory_latency_by_cpu(const std::vector<int>& cpus);

}  // namespace perfbench
