// perfbench: one closed-loop client, one engine worker, one vCPU.
//
//   perfbench --workload <oram-static|evm-local|live-durable> --seed N
//             --seconds S --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// and client loop twice (untraced, then traced) and prints the per-layer metrics
// and the tracing overhead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Every host time is in nominal-host units (see calibration.hpp); the raw
// wall figures are printed on the lines before it.
#include <sched.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <numeric>
#include <string>

#include "calibration.hpp"
#include "obs/percentile.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

// Set-up and restart are repeated at least kMinRepeats times, and until
// kRepeatBudgetNs of raw time (at most kMaxRepeats); the median is reported.
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 25;
constexpr double kRepeatBudgetNs = 5e9;
constexpr int kResyncRepeats = 5;
constexpr auto kSliceSpacing = std::chrono::milliseconds(100);

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

/// Pins the process (and every thread it will start) to the allowed vCPU
/// with the lowest memory latency right now: on a shared host one vCPU can
/// sit behind remote or contended memory for minutes while the others do
/// not. Returns the vCPU, or -1 when the affinity cannot be set.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  const std::vector<double> latency = memory_latency_by_cpu(cpus);
  const int best = cpus[static_cast<size_t>(
      std::min_element(latency.begin(), latency.end()) - latency.begin())];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? best : -1;
}

/// Reference slices taken through one phase. Host speed on a shared vCPU
/// wanders from one millisecond to the next, so a single slice is a noisy
/// reading: times are normalized by the mean slowdown of the slices around
/// them.
class SpeedTrack {
 public:
  void sample() {
    refs_.push_back(sample_reference());
    last_ = Clock::now();
  }
  bool due() const { return Clock::now() - last_ >= kSliceSpacing; }
  size_t last_index() const { return refs_.size() - 1; }
  /// Nominal-host factor for a time measured after slice k: one over the
  /// mean slowdown of the kSmoothing slices centred on it (about a second).
  double factor_after(size_t k) const {
    const size_t lo = k + 1 >= kSmoothing / 2 ? k + 1 - kSmoothing / 2 : 0;
    const size_t hi = std::min(refs_.size(), lo + kSmoothing);
    double sum = 0;
    for (size_t i = lo; i < hi; ++i) sum += slowdown(refs_[i]);
    return static_cast<double>(hi - lo) / sum;
  }
  double median_slowdown() const {
    std::vector<double> v;
    for (const RefSample& r : refs_) v.push_back(slowdown(r));
    return median(v);
  }
  const std::vector<RefSample>& refs() const { return refs_; }

 private:
  static constexpr size_t kSmoothing = 10;

  std::vector<RefSample> refs_;
  Clock::time_point last_{};
};

/// One reference slice placed on the monotonic clock.
struct Slice {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double slowdown = 1;
};

/// Times one long operation (a set-up, a restart) on the calling thread
/// with reference slices taken all through it: a timer interrupts the
/// thread every kOpSliceSpacing and runs one slice in the signal handler.
/// The operation is paused while a slice runs, so its own time is the wall
/// time minus the slices, and each stretch between two slices is
/// normalized by their mean. Slices taken only before and after an
/// operation of a second or more miss the speed swings inside it.
class OpTimer {
 public:
  OpTimer() {
    (void)sample_reference();  // initializes the kernels' statics off the handler
    struct sigaction action {};
    action.sa_handler = &OpTimer::on_signal;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(signal_, &action, &previous_);
    sigevent event{};
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = signal_;
    event._sigev_un._tid = static_cast<pid_t>(gettid());
    armed_ = timer_create(CLOCK_MONOTONIC, &event, &timer_) == 0;
  }
  ~OpTimer() {
    if (armed_) timer_delete(timer_);
    sigaction(signal_, &previous_, nullptr);
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

  /// Runs `fn`; returns {raw ns, nominal ns} of its own time.
  template <typename Fn>
  std::pair<double, double> time(Fn&& fn) {
    count_.store(0, std::memory_order_relaxed);
    const Slice before = take_slice();
    const itimerspec every{.it_interval = kOpSliceSpacing, .it_value = kOpSliceSpacing};
    const itimerspec off{};
    if (armed_) timer_settime(timer_, 0, &every, nullptr);
    const int64_t start = now_ns();
    fn();
    const int64_t end = now_ns();
    if (armed_) timer_settime(timer_, 0, &off, nullptr);
    const Slice after = take_slice();

    std::vector<Slice> slices{{start, start, before.slowdown}};
    const size_t n = std::min(count_.load(std::memory_order_acquire), slices_.size());
    slices.insert(slices.end(), slices_.begin(), slices_.begin() + static_cast<std::ptrdiff_t>(n));
    slices.push_back({end, end, after.slowdown});
    double raw = 0, nominal = 0;
    for (size_t i = 0; i + 1 < slices.size(); ++i) {
      const double stretch = static_cast<double>(slices[i + 1].start_ns - slices[i].end_ns);
      raw += stretch;
      nominal += stretch / (0.5 * (slices[i].slowdown + slices[i + 1].slowdown));
    }
    return {raw, nominal};
  }

 private:
  static constexpr timespec kOpSliceSpacing{.tv_sec = 0, .tv_nsec = 50'000'000};

  static int64_t now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
  }
  static Slice take_slice() {
    const int64_t start = now_ns();
    const RefSample ref = sample_reference();
    return {start, now_ns(), slowdown(ref)};
  }
  // Async-signal-safe: clock_gettime, arithmetic and a preallocated array.
  static void on_signal(int) {
    const int saved_errno = errno;
    const size_t i = count_.load(std::memory_order_relaxed);
    if (i < slices_.size()) {
      slices_[i] = take_slice();
      count_.store(i + 1, std::memory_order_release);
    }
    errno = saved_errno;
  }

  static inline std::array<Slice, 4096> slices_{};
  static inline std::atomic<size_t> count_{0};
  const int signal_ = SIGRTMIN;
  struct sigaction previous_ {};
  timer_t timer_{};
  bool armed_ = false;
};

/// The on_outcome mailbox: one bundle in flight, so one slot.
class Mailbox {
 public:
  void post(const service::SessionOutcome& outcome) {
    const auto at = Clock::now();
    OutcomeRecord record = record_of(outcome);
    std::lock_guard lock(mu_);
    record_ = std::move(record);
    resolved_at_ = at;
    cv_.notify_one();
  }
  std::pair<OutcomeRecord, Clock::time_point> wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return record_.has_value(); });
    OutcomeRecord record = std::move(*record_);
    record_.reset();
    return {std::move(record), resolved_at_};
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<OutcomeRecord> record_;
  Clock::time_point resolved_at_{};
};

struct BundleSample {
  double latency_ns = 0;  ///< submit() start -> on_outcome
  double submit_ns = 0;   ///< inside submit()
  double cycle_ns = 0;    ///< submit() start -> client has the outcome
  size_t slice = 0;       ///< reference slice taken before the bundle
  double factor = 1;      ///< nominal-host factor of that slice interval
  bool resynced = false;  ///< this admission re-pinned the engine
  double oram_ns = 0;     ///< frontend request spans (traced)
  uint64_t oram_requests = 0;
};

/// Counters at the end of the fixed bundle window: functions of the seed.
struct WindowSnapshot {
  service::EngineMetrics metrics;
  oram::ShardedOramStore::Stats store;
  std::vector<pagedstore::BufferPoolStats> pools;
  durability::DurableStore::Stats durable{};
  uint64_t durable_bytes = 0;  ///< journal/checkpoint bytes appended in the window
  uint64_t segment_bytes = 0;
  uint64_t trie_gets = 0;
  double rss_mb = 0;
};

struct Phase {
  std::vector<BundleSample> samples;
  std::vector<OutcomeRecord> records;
  WindowSnapshot window;
  SpeedTrack track;
  double wall_s = 0;

  double bundles_per_s(bool normalized) const {
    double total = 0;
    for (const auto& s : samples) total += s.cycle_ns * (normalized ? s.factor : 1.0);
    return total > 0 ? static_cast<double>(samples.size()) * 1e9 / total : 0;
  }
  std::vector<double> latencies(bool normalized) const {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.latency_ns * (normalized ? s.factor : 1.0));
    return v;
  }
};

/// Sums the frontend's request spans emitted since `next_seq`.
void read_oram_spans(obs::TraceRing& ring, uint64_t& next_seq, BundleSample& sample) {
  uint64_t open_at = 0;
  bool open = false;
  for (const obs::TraceEvent& e : ring.events()) {
    if (e.seq < next_seq || e.category != obs::TraceCategory::kOram) continue;
    if (e.code == static_cast<uint16_t>(obs::TraceCode::kOramIssue)) {
      open_at = e.wall_ns;
      open = true;
    } else if (e.code == static_cast<uint16_t>(obs::TraceCode::kOramComplete) && open) {
      sample.oram_ns += static_cast<double>(e.wall_ns - open_at);
      ++sample.oram_requests;
      open = false;
    }
  }
  next_seq = ring.emitted();
}

WindowSnapshot snapshot_window(Deployment& d, uint64_t durable_ops_before) {
  WindowSnapshot w;
  w.metrics = d.engine().snapshot();
  w.store = d.engine().oram_store().snapshot();
  w.pools = d.pool_stats();
  if (d.store() != nullptr) w.durable = d.store()->stats();
  if (d.durable_fs() != nullptr) {
    for (const durability::FsOpRecord& op : d.durable_fs()->op_log()) {
      // ORAM slot segments share the disk; count only the durability layer.
      if (op.index > durable_ops_before && op.op == durability::FsOp::kAppend &&
          op.path.rfind("oram", 0) != 0) {
        w.durable_bytes += op.bytes;
      }
    }
  }
  w.segment_bytes = d.segment_bytes();
  if (d.timing_store() != nullptr) w.trie_gets = d.timing_store()->gets();
  w.rss_mb = peak_rss_mb();
  return w;
}

/// The closed loop: submit, wait for on_outcome, repeat, for at least
/// `seconds` and at least the workload's fixed window. On a live chain a
/// block lands every kBundlesPerBlock bundles and the phase ends on a block
/// boundary, so a later power cut always finds one block to delta-sync.
Phase drive(Deployment& d, Mailbox& mailbox, double seconds) {
  const WorkloadSpec& spec = d.spec();
  Phase phase;
  service::PreExecutionEngine& engine = d.engine();
  obs::TraceRing* frontend_ring = d.trace() != nullptr ? &d.trace()->ring(-2) : nullptr;
  uint64_t frontend_seq = frontend_ring != nullptr ? frontend_ring->emitted() : 0;
  const uint64_t durable_ops_before = d.durable_fs() != nullptr ? d.durable_fs()->op_count() : 0;
  const auto& bundles = d.bundles();

  phase.track.sample();
  const auto start = Clock::now();
  for (size_t i = 0;; ++i) {
    const bool time_up = ns_between(start, Clock::now()) >= seconds * 1e9;
    if (time_up && i >= spec.window_bundles &&
        (!spec.live || i % kBundlesPerBlock == 0)) {
      break;
    }
    if (phase.track.due()) phase.track.sample();
    if (spec.live && i > 0 && i % kBundlesPerBlock == 0) {
      d.node().produce_block(d.block_before(i));
    }
    const size_t index = i % bundles.size();
    Bundle bundle = bundles[index];
    const uint64_t pinned_before = spec.live ? engine.pinned_header().number : 0;

    const auto t0 = Clock::now();
    engine.submit(std::move(bundle));
    const auto submitted = Clock::now();
    auto [record, resolved_at] = mailbox.wait();
    const auto done = Clock::now();

    BundleSample sample;
    sample.latency_ns = ns_between(t0, resolved_at);
    sample.submit_ns = ns_between(t0, submitted);
    sample.cycle_ns = ns_between(t0, done);
    sample.slice = phase.track.last_index();
    record.bundle_index = index;
    record.pinned = engine.pinned_header();
    sample.resynced = spec.live && record.pinned.number != pinned_before;
    if (frontend_ring != nullptr) read_oram_spans(*frontend_ring, frontend_seq, sample);
    phase.samples.push_back(sample);
    phase.records.push_back(std::move(record));
    if (i + 1 == spec.window_bundles) phase.window = snapshot_window(d, durable_ops_before);
  }
  phase.wall_s = ns_between(start, Clock::now()) / 1e9;
  phase.track.sample();
  for (BundleSample& sample : phase.samples) sample.factor = phase.track.factor_after(sample.slice);
  return phase;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  void fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

/// Holds every outcome to the Geth-role replay of its pinned snapshot.
void check_outcomes(Deployment& d, const std::vector<OutcomeRecord>& records, Verdict& verdict) {
  Oracle oracle(d.node());
  for (const OutcomeRecord& record : records) {
    ++verdict.attempted;
    const std::string error = oracle.check(d.bundles()[record.bundle_index], record);
    if (!error.empty()) verdict.fail(error);
  }
  std::printf("oracle: %zu outcomes checked against %zu ground-truth replays\n", records.size(),
              oracle.replays());
}

/// Serving again: one bundle through the restarted engine, held to the oracle.
void check_serving_after_restart(Deployment& d, Mailbox& mailbox, Verdict& verdict) {
  if (d.restarted_engine().pinned_header().state_root != d.node().head().state_root) return;
  d.restarted_engine().submit(d.bundles().front());
  auto [record, resolved_at] = mailbox.wait();
  (void)resolved_at;
  record.bundle_index = 0;
  record.pinned = d.restarted_engine().pinned_header();
  check_outcomes(d, {record}, verdict);
}

void check_restart(const Deployment::RestartTiming& t, Verdict& verdict) {
  if (t.status != Status::kOk) verdict.fail(std::string("restart: ") + to_string(t.status));
  if (!t.pinned_at_head) verdict.fail("restart: engine not pinned at the node head");
  if (!t.epochs_consistent) verdict.fail("restart: max page epoch > store epoch");
}

void print_json(const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += verdict.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(verdict.attempted);
  out += ", \"failed\": " + std::to_string(verdict.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int finish(const Verdict& verdict, const std::vector<Metric>& metrics) {
  for (const std::string& e : verdict.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  std::fflush(stderr);
  print_json(verdict, metrics);
  return verdict.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- runs ---

int run_end_to_end(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Mailbox mailbox;
  DeployOptions options{.seed = seed, .traced = false,
                        .on_outcome = [&mailbox](const auto& o) { mailbox.post(o); }};
  OpTimer op_timer;
  std::vector<double> setup_raw, setup_norm;
  std::unique_ptr<Deployment> d;
  double spent = 0;
  for (int r = 0; r < kMaxRepeats && (r < kMinRepeats || spent < kRepeatBudgetNs); ++r) {
    d.reset();
    const auto [raw, norm] =
        op_timer.time([&] { d = std::make_unique<Deployment>(spec, options); });
    setup_raw.push_back(raw);
    setup_norm.push_back(norm);
    spent += raw;
  }

  Phase phase = drive(*d, mailbox, seconds);

  std::vector<double> restart_raw, restart_norm;
  Verdict verdict;
  d->power_cut();
  spent = 0;
  for (int r = 0; r < kMaxRepeats && (r < kMinRepeats || spent < kRepeatBudgetNs); ++r) {
    Deployment::RestartTiming timing;
    const auto [raw, norm] = op_timer.time([&] { timing = d->restart(); });
    restart_raw.push_back(raw);
    restart_norm.push_back(norm);
    spent += raw;
    check_restart(timing, verdict);
    std::printf("restart: replay %.1f ms (%llu records, checkpoint %d, %zu pages), adopt %.1f ms, "
                "warm %.1f ms\n",
                timing.replay_ns / 1e6,
                static_cast<unsigned long long>(timing.recovery.records_replayed),
                timing.recovery.used_checkpoint ? 1 : 0, timing.recovered_pages,
                timing.adopt_ns / 1e6, timing.warm_restart_ns / 1e6);
  }
  const double rss_end = peak_rss_mb();
  check_outcomes(*d, phase.records, verdict);
  check_serving_after_restart(*d, mailbox, verdict);

  const auto lat_norm = phase.latencies(true);
  const auto lat_raw = phase.latencies(false);
  const size_t n = lat_norm.size();
  const size_t beyond_p99 = n - obs::percentile_rank(n, 99);
  const service::EngineMetrics& sim = phase.window.metrics;

  std::printf("workload %s seed %llu: %zu bundles in %.2f s timed, window %zu bundles, "
              "%zu beyond p99\n",
              spec.name, static_cast<unsigned long long>(seed), n, phase.wall_s,
              spec.window_bundles, beyond_p99);
  {
    std::vector<double> hash, dispatch;
    for (const RefSample& r : phase.track.refs()) {
      hash.push_back(r.hash_ns);
      dispatch.push_back(r.dispatch_ns);
    }
    std::printf("reference: slowdown %.4f over %zu slices (hash %.0f, dispatch %.0f ns; "
                "nominal %.0f, %.0f)\n",
                phase.track.median_slowdown(), phase.track.refs().size(), median(hash),
                median(dispatch), kNominal.hash_ns, kNominal.dispatch_ns);
  }
  std::printf("raw {\"bundles_per_s\": %.6g, \"bundle_p50_ms\": %.6g, \"bundle_p99_ms\": %.6g, "
              "\"setup_s\": %.6g, \"restart_s\": %.6g}\n",
              phase.bundles_per_s(false), obs::percentile(lat_raw, 50) / 1e6,
              obs::percentile(lat_raw, 99) / 1e6, median(setup_raw) / 1e9, median(restart_raw) / 1e9);
  // Over one fixed world the modelled tail is the same transaction shape
  // for every seed, so it is printed here rather than reported as a metric.
  std::printf("sim p99 bundle latency over the window: %.6f ms\n",
              static_cast<double>(sim.sim_p99_bundle_latency_ns) / 1e6);
  auto print_repeats = [](const char* what, const std::vector<double>& raw,
                          const std::vector<double>& norm) {
    std::printf("%s (raw/nominal s):", what);
    for (size_t i = 0; i < raw.size(); ++i) std::printf(" %.4f/%.4f", raw[i] / 1e9, norm[i] / 1e9);
    std::printf("\n");
  };
  print_repeats("set-ups", setup_raw, setup_norm);
  print_repeats("restarts", restart_raw, restart_norm);
  std::printf("peak rss: %.1f MB at window end, %.1f MB at run end\n", phase.window.rss_mb,
              rss_end);

  const std::vector<Metric> metrics = {
      {"bundles_per_s", phase.bundles_per_s(true), "1/s"},
      {"bundle_p50_ms", obs::percentile(lat_norm, 50) / 1e6, "ms"},
      {"bundle_p99_ms", obs::percentile(lat_norm, 99) / 1e6, "ms"},
      {"setup_s", median(setup_norm) / 1e9, "s"},
      {"restart_s", median(restart_norm) / 1e9, "s"},
      {"peak_rss_mb", phase.window.rss_mb, "MB"},
      {"sim_bundles_per_s", sim.sim_bundles_per_s, "1/sim_s"},
  };
  return finish(verdict, metrics);
}

/// Median time of one oram::seal_slot + open_slot pair on a 1 KB page.
double seal_open_ns(SpeedTrack& track, uint64_t seed, Verdict& verdict) {
  crypto::AesKey128 key{};
  Random rng(seed);
  rng.fill(key.data(), key.size());
  const Bytes page = rng.bytes(oram::kPageSize);
  std::vector<double> pairs;
  bool ok = true;
  track.sample();
  const size_t k = track.last_index();
  for (int i = 0; i < 400; ++i) {
    const auto start = Clock::now();
    const oram::SealedSlot slot = oram::seal_slot(oram::SealMode::kChaChaHmac, key, rng, page);
    const auto opened = oram::open_slot(oram::SealMode::kChaChaHmac, key, slot);
    pairs.push_back(ns_between(start, Clock::now()));
    ok = ok && opened.has_value() && *opened == page;
  }
  track.sample();
  if (!ok) verdict.fail("seal/open round trip changed the page");
  return median(pairs) * track.factor_after(k);
}

int run_traced(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Mailbox mailbox;
  auto hook = [&mailbox](const auto& o) { mailbox.post(o); };
  Verdict verdict;

  // Untraced half: the tracing-overhead baseline.
  double untraced_bps = 0;
  {
    Deployment d(spec, DeployOptions{.seed = seed, .traced = false, .on_outcome = hook});
    untraced_bps = drive(d, mailbox, seconds / 2).bundles_per_s(true);
  }

  OpTimer op_timer;
  std::unique_ptr<Deployment> d;
  const auto [setup_raw, setup_norm] = op_timer.time([&] {
    d = std::make_unique<Deployment>(spec,
                                     DeployOptions{.seed = seed, .traced = true, .on_outcome = hook});
  });
  const double setup_factor = setup_norm / setup_raw;
  const service::EngineMetrics after_setup = d->engine().snapshot();
  Phase phase = drive(*d, mailbox, seconds / 2);
  const double traced_bps = phase.bundles_per_s(true);
  const WindowSnapshot& w = phase.window;
  const double window = static_cast<double>(spec.window_bundles);

  // Per-bundle split of the timed phase.
  std::vector<double> submit_ms, resync_ms, oram_request_ms, exec_ms;
  double exec_total_ns = 0;
  double instructions_total = 0;
  for (size_t i = 0; i < phase.samples.size(); ++i) {
    const BundleSample& s = phase.samples[i];
    submit_ms.push_back(s.submit_ns * s.factor / 1e6);
    if (s.resynced) resync_ms.push_back(s.submit_ns * s.factor / 1e6);
    if (s.oram_requests > 0) {
      oram_request_ms.push_back(s.oram_ns * s.factor / 1e6 / static_cast<double>(s.oram_requests));
    }
    const double exec_ns = std::max(0.0, s.latency_ns - s.submit_ns - s.oram_ns) * s.factor;
    exec_ms.push_back(exec_ns / 1e6);
    exec_total_ns += exec_ns;
    instructions_total += static_cast<double>(phase.records[i].instructions);
  }
  // A static chain never re-pins on its own: time explicit same-root passes.
  if (resync_ms.empty()) {
    for (int r = 0; r < kResyncRepeats; ++r) {
      resync_ms.push_back(op_timer.time([&] { (void)d->engine().resync(); }).second / 1e6);
    }
  }
  SpeedTrack probe_track;
  const double seal_open = seal_open_ns(probe_track, seed, verdict);
  double slots_per_walk = 0;
  if (w.store.total_walks > 0) {
    const oram::OramServer& shard = d->engine().oram_store().server(0);
    slots_per_walk = static_cast<double>((shard.depth() + 1) * shard.config().bucket_capacity);
  }

  // One restart, split into its steps.
  d->power_cut();
  Deployment::RestartTiming restart;
  const auto [restart_raw, restart_norm] = op_timer.time([&] { restart = d->restart(); });
  check_restart(restart, verdict);
  const double restart_factor = restart_norm / restart_raw;

  check_outcomes(*d, phase.records, verdict);
  check_serving_after_restart(*d, mailbox, verdict);

  double window_instructions = 0, window_swaps = 0;
  for (size_t i = 0; i < spec.window_bundles; ++i) {
    window_instructions += static_cast<double>(phase.records[i].instructions);
    window_swaps += static_cast<double>(phase.records[i].swaps);
  }
  pagedstore::BufferPoolStats pools{};
  for (const auto& p : w.pools) {
    pools.hits += p.hits;
    pools.misses += p.misses;
    pools.evictions += p.evictions;
    pools.peak_resident_bytes += p.peak_resident_bytes;
  }
  size_t stash_high_water = 0;
  for (const auto& shard : w.store.shards) {
    stash_high_water = std::max(stash_high_water, shard.stash_high_water);
  }
  const double trie_get_us =
      d->timing_store()->gets() > 0
          ? static_cast<double>(d->timing_store()->get_ns()) /
                static_cast<double>(d->timing_store()->gets()) / 1e3 /
                phase.track.median_slowdown()
          : 0.0;
  const double overhead_pct = traced_bps > 0 ? (untraced_bps / traced_bps - 1.0) * 100.0 : 0.0;

  std::printf("workload %s seed %llu (traced): %zu bundles in %.2f s; untraced %.4f/s, "
              "traced %.4f/s\n",
              spec.name, static_cast<unsigned long long>(seed), phase.samples.size(),
              phase.wall_s, untraced_bps, traced_bps);

  const std::vector<Metric> metrics = {
      {"service.submit_ms", median(submit_ms), "ms"},
      {"node.sync_s", static_cast<double>(d->sync_ns()) * setup_factor / 1e9, "s"},
      {"node.sync_pages", static_cast<double>(after_setup.sync_pages_installed), "count"},
      {"node.verified_slots", static_cast<double>(after_setup.sync_verified_slots), "count"},
      {"node.resync_ms", mean(resync_ms), "ms"},
      {"node.delta_pages",
       static_cast<double>(w.metrics.sync_pages_installed - after_setup.sync_pages_installed),
       "count"},
      {"trie.gets", static_cast<double>(w.trie_gets), "count"},
      {"trie.get_us", trie_get_us, "us"},
      {"oram.reads_per_bundle", static_cast<double>(w.metrics.oram_reads) / window, "count"},
      {"oram.walks", static_cast<double>(w.store.total_walks), "count"},
      {"oram.stash_high_water", static_cast<double>(stash_high_water), "count"},
      {"oram.walk_ms", mean(oram_request_ms), "ms"},
      {"oram.seal_open_us", seal_open / 1e3, "us"},
      {"oram.slots_per_walk", slots_per_walk, "count"},
      {"hevm.exec_ms", mean(exec_ms), "ms"},
      {"evm.instructions_per_bundle", window_instructions / window, "count"},
      {"evm.ns_per_instruction", instructions_total > 0 ? exec_total_ns / instructions_total : 0,
       "ns"},
      {"memlayer.swaps_per_bundle", window_swaps / window, "count"},
      {"durability.journal_records", static_cast<double>(w.durable.journal_records), "count"},
      {"durability.journal_syncs", static_cast<double>(w.durable.journal_syncs), "count"},
      {"durability.checkpoints", static_cast<double>(w.durable.checkpoints_written), "count"},
      {"durability.ckpt_bytes", static_cast<double>(w.durable.checkpoint_bytes_total), "B"},
      {"durability.bytes_per_bundle", static_cast<double>(w.durable_bytes) / window, "B"},
      {"durability.replay_ms", static_cast<double>(restart.replay_ns) * restart_factor / 1e6,
       "ms"},
      {"durability.warm_restart_ms",
       static_cast<double>(restart.adopt_ns + restart.warm_restart_ns) * restart_factor / 1e6,
       "ms"},
      {"pagedstore.hit_ratio",
       pools.hits + pools.misses > 0
           ? static_cast<double>(pools.hits) / static_cast<double>(pools.hits + pools.misses)
           : 0.0,
       "ratio"},
      {"pagedstore.misses", static_cast<double>(pools.misses), "count"},
      {"pagedstore.evictions", static_cast<double>(pools.evictions), "count"},
      {"pagedstore.peak_resident_bytes", static_cast<double>(pools.peak_resident_bytes), "B"},
      {"pagedstore.segment_bytes", static_cast<double>(w.segment_bytes), "B"},
      {"tracing.overhead_pct", overhead_pct, "%"},
  };
  return finish(verdict, metrics);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") args.trace = std::atoi(value);
    else return std::nullopt;
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  const auto spec = args ? find_workload(args->workload) : std::nullopt;
  if (!spec) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <oram-static|evm-local|live-durable> "
                 "--seed N --seconds S --trace <0|1>\n");
    return 2;
  }
  const int cpu = pin_to_one_cpu();
  std::printf("pinned to vCPU %d\n", cpu);
  try {
    return args->trace == 1 ? run_traced(*spec, args->seed, args->seconds)
                            : run_end_to_end(*spec, args->seed, args->seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
