#include "faults/fault_plan.hpp"

#include <algorithm>

namespace hardtape::faults {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kOramRead: return "oram-read";
    case FaultSite::kChannelFrame: return "channel-frame";
    case FaultSite::kNodeFetch: return "node-fetch";
    case FaultSite::kDeviceBinding: return "device-binding";
  }
  return "unknown";
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kTamper: return "tamper";
    case FaultKind::kStaleProof: return "stale-proof";
    case FaultKind::kDuplicateFrame: return "duplicate-frame";
    case FaultKind::kReorderFrame: return "reorder-frame";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSticky: return "sticky";
    case FaultKind::kFlap: return "flap";
  }
  return "unknown";
}

namespace {

/// The kinds an adversary can express at each interface.
struct WeightedKind {
  FaultKind kind;
  double weight;
};

std::vector<WeightedKind> kinds_for(FaultSite site, const FaultPlanConfig& c) {
  switch (site) {
    case FaultSite::kOramRead:
      return {{FaultKind::kDrop, c.weight_drop},
              {FaultKind::kDelay, c.weight_delay},
              {FaultKind::kTamper, c.weight_tamper}};
    case FaultSite::kChannelFrame:
      return {{FaultKind::kDrop, c.weight_drop},
              {FaultKind::kTamper, c.weight_tamper},
              {FaultKind::kDuplicateFrame, c.weight_duplicate},
              {FaultKind::kReorderFrame, c.weight_reorder}};
    case FaultSite::kNodeFetch:
      return {{FaultKind::kStaleProof, c.weight_stale_proof}};
    case FaultSite::kDeviceBinding:
      return {{FaultKind::kCrash, c.weight_crash},
              {FaultKind::kSticky, c.weight_sticky},
              {FaultKind::kFlap, c.weight_flap}};
  }
  return {};
}

uint64_t mix(uint64_t seed, FaultSite site, uint64_t stream, uint64_t op) {
  uint64_t h = seed;
  h ^= (static_cast<uint64_t>(site) + 1) * 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h ^= stream * 0x94d049bb133111ebull;
  h = (h ^ (h >> 27)) * 0xff51afd7ed558ccdull;
  h ^= op + 0x2545f4914f6cdd1dull;
  return h ^ (h >> 31);
}

}  // namespace

FaultDecision FaultPlan::decide(FaultSite site, uint64_t stream, uint64_t op) {
  FaultDecision decision;
  bool forced = false;
  {
    std::lock_guard lock(mu_);
    const auto it = forced_.find({static_cast<uint8_t>(site), stream, op});
    if (it != forced_.end()) {
      decision = it->second;
      forced = true;
    }
  }
  if (!forced) {
    if (config_.fault_rate <= 0.0) return decision;
    // One DRBG per decision, keyed purely by (seed, site, stream, op):
    // thread interleaving cannot perturb any draw.
    Random rng(mix(config_.seed, site, stream, op));
    if (rng.uniform_double() >= config_.fault_rate) return decision;

    const auto kinds = kinds_for(site, config_);
    double total = 0;
    for (const auto& k : kinds) total += k.weight;
    if (total <= 0) return decision;
    double draw = rng.uniform_double() * total;
    for (const auto& k : kinds) {
      draw -= k.weight;
      if (draw <= 0) {
        decision.kind = k.kind;
        break;
      }
    }
    if (decision.kind == FaultKind::kNone) decision.kind = kinds.back().kind;
    if (decision.kind == FaultKind::kDelay) {
      decision.delay_ns = rng.uniform_range(config_.min_delay_ns, config_.max_delay_ns);
    }
    if (decision.kind == FaultKind::kCrash || decision.kind == FaultKind::kFlap) {
      decision.kill_frac = rng.uniform_double();
    }
    if (decision.kind == FaultKind::kFlap) {
      decision.downtime_ns =
          rng.uniform_range(config_.min_downtime_ns, config_.max_downtime_ns);
    }
  }
  if (decision.kind == FaultKind::kNone) return decision;

  injected_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  trace_.push_back({site, stream, op, decision.kind, decision.delay_ns});
  return decision;
}

void FaultPlan::force(FaultSite site, uint64_t stream, uint64_t op,
                      FaultDecision decision) {
  std::lock_guard lock(mu_);
  forced_[{static_cast<uint8_t>(site), stream, op}] = decision;
}

std::vector<FaultEvent> FaultPlan::trace() const {
  std::vector<FaultEvent> out;
  {
    std::lock_guard lock(mu_);
    out = trace_;
  }
  std::sort(out.begin(), out.end(), [](const FaultEvent& a, const FaultEvent& b) {
    return std::tie(a.site, a.stream, a.op) < std::tie(b.site, b.stream, b.op);
  });
  return out;
}

}  // namespace hardtape::faults
