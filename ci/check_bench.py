#!/usr/bin/env python3
"""Perf-regression gate over the bench JSON reports (CI perf-gate jobs).

Three modes, selected by --mode (default: throughput):

throughput — BENCH_throughput.json. Checks, in order:
  1. correctness precondition — every sweep point ran bit-identical to the
     serial reference (a perf number from a wrong run is meaningless);
  2. wall scaling — wall bundles/s at the highest worker count must be at
     least --min-wall-scaling x the 1-worker figure. This is the "ORAM wall
     is broken" gate: it is self-normalizing (a slow runner slows both ends
     of the ratio), so it needs no wall baseline;
  3. sim regression — simulated bundles/s per sweep point must not fall
     more than --tolerance below the committed baseline. The simulated
     timeline is deterministic on any host, so this comparison is exact
     across machines;
  4. wall regression — same comparison for wall bundles/s, but only for
     baseline entries with a recorded (non-zero) wall figure. 0 is the
     "no baseline yet" sentinel: wall numbers are only ever recorded from a
     CI runner, never from a developer machine;
  5. shard stalls — the per-shard walk-lock wait p50 at the highest worker
     count must stay under --max-stall-p50-ns.

service — BENCH_service.json (the front-door overload sweep). Checks:
  1. load shedding — goodput at 2x saturation must be at least
     --min-goodput-ratio of goodput at saturation (overload must degrade
     the refusal rate, not completed work);
  2. bounded tails — every sweep point reported p99_bounded (admitted p99
     under the deadline budget);
  3. refusals engaged — the 2x point actually shed/expired something, so
     the gate cannot pass by never reaching overload;
  4. goodput regression — goodput at saturation within --tolerance of the
     committed baseline (simulated, so exact across machines);
  5. device churn (only when the report has a 'churn' section, i.e. the
     bench ran --device-churn) — at every churn point: zero unresolved
     bundles (every admitted bundle reached a terminal status), zero
     device-lost resolutions (the fleet never fully died), the binding
     audit held (no per-device overlap, no binding outliving its device),
     and goodput with k of N devices alive at least
     --min-churn-goodput-frac x (k/N) x the full-fleet figure. The
     full-fleet churn goodput is also compared against the committed
     baseline at --tolerance when the baseline recorded one.

crash — BENCH_crash.json (bench_crash, typically --paged --scale 10: the
  big-state crash drill over the paged backend). Needs no baseline; every
  check is self-contained in the report:
  1. invariants — the bench's own R1-R6 verdict ('ok') and a zero per-trial
     violation count;
  2. coverage — at least --min-recoverable trials recovered a usable image
     (a sweep that only ever hit empty images proves nothing);
  3. warm wins — aggregate warm-restart speedup over cold re-sync at least
     --min-warm-speedup;
  and when the report ran --paged (enforced by --require-paged in CI):
  4. memory-bounded — measured peak pool bytes within the analytic budget,
     and the budget strictly below the full serialized image (the drill ran
     with less RAM than the state);
  5. incremental checkpoints — the newest checkpoint cost at most
     --max-incremental-frac of the full image, with at least two
     checkpoints written (so the newest one is a CoW delta, not the
     initial full-sync image);
  6. determinism — the 1-worker and 8-worker rehearsals produced
     bit-identical durable images.

The baseline defaults to bench/baselines/<mode>.json next to this script's
repo; --baseline overrides it (crash mode takes no baseline). A missing or
malformed baseline fails with a one-line message and exit 2 — never a
traceback.

Writes a markdown delta table to --summary (append mode; pass
$GITHUB_STEP_SUMMARY) and always prints it to stdout. Exit 1 on any gate
failure, 2 on malformed input.
"""

import argparse
import json
import os
import sys


def fail_input(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path, role):
    """Reads a report; any problem is a one-line exit-2 message, never a
    traceback (a broken baseline must read as 'fix the baseline', not as a
    crashed gate)."""
    if not os.path.exists(path):
        hint = (" (pass --baseline, or commit the default baseline file)"
                if role == "baseline" else "")
        fail_input(f"{role} not found: {path}{hint}")
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        fail_input(f"cannot read {role} {path}: {e}")
    except json.JSONDecodeError as e:
        fail_input(f"{role} {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        fail_input(f"{role} {path}: expected a JSON object at top level, "
                   f"got {type(data).__name__}")
    return data


def sweep_points(report, path, role, key_field):
    sweep = report.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        fail_input(f"{role} {path}: 'sweep' must be a non-empty array")
    points = {}
    for i, point in enumerate(sweep):
        if not isinstance(point, dict) or key_field not in point:
            fail_input(f"{role} {path}: sweep[{i}] must be an object with "
                       f"a '{key_field}' field")
        points[point[key_field]] = point
    return points


def check_throughput(args):
    current = sweep_points(load(args.current, "current report"),
                           args.current, "current report", "workers")
    baseline = sweep_points(load(args.baseline, "baseline"),
                            args.baseline, "baseline", "workers")
    failures = []
    rows = []

    # 1. Correctness precondition.
    for workers, point in sorted(current.items()):
        if not point.get("bit_identical_to_serial", False):
            failures.append(f"{workers}-worker run diverged from the serial reference")

    # 2. Wall scaling ratio.
    lo, hi = min(current), max(current)
    wall_lo = current[lo].get("wall_bundles_per_s", 0.0)
    wall_hi = current[hi].get("wall_bundles_per_s", 0.0)
    scaling = wall_hi / wall_lo if wall_lo > 0 else 0.0
    if args.min_wall_scaling > 0:
        verdict = "ok" if scaling >= args.min_wall_scaling else "FAIL"
        rows.append(("wall scaling", f"{hi}w/{lo}w", f"{scaling:.2f}x",
                     f">= {args.min_wall_scaling:.2f}x", verdict))
        if verdict == "FAIL":
            failures.append(
                f"wall scaling {scaling:.2f}x ({wall_lo:.1f} -> {wall_hi:.1f} bundles/s) "
                f"below {args.min_wall_scaling:.2f}x: the ORAM wall is back")

    # 3 + 4. Regression vs committed baseline.
    for workers in sorted(baseline):
        if workers not in current:
            failures.append(f"baseline has {workers} workers but current sweep does not")
            continue
        for key, label in (("sim_bundles_per_s", "sim"), ("wall_bundles_per_s", "wall")):
            base = baseline[workers].get(key, 0.0)
            if base <= 0:
                continue  # 0 = no-baseline sentinel (see module docstring)
            cur = current[workers].get(key, 0.0)
            delta = (cur - base) / base
            floor = base * (1.0 - args.tolerance)
            verdict = "ok" if cur >= floor else "FAIL"
            rows.append((f"{label} bundles/s", f"{workers}w",
                         f"{cur:.2f} (base {base:.2f}, {delta:+.1%})",
                         f">= {floor:.2f}", verdict))
            if verdict == "FAIL":
                failures.append(
                    f"{label} bundles/s at {workers} workers regressed {delta:+.1%} "
                    f"vs baseline (> {args.tolerance:.0%} allowed)")

    # 5. Per-shard stall p50 at max workers.
    if args.max_stall_p50_ns > 0:
        shards = current[hi].get("shards", [])
        worst = max((s.get("stall_p50_ns", 0) for s in shards), default=0)
        verdict = "ok" if worst <= args.max_stall_p50_ns else "FAIL"
        rows.append(("shard stall p50", f"{hi}w worst", f"{worst} ns",
                     f"<= {args.max_stall_p50_ns:.0f} ns", verdict))
        if verdict == "FAIL":
            failures.append(
                f"worst per-shard stall p50 at {hi} workers is {worst} ns "
                f"(> {args.max_stall_p50_ns:.0f}): walks are queueing again")

    return rows, failures


def check_service(args):
    report = load(args.current, "current report")
    current = sweep_points(report, args.current, "current report", "load_factor")
    gates = report.get("gates")
    if not isinstance(gates, dict):
        fail_input(f"current report {args.current}: missing 'gates' object")
    base_report = load(args.baseline, "baseline")
    base_gates = base_report.get("gates")
    if not isinstance(base_gates, dict):
        fail_input(f"baseline {args.baseline}: missing 'gates' object")

    failures = []
    rows = []

    # 1. Goodput must survive 2x overload.
    ratio = gates.get("goodput_ratio", 0.0)
    verdict = "ok" if ratio >= args.min_goodput_ratio else "FAIL"
    rows.append(("goodput ratio", "2x/1x", f"{ratio:.3f}",
                 f">= {args.min_goodput_ratio:.2f}", verdict))
    if verdict == "FAIL":
        failures.append(
            f"goodput at 2x saturation is {ratio:.3f} of the saturation figure "
            f"(need >= {args.min_goodput_ratio:.2f}): shedding is not protecting goodput")

    # 2. Tails stay bounded at every load point.
    for load_factor, point in sorted(current.items()):
        bounded = point.get("p99_bounded", False)
        rows.append(("p99 bounded", f"{load_factor}x",
                     f"{point.get('p99_ns', 0) / 1e6:.1f} ms",
                     "under deadline budget", "ok" if bounded else "FAIL"))
        if not bounded:
            failures.append(f"admitted p99 at {load_factor}x exceeded the deadline budget")

    # 3. The overload point must actually refuse work.
    refused = gates.get("refused_at_2x", 0)
    verdict = "ok" if refused > 0 else "FAIL"
    rows.append(("refusals at 2x", "shed+expired", str(refused), "> 0", verdict))
    if verdict == "FAIL":
        failures.append("the 2x point refused nothing: the sweep never reached overload")

    # 4. Saturation goodput vs the committed baseline (sim-deterministic).
    base = base_gates.get("goodput_at_saturation_rps", 0.0)
    if base > 0:
        cur = gates.get("goodput_at_saturation_rps", 0.0)
        delta = (cur - base) / base
        floor = base * (1.0 - args.tolerance)
        verdict = "ok" if cur >= floor else "FAIL"
        rows.append(("goodput req/s", "1x",
                     f"{cur:.2f} (base {base:.2f}, {delta:+.1%})",
                     f">= {floor:.2f}", verdict))
        if verdict == "FAIL":
            failures.append(
                f"saturation goodput regressed {delta:+.1%} vs baseline "
                f"(> {args.tolerance:.0%} allowed)")

    # 5. Device-churn drill (present only when the bench ran --device-churn).
    churn = report.get("churn")
    if churn is not None:
        points = churn.get("points") if isinstance(churn, dict) else None
        n = churn.get("devices", 0) if isinstance(churn, dict) else 0
        if not isinstance(points, list) or not points or n <= 0:
            fail_input(f"current report {args.current}: 'churn' must be an "
                       f"object with 'devices' and a non-empty 'points' array")
        full = next((p for p in points if p.get("k_alive") == n), None)
        if full is None:
            fail_input(f"current report {args.current}: churn points are "
                       f"missing the full-fleet (k_alive == devices) reference")
        full_goodput = full.get("goodput_rps", 0.0)
        for point in points:
            k = point.get("k_alive", 0)
            label = f"{k}/{n} alive"
            unresolved = point.get("unresolved", 0)
            verdict = "ok" if unresolved == 0 else "FAIL"
            rows.append(("churn unresolved", label, str(unresolved), "== 0",
                         verdict))
            if verdict == "FAIL":
                failures.append(
                    f"churn at {label}: {unresolved} admitted bundles never "
                    f"reached a terminal status")
            lost = point.get("device_lost", 0)
            verdict = "ok" if lost == 0 else "FAIL"
            rows.append(("churn lost bundles", label, str(lost), "== 0",
                         verdict))
            if verdict == "FAIL":
                failures.append(
                    f"churn at {label}: {lost} bundles resolved device-lost "
                    f"with serviceable devices remaining")
            audit = point.get("audit_ok", False)
            verdict = "ok" if audit else "FAIL"
            rows.append(("churn binding audit", label,
                         "held" if audit else "violated",
                         "no overlap, no orphan binding", verdict))
            if verdict == "FAIL":
                failures.append(f"churn at {label}: the binding/lifecycle "
                                f"audit found a violation")
            if k < n and full_goodput > 0:
                floor = args.min_churn_goodput_frac * full_goodput * k / n
                cur = point.get("goodput_rps", 0.0)
                verdict = "ok" if cur >= floor else "FAIL"
                rows.append(("churn goodput", label, f"{cur:.2f} req/s",
                             f">= {floor:.2f}", verdict))
                if verdict == "FAIL":
                    failures.append(
                        f"goodput with {label} is {cur:.2f} req/s, below "
                        f"{args.min_churn_goodput_frac:.0%} x (k/N) x "
                        f"full-fleet ({floor:.2f}): failover is costing more "
                        f"than the capacity lost")
        # Full-fleet churn goodput vs the committed baseline, when recorded.
        base_churn = base_report.get("churn")
        if isinstance(base_churn, dict):
            base_full = next(
                (p.get("goodput_rps", 0.0)
                 for p in base_churn.get("points", [])
                 if p.get("k_alive") == base_churn.get("devices")), 0.0)
            if base_full > 0:
                delta = (full_goodput - base_full) / base_full
                floor = base_full * (1.0 - args.tolerance)
                verdict = "ok" if full_goodput >= floor else "FAIL"
                rows.append(("churn goodput", f"{n}/{n} alive",
                             f"{full_goodput:.2f} (base {base_full:.2f}, "
                             f"{delta:+.1%})", f">= {floor:.2f}", verdict))
                if verdict == "FAIL":
                    failures.append(
                        f"full-fleet churn goodput regressed {delta:+.1%} vs "
                        f"baseline (> {args.tolerance:.0%} allowed)")

    return rows, failures


def check_crash(args):
    report = load(args.current, "current report")
    failures = []
    rows = []

    # 1. The bench's own invariant verdict (R1-R6 + its paged self-checks).
    ok = report.get("ok", False)
    trials = report.get("trials")
    if not isinstance(trials, list) or not trials:
        fail_input(f"current report {args.current}: 'trials' must be a "
                   f"non-empty array")
    violations = sum(t.get("violations", 0) for t in trials)
    verdict = "ok" if ok and violations == 0 else "FAIL"
    rows.append(("invariants R1-R6", f"{len(trials)} trials",
                 f"{violations} violations", "ok == true, 0 violations",
                 verdict))
    if verdict == "FAIL":
        failures.append(
            f"crash drill reported ok={str(ok).lower()} with {violations} "
            f"invariant violations across {len(trials)} trials")

    # 2. Enough trials actually recovered an image.
    recoverable = report.get("recoverable_trials", 0)
    verdict = "ok" if recoverable >= args.min_recoverable else "FAIL"
    rows.append(("recoverable trials", "sweep", str(recoverable),
                 f">= {args.min_recoverable}", verdict))
    if verdict == "FAIL":
        failures.append(
            f"only {recoverable} trials recovered a usable image "
            f"(need >= {args.min_recoverable}): the sweep proves nothing")

    # 3. Warm restart must beat cold re-sync in aggregate.
    speedup = report.get("warm_speedup", 0.0)
    if args.min_warm_speedup > 0 and recoverable > 0:
        verdict = "ok" if speedup >= args.min_warm_speedup else "FAIL"
        rows.append(("warm speedup", "aggregate", f"{speedup:.2f}x",
                     f">= {args.min_warm_speedup:.2f}x", verdict))
        if verdict == "FAIL":
            failures.append(
                f"warm recovery speedup {speedup:.2f}x is below "
                f"{args.min_warm_speedup:.2f}x: the journal is not buying "
                f"its availability")

    # 4-6. Paged-mode gates (memory-bounded operation + CoW checkpoints).
    paged = report.get("paged", False)
    if args.require_paged and not paged:
        failures.append("the report did not run --paged but the gate "
                        "requires it (wrong bench invocation?)")
    if paged:
        budget = report.get("pool_budget_bytes", 0)
        peak = report.get("peak_pool_bytes", 0)
        full = report.get("full_image_bytes", 0)
        verdict = "ok" if 0 < peak <= budget else "FAIL"
        rows.append(("pool peak", f"scale {report.get('scale', '?')}x",
                     f"{peak} B", f"0 < peak <= {budget} B", verdict))
        if verdict == "FAIL":
            failures.append(
                f"measured pool peak {peak} B violates the analytic budget "
                f"{budget} B (or no pool activity was recorded)")
        verdict = "ok" if 0 < budget < full else "FAIL"
        rows.append(("memory bound", "budget vs state", f"{budget} B",
                     f"< full image {full} B", verdict))
        if verdict == "FAIL":
            failures.append(
                f"pool budget {budget} B is not below the full image "
                f"{full} B: the drill never ran memory-bounded")

        ckpts = report.get("checkpoints_written", 0)
        incr = report.get("incremental_ckpt_bytes", 0)
        ceiling = args.max_incremental_frac * full
        verdict = ("ok" if ckpts >= 2 and 0 < incr <= ceiling else "FAIL")
        rows.append(("incremental ckpt", f"{ckpts} written", f"{incr} B",
                     f"<= {args.max_incremental_frac:.0%} of full image "
                     f"({ceiling:.0f} B), >= 2 ckpts", verdict))
        if verdict == "FAIL":
            failures.append(
                f"newest incremental checkpoint cost {incr} B with {ckpts} "
                f"checkpoints written (need >= 2 and <= "
                f"{args.max_incremental_frac:.0%} of the {full} B image): "
                f"checkpoints are not CoW deltas")

        identical = report.get("workers_identical", False)
        verdict = "ok" if identical else "FAIL"
        rows.append(("worker determinism", "1w vs 8w image",
                     "identical" if identical else "DIVERGED",
                     "bit-identical", verdict))
        if not identical:
            failures.append("the 8-worker rehearsal produced a different "
                            "durable image than the 1-worker rehearsal")

    return rows, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("throughput", "service", "crash"),
                    default="throughput",
                    help="which bench report to gate (default: throughput)")
    ap.add_argument("--current", required=True, help="bench JSON from this run")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline JSON (default: bench/baselines/<mode>.json)")
    ap.add_argument("--min-wall-scaling", type=float, default=2.0,
                    help="[throughput] min wall bundles/s ratio, max workers vs 1 (0 disables)")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="max fractional regression vs baseline")
    ap.add_argument("--max-stall-p50-ns", type=float, default=1e6,
                    help="[throughput] max per-shard stall p50 at max workers, ns (0 disables)")
    ap.add_argument("--min-goodput-ratio", type=float, default=0.90,
                    help="[service] min goodput(2x saturation) / goodput(saturation)")
    ap.add_argument("--min-churn-goodput-frac", type=float, default=0.80,
                    help="[service] min goodput with k of N devices alive, as "
                         "a fraction of (k/N) x the full-fleet figure")
    ap.add_argument("--min-recoverable", type=int, default=1,
                    help="[crash] min trials that recovered a usable image")
    ap.add_argument("--min-warm-speedup", type=float, default=1.0,
                    help="[crash] min aggregate warm/cold speedup (0 disables)")
    ap.add_argument("--max-incremental-frac", type=float, default=0.25,
                    help="[crash] max newest-checkpoint cost as a fraction "
                         "of the full serialized image")
    ap.add_argument("--require-paged", action="store_true",
                    help="[crash] fail unless the report ran --paged")
    ap.add_argument("--summary", default=None,
                    help="markdown summary file to append to (e.g. $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args()

    if args.baseline is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        args.baseline = os.path.join(repo_root, "bench", "baselines",
                                     f"{args.mode}.json")

    check = {"throughput": check_throughput, "service": check_service,
             "crash": check_crash}[args.mode]
    rows, failures = check(args)

    lines = [f"## Perf gate: {args.mode}", "",
             "| check | point | value | gate | verdict |",
             "|---|---|---|---|---|"]
    lines += [f"| {c} | {p} | {v} | {g} | {s} |" for c, p, v, g, s in rows]
    lines.append("")
    lines.append("**PASS**" if not failures else
                 "**FAIL**\n" + "\n".join(f"- {f}" for f in failures))
    summary = "\n".join(lines) + "\n"
    print(summary)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(summary)

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
