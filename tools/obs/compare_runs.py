#!/usr/bin/env python3
"""compare_runs — the cross-run regression observatory.

Diffs two machine-readable E-RAPID artifacts against each other with
relative thresholds:

  * campaign artifacts (``CAMPAIGN_<name>.json``, schema
    erapid-bench-1): points are matched by (pattern, mode, load, seed,
    variant) — an artifact with a point that lacks one of the first four,
    or with two points on one key, is rejected — and every per-point
    metric is compared with a direction-aware rule — throughput falling, latency/power/energy rising,
    ``drained``/``monitors_ok`` flipping to false are regressions;
    improvements and sub-threshold drift are reported but never fail. A
    point marked ``"failed": true`` regresses unless the baseline point
    failed too; doc-level ``points_failed`` rising is a regression, and
    the doc-level ``wall_ms_sum``/``wall_ms_max`` aggregates join in under
    ``--include-wall``;
  * simulation reports (``write_results_json`` output, or one bare result
    object): results are matched by name, the known top-level metrics are
    compared direction-aware, and every numeric leaf of the ``obs_metrics``
    snapshot is compared direction-agnostically (the snapshot is
    deterministic, so any drift beyond the threshold is a behaviour change
    worth flagging). ``obs_monitors`` verdicts gate too; a report without
    the block (pre-monitor artifacts, monitor-free runs) compares as "no
    monitors configured" — ok, zero violations — rather than erroring.
    The ``resilience`` block (reports and brownout campaign points) gates
    the same way: absence means degradation-free (the all-zero baseline);
    engaging the brownout ladder against a clean baseline, stepping down
    more, shedding/sleeping more lanes, or peaking at a deeper ladder
    stage is a regression, while recovery activity is informational.

Only the metric names listed below are ever compared, so new provenance
fields never move the gate.

``wall_ms`` is excluded by default — the simulator is deterministic but the
host is not; ``--include-wall`` opts it in (direction: up is worse).

Exit status: 0 no regressions, 1 regressions found, 2 usage/validation
error. ``--json`` emits the full comparison as one machine-readable
document.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_SCHEMA = "erapid-bench-1"

# Direction-aware comparison rules for known metric names.
#   up_bad:   candidate above baseline beyond threshold = regression
#   down_bad: candidate below baseline beyond threshold = regression
#   false_bad: boolean flipping true -> false = regression
#   info:     reported, never a regression
BENCH_FIELDS = {
    "throughput_xNc": "down_bad",
    "latency_avg_cycles": "up_bad",
    "latency_p99_cycles": "up_bad",
    "power_avg_mw": "up_bad",
    "active_power_avg_mw": "up_bad",
    "energy_per_packet_mw_cycles": "up_bad",
    "drained": "false_bad",
    "monitors_ok": "false_bad",
    "monitor_violations": "up_bad",
    # Workload points (e.g. the ml_collectives / hpc_kernels specs):
    # completion-bounded runs gate on the makespan and phase tail too.
    "completed": "false_bad",
    "makespan_cycles": "up_bad",
    "worst_phase_cycles": "up_bad",
    "worst_episode_cycles": "up_bad",
    "wall_ms": "wall",
}

# Doc-level fields of bench/campaign artifacts. points_failed always gates
# (a point dying is a behaviour change); the wall aggregates are host noise
# and only compare under --include-wall, like per-point wall_ms.
BENCH_DOC_FIELDS = {
    "points_failed": "up_bad",
    "wall_ms_sum": "wall",
    "wall_ms_max": "wall",
}

REPORT_FIELDS = {
    "accepted_fraction": "down_bad",
    "latency_avg": "up_bad",
    "latency_p50": "up_bad",
    "latency_p95": "up_bad",
    "latency_p99": "up_bad",
    "latency_max": "up_bad",
    "power_avg_mw": "up_bad",
    "active_power_avg_mw": "up_bad",
    "drained": "false_bad",
}

# Survivability block (reports and brownout campaign points). A document
# without the block is degradation-free: it compares as this baseline, so
# a run that *starts* engaging the brownout ladder against a clean
# baseline regresses, and a run that stops engaging it improves. Recovery
# activity (steps back up, lanes restored) is informational — more
# recovery is not worse.
RESILIENCE_ABSENT = {
    "engaged": False, "peak_stage": "normal", "steps_down": 0, "steps_up": 0,
    "lanes_shed": 0, "lanes_slept": 0, "lanes_restored": 0, "episodes": 0,
    "time_degraded": 0, "suppressed_violations": 0,
}
RESILIENCE_FIELDS = {
    "engaged": "true_bad",
    "steps_down": "up_bad",
    "lanes_shed": "up_bad",
    "lanes_slept": "up_bad",
    "episodes": "up_bad",
    "time_degraded": "up_bad",
    "suppressed_violations": "up_bad",
    "steps_up": "info",
    "lanes_restored": "info",
}
# Brownout ladder stages, shallow to deep — a deeper peak is a regression.
STAGE_RANK = {"normal": 0, "cap_mid": 1, "cap_low": 2, "sleep_idle": 3, "shed": 4}

# Campaign retry bookkeeping: a point that needed more retries (or hit the
# per-point timeout more often) than the baseline is flakier. Absent = zero.
RETRY_FIELDS = {"retried": "up_bad", "timed_out": "up_bad"}


class CompareError(Exception):
    """Input file is not a comparable artifact."""


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise CompareError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CompareError(f"{path} is not valid JSON: {e}") from e


def rel_change(base, cand):
    """Relative change of cand vs base; inf when base == 0 and cand moved."""
    if base == 0:
        return 0.0 if cand == 0 else float("inf")
    return (cand - base) / abs(base)


def classify(rule, base, cand, threshold):
    """Returns (kind, pct) — kind in {same, improved, drifted, regressed}."""
    if rule in ("false_bad", "true_bad"):
        if bool(base) == bool(cand):
            return "same", 0.0
        bad = (base and not cand) if rule == "false_bad" else (cand and not base)
        return ("regressed", 0.0) if bad else ("improved", 0.0)
    pct = rel_change(float(base), float(cand))
    if pct == 0.0:
        return "same", 0.0
    worse = pct > 0 if rule in ("up_bad", "wall") else pct < 0
    if abs(pct) <= threshold:
        return "drifted", pct
    if rule == "info" or not worse:
        return ("drifted" if rule == "info" else "improved"), pct
    return "regressed", pct


def compare_fields(label, base_obj, cand_obj, rules, threshold, include_wall, out):
    for name, rule in rules.items():
        if name not in base_obj or name not in cand_obj:
            continue
        if rule == "wall":
            if not include_wall:
                continue
            rule = "up_bad"
        kind, pct = classify(rule, base_obj[name], cand_obj[name], threshold)
        out.append({
            "where": label,
            "metric": name,
            "baseline": base_obj[name],
            "candidate": cand_obj[name],
            "change_pct": None if pct in (0.0,) else round(pct * 100.0, 6),
            "kind": kind,
        })


def flatten_numeric(prefix, node, out):
    """Collects numeric leaves of a nested dict as (path, value) pairs.

    Lists (histogram bucket arrays) are skipped: their scalar summaries
    (count / quantiles) already carry the comparison.
    """
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = float(node)
    elif isinstance(node, dict):
        for key in sorted(node):
            sub = f"{prefix}.{key}" if prefix else key
            flatten_numeric(sub, node[key], out)


def compare_obs_monitors(label, base_mon, cand_mon, threshold, out):
    """Monitor verdict gate. A report without an obs_monitors block means
    "no monitors configured" — pre-monitor artifacts and monitor-free runs
    compare as ok with zero violations instead of erroring, so a current
    report can be diffed against a legacy baseline."""
    if base_mon is None and cand_mon is None:
        return
    absent = {"ok": True, "violations": 0}
    compare_fields(label, base_mon or absent, cand_mon or absent,
                   {"ok": "false_bad", "violations": "up_bad"},
                   threshold, False, out)


def compare_obs_metrics(label, base_obs, cand_obs, threshold, out):
    base_flat, cand_flat = {}, {}
    flatten_numeric("", base_obs, base_flat)
    flatten_numeric("", cand_obs, cand_flat)
    for path in sorted(set(base_flat) | set(cand_flat)):
        if path not in base_flat or path not in cand_flat:
            out.append({
                "where": label,
                "metric": f"obs_metrics.{path}",
                "baseline": base_flat.get(path),
                "candidate": cand_flat.get(path),
                "change_pct": None,
                "kind": "regressed",  # a metric appearing/vanishing is drift
            })
            continue
        pct = rel_change(base_flat[path], cand_flat[path])
        if pct == 0.0:
            kind = "same"
        elif abs(pct) <= threshold:
            kind = "drifted"
        else:
            kind = "regressed"  # deterministic snapshot: big drift = change
        out.append({
            "where": label,
            "metric": f"obs_metrics.{path}",
            "baseline": base_flat[path],
            "candidate": cand_flat[path],
            "change_pct": None if pct == 0.0 else round(pct * 100.0, 6),
            "kind": kind,
        })


def compare_resilience(label, base_res, cand_res, threshold, out):
    """Survivability gate. Absence of the block means the run never built a
    degradation controller (degradation-free) — it compares as the all-zero
    baseline rather than erroring, so brownout-capable candidates diff
    cleanly against pre-resilience artifacts."""
    if base_res is None and cand_res is None:
        return
    base = {**RESILIENCE_ABSENT, **(base_res or {})}
    cand = {**RESILIENCE_ABSENT, **(cand_res or {})}
    scoped = []
    compare_fields(label, base, cand, RESILIENCE_FIELDS, threshold, False, scoped)
    for c in scoped:
        c["metric"] = f"resilience.{c['metric']}"
    out.extend(scoped)
    b_rank = STAGE_RANK.get(str(base["peak_stage"]), len(STAGE_RANK))
    c_rank = STAGE_RANK.get(str(cand["peak_stage"]), len(STAGE_RANK))
    if b_rank != c_rank:
        out.append({
            "where": label,
            "metric": "resilience.peak_stage",
            "baseline": base["peak_stage"],
            "candidate": cand["peak_stage"],
            "change_pct": None,
            "kind": "regressed" if c_rank > b_rank else "improved",
        })


POINT_COORDINATES = ("pattern", "mode", "load", "seed")


def point_key(p, which):
    """Full point identity: the four coordinates every campaign point
    carries, plus the variant (None unless the campaign's overrides vary).
    The variant is canonical JSON, so key order does not matter."""
    missing = [c for c in POINT_COORDINATES if c not in p]
    if missing:
        raise CompareError(f"{which}: a point lacks {', '.join(missing)}: {p}")
    variant = p.get("variant")
    return tuple(p[c] for c in POINT_COORDINATES) + (
        json.dumps(variant, sort_keys=True) if variant else None,)


def point_label(key):
    pattern, mode, load, seed, variant = key
    parts = [str(pattern), str(mode), f"load={load}", f"seed={seed}"]
    if variant is not None:
        parts.extend(f"{k}={v}" for k, v in json.loads(variant).items())
    return "/".join(parts)


def compare_bench(base, cand, threshold, include_wall):
    def index(doc, which):
        points = doc.get("points")
        if not isinstance(points, list):
            raise CompareError(f"{which}: bench artifact has no points list")
        indexed = {}
        for p in points:
            key = point_key(p, which)
            if key in indexed:
                raise CompareError(
                    f"{which}: two points share the key {point_label(key)}")
            indexed[key] = p
        return indexed

    b_pts, c_pts = index(base, "baseline"), index(cand, "candidate")
    comparisons = []
    sort_key = lambda k: tuple(str(c) for c in k)  # noqa: E731
    for key in sorted(set(b_pts) | set(c_pts), key=sort_key):
        label = point_label(key)
        if key not in b_pts or key not in c_pts:
            comparisons.append({
                "where": label, "metric": "point",
                "baseline": key in b_pts, "candidate": key in c_pts,
                "change_pct": None, "kind": "regressed",
            })
            continue
        b_failed = bool(b_pts[key].get("failed"))
        c_failed = bool(c_pts[key].get("failed"))
        if b_failed or c_failed:
            # A failed point has no metrics to compare; what matters is the
            # transition. ok -> failed regresses, failed -> ok improves,
            # failed -> failed is the (already-gated) status quo.
            kind = ("regressed" if c_failed and not b_failed
                    else "improved" if b_failed and not c_failed
                    else "same")
            comparisons.append({
                "where": label, "metric": "failed",
                "baseline": b_failed, "candidate": c_failed,
                "change_pct": None, "kind": kind,
            })
            continue
        compare_fields(label, b_pts[key], c_pts[key], BENCH_FIELDS, threshold,
                       include_wall, comparisons)
        compare_resilience(label, b_pts[key].get("resilience"),
                           c_pts[key].get("resilience"), threshold, comparisons)
        b_retry = {k: b_pts[key].get(k, 0) for k in RETRY_FIELDS}
        c_retry = {k: c_pts[key].get(k, 0) for k in RETRY_FIELDS}
        if any(b_retry.values()) or any(c_retry.values()):
            compare_fields(label, b_retry, c_retry, RETRY_FIELDS, threshold,
                           False, comparisons)
    compare_fields("doc", base, cand, BENCH_DOC_FIELDS, threshold,
                   include_wall, comparisons)
    return comparisons


def report_results(doc, which):
    """Normalizes a report document to [(name, result-object)]."""
    if "results" in doc:
        out = []
        for entry in doc["results"]:
            if "name" not in entry or "metrics" not in entry:
                raise CompareError(f"{which}: malformed results entry")
            out.append((entry["name"], entry["metrics"]))
        return out
    if "accepted_fraction" in doc or "obs_metrics" in doc:
        return [("result", doc)]
    raise CompareError(f"{which}: neither a bench artifact nor a report")


def compare_reports(base, cand, threshold, include_wall):
    b_named = dict(report_results(base, "baseline"))
    c_named = dict(report_results(cand, "candidate"))
    comparisons = []
    for name in sorted(set(b_named) | set(c_named)):
        if name not in b_named or name not in c_named:
            comparisons.append({
                "where": name, "metric": "result",
                "baseline": name in b_named, "candidate": name in c_named,
                "change_pct": None, "kind": "regressed",
            })
            continue
        b, c = b_named[name], c_named[name]
        compare_fields(name, b, c, REPORT_FIELDS, threshold, include_wall,
                       comparisons)
        compare_obs_metrics(name, b.get("obs_metrics", {}),
                            c.get("obs_metrics", {}), threshold, comparisons)
        compare_obs_monitors(name, b.get("obs_monitors"),
                             c.get("obs_monitors"), threshold, comparisons)
        compare_resilience(name, b.get("resilience"), c.get("resilience"),
                           threshold, comparisons)
    return comparisons


def compare_docs(base, cand, threshold, include_wall):
    b_bench = base.get("schema") == BENCH_SCHEMA
    c_bench = cand.get("schema") == BENCH_SCHEMA
    if b_bench != c_bench:
        raise CompareError("cannot compare a bench artifact against a report")
    if b_bench:
        return compare_bench(base, cand, threshold, include_wall)
    return compare_reports(base, cand, threshold, include_wall)


def render_text(result, out=sys.stdout):
    for c in result["comparisons"]:
        if c["kind"] == "same":
            continue
        pct = c["change_pct"]
        delta = "" if pct is None else f" ({pct:+.2f}%)"
        print(f"  [{c['kind']:9s}] {c['where']}: {c['metric']} "
              f"{c['baseline']} -> {c['candidate']}{delta}", file=out)
    print(f"compare_runs: {result['regressions']} regression(s), "
          f"{result['improvements']} improvement(s), "
          f"{result['compared']} metric(s) compared "
          f"[threshold {result['threshold_pct']}%]", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="compare_runs",
        description="diff two E-RAPID bench/report artifacts with relative "
                    "thresholds")
    ap.add_argument("baseline", type=Path)
    ap.add_argument("candidate", type=Path)
    ap.add_argument("--threshold-pct", type=float, default=5.0,
                    help="relative drift tolerated before a worse-direction "
                         "move counts as a regression (default: 5)")
    ap.add_argument("--include-wall", action="store_true",
                    help="also gate on wall_ms (off by default: wall time is "
                         "host noise, not simulator behaviour)")
    ap.add_argument("--json", action="store_true",
                    help="emit the comparison as machine-readable JSON")
    args = ap.parse_args(argv)
    if args.threshold_pct < 0:
        ap.error("--threshold-pct must be non-negative")

    try:
        base = load_doc(args.baseline)
        cand = load_doc(args.candidate)
        comparisons = compare_docs(base, cand, args.threshold_pct / 100.0,
                                   args.include_wall)
    except CompareError as e:
        print(f"compare_runs: {e}", file=sys.stderr)
        return 2

    result = {
        "baseline": str(args.baseline),
        "candidate": str(args.candidate),
        "threshold_pct": args.threshold_pct,
        "compared": len(comparisons),
        "regressions": sum(1 for c in comparisons if c["kind"] == "regressed"),
        "improvements": sum(1 for c in comparisons if c["kind"] == "improved"),
        "ok": all(c["kind"] != "regressed" for c in comparisons),
        "comparisons": comparisons,
    }
    if args.json:
        json.dump(result, sys.stdout, indent=2, sort_keys=False)
        print()
    else:
        render_text(result)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
