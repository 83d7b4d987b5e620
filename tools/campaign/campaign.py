#!/usr/bin/env python3
"""Parallel campaign runner for E-RAPID sweep specs.

Expands a JSON sweep spec into independent simulation points, shards them
across a pool of `erapid_campaign` worker processes, and merges the results
into one CAMPAIGN_<slug>.json artifact (schema erapid-bench-1, consumable
by tools/obs/compare_runs.py).

Spec format (JSON object)::

    {
      "name": "smoke",                  # artifact slug (required)
      "patterns": ["uniform"],          # workload patterns (required)
      "modes": ["P-B", "NP-NB"],        # network modes (required)
      "loads": [0.3, 0.7],              # offered loads (required)
      "seeds": [1, 2],                  # workload seeds (required)
      "config": "base.ini",             # optional base INI (worker --config)
      "overrides": [                    # optional list of override dicts;
        {},                             # each dict is one sweep axis value
        {"workload.warmup_cycles": 500} # (default: single empty dict)
      ]
    }

Every axis is a non-empty list. When the overrides axis has entries that
differ, each point record carries ``"variant"``: the override keys whose
values differ across the axis, with this point's values (a key an entry
leaves out is ``null``). Together with (pattern, mode, load, seed) it
identifies the point. Records of a campaign whose overrides do not vary
carry no ``variant``.

A spec that is a union of grids lists them under ``"grids"`` instead of
giving the axes itself: each grid is an object with the four axes and an
optional overrides axis, expanded in turn, and the variant keys are those
that vary across the overrides of all grids::

    {"name": "mix", "grids": [
      {"patterns": ["uniform", "complement"], "modes": ["P-B"],
       "loads": [0.3, 0.9], "seeds": [1]},
      {"patterns": ["uniform"], "modes": ["P-B"], "loads": [0.7],
       "seeds": [1], "overrides": [{"workload.kind": "fft"}]}
    ]}

Determinism contract: the expansion order is the canonical nested loop
``overrides > patterns > modes > loads > seeds`` (outermost to innermost),
and the merged artifact lists points in exactly that order regardless of
which worker finishes first or how many workers run. With ``--no-wall``
every wall field is zeroed, so -j1 and -jN produce byte-identical output.

A worker that exits non-zero (or crashes) yields a point record with
``"failed": true`` and the worker's stderr as ``"error"``; the campaign
still completes, ``points_failed`` counts the casualties, and the driver
exits 1 so CI notices. A spec that is missing, is not JSON or is malformed
runs nothing and exits 2 with one line on stderr.

Flaky-host hardening: ``--timeout`` bounds each worker's wall clock (a
point that overruns is killed and counted in its record's ``"timed_out"``),
and ``--retries`` re-runs a failed point up to N more times with exponential
backoff (``--backoff`` seconds, doubling per attempt). A point that
eventually succeeds records how many ``"retried"`` attempts it burned; both
fields are omitted when zero, so retry-free artifacts are byte-identical to
those produced before the knobs existed.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import time

# The spec's list axes; "overrides" is the optional fifth.
AXES = ("patterns", "modes", "loads", "seeds")


def expand_points(spec):
    """Expands a spec dict into the canonical ordered list of point dicts.

    Each point is {"pattern", "mode", "load", "seed", "overrides"} where
    overrides is one dict from its grid's overrides axis (default: the
    empty dict), plus "variant" when the overrides vary (see the module
    doc). Raises ValueError on a missing key or a malformed axis.
    """
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    if "name" not in spec:
        raise ValueError("spec missing required key: 'name'")
    grids = spec.get("grids", [spec])
    if "grids" in spec and (
        not isinstance(grids, list) or not grids
        or not all(isinstance(g, dict) for g in grids)
        or any(key in spec for key in AXES + ("overrides",))
    ):
        raise ValueError("spec 'grids' must be a non-empty list of objects, "
                         "and then the spec itself carries no axis")
    overrides_axes = [grid_overrides(grid) for grid in grids]
    varying = varying_keys([o for axis in overrides_axes for o in axis])
    points = []
    for grid, overrides_axis in zip(grids, overrides_axes):
        for overrides in overrides_axis:
            for pattern in grid["patterns"]:
                for mode in grid["modes"]:
                    for load in grid["loads"]:
                        for seed in grid["seeds"]:
                            point = {
                                "pattern": pattern,
                                "mode": mode,
                                "load": load,
                                "seed": seed,
                                "overrides": overrides,
                            }
                            if varying:
                                point["variant"] = {k: overrides.get(k) for k in varying}
                            points.append(point)
    return points


def grid_overrides(grid):
    """Checks one grid's axes; returns its overrides axis."""
    for key in AXES:
        if key not in grid:
            raise ValueError(f"spec missing required key: {key!r}")
    for key in AXES:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ValueError(f"spec {key!r} must be a non-empty list")
    overrides_axis = grid.get("overrides", [{}])
    if not isinstance(overrides_axis, list) or not overrides_axis or not all(
        isinstance(o, dict) for o in overrides_axis
    ):
        raise ValueError("spec 'overrides' must be a non-empty list of objects")
    return overrides_axis


def varying_keys(overrides_axis):
    """Sorted override keys whose values are not the same in every entry."""
    keys = sorted({key for overrides in overrides_axis for key in overrides})
    return [
        key for key in keys
        if len({json.dumps(o.get(key)) for o in overrides_axis}) > 1
    ]


def worker_argv(binary, point, config=None, no_wall=False):
    """Builds the erapid_campaign argv for one expanded point.

    Only the --key=value spelling is used: the worker's Cli would swallow a
    following positional override as the value of a bare flag.
    """
    argv = [
        binary,
        f"--pattern={point['pattern']}",
        f"--mode={point['mode']}",
        f"--load={point['load']}",
        f"--seed={point['seed']}",
    ]
    if config:
        argv.append(f"--config={config}")
    if no_wall:
        argv.append("--no-wall=1")
    for key in sorted(point["overrides"]):
        argv.append(f"{key}={point['overrides'][key]}")
    return argv


def run_point_once(binary, point, config=None, no_wall=False, timeout=None):
    """Runs one worker process; returns (record, timed_out).

    Failures (non-zero exit, crash, timeout, unparseable stdout) become a
    record with the point coordinates, "failed": true and the diagnostic in
    "error" — the campaign never loses a point, it just marks it dead.
    """
    argv = worker_argv(binary, point, config=config, no_wall=no_wall)
    failed = dict(point)
    del failed["overrides"]
    failed["failed"] = True
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, check=False, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        failed["error"] = f"timed out after {timeout}s"
        return failed, True
    except OSError as exc:
        failed["error"] = f"spawn failed: {exc}"
        return failed, False
    if proc.returncode != 0:
        err = proc.stderr.strip() or f"worker exited with code {proc.returncode}"
        failed["error"] = err
        return failed, False
    try:
        record = json.loads(proc.stdout)
    except ValueError as exc:
        failed["error"] = f"unparseable worker output: {exc}"
        return failed, False
    if not isinstance(record, dict):
        failed["error"] = "worker output is not a JSON object"
        return failed, False
    if "variant" in point:
        # After the coordinates, so the record reads as its point key.
        coordinates = {k: record[k] for k in ("pattern", "mode", "load", "seed")
                       if k in record}
        record = {**coordinates, "variant": point["variant"], **record}
    return record, False


def run_point(binary, point, config=None, no_wall=False, timeout=None,
              retries=0, backoff=0.5, sleep=time.sleep):
    """Runs one point with up to `retries` re-attempts on failure.

    Backoff between attempts is `backoff * 2**attempt` seconds (attempt 0 is
    the first retry). The returned record carries "retried" (extra attempts
    consumed) and "timed_out" (attempts killed by the timeout) only when
    nonzero — absent means zero, keeping retry-free artifacts byte-identical
    to pre-retry ones.
    """
    retried = 0
    timeouts = 0
    for attempt in range(max(0, retries) + 1):
        if attempt > 0:
            sleep(backoff * (2 ** (attempt - 1)))
            retried += 1
        record, timed_out = run_point_once(
            binary, point, config=config, no_wall=no_wall, timeout=timeout
        )
        timeouts += 1 if timed_out else 0
        if not record.get("failed"):
            break
    if retried:
        record["retried"] = retried
    if timeouts:
        record["timed_out"] = timeouts
    return record


def merge(spec, records, git_rev):
    """Assembles the campaign artifact from spec-ordered point records."""
    wall_values = [r.get("wall_ms", 0.0) for r in records if not r.get("failed")]
    return {
        "schema": "erapid-bench-1",
        "bench": f"campaign:{spec['name']}",
        "campaign": spec["name"],
        "git_rev": git_rev,
        "points": records,
        "points_total": len(records),
        "points_failed": sum(1 for r in records if r.get("failed")),
        "wall_ms_sum": sum(wall_values),
        "wall_ms_max": max(wall_values, default=0.0),
    }


def run_campaign(spec, binary, jobs=1, no_wall=False, spec_dir=".",
                 timeout=None, retries=0, backoff=0.5, sleep=time.sleep):
    """Expands, shards and merges one campaign; returns the artifact dict.

    The merge is deterministic by construction: workers may finish in any
    order, but records are collected into a spec-index-addressed list, so
    the artifact depends only on the spec and each point's own output.
    """
    points = expand_points(spec)
    config = spec.get("config")
    if config and not os.path.isabs(config):
        config = os.path.join(spec_dir, config)
    records = [None] * len(points)
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        futures = {
            pool.submit(run_point, binary, p, config=config, no_wall=no_wall,
                        timeout=timeout, retries=retries, backoff=backoff,
                        sleep=sleep): i
            for i, p in enumerate(points)
        }
        for fut in concurrent.futures.as_completed(futures):
            records[futures[fut]] = fut.result()
    git_rev = os.environ.get("ERAPID_GIT_REV", "unknown")
    return merge(spec, records, git_rev)


def artifact_path(out_dir, name):
    return os.path.join(out_dir, f"CAMPAIGN_{name}.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spec", help="path to the campaign spec JSON")
    ap.add_argument("--binary", required=True, help="path to erapid_campaign")
    ap.add_argument("-j", "--jobs", type=int, default=1, help="parallel workers")
    ap.add_argument("--out-dir", default=".", help="artifact output directory")
    ap.add_argument(
        "--no-wall",
        action="store_true",
        help="zero all wall-clock fields (byte-identical across -j levels)",
    )
    ap.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock budget in seconds (default: unbounded)",
    )
    ap.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per failed point (default: 0)",
    )
    ap.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        help="base retry backoff in seconds, doubling per attempt",
    )
    args = ap.parse_args(argv)

    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
        artifact = run_campaign(
            spec,
            args.binary,
            jobs=args.jobs,
            no_wall=args.no_wall,
            spec_dir=os.path.dirname(os.path.abspath(args.spec)),
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
        )
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or malformed
        print(f"campaign: {args.spec}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    path = artifact_path(args.out_dir, spec["name"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")

    failed = artifact["points_failed"]
    total = artifact["points_total"]
    print(f"campaign '{spec['name']}': {total - failed}/{total} points ok -> {path}")
    if failed:
        for rec in artifact["points"]:
            if rec.get("failed"):
                variant = "".join(
                    f"/{k}={v}" for k, v in rec.get("variant", {}).items())
                print(
                    f"  FAILED {rec['pattern']}/{rec['mode']}"
                    f"/load={rec['load']}/seed={rec['seed']}{variant}: {rec['error']}",
                    file=sys.stderr,
                )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
