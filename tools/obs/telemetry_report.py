#!/usr/bin/env python3
"""telemetry_report — offline reader for E-RAPID telemetry JSONL streams.

Consumes the windowed telemetry records written by src/obs/telemetry.cpp
(one JSON object per line, schema `erapid-telemetry-1`) and prints:

  * per-window summaries (cycle, utilization, phase, delivered, queue
    depth, lanes lit, power draw);
  * a traffic-matrix heat table aggregated over every window's top-K flows
    (src board rows, dst board columns, bytes);
  * the phase timeline (each detected phase with its start window/cycle
    and utilization range);
  * the final energy attribution (total and per-component mW·cycles).

`--json` emits the same summary as a machine-readable document; CI runs a
telemetry-enabled smoke simulation and validates its stream through this
tool. Every record is schema-checked — wrong schema string, missing
fields, non-monotone window indices or cycles all fail loudly (exit 1)
rather than producing an empty summary. This is the one reader of the
telemetry stream; tools/trace/summarize_trace.py reads only Chrome traces.

Exit status: 0 summarised, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "erapid-telemetry-1"

# Every record must carry exactly this top-level shape.
REQUIRED_FIELDS = {
    "schema": str,
    "window": int,
    "cycle": int,
    "utilization": (int, float),
    "phase_id": int,
    "phase_changed": bool,
    "delivered": int,
    "queue_depth": int,
    "lanes_lit": int,
    "lanes_total": int,
    "power_mw": (int, float),
    "workload_phase": str,
    "tm": dict,
    "energy": dict,
}

TM_FIELDS = {
    "bytes": int,
    "packets": int,
    "skew": (int, float),
    "hotspot": (int, float),
    "top": list,
}

ENERGY_FIELDS = {"total_mw_cycles": (int, float), "boards": list}

BOARD_COMPONENTS = ("laser", "serdes", "buffer", "ctrl")


class TelemetryError(Exception):
    """Input file is not a valid E-RAPID telemetry stream."""


def _check_fields(obj, spec, where):
    for field, kind in spec.items():
        if field not in obj:
            raise TelemetryError(f"{where}: missing field {field!r}")
        if not isinstance(obj[field], kind):
            raise TelemetryError(
                f"{where}: field {field!r} has type "
                f"{type(obj[field]).__name__}, expected {kind}"
            )


def validate_record(rec, where):
    """Validates one parsed telemetry record; raises TelemetryError."""
    if not isinstance(rec, dict):
        raise TelemetryError(f"{where}: record is not a JSON object")
    _check_fields(rec, REQUIRED_FIELDS, where)
    if rec["schema"] != SCHEMA:
        raise TelemetryError(
            f"{where}: schema {rec['schema']!r}, expected {SCHEMA!r} — "
            "stream written by an incompatible emitter"
        )
    _check_fields(rec["tm"], TM_FIELDS, f"{where}: tm")
    for i, flow in enumerate(rec["tm"]["top"]):
        _check_fields(
            flow,
            {"src": int, "dst": int, "bytes": int, "packets": int, "ewma": (int, float)},
            f"{where}: tm.top[{i}]",
        )
    _check_fields(rec["energy"], ENERGY_FIELDS, f"{where}: energy")
    for i, board in enumerate(rec["energy"]["boards"]):
        _check_fields(
            board,
            {"board": int, **{c: (int, float) for c in BOARD_COMPONENTS}},
            f"{where}: energy.boards[{i}]",
        )


def load_telemetry(path: Path):
    """Loads and validates a telemetry JSONL stream; returns the records."""
    try:
        lines = path.read_text().splitlines()
    except OSError as err:
        raise TelemetryError(f"{path}: {err}") from err

    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise TelemetryError(f"{where}: not valid JSON: {err}") from err
        validate_record(rec, where)
        if records:
            prev = records[-1]
            if rec["window"] != prev["window"] + 1:
                raise TelemetryError(
                    f"{where}: window {rec['window']} after {prev['window']} "
                    "(indices must advance by one)"
                )
            if rec["cycle"] <= prev["cycle"]:
                raise TelemetryError(
                    f"{where}: cycle {rec['cycle']} not after {prev['cycle']}"
                )
        elif rec["window"] != 1:
            raise TelemetryError(f"{where}: first window index is {rec['window']}, not 1")
        records.append(rec)
    if not records:
        raise TelemetryError(f"{path}: no telemetry records")
    return records


def _phase_timeline(records):
    """Contiguous phase segments: [{phase_id, start_window, start_cycle,
    windows, util_min, util_max}]."""
    timeline = []
    for rec in records:
        if timeline and timeline[-1]["phase_id"] == rec["phase_id"]:
            seg = timeline[-1]
            seg["windows"] += 1
            seg["util_min"] = min(seg["util_min"], rec["utilization"])
            seg["util_max"] = max(seg["util_max"], rec["utilization"])
        else:
            timeline.append(
                {
                    "phase_id": rec["phase_id"],
                    "start_window": rec["window"],
                    "start_cycle": rec["cycle"],
                    "windows": 1,
                    "util_min": rec["utilization"],
                    "util_max": rec["utilization"],
                }
            )
    return timeline


def _tm_heat(records):
    """(src, dst) -> bytes aggregated over every window's top-K lists.

    The stream carries only each window's K heaviest flows, so this is a
    lower bound on the full matrix — exact when flows <= K."""
    heat = {}
    for rec in records:
        for flow in rec["tm"]["top"]:
            key = (flow["src"], flow["dst"])
            heat[key] = heat.get(key, 0) + flow["bytes"]
    return heat


def summarize(records):
    utils = [r["utilization"] for r in records]
    powers = [r["power_mw"] for r in records]
    last = records[-1]
    heat = _tm_heat(records)
    boards = sorted({b for key in heat for b in key})
    energy_boards = last["energy"]["boards"]
    return {
        "tool": "telemetry_report",
        "schema": SCHEMA,
        "windows": len(records),
        "first_cycle": records[0]["cycle"],
        "end_cycle": last["cycle"],
        "utilization": {
            "min": min(utils),
            "mean": sum(utils) / len(utils),
            "max": max(utils),
        },
        "power_mw": {
            "min": min(powers),
            "mean": sum(powers) / len(powers),
            "max": max(powers),
        },
        "phase_changes": sum(1 for r in records if r["phase_changed"]),
        "final_phase": last["phase_id"],
        "phases": _phase_timeline(records),
        "tm_bytes": sum(r["tm"]["bytes"] for r in records),
        "tm_packets": sum(r["tm"]["packets"] for r in records),
        "tm_heat": [
            {"src": src, "dst": dst, "bytes": heat[(src, dst)]}
            for (src, dst) in sorted(heat)
        ],
        "tm_boards": boards,
        "energy": {
            "total_mw_cycles": last["energy"]["total_mw_cycles"],
            **{
                c: sum(b[c] for b in energy_boards)
                for c in BOARD_COMPONENTS
            },
        },
        "records": [
            {
                "window": r["window"],
                "cycle": r["cycle"],
                "utilization": r["utilization"],
                "phase_id": r["phase_id"],
                "delivered": r["delivered"],
                "queue_depth": r["queue_depth"],
                "lanes_lit": r["lanes_lit"],
                "lanes_total": r["lanes_total"],
                "power_mw": r["power_mw"],
                "workload_phase": r["workload_phase"],
            }
            for r in records
        ],
    }


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def print_text(doc, out=sys.stdout):
    w = out.write
    w(f"telemetry summary ({doc['schema']})\n")
    w(
        f"  windows={doc['windows']}  cycles={doc['first_cycle']}..{doc['end_cycle']}"
        f"  phase_changes={doc['phase_changes']}  final_phase={doc['final_phase']}\n"
    )
    u, p = doc["utilization"], doc["power_mw"]
    w(f"  utilization min/mean/max = {_fmt(u['min'])}/{_fmt(u['mean'])}/{_fmt(u['max'])}\n")
    w(f"  power_mw    min/mean/max = {_fmt(p['min'])}/{_fmt(p['mean'])}/{_fmt(p['max'])}\n")

    w("\nwindows\n")
    w(
        f"  {'win':>5} {'cycle':>9} {'util':>8} {'phase':>5} {'delivered':>10}"
        f" {'queue':>7} {'lanes':>7} {'power_mw':>9} workload\n"
    )
    for r in doc["records"]:
        lanes = f"{r['lanes_lit']}/{r['lanes_total']}"
        w(
            f"  {r['window']:>5} {r['cycle']:>9} {_fmt(r['utilization']):>8}"
            f" {r['phase_id']:>5} {r['delivered']:>10} {r['queue_depth']:>7}"
            f" {lanes:>7} {_fmt(r['power_mw']):>9} {r['workload_phase']}\n"
        )

    if doc["tm_heat"]:
        w("\ntraffic matrix (bytes, aggregated over per-window top-K)\n")
        boards = doc["tm_boards"]
        heat = {(e["src"], e["dst"]): e["bytes"] for e in doc["tm_heat"]}
        w("  src\\dst " + "".join(f"{d:>12}" for d in boards) + "\n")
        for s in boards:
            row = "".join(f"{heat.get((s, d), 0):>12}" for d in boards)
            w(f"  {s:>7} {row}\n")

    w("\nphase timeline\n")
    w(f"  {'phase':>5} {'start_win':>9} {'start_cycle':>11} {'windows':>8} {'util range':>20}\n")
    for seg in doc["phases"]:
        rng = f"{_fmt(seg['util_min'])}..{_fmt(seg['util_max'])}"
        w(
            f"  {seg['phase_id']:>5} {seg['start_window']:>9} {seg['start_cycle']:>11}"
            f" {seg['windows']:>8} {rng:>20}\n"
        )

    e = doc["energy"]
    w("\nenergy attribution (mW·cycles)\n")
    w(f"  total={_fmt(e['total_mw_cycles'])}")
    for c in BOARD_COMPONENTS:
        w(f"  {c}={_fmt(e[c])}")
    w("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="telemetry_report",
        description="Summarise an E-RAPID telemetry JSONL stream.",
    )
    parser.add_argument("stream", type=Path, help="telemetry JSONL file")
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the summary as JSON to PATH ('-' for stdout) instead of text",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0

    try:
        records = load_telemetry(args.stream)
    except TelemetryError as err:
        print(f"telemetry_report: error: {err}", file=sys.stderr)
        return 1

    doc = summarize(records)
    if args.json is not None:
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text)
    else:
        print_text(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
