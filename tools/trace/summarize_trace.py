#!/usr/bin/env python3
"""summarize_trace — offline reader for E-RAPID observability traces.

Consumes the deterministic Chrome/Perfetto JSON trace files written by
src/obs (ChromeTraceWriter) and prints a human summary:

  * span totals per track and name (count, total/min/max duration in cycles),
    including async lane-ownership spans paired by id — unclosed spans are
    reported, not an error (lanes still owned at end of run never release);
  * counter-track statistics (count, min, mean, max, last value);
  * instant-event counts per track and name;
  * the reconfiguration window timeline (start cycle, kind, duration,
    window index / R_w parity when present in args).

`--json` emits the same summary as a machine-readable document;
tests/test_trace_summary.py (the CTest example.*_summary entries) validates
the traces of the example runs through it.

Inputs are schema-checked: the writer stamps
`otherData.schema == "erapid-trace-1"` and this tool refuses anything else,
so a silent format drift fails loudly in ctest rather than producing an empty
summary.

Exit status: 0 summarised, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "erapid-trace-1"


class TraceError(Exception):
    """Input file is not a valid E-RAPID trace."""


def _stats_init():
    return {"count": 0, "min": None, "max": None, "sum": 0.0, "last": None}


def _stats_add(s, value):
    s["count"] += 1
    s["min"] = value if s["min"] is None else min(s["min"], value)
    s["max"] = value if s["max"] is None else max(s["max"], value)
    s["sum"] += value
    s["last"] = value


def _stats_finish(s):
    mean = s["sum"] / s["count"] if s["count"] else 0.0
    return {
        "count": s["count"],
        "min": s["min"],
        "mean": mean,
        "max": s["max"],
        "last": s["last"],
    }


class Summary:
    """Accumulates one trace's events into per-track aggregates."""

    def __init__(self):
        # (track, name) -> {count, total_dur, min_dur, max_dur}
        self.spans = {}
        # counter name -> running stats
        self.counters = {}
        # (track, name) -> count
        self.instants = {}
        # open async spans: (track, name, id) -> begin ts
        self._open_async = {}
        # reconfiguration windows in file order
        self._windows = []
        self.unclosed_spans = 0
        self.end_cycle = None
        self.event_count = 0

    def span(self, track, name, ts, dur):
        del ts
        key = (track, name)
        e = self.spans.setdefault(
            key, {"count": 0, "total_dur": 0, "min_dur": None, "max_dur": None}
        )
        e["count"] += 1
        e["total_dur"] += dur
        e["min_dur"] = dur if e["min_dur"] is None else min(e["min_dur"], dur)
        e["max_dur"] = dur if e["max_dur"] is None else max(e["max_dur"], dur)

    def async_begin(self, track, name, span_id, ts):
        self._open_async[(track, name, span_id)] = ts

    def async_end(self, track, name, span_id, ts):
        begin = self._open_async.pop((track, name, span_id), None)
        if begin is None:
            raise TraceError(
                f"async end without begin: {name} id={span_id} on {track} at {ts}"
            )
        self.span(track, name, begin, ts - begin)

    def counter(self, name, value):
        _stats_add(self.counters.setdefault(name, _stats_init()), value)

    def instant(self, track, name):
        key = (track, name)
        self.instants[key] = self.instants.get(key, 0) + 1

    def finish(self):
        self.unclosed_spans = len(self._open_async)

    def windows(self):
        """Reconfiguration window timeline, sorted by start cycle."""
        return sorted(self._windows, key=lambda w: (w["start"], w["kind"]))

    def to_doc(self):
        spans = [
            {
                "track": track,
                "name": name,
                "count": e["count"],
                "total_dur": e["total_dur"],
                "min_dur": e["min_dur"],
                "max_dur": e["max_dur"],
            }
            for (track, name), e in sorted(self.spans.items())
        ]
        counters = {
            name: _stats_finish(s) for name, s in sorted(self.counters.items())
        }
        instants = [
            {"track": track, "name": name, "count": count}
            for (track, name), count in sorted(self.instants.items())
        ]
        return {
            "tool": "summarize_trace",
            "schema": SCHEMA,
            "end_cycle": self.end_cycle,
            "event_count": self.event_count,
            "unclosed_spans": self.unclosed_spans,
            "spans": spans,
            "counters": counters,
            "instants": instants,
            "windows": self.windows(),
        }


def _window_entry(name, ts, dur, args):
    args = args or {}
    return {
        "start": ts,
        "kind": name.split(".", 1)[1] if "." in name else name,
        "dur": dur,
        "index": args.get("index"),
        "parity": args.get("parity"),
    }


def load_chrome(path: Path) -> Summary:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise TraceError(f"{path}: not readable as JSON: {err}") from err
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise TraceError(f"{path}: no traceEvents array (not a Chrome trace)")
    other = doc.get("otherData", {})
    schema = other.get("schema")
    if schema != SCHEMA:
        raise TraceError(
            f"{path}: schema {schema!r}, expected {SCHEMA!r} — "
            "trace written by an incompatible writer"
        )

    s = Summary()
    s.end_cycle = other.get("end_cycle")
    s.event_count = other.get("events")

    track_of_tid = {}
    for ev in doc["traceEvents"]:
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                track_of_tid[ev["tid"]] = ev["args"]["name"]
            continue
        track = track_of_tid.get(ev.get("tid"), f"tid{ev.get('tid')}")
        name = ev.get("name", "")
        ts = ev.get("ts", 0)
        if ph == "X":
            dur = ev.get("dur", 0)
            s.span(track, name, ts, dur)
            if name.startswith("window."):
                s._windows.append(_window_entry(name, ts, dur, ev.get("args")))
        elif ph == "B":
            s.async_begin(track, name, ("sync", ev.get("tid")), ts)
        elif ph == "E":
            s.async_end(track, name, ("sync", ev.get("tid")), ts)
        elif ph == "b":
            s.async_begin(track, name, ev.get("id"), ts)
        elif ph == "e":
            s.async_end(track, name, ev.get("id"), ts)
        elif ph == "i":
            s.instant(track, name)
        elif ph == "C":
            s.counter(name, ev["args"]["value"])
        else:
            raise TraceError(f"{path}: unexpected event phase {ph!r}")
    s.finish()
    return s


def _fmt_num(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def print_text(doc, out=sys.stdout):
    w = out.write
    w(f"trace summary ({doc['schema']})\n")
    w(f"  end_cycle={_fmt_num(doc['end_cycle'])}  events={_fmt_num(doc['event_count'])}")
    w(f"  unclosed_spans={doc['unclosed_spans']}\n")

    if doc["spans"]:
        w("\nspans (cycles)\n")
        w(f"  {'track':<16} {'name':<24} {'count':>7} {'total':>9} {'min':>7} {'max':>7}\n")
        for e in doc["spans"]:
            w(
                f"  {e['track']:<16} {e['name']:<24} {e['count']:>7}"
                f" {_fmt_num(e['total_dur']):>9} {_fmt_num(e['min_dur']):>7}"
                f" {_fmt_num(e['max_dur']):>7}\n"
            )

    if doc["counters"]:
        w("\ncounter tracks\n")
        w(f"  {'name':<32} {'count':>7} {'min':>9} {'mean':>9} {'max':>9} {'last':>9}\n")
        for name, sstat in doc["counters"].items():
            w(
                f"  {name:<32} {sstat['count']:>7} {_fmt_num(sstat['min']):>9}"
                f" {_fmt_num(sstat['mean']):>9} {_fmt_num(sstat['max']):>9}"
                f" {_fmt_num(sstat['last']):>9}\n"
            )

    if doc["instants"]:
        w("\ninstants\n")
        for e in doc["instants"]:
            w(f"  {e['track']:<16} {e['name']:<24} {e['count']:>7}\n")

    if doc["windows"]:
        w("\nreconfiguration windows\n")
        w(f"  {'start':>9} {'kind':<8} {'dur':>7} {'index':>7} {'parity':>7}\n")
        for win in doc["windows"]:
            w(
                f"  {win['start']:>9} {win['kind']:<8} {_fmt_num(win['dur']):>7}"
                f" {_fmt_num(win['index']):>7} {_fmt_num(win['parity']):>7}\n"
            )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="summarize_trace",
        description="Summarise an E-RAPID observability trace.",
    )
    parser.add_argument("trace", type=Path, help="Chrome JSON trace file")
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
        summary = load_chrome(args.trace)
    except TraceError as err:
        print(f"summarize_trace: error: {err}", file=sys.stderr)
        return 1

    doc = summary.to_doc()
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
