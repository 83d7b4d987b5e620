#!/usr/bin/env python3
"""Self-test for tools/trace/summarize_trace.py.

Builds tiny synthetic Chrome JSON traces and checks that the summarizer
aggregates spans, counters, instants, async pairs and the window timeline
correctly, rejects schema/format drift, and keeps its CLI exit-code
contract. Also covers the telemetry JSONL (erapid-telemetry-1) checker in
tools/obs/telemetry_report.py, the one reader of that stream. Registered in
CTest as `lint.trace_tool_self_test`.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "tools" / "trace"))
sys.path.insert(0, str(REPO_ROOT / "tools" / "obs"))
import summarize_trace  # noqa: E402
import telemetry_report  # noqa: E402


def chrome_doc(events, schema=summarize_trace.SCHEMA, end_cycle=100):
    meta = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "erapid"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "des.engine"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
         "args": {"name": "reconfig"}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 2,
         "args": {"name": "optical.lanes"}},
    ]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ns",
        "otherData": {"schema": schema, "end_cycle": end_cycle,
                      "events": len(events)},
    }


EVENTS = [
    {"name": "phase.warmup", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 40},
    {"name": "window.dpm", "ph": "X", "pid": 0, "tid": 1, "ts": 10, "dur": 20,
     "args": {"index": 1, "parity": 1}},
    {"name": "window.dbr", "ph": "X", "pid": 0, "tid": 1, "ts": 30, "dur": 20,
     "args": {"index": 2, "parity": 0}},
    {"name": "lane.owned", "ph": "b", "pid": 0, "tid": 2, "ts": 5,
     "cat": "erapid", "id": 7, "args": {"owner": 0}},
    {"name": "lane.owned", "ph": "e", "pid": 0, "tid": 2, "ts": 35,
     "cat": "erapid", "id": 7},
    {"name": "lane.owned", "ph": "b", "pid": 0, "tid": 2, "ts": 40,
     "cat": "erapid", "id": 9, "args": {"owner": 1}},
    {"name": "dbr.resolve", "ph": "i", "pid": 0, "tid": 1, "ts": 30, "s": "t",
     "args": {"lanes_moved": 2}},
    {"name": "power.total_mw", "ph": "C", "pid": 0, "tid": 1, "ts": 0,
     "args": {"value": 10.0}},
    {"name": "power.total_mw", "ph": "C", "pid": 0, "tid": 1, "ts": 50,
     "args": {"value": 30.0}},
]

def write_chrome(tmp, events=EVENTS, **kw):
    path = Path(tmp) / "t.trace.json"
    path.write_text(json.dumps(chrome_doc(events, **kw)))
    return path


def span(doc, track, name):
    for e in doc["spans"]:
        if e["track"] == track and e["name"] == name:
            return e
    return None


class Aggregation(unittest.TestCase):
    def test_chrome(self):
        with tempfile.TemporaryDirectory() as td:
            doc = summarize_trace.load_chrome(write_chrome(td)).to_doc()
        self.assertEqual(doc["end_cycle"], 100)
        warmup = span(doc, "des.engine", "phase.warmup")
        self.assertEqual(warmup["count"], 1)
        self.assertEqual(warmup["total_dur"], 40)

        owned = span(doc, "optical.lanes", "lane.owned")
        self.assertEqual(owned["count"], 1)  # id=7 paired; id=9 stays open
        self.assertEqual(owned["total_dur"], 30)
        self.assertEqual(doc["unclosed_spans"], 1)

        power = doc["counters"]["power.total_mw"]
        self.assertEqual(power["count"], 2)
        self.assertEqual(power["min"], 10.0)
        self.assertEqual(power["max"], 30.0)
        self.assertEqual(power["mean"], 20.0)
        self.assertEqual(power["last"], 30.0)

        self.assertEqual(
            doc["instants"],
            [{"track": "reconfig", "name": "dbr.resolve", "count": 1}],
        )

        self.assertEqual(len(doc["windows"]), 2)
        first, second = doc["windows"]
        self.assertEqual((first["start"], first["kind"], first["index"],
                          first["parity"]), (10, "dpm", 1, 1))
        self.assertEqual((second["start"], second["kind"], second["index"],
                          second["parity"]), (30, "dbr", 2, 0))


class ValidationRejects(unittest.TestCase):
    def test_wrong_schema(self):
        with tempfile.TemporaryDirectory() as td:
            path = write_chrome(td, schema="erapid-trace-999")
            with self.assertRaises(summarize_trace.TraceError):
                summarize_trace.load_chrome(path)

    def test_not_a_trace(self):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "x.json"
            path.write_text('{"hello": 1}')
            with self.assertRaises(summarize_trace.TraceError):
                summarize_trace.load_chrome(path)

    def test_end_without_begin(self):
        events = [{"name": "lane.owned", "ph": "e", "pid": 0, "tid": 2,
                   "ts": 3, "cat": "erapid", "id": 99}]
        with tempfile.TemporaryDirectory() as td:
            path = write_chrome(td, events=events)
            with self.assertRaises(summarize_trace.TraceError):
                summarize_trace.load_chrome(path)


def telemetry_record(window, cycle, **kw):
    """One synthetic erapid-telemetry-1 record in the emitter's shape."""
    rec = {
        "schema": "erapid-telemetry-1",
        "window": window,
        "cycle": cycle,
        "utilization": 0.5,
        "phase_id": 0,
        "phase_changed": False,
        "delivered": 10,
        "queue_depth": 2,
        "lanes_lit": 4,
        "lanes_total": 8,
        "power_mw": 100.0,
        "workload_phase": "",
        "tm": {
            "bytes": 640, "packets": 10, "skew": 1.0, "hotspot": 0.5,
            "top": [
                {"src": 0, "dst": 1, "bytes": 320, "packets": 5, "ewma": 96.0},
                {"src": 1, "dst": 0, "bytes": 320, "packets": 5, "ewma": 96.0},
            ],
        },
        "energy": {
            "total_mw_cycles": 1000.0,
            "boards": [
                {"board": 0, "laser": 100.0, "serdes": 400.0,
                 "buffer": 0.0, "ctrl": 0.0},
                {"board": 1, "laser": 100.0, "serdes": 400.0,
                 "buffer": 0.0, "ctrl": 0.0},
            ],
        },
    }
    rec.update(kw)
    return rec


def write_telemetry(tmp, records):
    path = Path(tmp) / "t.telemetry.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TelemetryFormat(unittest.TestCase):
    def test_valid_stream_summarises(self):
        records = [
            telemetry_record(1, 2000),
            telemetry_record(2, 4000, utilization=0.9, phase_id=1,
                             phase_changed=True),
            telemetry_record(3, 6000, utilization=0.9, phase_id=1),
        ]
        with tempfile.TemporaryDirectory() as td:
            path = write_telemetry(td, records)
            doc = telemetry_report.summarize(telemetry_report.load_telemetry(path))
            # And the same file through the CLI.
            report = Path(td) / "summary.json"
            self.assertEqual(
                telemetry_report.main([str(path), "--json", str(report)]), 0)
            cli_doc = json.loads(report.read_text())
        self.assertEqual(doc["windows"], 3)
        self.assertEqual(doc["phase_changes"], 1)
        self.assertEqual(doc["final_phase"], 1)
        self.assertEqual(len(doc["phases"]), 2)
        self.assertEqual(doc["phases"][1]["start_window"], 2)
        self.assertEqual(doc["tm_bytes"], 3 * 640)
        heat = {(e["src"], e["dst"]): e["bytes"] for e in doc["tm_heat"]}
        self.assertEqual(heat[(0, 1)], 3 * 320)
        self.assertEqual(doc["energy"]["laser"], 200.0)
        self.assertEqual(doc["energy"]["serdes"], 800.0)
        self.assertEqual(cli_doc, doc)

    def test_rejects_wrong_schema(self):
        with tempfile.TemporaryDirectory() as td:
            path = write_telemetry(
                td, [telemetry_record(1, 2000, schema="erapid-telemetry-999")])
            with self.assertRaises(telemetry_report.TelemetryError):
                telemetry_report.load_telemetry(path)
            self.assertEqual(telemetry_report.main([str(path)]), 1)

    def test_rejects_missing_field_and_bad_ordering(self):
        bad = telemetry_record(1, 2000)
        del bad["utilization"]
        skipped = [telemetry_record(1, 2000), telemetry_record(3, 4000)]
        backwards = [telemetry_record(1, 2000), telemetry_record(2, 2000)]
        with tempfile.TemporaryDirectory() as td:
            for records in ([bad], skipped, backwards):
                path = write_telemetry(td, records)
                with self.assertRaises(telemetry_report.TelemetryError):
                    telemetry_report.load_telemetry(path)


class CliContract(unittest.TestCase):
    def test_exit_codes_and_json_report(self):
        with tempfile.TemporaryDirectory() as td:
            good = write_chrome(td)
            report = Path(td) / "summary.json"
            rc = summarize_trace.main([str(good), "--json", str(report)])
            self.assertEqual(rc, 0)
            doc = json.loads(report.read_text())
            self.assertEqual(doc["tool"], "summarize_trace")
            self.assertEqual(doc["schema"], summarize_trace.SCHEMA)
            self.check_rc_bad(td)

    def check_rc_bad(self, td):
        bad = Path(td) / "bad.json"
        bad.write_text("not json at all")
        self.assertEqual(summarize_trace.main([str(bad)]), 1)


if __name__ == "__main__":
    unittest.main()
