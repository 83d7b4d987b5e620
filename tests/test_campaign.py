#!/usr/bin/env python3
"""Self-test for tools/campaign/campaign.py (CTest: campaign.self_test).

Covers the campaign driver's contract: spec expansion follows the canonical
nested-loop order, the merged artifact lists points in spec order regardless
of completion order, a crashing worker yields a failed point record without
sinking the campaign, and — when the erapid_campaign binary is available —
-j1 and -j2 runs of a tiny grid produce byte-identical artifacts that match
the committed golden (tests/data/golden_campaign_small.json, regenerated
with ERAPID_REGEN_GOLDEN=1).
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "tools" / "campaign"))
import campaign  # noqa: E402
import render  # noqa: E402

GOLDEN_PATH = TESTS_DIR / "data" / "golden_campaign_small.json"

# The tiny grid used for the golden / parallel-identity test. Short windows
# keep the whole thing to a few seconds; --no-wall plus a pinned git rev
# make the artifact fully deterministic.
GOLDEN_SPEC = {
    "name": "small",
    "patterns": ["uniform", "shuffle"],
    "modes": ["P-B", "NP-NB"],
    "loads": [0.3],
    "seeds": [1],
    "overrides": [
        {
            "workload.warmup_cycles": 1000,
            "workload.measure_cycles": 2000,
            "workload.drain_limit": 30000,
        }
    ],
}


def campaign_binary():
    """Path to erapid_campaign, or None if it has not been built."""
    env = os.environ.get("ERAPID_CAMPAIGN_BIN")
    candidates = [env] if env else []
    candidates.append(str(REPO_ROOT / "build" / "tools" / "campaign" / "erapid_campaign"))
    for cand in candidates:
        if cand and os.path.isfile(cand) and os.access(cand, os.X_OK):
            return cand
    return None


def write_script(directory, name, body):
    """Drops an executable shell script (a stand-in worker) into directory."""
    path = Path(directory) / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class ExpandPointsTest(unittest.TestCase):
    def test_canonical_nested_loop_order(self):
        spec = {
            "name": "t",
            "patterns": ["a", "b"],
            "modes": ["M1", "M2"],
            "loads": [0.1, 0.2],
            "seeds": [1, 2],
        }
        points = campaign.expand_points(spec)
        self.assertEqual(len(points), 16)
        # Innermost axis (seeds) varies fastest, outermost (patterns,
        # since there is only one overrides entry) slowest.
        self.assertEqual(
            [(p["pattern"], p["mode"], p["load"], p["seed"]) for p in points[:4]],
            [("a", "M1", 0.1, 1), ("a", "M1", 0.1, 2), ("a", "M1", 0.2, 1), ("a", "M1", 0.2, 2)],
        )
        self.assertEqual(points[-1]["pattern"], "b")
        self.assertTrue(all(p["overrides"] == {} for p in points))

    def test_overrides_axis_is_outermost(self):
        spec = {
            "name": "t",
            "patterns": ["a"],
            "modes": ["M"],
            "loads": [0.5],
            "seeds": [1],
            "overrides": [{}, {"workload.warmup_cycles": 9}],
        }
        points = campaign.expand_points(spec)
        self.assertEqual(len(points), 2)
        self.assertEqual(points[0]["overrides"], {})
        self.assertEqual(points[1]["overrides"], {"workload.warmup_cycles": 9})

    def test_variant_holds_only_the_keys_that_vary(self):
        spec = {
            "name": "t", "patterns": ["a"], "modes": ["M"], "loads": [0.5],
            "seeds": [1],
            "overrides": [
                {"reconfig.window": 500, "workload.warmup_cycles": 9},
                {"reconfig.window": 2000, "workload.warmup_cycles": 9,
                 "reconfig.dpm_strategy": "ewma"},
            ],
        }
        points = campaign.expand_points(spec)
        self.assertEqual(
            [p["variant"] for p in points],
            [{"reconfig.dpm_strategy": None, "reconfig.window": 500},
             {"reconfig.dpm_strategy": "ewma", "reconfig.window": 2000}])

    def test_no_variant_when_the_overrides_do_not_vary(self):
        for overrides in ([{"reconfig.dpm_strategy": "ewma"}], [{"a.k": 1}, {"a.k": 1}]):
            spec = {"name": "t", "patterns": ["a"], "modes": ["M"],
                    "loads": [0.5], "seeds": [1], "overrides": overrides}
            for point in campaign.expand_points(spec):
                self.assertNotIn("variant", point)

    def test_grids_expand_in_turn_with_variants_across_all_of_them(self):
        spec = {
            "name": "t",
            "grids": [
                {"patterns": ["a", "b"], "modes": ["M"], "loads": [0.5], "seeds": [1]},
                {"patterns": ["a"], "modes": ["M"], "loads": [0.7], "seeds": [1, 2],
                 "overrides": [{"workload.kind": "fft"}]},
            ],
        }
        points = campaign.expand_points(spec)
        self.assertEqual(
            [(p["pattern"], p["load"], p["seed"], p["variant"]) for p in points],
            [("a", 0.5, 1, {"workload.kind": None}), ("b", 0.5, 1, {"workload.kind": None}),
             ("a", 0.7, 1, {"workload.kind": "fft"}), ("a", 0.7, 2, {"workload.kind": "fft"})])

    def test_malformed_grids_raise(self):
        grid = {"patterns": ["a"], "modes": ["M"], "loads": [0.5], "seeds": [1]}
        for grids in ([], {"not": "a list"}, [grid, "x"], [dict(grid, seeds=[])],
                      [{"patterns": ["a"], "modes": ["M"], "loads": [0.5]}]):
            with self.assertRaises(ValueError, msg=repr(grids)):
                campaign.expand_points({"name": "t", "grids": grids})
        # A spec of grids carries no axis of its own.
        with self.assertRaises(ValueError):
            campaign.expand_points({"name": "t", "grids": [grid], "seeds": [1]})

    def test_string_axis_raises(self):
        # A bare string would otherwise expand character by character.
        for axis in ("patterns", "modes", "loads", "seeds"):
            spec = {"name": "t", "patterns": ["uniform"], "modes": ["P-B"],
                    "loads": [0.5], "seeds": [1]}
            spec[axis] = "uniform"
            with self.assertRaises(ValueError, msg=axis):
                campaign.expand_points(spec)

    def test_empty_axis_raises(self):
        for axis in ("patterns", "modes", "loads", "seeds", "overrides"):
            spec = {"name": "t", "patterns": ["uniform"], "modes": ["P-B"],
                    "loads": [0.5], "seeds": [1]}
            spec[axis] = []
            with self.assertRaises(ValueError, msg=axis):
                campaign.expand_points(spec)

    def test_main_rejects_a_malformed_spec_before_running(self):
        # (spec file text or None for a missing file, expected stderr part)
        cases = [
            (json.dumps({"name": "bad", "patterns": ["a"], "modes": ["M"],
                         "loads": [0.5], "seeds": []}),
             "'seeds' must be a non-empty list"),
            ('{"name": "bad",', "Expecting property name"),
            ("3", "spec must be a JSON object"),
            (None, "No such file or directory"),
        ]
        for text, message in cases:
            with self.subTest(message), tempfile.TemporaryDirectory() as tmp:
                spec_path = Path(tmp) / "spec.json"
                if text is not None:
                    spec_path.write_text(text)
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    rc = campaign.main(
                        [str(spec_path), "--binary", "/nonexistent", "--out-dir", tmp])
                self.assertEqual(rc, 2)
                self.assertIn(message, err.getvalue())
                self.assertEqual(len(err.getvalue().splitlines()), 1, err.getvalue())
                self.assertFalse((Path(tmp) / "CAMPAIGN_bad.json").exists())

    def test_missing_required_key_raises(self):
        with self.assertRaises(ValueError):
            campaign.expand_points({"name": "t", "patterns": [], "modes": [], "loads": []})

    def test_malformed_overrides_raises(self):
        spec = {
            "name": "t", "patterns": ["a"], "modes": ["M"], "loads": [0.5],
            "seeds": [1], "overrides": {"not": "a list"},
        }
        with self.assertRaises(ValueError):
            campaign.expand_points(spec)


class WorkerArgvTest(unittest.TestCase):
    def test_all_flags_use_equals_spelling(self):
        point = {
            "pattern": "uniform", "mode": "P-B", "load": 0.3, "seed": 7,
            "overrides": {"b.k": "2", "a.k": "1"},
        }
        argv = campaign.worker_argv("/bin/worker", point, config="base.ini", no_wall=True)
        self.assertEqual(
            argv,
            [
                "/bin/worker", "--pattern=uniform", "--mode=P-B", "--load=0.3",
                "--seed=7", "--config=base.ini", "--no-wall=1", "a.k=1", "b.k=2",
            ],
        )
        # No bare flags: a bare --flag would swallow the next positional.
        for tok in argv[1:]:
            self.assertIn("=", tok)


class MergeTest(unittest.TestCase):
    def test_counts_and_wall_aggregates(self):
        spec = {"name": "t"}
        records = [
            {"pattern": "a", "mode": "M", "load": 0.1, "seed": 1, "wall_ms": 10.0},
            {"pattern": "a", "mode": "M", "load": 0.1, "seed": 2, "failed": True,
             "error": "boom"},
            {"pattern": "a", "mode": "M", "load": 0.2, "seed": 1, "wall_ms": 25.0},
        ]
        doc = campaign.merge(spec, records, "rev123")
        self.assertEqual(doc["schema"], "erapid-bench-1")
        self.assertEqual(doc["bench"], "campaign:t")
        self.assertEqual(doc["git_rev"], "rev123")
        self.assertEqual(doc["points_total"], 3)
        self.assertEqual(doc["points_failed"], 1)
        self.assertEqual(doc["wall_ms_sum"], 35.0)
        self.assertEqual(doc["wall_ms_max"], 25.0)
        # Points keep their input order — merge never reorders.
        self.assertEqual([r.get("seed") for r in doc["points"]], [1, 2, 1])


class StubWorkerTest(unittest.TestCase):
    """Driver behavior against stand-in workers (no simulator needed)."""

    def run_stub_campaign(self, body, jobs=2):
        spec = {
            "name": "stub", "patterns": ["a", "b"], "modes": ["M"],
            "loads": [0.5], "seeds": [1, 2],
        }
        with tempfile.TemporaryDirectory() as tmp:
            binary = write_script(tmp, "worker.sh", body)
            return campaign.run_campaign(spec, binary, jobs=jobs, spec_dir=tmp)

    def test_spec_order_merge_with_completion_order_scrambled(self):
        # Workers that sleep longer for earlier points finish in reverse;
        # the artifact must still list points in spec order. The worker
        # echoes its own --seed back so order is observable.
        body = (
            'seed=$(echo "$@" | sed -n "s/.*--seed=\\([0-9]*\\).*/\\1/p")\n'
            'pat=$(echo "$@" | sed -n "s/.*--pattern=\\([a-z]*\\).*/\\1/p")\n'
            'if [ "$pat" = "a" ]; then sleep 0.3; fi\n'
            'echo "{\\"pattern\\": \\"$pat\\", \\"mode\\": \\"M\\",'
            ' \\"load\\": 0.5, \\"seed\\": $seed, \\"wall_ms\\": 0}"\n'
        )
        doc = self.run_stub_campaign(body, jobs=4)
        self.assertEqual(doc["points_failed"], 0)
        self.assertEqual(
            [(p["pattern"], p["seed"]) for p in doc["points"]],
            [("a", 1), ("a", 2), ("b", 1), ("b", 2)],
        )

    def test_crashing_worker_becomes_failed_point(self):
        body = (
            'if echo "$@" | grep -q -- "--pattern=b"; then\n'
            '  echo "worker blew up" >&2; exit 3\n'
            'fi\n'
            'echo "{\\"pattern\\": \\"a\\", \\"mode\\": \\"M\\", \\"load\\": 0.5,'
            ' \\"seed\\": 1, \\"wall_ms\\": 0}"\n'
        )
        doc = self.run_stub_campaign(body)
        self.assertEqual(doc["points_total"], 4)
        self.assertEqual(doc["points_failed"], 2)
        failed = [p for p in doc["points"] if p.get("failed")]
        self.assertEqual(len(failed), 2)
        for rec in failed:
            self.assertEqual(rec["pattern"], "b")
            self.assertIn("worker blew up", rec["error"])
            # Failed records still carry the full point key.
            for key in ("pattern", "mode", "load", "seed"):
                self.assertIn(key, rec)

    def test_variant_follows_the_coordinates_of_every_record(self):
        spec = {
            "name": "stub", "patterns": ["a"], "modes": ["M"], "loads": [0.5],
            "seeds": [1], "overrides": [{"x.k": 1}, {"x.k": 2}],
        }
        body = (
            'if echo "$@" | grep -q "x.k=2"; then echo "boom" >&2; exit 1; fi\n'
            'echo "{\\"pattern\\": \\"a\\", \\"mode\\": \\"M\\", \\"load\\": 0.5,'
            ' \\"seed\\": 1, \\"wall_ms\\": 0}"\n'
        )
        with tempfile.TemporaryDirectory() as tmp:
            binary = write_script(tmp, "worker.sh", body)
            doc = campaign.run_campaign(spec, binary, jobs=2, spec_dir=tmp)
        ok, failed = doc["points"]
        self.assertEqual(list(ok), ["pattern", "mode", "load", "seed", "variant", "wall_ms"])
        self.assertEqual(ok["variant"], {"x.k": 1})
        self.assertTrue(failed["failed"])
        self.assertEqual(failed["variant"], {"x.k": 2})

    def test_garbage_stdout_becomes_failed_point(self):
        doc = self.run_stub_campaign('echo "not json"\n')
        self.assertEqual(doc["points_failed"], 4)
        self.assertIn("unparseable", doc["points"][0]["error"])

    def test_missing_binary_becomes_failed_point(self):
        spec = {
            "name": "stub", "patterns": ["a"], "modes": ["M"],
            "loads": [0.5], "seeds": [1],
        }
        doc = campaign.run_campaign(spec, "/nonexistent/worker", jobs=1)
        self.assertEqual(doc["points_failed"], 1)
        self.assertIn("spawn failed", doc["points"][0]["error"])

    def test_main_exits_nonzero_on_failed_points(self):
        with tempfile.TemporaryDirectory() as tmp:
            binary = write_script(tmp, "worker.sh", "exit 1\n")
            spec_path = Path(tmp) / "spec.json"
            spec_path.write_text(json.dumps({
                "name": "bad", "patterns": ["a"], "modes": ["M"],
                "loads": [0.5], "seeds": [1],
            }))
            rc = campaign.main(
                [str(spec_path), "--binary", binary, "--out-dir", tmp])
            self.assertEqual(rc, 1)
            doc = json.loads((Path(tmp) / "CAMPAIGN_bad.json").read_text())
            self.assertEqual(doc["points_failed"], 1)


class RetryTimeoutTest(unittest.TestCase):
    """Per-point timeout kills overrunning workers; bounded retry with
    exponential backoff re-runs failures, and the record counts attempts."""

    SPEC = {
        "name": "retry", "patterns": ["a"], "modes": ["M"],
        "loads": [0.5], "seeds": [1],
    }

    def test_timeout_kills_overrunning_worker(self):
        with tempfile.TemporaryDirectory() as tmp:
            binary = write_script(tmp, "worker.sh", "sleep 30\n")
            doc = campaign.run_campaign(
                self.SPEC, binary, jobs=1, spec_dir=tmp, timeout=0.2)
        self.assertEqual(doc["points_failed"], 1)
        rec = doc["points"][0]
        self.assertIn("timed out", rec["error"])
        self.assertEqual(rec["timed_out"], 1)
        self.assertNotIn("retried", rec)  # no retries requested

    def test_flaky_worker_succeeds_after_retries(self):
        # Fails twice (marker files count attempts), then emits a point.
        with tempfile.TemporaryDirectory() as tmp:
            body = (
                f'n=$(ls "{tmp}"/try.* 2>/dev/null | wc -l)\n'
                f'touch "{tmp}/try.$n"\n'
                'if [ "$n" -lt 2 ]; then echo "flaky" >&2; exit 1; fi\n'
                'echo "{\\"pattern\\": \\"a\\", \\"mode\\": \\"M\\",'
                ' \\"load\\": 0.5, \\"seed\\": 1, \\"wall_ms\\": 0}"\n'
            )
            binary = write_script(tmp, "worker.sh", body)
            sleeps = []
            doc = campaign.run_campaign(
                self.SPEC, binary, jobs=1, spec_dir=tmp,
                retries=3, backoff=0.25, sleep=sleeps.append)
        self.assertEqual(doc["points_failed"], 0)
        rec = doc["points"][0]
        self.assertEqual(rec["retried"], 2)
        self.assertNotIn("timed_out", rec)
        # Exponential backoff: base, then doubled, consumed in order.
        self.assertEqual(sleeps, [0.25, 0.5])

    def test_retries_are_bounded_and_counted_on_final_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            binary = write_script(tmp, "worker.sh", 'echo "always" >&2; exit 1\n')
            sleeps = []
            doc = campaign.run_campaign(
                self.SPEC, binary, jobs=1, spec_dir=tmp,
                retries=2, backoff=0.1, sleep=sleeps.append)
        self.assertEqual(doc["points_failed"], 1)
        rec = doc["points"][0]
        self.assertTrue(rec["failed"])
        self.assertEqual(rec["retried"], 2)
        self.assertEqual(sleeps, [0.1, 0.2])

    def test_clean_run_has_no_retry_fields(self):
        # Absent = zero: a retry-free artifact is byte-identical to one
        # produced before the knobs existed, even with retries armed.
        with tempfile.TemporaryDirectory() as tmp:
            body = (
                'echo "{\\"pattern\\": \\"a\\", \\"mode\\": \\"M\\",'
                ' \\"load\\": 0.5, \\"seed\\": 1, \\"wall_ms\\": 0}"\n'
            )
            binary = write_script(tmp, "worker.sh", body)
            doc = campaign.run_campaign(
                self.SPEC, binary, jobs=1, spec_dir=tmp,
                timeout=30.0, retries=3)
        rec = doc["points"][0]
        self.assertNotIn("retried", rec)
        self.assertNotIn("timed_out", rec)

    def test_timed_out_attempts_accumulate_across_retries(self):
        with tempfile.TemporaryDirectory() as tmp:
            binary = write_script(tmp, "worker.sh", "sleep 30\n")
            sleeps = []
            doc = campaign.run_campaign(
                self.SPEC, binary, jobs=1, spec_dir=tmp,
                timeout=0.2, retries=1, sleep=sleeps.append)
        rec = doc["points"][0]
        self.assertTrue(rec["failed"])
        self.assertEqual(rec["timed_out"], 2)
        self.assertEqual(rec["retried"], 1)


class RenderTest(unittest.TestCase):
    """render.py prints a campaign's tables in TablePrinter's layout."""

    def test_two_mode_headline_renders_exactly(self):
        def point(pattern, mode, thru, power):
            return {"pattern": pattern, "mode": mode, "load": 0.5, "seed": 1,
                    "throughput_xNc": thru, "power_avg_mw": power}
        doc = {"campaign": "headline_claim", "points": [
            point("uniform", "NP-B", 0.5, 2400.0), point("uniform", "P-B", 0.5, 1200.0),
            point("complement", "NP-B", 0.5, 2000.0),
            point("complement", "P-B", 0.45, 1000.0),
        ]}
        # Each column is its longest cell plus two ("complement" outgrows
        # "pattern", "NP-B thru" outgrows "0.500"); the rule spans them all.
        expected = (
            "\n== Headline claim (abstract): P-B vs NP-B at 0.5 x N_c ==\n"
            "pattern     NP-B thru  P-B thru  thru delta  NP-B mW  P-B mW  power saved  \n"
            + "-" * 75 + "\n"
            "complement  0.500      0.450     -10.0%      2000     1000    50.0%        \n"
            "uniform     0.500      0.500     0.0%        2400     1200    50.0%        \n"
            "(paper claims 25%-50% power saved at <5% throughput loss)\n"
        )
        self.assertEqual(render.render(doc), expected)

    def test_unknown_campaign_and_missing_cell_raise(self):
        with self.assertRaises(render.RenderError):
            render.render({"campaign": "nope", "points": []})
        doc = {"campaign": "headline_claim",
               "points": [{"pattern": "uniform", "mode": "NP-B", "load": 0.5,
                           "seed": 1, "throughput_xNc": 0.5, "power_avg_mw": 1.0}]}
        with self.assertRaises(render.RenderError):
            render.render(doc)


    def test_flexibility_prints_the_unlimited_row_first(self):
        def point(cap, thru, latency, active, grants):
            return {"pattern": "complement", "mode": "P-B", "load": 0.6, "seed": 1,
                    "variant": {"reconfig.max_lanes_per_flow": cap},
                    "throughput_xNc": thru, "latency_avg_cycles": latency,
                    "active_power_avg_mw": active, "lane_grants": grants}
        doc = {"campaign": "ablation_flexibility",
               "points": [point(2, 0.25, 80.0, 400.0, 12), point(0, 0.5, 60.0, 800.0, 30)]}
        expected = (
            "\n== Extension: limited reconfiguration flexibility "
            "(P-B, complement @ 0.6 N_c) ==\n"
            "max lanes/flow  thru (xN_c)  latency (cyc)  active power (mW)  lane grants  \n"
            + "-" * 76 + "\n"
            "unlimited       0.500        60.0           800                30           \n"
            "2               0.250        80.0           400                12           \n"
            "(throughput should scale ~linearly with the cap until it covers the offered "
            "load; a transmitter with fewer laser ports is cheaper)\n"
        )
        self.assertEqual(render.render(doc), expected)

    def test_dpm_rows_sort_by_label_text(self):
        def point(variant, dvs):
            variant = {"reconfig.hysteresis_windows": None, "reconfig.ewma_alpha": None,
                       **variant}
            return {"pattern": "shuffle", "mode": "P-B", "load": 0.5, "seed": 1,
                    "variant": variant, "throughput_xNc": 0.5, "latency_avg_cycles": 100.0,
                    "power_avg_mw": 1000.0, "active_power_avg_mw": 500.0,
                    "dvs_level_changes": dvs}
        doc = {"campaign": "ablation_dpm_strategy", "points": [
            point({"reconfig.dpm_strategy": "threshold"}, 40),
            point({"reconfig.dpm_strategy": "hysteresis",
                   "reconfig.hysteresis_windows": 2}, 20),
            point({"reconfig.dpm_strategy": "ewma", "reconfig.ewma_alpha": 0.25}, 30),
        ]}
        expected = (
            "\n== Extension: power scaling techniques (P-B, shuffle @ 0.5 N_c) ==\n"
            "strategy           thru (xN_c)  latency (cyc)  total power (mW)  "
            "active power (mW)  DVS changes  \n"
            + "-" * 97 + "\n"
            "ewma a=0.25        0.500        100.0          1000              "
            "500                30           \n"
            "hysteresis K=2     0.500        100.0          1000              "
            "500                20           \n"
            "threshold (paper)  0.500        100.0          1000              "
            "500                40           \n"
            "(threshold = the paper's rule; hysteresis trades reaction speed for\n"
            " fewer 65-cycle transition stalls; EWMA follows the trend)\n"
        )
        self.assertEqual(render.render(doc), expected)

    @staticmethod
    def fault_point(load, events, thru, fault=None):
        point = {"pattern": "uniform", "mode": "P-B", "load": load, "seed": 1,
                 "variant": {"fault.events": events}, "throughput_xNc": thru}
        if fault is not None:
            point["fault"] = fault
        return point

    def test_fail_count_comes_from_fault_events(self):
        def recovery(rehomed, done, ttr, windows):
            return {"packets_rehomed": rehomed, "reroutes_completed": done,
                    "worst_time_to_reroute": ttr, "degraded_windows": windows}
        doc = {"campaign": "fault_resilience", "points": [
            self.fault_point(0.5, None, 0.5),
            self.fault_point(0.5, "lane_fail@11000:d1:w1", 0.45, recovery(3, 1, 250, 2)),
            self.fault_point(0.5, "lane_fail@11000:d1:w1 lane_fail@11500:d2:w2", 0.4,
                             recovery(7, 2, 400, 5)),
        ]}
        expected = (
            "\n== Fault resilience (uniform, P-B): throughput retention ==\n"
            "load(xN_c)  0 fails  1 fail  2 fails  retention@2  \n"
            + "-" * 51 + "\n"
            "0.5         0.500    0.450   0.400    0.800        \n"
            "\n== Recovery latency (cycles to replacement grant) ==\n"
            "load(xN_c)  fails  rehomed pkts  reroutes done  worst t-t-r  degraded windows  \n"
            + "-" * 79 + "\n"
            "0.5         1      3             1              250          2                 \n"
            "0.5         2      7             2              400          5                 \n"
        )
        self.assertEqual(render.render(doc), expected)

    def test_mttr_label_comes_from_fault_events(self):
        arc = {"worst_downtime": 2000, "worst_readmission_wait": 150, "crc_dropped": 4,
               "arq_retransmits": 4, "arq_dead_letters": 0}
        doc = {"campaign": "self_healing", "points": [
            self.fault_point(0.3, None, 0.3),
            self.fault_point(0.3, "lane_fail@11000:d1:w1:r13000 "
                             "bit_error@11500:d2:w2:p0.0003:6000", 0.27, arc),
        ]}
        expected = (
            "\n== Self-healing (uniform, P-B): throughput retention vs MTTR ==\n"
            "load(xN_c)  fault-free  mttr=2k  retention@2k  \n"
            + "-" * 47 + "\n"
            "0.3         0.300       0.270    0.900         \n"
            "\n== Recovery arc (cycles) and ARQ overhead ==\n"
            "load(xN_c)  mttr  downtime  readmit wait  crc drops  arq retx  dead letters  \n"
            + "-" * 77 + "\n"
            "0.3         2000  2000      150           4          4         0             \n"
        )
        self.assertEqual(render.render(doc), expected)

    def test_fault_and_brownout_campaigns_need_a_baseline(self):
        failed = self.fault_point(0.5, "lane_fail@11000:d1:w1", 0.45, {})
        repaired = self.fault_point(0.5, "lane_fail@11000:d1:w1:r13000", 0.45, {})
        capped = {"pattern": "uniform", "mode": "P-B", "load": 0.5, "seed": 1,
                  "variant": {"monitor.power_cap_mw": 100}, "throughput_xNc": 0.3,
                  "power_avg_mw": 90.0, "resilience": {}}
        for name, point in (("fault_resilience", failed), ("self_healing", repaired),
                            ("brownout", capped)):
            with self.subTest(name), self.assertRaises(render.RenderError):
                render.render({"campaign": name, "points": [point]})


class GoldenCampaignTest(unittest.TestCase):
    """End-to-end: real binary, tiny grid, parallel byte-identity + golden."""

    def run_real(self, jobs, out_dir):
        spec_path = Path(out_dir) / "spec.json"
        spec_path.write_text(json.dumps(GOLDEN_SPEC))
        rc = campaign.main([
            str(spec_path), "--binary", self.binary, "-j", str(jobs),
            "--out-dir", out_dir, "--no-wall",
        ])
        self.assertEqual(rc, 0)
        return (Path(out_dir) / "CAMPAIGN_small.json").read_bytes()

    def test_parallel_byte_identity_and_golden(self):
        self.binary = campaign_binary()
        if self.binary is None:
            self.skipTest("erapid_campaign binary not built")
        # Pin the rev stamp: the artifact must not depend on the checkout.
        old_rev = os.environ.get("ERAPID_GIT_REV")
        os.environ["ERAPID_GIT_REV"] = "golden"
        try:
            with tempfile.TemporaryDirectory() as d1, \
                 tempfile.TemporaryDirectory() as d2:
                serial = self.run_real(1, d1)
                parallel = self.run_real(2, d2)
        finally:
            if old_rev is None:
                del os.environ["ERAPID_GIT_REV"]
            else:
                os.environ["ERAPID_GIT_REV"] = old_rev

        self.assertEqual(serial, parallel,
                         "-j1 and -j2 campaign artifacts differ")

        if os.environ.get("ERAPID_REGEN_GOLDEN"):
            GOLDEN_PATH.write_bytes(serial)
            self.skipTest(f"regenerated {GOLDEN_PATH}")
        self.assertTrue(
            GOLDEN_PATH.is_file(),
            f"missing {GOLDEN_PATH}; run with ERAPID_REGEN_GOLDEN=1 to create")
        self.assertEqual(
            serial.decode(), GOLDEN_PATH.read_text(),
            "campaign artifact drifted from golden; if intentional, "
            "regenerate with ERAPID_REGEN_GOLDEN=1")

    def test_result_driven_blocks_reach_campaign_points(self):
        binary = campaign_binary()
        if binary is None:
            self.skipTest("erapid_campaign binary not built")
        small = {"system.boards": 4, "system.nodes_per_board": 4}
        allreduce = {**small, "workload.kind": "allreduce", "workload.episodes": 1,
                     "workload.volume_packets": 2, "workload.phase_rate": 0.6}
        brownout = {**small, "workload.warmup_cycles": 1000,
                    "workload.measure_cycles": 2000, "obs.enabled": "true",
                    "monitor.power_cap_mw": 100, "degrade.power_cap": "shed"}
        fault = {**small, "workload.warmup_cycles": 1000, "workload.measure_cycles": 2000,
                 "fault.events": "lane_fail@1500:d1:w1"}
        records = []
        for overrides in (allreduce, brownout, fault):
            point = {"pattern": "uniform", "mode": "P-B", "load": 0.5, "seed": 1,
                     "overrides": overrides}
            record, _ = campaign.run_point_once(binary, point, no_wall=True)
            self.assertNotIn("failed", record, record.get("error"))
            records.append(record)
        self.assertIs(records[0]["completed"], True)
        self.assertIn("makespan_cycles", records[0])
        self.assertNotIn("resilience", records[0])
        self.assertIn("resilience", records[1])
        self.assertIs(records[1]["resilience"]["engaged"], True)
        self.assertIn("time_degraded", records[1]["resilience"])
        self.assertNotIn("completed", records[1])
        self.assertNotIn("fault", records[0])
        self.assertEqual(records[2]["fault"]["lanes_failed"], 1)
        self.assertIn("worst_time_to_reroute", records[2]["fault"])
        for record in records:
            self.assertIn("lane_grants", record)
            self.assertIn("dvs_level_changes", record)


if __name__ == "__main__":
    unittest.main()
