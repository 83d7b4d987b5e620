#!/usr/bin/env python3
"""Self-test for tools/obs/compare_runs.py (CTest: lint.compare_runs_self_test).

Builds tiny synthetic bench artifacts and simulation reports and checks the
observatory's contract: identical runs pass, a worse-direction move beyond
the threshold regresses (the acceptance case: a ≥10% latency regression is
flagged), improvements and sub-threshold drift never fail, wall time is
ignored unless opted in, and the CLI keeps its exit-code and --json
contracts.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "tools" / "obs"))
import compare_runs  # noqa: E402


def bench_doc(points):
    return {
        "schema": "erapid-bench-1",
        "bench": "Fig. 6 butterfly",
        "pattern": "butterfly",
        "git_rev": "test",
        "points": points,
    }


def bench_point(**overrides):
    p = {
        "pattern": "butterfly", "mode": "P-B", "load": 0.5, "seed": 1,
        "throughput_xNc": 0.5,
        "latency_avg_cycles": 100.0, "latency_p99_cycles": 400.0,
        "power_avg_mw": 2000.0, "active_power_avg_mw": 900.0,
        "energy_per_packet_mw_cycles": 50.0, "drained": True,
        "wall_ms": 120.0,
    }
    p.update(overrides)
    return p


def report_doc(obs_metrics=None, **overrides):
    r = {
        "accepted_fraction": 0.5, "latency_avg": 100.0, "latency_p99": 400.0,
        "power_avg_mw": 2000.0, "drained": True,
    }
    r.update(overrides)
    if obs_metrics is not None:
        r["obs_metrics"] = obs_metrics
    return {"results": [{"name": "run", "metrics": r}]}


def kinds(comparisons, metric):
    return [c["kind"] for c in comparisons if c["metric"] == metric]


class BenchComparison(unittest.TestCase):
    def compare(self, base, cand, threshold=0.05, include_wall=False):
        return compare_runs.compare_docs(base, cand, threshold, include_wall)

    def test_identical_runs_have_no_regressions(self):
        doc = bench_doc([bench_point(), bench_point(mode="NP-NB")])
        out = self.compare(doc, doc)
        self.assertTrue(all(c["kind"] == "same" for c in out))

    def test_ten_percent_latency_regression_is_flagged(self):
        base = bench_doc([bench_point()])
        cand = bench_doc([bench_point(latency_avg_cycles=110.0)])
        out = self.compare(base, cand)
        self.assertIn("regressed", kinds(out, "latency_avg_cycles"))

    def test_latency_improvement_is_not_a_regression(self):
        base = bench_doc([bench_point()])
        cand = bench_doc([bench_point(latency_avg_cycles=80.0)])
        out = self.compare(base, cand)
        self.assertEqual(kinds(out, "latency_avg_cycles"), ["improved"])

    def test_throughput_direction_is_inverted(self):
        base = bench_doc([bench_point()])
        down = bench_doc([bench_point(throughput_xNc=0.4)])
        up = bench_doc([bench_point(throughput_xNc=0.6)])
        self.assertIn("regressed", kinds(self.compare(base, down), "throughput_xNc"))
        self.assertIn("improved", kinds(self.compare(base, up), "throughput_xNc"))

    def test_sub_threshold_drift_passes(self):
        base = bench_doc([bench_point()])
        cand = bench_doc([bench_point(latency_avg_cycles=103.0)])  # +3% < 5%
        out = self.compare(base, cand)
        self.assertEqual(kinds(out, "latency_avg_cycles"), ["drifted"])

    def test_drained_flip_regresses(self):
        base = bench_doc([bench_point()])
        cand = bench_doc([bench_point(drained=False)])
        self.assertEqual(kinds(self.compare(base, cand), "drained"), ["regressed"])

    def test_monitor_verdict_flip_regresses(self):
        base = bench_doc([bench_point(monitors_ok=True, monitor_violations=0)])
        cand = bench_doc([bench_point(monitors_ok=False, monitor_violations=3)])
        out = self.compare(base, cand)
        self.assertEqual(kinds(out, "monitors_ok"), ["regressed"])
        self.assertEqual(kinds(out, "monitor_violations"), ["regressed"])

    def test_wall_time_ignored_unless_opted_in(self):
        base = bench_doc([bench_point()])
        cand = bench_doc([bench_point(wall_ms=500.0)])
        self.assertEqual(kinds(self.compare(base, cand), "wall_ms"), [])
        out = self.compare(base, cand, include_wall=True)
        self.assertEqual(kinds(out, "wall_ms"), ["regressed"])

    def test_missing_point_regresses(self):
        base = bench_doc([bench_point(), bench_point(mode="NP-NB")])
        cand = bench_doc([bench_point()])
        self.assertIn("regressed", kinds(self.compare(base, cand), "point"))


class CampaignComparison(unittest.TestCase):
    """Campaign-artifact features: pattern/mode/load/seed/variant keys,
    failed points, and doc-level wall aggregates."""

    def compare(self, base, cand, threshold=0.05, include_wall=False):
        return compare_runs.compare_docs(base, cand, threshold, include_wall)

    def campaign_doc(self, points, **doc_fields):
        doc = bench_doc(points)
        doc.update(doc_fields)
        return doc

    def test_points_match_on_pattern_mode_load_seed(self):
        # Same (mode, load), different seed: distinct points, not a clash.
        base = bench_doc([bench_point(pattern="uniform", seed=1),
                          bench_point(pattern="uniform", seed=2)])
        out = self.compare(base, base)
        self.assertTrue(all(c["kind"] == "same" for c in out))
        # Dropping one seed from the candidate regresses that point only.
        cand = bench_doc([bench_point(pattern="uniform", seed=1)])
        out = self.compare(base, cand)
        missing = [c for c in out if c["metric"] == "point"]
        self.assertEqual(len(missing), 1)
        self.assertEqual(missing[0]["kind"], "regressed")
        self.assertIn("seed=2", missing[0]["where"])

    def test_points_differing_only_in_variant_stay_distinct(self):
        # Two overrides entries of one campaign give two points that share
        # (pattern, mode, load, seed); the variant tells them apart, so a
        # move on either one is seen.
        def point(window, **metrics):
            return bench_point(pattern="uniform", seed=1,
                               variant={"reconfig.window": window}, **metrics)
        base = bench_doc([point(500), point(2000)])
        cand = bench_doc([point(500, throughput_xNc=0.25), point(2000)])
        out = self.compare(base, cand, threshold=0.0)
        moved = [c for c in out if c["kind"] != "same"]
        self.assertEqual([(c["metric"], c["kind"]) for c in moved],
                         [("throughput_xNc", "regressed")])
        self.assertIn("reconfig.window=500", moved[0]["where"])
        self.assertEqual(sorted(kinds(out, "throughput_xNc")), ["regressed", "same"])

    def test_variant_key_order_does_not_matter(self):
        base = bench_doc([bench_point(variant={"a.k": 1, "b.k": 2})])
        cand = bench_doc([bench_point(variant={"b.k": 2, "a.k": 1})])
        out = self.compare(base, cand)
        self.assertNotIn("point", [c["metric"] for c in out])

    def test_two_points_on_one_key_raise(self):
        doc = bench_doc([bench_point(pattern="uniform", seed=1),
                         bench_point(pattern="uniform", seed=1)])
        with self.assertRaises(compare_runs.CompareError):
            self.compare(doc, bench_doc([bench_point()]))
        with self.assertRaises(compare_runs.CompareError):
            self.compare(bench_doc([bench_point()]), doc)

    def test_a_point_without_a_coordinate_raises(self):
        for coordinate in ("pattern", "mode", "load", "seed"):
            point = bench_point()
            del point[coordinate]
            with self.subTest(coordinate), \
                    self.assertRaisesRegex(compare_runs.CompareError, coordinate):
                self.compare(bench_doc([bench_point()]), bench_doc([point]))

    def test_point_turning_failed_regresses(self):
        key = {"pattern": "uniform", "seed": 1}
        base = bench_doc([bench_point(**key)])
        cand = bench_doc([{"pattern": "uniform", "mode": "P-B", "load": 0.5,
                           "seed": 1, "failed": True, "error": "boom"}])
        out = self.compare(base, cand)
        self.assertEqual(kinds(out, "failed"), ["regressed"])
        # No metric comparisons against the dead point.
        self.assertEqual(kinds(out, "latency_avg_cycles"), [])
        # The reverse direction is an improvement, both-failed is quiet.
        self.assertEqual(kinds(self.compare(cand, base), "failed"), ["improved"])
        self.assertEqual(kinds(self.compare(cand, cand), "failed"), ["same"])

    def test_points_failed_rise_regresses_at_doc_level(self):
        base = self.campaign_doc([bench_point()], points_failed=0)
        cand = self.campaign_doc([bench_point()], points_failed=2)
        out = self.compare(base, cand)
        self.assertEqual(kinds(out, "points_failed"), ["regressed"])

    def test_wall_aggregates_follow_include_wall(self):
        base = self.campaign_doc([bench_point()], wall_ms_sum=100.0,
                                 wall_ms_max=60.0)
        cand = self.campaign_doc([bench_point()], wall_ms_sum=200.0,
                                 wall_ms_max=150.0)
        self.assertEqual(kinds(self.compare(base, cand), "wall_ms_sum"), [])
        self.assertEqual(kinds(self.compare(base, cand), "wall_ms_max"), [])
        out = self.compare(base, cand, include_wall=True)
        self.assertEqual(kinds(out, "wall_ms_sum"), ["regressed"])
        self.assertEqual(kinds(out, "wall_ms_max"), ["regressed"])


class ReportComparison(unittest.TestCase):
    def test_obs_metrics_drift_is_flagged(self):
        base = report_doc(obs_metrics={"des.events": 1000,
                                       "sim.packet_latency_hist": {"mean": 100.0}})
        cand = report_doc(obs_metrics={"des.events": 1300,
                                       "sim.packet_latency_hist": {"mean": 100.0}})
        out = compare_runs.compare_docs(base, cand, 0.05, False)
        self.assertIn("regressed", kinds(out, "obs_metrics.des.events"))
        self.assertIn("same", kinds(out, "obs_metrics.sim.packet_latency_hist.mean"))

    def test_vanished_metric_is_flagged(self):
        base = report_doc(obs_metrics={"des.events": 1000})
        cand = report_doc(obs_metrics={})
        out = compare_runs.compare_docs(base, cand, 0.05, False)
        self.assertIn("regressed", kinds(out, "obs_metrics.des.events"))

    def test_top_level_latency_rule_applies(self):
        base = report_doc()
        cand = report_doc(latency_p99=480.0)  # +20%
        out = compare_runs.compare_docs(base, cand, 0.05, False)
        self.assertIn("regressed", kinds(out, "latency_p99"))

    def test_mixing_artifact_types_raises(self):
        with self.assertRaises(compare_runs.CompareError):
            compare_runs.compare_docs(bench_doc([]), report_doc(), 0.05, False)

    def test_legacy_report_without_obs_monitors_compares_as_monitor_free(self):
        # A pre-monitor baseline has no obs_monitors block; a clean current
        # run gates fine against it, and a violating one still regresses.
        legacy = report_doc()
        clean = report_doc(
            obs_monitors={"ok": True, "violations": 0, "checks": {}})
        out = compare_runs.compare_docs(legacy, clean, 0.05, False)
        self.assertTrue(all(c["kind"] != "regressed" for c in out))

        violating = report_doc(
            obs_monitors={"ok": False, "violations": 3, "checks": {}})
        out = compare_runs.compare_docs(legacy, violating, 0.05, False)
        self.assertIn("regressed", kinds(out, "ok"))
        self.assertIn("regressed", kinds(out, "violations"))

    def test_monitor_verdicts_compare_between_current_reports(self):
        base = report_doc(
            obs_monitors={"ok": True, "violations": 0, "checks": {}})
        cand = report_doc(
            obs_monitors={"ok": False, "violations": 1, "checks": {}})
        out = compare_runs.compare_docs(base, cand, 0.05, False)
        self.assertIn("regressed", kinds(out, "ok"))


def resilience_block(**overrides):
    r = {
        "engaged": True, "peak_stage": "cap_low", "steps_down": 2,
        "steps_up": 0, "lanes_shed": 0, "lanes_restored": 0, "lanes_slept": 0,
        "episodes": 0, "time_degraded": 13500, "suppressed_violations": 3,
    }
    r.update(overrides)
    return r


class ResilienceComparison(unittest.TestCase):
    """The survivability gate: absence of the block = degradation-free."""

    def report_with(self, resilience=None):
        doc = report_doc()
        if resilience is not None:
            doc["results"][0]["metrics"]["resilience"] = resilience
        return doc

    def test_both_absent_compares_silently(self):
        out = compare_runs.compare_docs(
            self.report_with(), self.report_with(), 0.05, False)
        self.assertFalse([c for c in out if c["metric"].startswith("resilience.")])

    def test_engaging_against_a_clean_baseline_regresses(self):
        # The baseline never built a controller (no block); the candidate
        # brownouted. Engaged flipping on, the descent, and the degraded
        # time must all gate.
        out = compare_runs.compare_docs(
            self.report_with(), self.report_with(resilience_block()),
            0.05, False)
        self.assertIn("regressed", kinds(out, "resilience.engaged"))
        self.assertIn("regressed", kinds(out, "resilience.steps_down"))
        self.assertIn("regressed", kinds(out, "resilience.time_degraded"))
        self.assertIn("regressed", kinds(out, "resilience.peak_stage"))

    def test_recovering_from_degradation_improves(self):
        out = compare_runs.compare_docs(
            self.report_with(resilience_block()), self.report_with(),
            0.05, False)
        self.assertIn("improved", kinds(out, "resilience.engaged"))
        self.assertIn("improved", kinds(out, "resilience.peak_stage"))
        self.assertNotIn("regressed",
                         [c["kind"] for c in out
                          if c["metric"].startswith("resilience.")])

    def test_identical_degraded_runs_have_no_regressions(self):
        out = compare_runs.compare_docs(
            self.report_with(resilience_block()),
            self.report_with(resilience_block()), 0.05, False)
        self.assertNotIn("regressed", [c["kind"] for c in out])

    def test_deeper_peak_stage_regresses(self):
        out = compare_runs.compare_docs(
            self.report_with(resilience_block(peak_stage="cap_low")),
            self.report_with(resilience_block(peak_stage="shed")), 0.05, False)
        self.assertIn("regressed", kinds(out, "resilience.peak_stage"))

    def test_recovery_activity_is_informational(self):
        # More steps back up / lanes restored is not worse — the gate must
        # not punish a candidate for recovering harder.
        out = compare_runs.compare_docs(
            self.report_with(resilience_block(steps_up=0, lanes_restored=0)),
            self.report_with(resilience_block(steps_up=5, lanes_restored=4)),
            0.05, False)
        self.assertNotIn("regressed", kinds(out, "resilience.steps_up"))
        self.assertNotIn("regressed", kinds(out, "resilience.lanes_restored"))

    def test_bench_points_carry_the_same_gate(self):
        base = bench_doc([bench_point()])
        cand = bench_doc([bench_point(resilience=resilience_block())])
        out = compare_runs.compare_docs(base, cand, 0.05, False)
        self.assertIn("regressed", kinds(out, "resilience.engaged"))

    def test_campaign_retry_counts_gate_absent_as_zero(self):
        base = bench_doc([bench_point()])
        cand = bench_doc([bench_point(retried=2, timed_out=1)])
        out = compare_runs.compare_docs(base, cand, 0.05, False)
        self.assertIn("regressed", kinds(out, "retried"))
        self.assertIn("regressed", kinds(out, "timed_out"))
        # Retry-free on both sides adds nothing to the comparison set.
        quiet = compare_runs.compare_docs(
            bench_doc([bench_point()]), bench_doc([bench_point()]), 0.05, False)
        self.assertFalse([c for c in quiet if c["metric"] in ("retried",
                                                              "timed_out")])


class CliContract(unittest.TestCase):
    def write(self, tmp, name, doc):
        path = Path(tmp) / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_exit_codes_and_json_output(self):
        import contextlib
        import io
        with tempfile.TemporaryDirectory() as tmp:
            same = self.write(tmp, "a.json", bench_doc([bench_point()]))
            worse = self.write(
                tmp, "b.json", bench_doc([bench_point(latency_avg_cycles=115.0)]))
            bad = self.write(tmp, "c.json", {"schema": "other"})

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                self.assertEqual(compare_runs.main([same, same, "--json"]), 0)
            doc = json.loads(buf.getvalue())
            self.assertTrue(doc["ok"])
            self.assertEqual(doc["regressions"], 0)

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                self.assertEqual(compare_runs.main([same, worse, "--json"]), 1)
            doc = json.loads(buf.getvalue())
            self.assertFalse(doc["ok"])
            self.assertGreater(doc["regressions"], 0)

            with contextlib.redirect_stdout(io.StringIO()), \
                 contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(compare_runs.main([same, bad]), 2)

            twice = self.write(
                tmp, "d.json", bench_doc([bench_point(), bench_point()]))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                 contextlib.redirect_stderr(err):
                self.assertEqual(compare_runs.main([twice, twice]), 2)
            self.assertIn("two points share the key butterfly/P-B/load=0.5/seed=1", err.getvalue())

    def test_threshold_knob_loosens_the_gate(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = self.write(tmp, "a.json", bench_doc([bench_point()]))
            cand = self.write(
                tmp, "b.json", bench_doc([bench_point(latency_avg_cycles=110.0)]))
            import contextlib
            import io
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(compare_runs.main([base, cand]), 1)
                self.assertEqual(
                    compare_runs.main([base, cand, "--threshold-pct", "15"]), 0)


if __name__ == "__main__":
    unittest.main()
