#!/usr/bin/env python3
"""Self-test for tools/analyze/erapid_analyze.py.

Runs the analyzer over the fixture corpus in tests/lint_fixtures/analyze/:
each bad_* fixture must trip exactly its rule, the good fixtures must stay
clean, suppressions must be honored (and remove methods from the contract
coverage pool), --fix must be idempotent, the SARIF report must be
structurally valid 2.1.0, and the baseline must gate findings and enforce
the contract-coverage ratchet. Registered in CTest as
`lint.analyze_self_test`; the DeterminismRules class alone, which covers
the five determinism rules, also runs as `lint.self_test`.
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = TESTS_DIR / "lint_fixtures" / "analyze"

sys.path.insert(0, str(REPO_ROOT / "tools" / "analyze"))
import erapid_analyze  # noqa: E402
from cpp_lexer import SourceFile  # noqa: E402
from decl_index import build_index  # noqa: E402


def run_json(paths, rules=None, extra=None):
    """Runs the analyzer CLI and returns (exit_code, report_dict)."""
    with tempfile.TemporaryDirectory() as td:
        report = Path(td) / "report.json"
        argv = [str(p) for p in paths] + ["--root", str(REPO_ROOT),
                                          "--json", str(report)]
        if rules:
            argv += ["--rules", ",".join(rules)]
        if extra:
            argv += extra
        rc = erapid_analyze.main(argv)
        doc = json.loads(report.read_text()) if report.exists() else None
        return rc, doc


def rules_of(doc):
    return sorted({f["rule"] for f in doc["findings"]})


def assert_each_trips_exactly(test, cases):
    for name, rule in cases.items():
        with test.subTest(fixture=name):
            rc, doc = run_json([FIXTURES / name])
            test.assertEqual(rc, 1, name)
            test.assertEqual(rules_of(doc), [rule], name)


class DeterminismRules(unittest.TestCase):
    CASES = {
        "bad_unordered.cpp": "unordered-container",
        "bad_nondet.cpp": "nondet-source",
        "bad_pointer_order.cpp": "pointer-order",
        "bad_uninit.hpp": "uninit-member",
        "bad_enum_switch.cpp": "enum-switch-default",
    }

    def test_each_bad_fixture_trips_exactly_its_rule(self):
        assert_each_trips_exactly(self, self.CASES)

    def test_bad_fixtures_flag_every_hazard(self):
        _, doc = run_json([FIXTURES / "bad_unordered.cpp"])
        # Both includes and both member declarations.
        self.assertGreaterEqual(doc["finding_count"], 4)
        _, doc = run_json([FIXTURES / "bad_nondet.cpp"])
        # random_device/rand, time(), steady_clock, clock() all fire.
        self.assertGreaterEqual(len({f["line"] for f in doc["findings"]}), 4)
        _, doc = run_json([FIXTURES / "bad_pointer_order.cpp"])
        # Pointer-keyed map, pointer-keyed set, pointer comparator lambda.
        self.assertGreaterEqual(doc["finding_count"], 3)
        _, doc = run_json([FIXTURES / "bad_uninit.hpp"])
        # threshold, window, enabled, sink.
        self.assertEqual(doc["finding_count"], 4)
        self.assertTrue(all("file" in f and "line" in f for f in doc["findings"]))
        _, doc = run_json([FIXTURES / "bad_enum_switch.cpp"])
        self.assertEqual(doc["finding_count"], 1)

    def test_good_files_are_clean(self):
        rc, doc = run_json([FIXTURES / "good_det.hpp", FIXTURES / "good_det.cpp"])
        self.assertEqual(rc, 0)
        self.assertEqual(doc["findings"], [])

    def test_inline_allows_on_and_above_the_line(self):
        rc, doc = run_json([FIXTURES / "suppressed.cpp"])
        self.assertEqual(rc, 0)
        self.assertEqual(doc["findings"], [])

    def test_file_allow_silences_whole_file(self):
        rc, doc = run_json([FIXTURES / "suppressed_file_det.cpp"])
        self.assertEqual(rc, 0)
        self.assertEqual(doc["findings"], [])

    def test_allow_only_covers_named_rule(self):
        # allow-file(unordered-container) must not silence iter-unordered.
        rc, doc = run_json([FIXTURES / "bad_iter_unordered.cpp"],
                           rules=["unordered-container", "iter-unordered"])
        self.assertEqual(rc, 1)
        self.assertEqual(rules_of(doc), ["iter-unordered"])

    def test_rule_subset_filters(self):
        rc, doc = run_json([FIXTURES / "bad_unordered.cpp"], rules=["nondet-source"])
        self.assertEqual(rc, 0)
        self.assertEqual(doc["finding_count"], 0)


class BadFixturesTrip(unittest.TestCase):
    CASES = {
        "bad_unit_mix.cpp": "unit-mix",
        "bad_unit_param.cpp": "unit-param",
        "bad_iter_unordered.cpp": "iter-unordered",
        "bad_float_accum.cpp": "float-accum",
        "bad_no_pragma.hpp": "pragma-once",
        "bad_std_include.hpp": "std-include",
        "power/bad_uncontracted.hpp": "contract-coverage",
    }

    def test_each_bad_fixture_trips_exactly_its_rule(self):
        assert_each_trips_exactly(self, self.CASES)

    def test_include_cycle_reported_once(self):
        rc, doc = run_json([FIXTURES / "cycle_a.hpp", FIXTURES / "cycle_b.hpp"])
        self.assertEqual(rc, 1)
        cycles = [f for f in doc["findings"] if f["rule"] == "include-cycle"]
        self.assertEqual(len(cycles), 1)
        self.assertIn("cycle_a.hpp", cycles[0]["message"])
        self.assertIn("cycle_b.hpp", cycles[0]["message"])


class GoodFixturesClean(unittest.TestCase):
    def test_good_files_are_clean(self):
        rc, doc = run_json([FIXTURES / "good.hpp", FIXTURES / "good.cpp"])
        self.assertEqual(rc, 0)
        self.assertEqual(doc["findings"], [])

    def test_contracted_method_is_covered(self):
        rc, doc = run_json([FIXTURES / "power" / "good_contracted.hpp"])
        self.assertEqual(rc, 0)
        cov = doc["contract_coverage"]["power"]
        # set_level counts as contracted; the one-line mark_clean is exempt.
        self.assertEqual((cov["contracted"], cov["considered"]), (1, 1))


class Suppressions(unittest.TestCase):
    def test_line_allow_covers_next_line_only(self):
        rc, doc = run_json([FIXTURES / "suppressed_line.cpp"])
        self.assertEqual(rc, 1)
        findings = doc["findings"]
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0]["rule"], "unit-mix")
        self.assertIn("mixed_and_flagged", "\n".join(
            SourceFile(Path("x"), (FIXTURES / "suppressed_line.cpp").read_text())
            .raw_lines[:findings[0]["line"]]))

    def test_file_allow_silences_whole_file(self):
        rc, doc = run_json([FIXTURES / "suppressed_file.cpp"])
        self.assertEqual(rc, 0)
        self.assertEqual(doc["findings"], [])

    def test_suppressed_method_leaves_coverage_pool(self):
        rc, doc = run_json([FIXTURES / "power" / "suppressed_method.hpp"])
        self.assertEqual(rc, 0)
        cov = doc["contract_coverage"]["power"]
        self.assertEqual((cov["contracted"], cov["considered"]), (0, 0))


class CliContract(unittest.TestCase):
    def test_unknown_rule_is_usage_error(self):
        rc = erapid_analyze.main([str(FIXTURES / "good.cpp"),
                                  "--rules", "no-such-rule"])
        self.assertEqual(rc, 2)

    def test_empty_rule_selection_is_usage_error(self):
        for empty in ("", " , ,"):
            rc = erapid_analyze.main([str(FIXTURES / "good.cpp"),
                                      "--rules", empty])
            self.assertEqual(rc, 2)

    def test_no_paths_is_usage_error(self):
        self.assertEqual(erapid_analyze.main([]), 2)

    def test_family_selector_expands_to_member_rules(self):
        rc, doc = run_json([FIXTURES / "bad_unit_mix.cpp",
                            FIXTURES / "bad_no_pragma.hpp"], rules=["units"])
        self.assertEqual(rc, 1)
        # pragma-once is outside the selected family and must not fire.
        self.assertEqual(rules_of(doc), ["unit-mix"])


class FixPragmaOnce(unittest.TestCase):
    def test_fix_round_trip_is_idempotent(self):
        with tempfile.TemporaryDirectory() as td:
            target = Path(td) / "bad_no_pragma.hpp"
            shutil.copy(FIXTURES / "bad_no_pragma.hpp", target)

            rc = erapid_analyze.main([str(target), "--root", td, "--fix",
                                      "--rules", "pragma-once"])
            self.assertEqual(rc, 0)  # fixed in the same run -> clean
            fixed = target.read_text()
            self.assertIn("#pragma once", fixed)
            idx = build_index(SourceFile(target, fixed))
            self.assertTrue(idx.has_pragma_once)
            # The guard lands after the leading comment block.
            lines = fixed.splitlines()
            guard_at = lines.index("#pragma once")
            self.assertTrue(all(ln.startswith("//") or not ln.strip()
                                for ln in lines[:guard_at]))

            rc = erapid_analyze.main([str(target), "--root", td, "--fix",
                                      "--rules", "pragma-once"])
            self.assertEqual(rc, 0)
            self.assertEqual(target.read_text(), fixed)  # byte-stable


class SarifReport(unittest.TestCase):
    def sarif_for(self, paths, extra=None):
        with tempfile.TemporaryDirectory() as td:
            out = Path(td) / "out.sarif"
            argv = [str(p) for p in paths] + ["--root", str(REPO_ROOT),
                                              "--sarif", str(out)]
            rc = erapid_analyze.main(argv + (extra or []))
            return rc, json.loads(out.read_text())

    def test_sarif_is_structurally_valid_2_1_0(self):
        rc, doc = self.sarif_for([FIXTURES])
        self.assertEqual(rc, 1)
        self.assertEqual(doc["version"], "2.1.0")
        self.assertIn("sarif-schema-2.1.0", doc["$schema"])
        self.assertEqual(len(doc["runs"]), 1)
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        self.assertEqual(driver["name"], "erapid-analyze")
        rule_ids = [r["id"] for r in driver["rules"]]
        self.assertEqual(rule_ids, sorted(rule_ids))
        for result in run["results"]:
            self.assertIn(result["ruleId"], rule_ids)
            self.assertEqual(rule_ids[result["ruleIndex"]], result["ruleId"])
            self.assertIn(result["level"], ("note", "warning", "error"))
            loc = result["locations"][0]["physicalLocation"]
            self.assertGreaterEqual(loc["region"]["startLine"], 1)
            self.assertIn("erapidAnalyze/v1", result["partialFingerprints"])
        self.assertIn("SRCROOT", run["originalUriBaseIds"])

        try:  # full schema validation when jsonschema + a local schema exist
            import jsonschema  # noqa: F401
        except ImportError:
            pass

    def test_baselined_findings_carry_suppressions(self):
        with tempfile.TemporaryDirectory() as td:
            baseline = Path(td) / "baseline.json"
            rc = erapid_analyze.main([str(FIXTURES / "bad_unit_mix.cpp"),
                                      "--root", str(REPO_ROOT),
                                      "--baseline", str(baseline),
                                      "--update-baseline"])
            self.assertEqual(rc, 0)
            rc, doc = self.sarif_for([FIXTURES / "bad_unit_mix.cpp"],
                                     extra=["--baseline", str(baseline)])
            self.assertEqual(rc, 0)  # fully baselined
            results = doc["runs"][0]["results"]
            self.assertTrue(results)
            for result in results:
                self.assertEqual(result["suppressions"][0]["kind"], "external")


class BaselineGate(unittest.TestCase):
    def test_update_then_rescan_is_clean(self):
        with tempfile.TemporaryDirectory() as td:
            baseline = Path(td) / "baseline.json"
            rc = erapid_analyze.main([str(FIXTURES), "--root", str(REPO_ROOT),
                                      "--baseline", str(baseline),
                                      "--update-baseline"])
            self.assertEqual(rc, 0)
            doc = json.loads(baseline.read_text())
            self.assertEqual(doc["schema"], "erapid-analyze-baseline-1")
            self.assertTrue(doc["findings"])

            rc, report = run_json([FIXTURES],
                                  extra=["--baseline", str(baseline)])
            self.assertEqual(rc, 0)
            self.assertTrue(all(f["baselined"] for f in report["findings"]))
            self.assertEqual(report["new_finding_count"], 0)

    def test_new_finding_fails_even_with_baseline(self):
        with tempfile.TemporaryDirectory() as td:
            baseline = Path(td) / "baseline.json"
            rc = erapid_analyze.main([str(FIXTURES / "bad_unit_mix.cpp"),
                                      "--root", str(REPO_ROOT),
                                      "--baseline", str(baseline),
                                      "--update-baseline"])
            self.assertEqual(rc, 0)
            rc, report = run_json([FIXTURES / "bad_unit_mix.cpp",
                                   FIXTURES / "bad_float_accum.cpp"],
                                  extra=["--baseline", str(baseline)])
            self.assertEqual(rc, 1)
            self.assertEqual(report["new_finding_count"], 1)

    def test_coverage_ratchet_blocks_regression(self):
        with tempfile.TemporaryDirectory() as td:
            baseline = Path(td) / "baseline.json"
            # Record the ratchet at 1/1 (only the contracted fixture).
            rc = erapid_analyze.main([str(FIXTURES / "power" / "good_contracted.hpp"),
                                      "--root", str(REPO_ROOT),
                                      "--baseline", str(baseline),
                                      "--update-baseline"])
            self.assertEqual(rc, 0)
            # A scan whose coverage falls to 1/2 must trip the ratchet...
            rc, report = run_json([FIXTURES / "power"],
                                  extra=["--baseline", str(baseline)])
            self.assertEqual(rc, 1)
            self.assertTrue(report["ratchet_violations"])
            # ...and --update-baseline must refuse to lower the floor.
            rc = erapid_analyze.main([str(FIXTURES / "power"),
                                      "--root", str(REPO_ROOT),
                                      "--baseline", str(baseline),
                                      "--update-baseline"])
            self.assertEqual(rc, 1)
            recorded = json.loads(baseline.read_text())["contract_coverage"]
            self.assertEqual(recorded["power"],
                             {"contracted": 1, "considered": 1})


class SrcTreeGate(unittest.TestCase):
    def test_src_tree_is_clean_at_head(self):
        rc = erapid_analyze.main([str(REPO_ROOT / "src"),
                                  str(REPO_ROOT / "tools" / "campaign"),
                                  "--root", str(REPO_ROOT),
                                  "--baseline",
                                  str(REPO_ROOT / "tools" / "analyze" / "baseline.json")])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
