#!/usr/bin/env python3
"""Self-test for tools/perf/ab_pairs.py (CTest: lint.ab_pairs_self_test).

Drives the script against stub "perfbench" programs that print a scripted
result line per call and log which side ran, and checks its contract:
pairs alternate which side runs first, each side's median and quartiles,
the change's win count and the gain rule, and exit 1 on `correct: false`
or a run that prints no result.
"""

import io
import json
import stat
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "tools" / "perf"))
import ab_pairs  # noqa: E402

STUB = """#!{python}
import json, sys
from pathlib import Path
state = Path({state!r})
calls = int(state.read_text()) if state.exists() else 0
state.write_text(str(calls + 1))
with open({log!r}, "a") as log:
    log.write({side!r} + "\\n")
script = {script!r}
step = script[calls % len(script)]
if step is None:
    sys.exit(3)
print("build noise")
print(json.dumps({{"correct": step["correct"], "attempted": 1, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "u"}}
                              for k, v in step["metrics"].items()}}}}))
"""


def step(correct=True, **metrics):
    return {"correct": correct, "metrics": metrics}


class AbPairs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.log = self.dir / "order.log"
        self.spec = self.dir / "BENCHMARK.json"
        self.spec.write_text(json.dumps({
            "end_to_end": [{"name": "speed", "better": "higher"}],
            "per_layer": [{"name": "wall", "better": "lower"}]}))

    def tearDown(self):
        self.tmp.cleanup()

    def stub(self, side, script):
        path = self.dir / f"{side}_perfbench"
        path.write_text(STUB.format(python=sys.executable, state=str(self.dir / f"{side}.n"),
                                    log=str(self.log), side=side, script=script))
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return str(path)

    def run_tool(self, parent, change, *extra):
        out, err = io.StringIO(), io.StringIO()
        argv = ["--parent", parent, "--change", change, "--workload", "w",
                "--spec", str(self.spec), *extra]
        with redirect_stdout(out), redirect_stderr(err):
            code = ab_pairs.main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_pairs_alternate_which_side_runs_first(self):
        parent = self.stub("parent", [step(speed=1.0)])
        change = self.stub("change", [step(speed=1.0)])
        code, _, _ = self.run_tool(parent, change, "--pairs", "4")
        self.assertEqual(code, 0)
        self.assertEqual(self.log.read_text().split(),
                         ["parent", "change", "change", "parent"] * 2)

    def test_medians_quartiles_wins_and_gain(self):
        # Parent speed 10..14 (quartiles 11, 12, 13); the change is 20 on
        # every run but one, where it loses: 4/5 wins is below nine tenths.
        parent = self.stub("parent", [step(speed=10.0 + i, wall=2.0, same=5.0)
                                      for i in range(5)])
        change = self.stub("change", [step(speed=20.0, wall=1.0, same=5.0)] * 4
                           + [step(speed=9.0, wall=1.0, same=5.0)])
        code, out, _ = self.run_tool(parent, change, "--pairs", "5", "--json")
        self.assertEqual(code, 0)
        rows = {r["metric"]: r for r in json.loads(out)["metrics"]}
        self.assertEqual(rows["speed"]["parent"], {"q1": 11.0, "median": 12.0, "q3": 13.0})
        self.assertEqual(rows["speed"]["change"]["median"], 20.0)
        self.assertEqual(rows["speed"]["change_wins"], 4)
        self.assertFalse(rows["speed"]["gain"])
        # Lower is better for wall: the change wins every pair.
        self.assertEqual(rows["wall"]["change_wins"], 5)
        self.assertTrue(rows["wall"]["gain"])
        # Ties count for neither side; an unknown direction has no wins.
        self.assertIsNone(rows["same"]["change_wins"])
        self.assertIsNone(rows["same"]["gain"])

    def test_gain_needs_medians_apart_by_more_than_the_parent_spread(self):
        # The change wins every pair, but by less than the parent's q3 - q1.
        parent = self.stub("parent", [step(speed=v) for v in (10.0, 20.0, 10.0, 20.0)])
        change = self.stub("change", [step(speed=v) for v in (11.0, 21.0, 11.0, 21.0)])
        code, out, _ = self.run_tool(parent, change, "--pairs", "4", "--json")
        self.assertEqual(code, 0)
        row = json.loads(out)["metrics"][0]
        self.assertEqual(row["change_wins"], 4)
        self.assertFalse(row["gain"])

    def test_table_names_every_metric(self):
        parent = self.stub("parent", [step(speed=1.0, wall=2.0)])
        change = self.stub("change", [step(speed=2.0, wall=1.0)])
        code, out, _ = self.run_tool(parent, change, "--pairs", "2")
        self.assertEqual(code, 0)
        self.assertIn("speed", out)
        self.assertIn("2/2", out)

    def test_incorrect_run_exits_one(self):
        parent = self.stub("parent", [step(speed=1.0)])
        change = self.stub("change", [step(speed=1.0), step(correct=False, speed=1.0)])
        code, _, err = self.run_tool(parent, change, "--pairs", "3")
        self.assertEqual(code, 1)
        self.assertIn("correct: false", err)

    def test_run_without_result_exits_one(self):
        parent = self.stub("parent", [None])
        change = self.stub("change", [step(speed=1.0)])
        code, _, err = self.run_tool(parent, change, "--pairs", "2")
        self.assertEqual(code, 1)
        self.assertIn("no result", err)

    def test_bad_pairs_is_a_usage_error(self):
        with redirect_stderr(io.StringIO()), self.assertRaises(SystemExit) as cm:
            ab_pairs.main(["--parent", "p", "--change", "c", "--workload", "w",
                           "--pairs", "0"])
        self.assertEqual(cm.exception.code, 2)

    def test_directions_come_from_the_benchmark_spec(self):
        self.assertEqual(ab_pairs.directions(str(self.spec)),
                         {"speed": "higher", "wall": "lower"})
        self.assertEqual(ab_pairs.directions(str(self.dir / "missing.json")), {})


if __name__ == "__main__":
    unittest.main()
