"""Checks of tools/bench_file.py: the order of its runs, the layout of the file
it writes, its per-metric verdicts, and its two timing scripts.

    python3 -m unittest discover -s tools
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import bench_file

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def key_tree(value):
    """The nested keys of a JSON value; lists and numbers are leaves."""
    if isinstance(value, dict):
        return {key: key_tree(v) for key, v in value.items()}
    return None


# The orders of six rounds: the rotations of (parent, change, anchor), then
# those of (change, parent, anchor).
ORDERS = (("parent", "change", "anchor"), ("change", "anchor", "parent"),
          ("anchor", "parent", "change"), ("change", "parent", "anchor"),
          ("parent", "anchor", "change"), ("anchor", "change", "parent"))
# Every figure the stubbed child gives the anchor is twice the other trees'.
SCALE = {"parent": 1.0, "change": 1.0, "anchor": 2.0}


def rounds(count):
    """The sides in the order they run over `count` rounds."""
    return [side for i in range(count) for side in ORDERS[i % len(ORDERS)]]


def ratio_spreads(value):
    """Every spread under the key RATIO in a JSON value."""
    if not isinstance(value, dict):
        return []
    return [*([value[bench_file.RATIO]] if bench_file.RATIO in value else []),
            *(s for v in value.values() for s in ratio_spreads(v))]


def medians(value):
    """Every median in a spread, or key by key of dicts of them."""
    if "median" in value:
        return [value["median"]]
    return [m for v in value.values() for m in medians(v)]


class Main(unittest.TestCase):
    """main() with its child runner stubbed, so that no process starts."""

    @classmethod
    def setUpClass(cls):
        cls.order = {}  # the trees, in the order they ran, of each figure
        with tempfile.TemporaryDirectory() as tmp:
            trees = {side: Path(tmp, side).resolve() for side in SCALE}
            sides = {tree: side for side, tree in trees.items()}

            def child(tree, *argv):
                if argv[:2] == ("-m", "compileall"):
                    return ""
                scale = SCALE[sides[tree]]
                if argv[0] == "bench/run.py":
                    figure, out = argv[2], json.dumps({
                        "correct": True, "failed": 0,
                        "metrics": {m["name"]: {"value": scale} for m in SPEC["end_to_end"]}})
                elif argv[1] == bench_file.IDENTITY_CODE:
                    figure, out = "identity " + argv[2], str(0.5 * scale)
                else:  # seconds proportional to p at each prime of the range
                    figure = " ".join(argv[2:])
                    lo, hi = map(int, argv[2].split(":"))
                    primes = [n for n in range(lo, hi + 1)
                              if all(n % d for d in range(2, math.isqrt(n) + 1))]
                    out = {path: {p: scale * p / 1000 for p in primes}
                           for path in ("exact", "padic", "special")}
                    if len(argv) > 3:  # the per-k checks read no special number
                        out["special"] = {}
                    out = json.dumps(out)
                cls.order.setdefault(figure, []).append(sides[tree])
                return out + "\n"

            argv = ["bench_file.py", *(f"--{side}={tree}" for side, tree in trees.items()),
                    "--out", str(Path(tmp, "BENCH.json"))]
            with mock.patch.object(bench_file, "child", child), \
                    mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert bench_file.main() == 0
            cls.written = json.loads(Path(tmp, "BENCH.json").read_text())

    def test_every_figure_rotates_which_tree_runs_first(self):
        selection = f"{bench_file.PER_K_CHECKS} {bench_file.PER_K_PADIC_LIMIT}"
        figures = [*(w["name"] for w in SPEC["workloads"]), *bench_file.RANGES,
                   *(f"{rng} {selection}" for rng in bench_file.PER_K_RANGES),
                   *bench_file.EXPONENT_WINDOWS,
                   *(f"identity {n}" for n in bench_file.IDENTITY_NS)]
        self.assertEqual(set(self.order), set(figures))
        for figure in figures:
            self.assertEqual(self.order[figure], rounds(bench_file.ROUNDS), figure)

    def test_the_file_has_the_layout_of_the_last_one(self):
        recorded = json.loads((ROOT / "BENCH_42.json").read_text())
        self.assertEqual(key_tree(self.written), key_tree(recorded))

    def test_every_figure_has_its_change_over_anchor_ratio(self):
        """Each end-to-end metric, each range, the windows and the identity
        suite read 1/2, the stubbed change over the stubbed anchor, round by
        round, key by key."""
        found = ratio_spreads(self.written)
        self.assertEqual(len(found), len(SPEC["workloads"]) * len(SPEC["end_to_end"])
                         + len(bench_file.RANGES) + len(bench_file.PER_K_RANGES) + 2)
        for spread in found:
            self.assertEqual(set(medians(spread)), {0.5})

    def test_the_cost_exponent_is_fitted_to_each_windows_mean_prime(self):
        for side in SCALE:
            for path in ("exact", "padic"):
                self.assertAlmostEqual(
                    self.written["cost_exponent"][side][path]["exponent"], 1.0, msg=(side, path))


class WorkloadRecord(unittest.TestCase):
    def record(self, metric, parent, change, anchor=None):
        spec = {"end_to_end": [metric]}
        runs = {side: [{"correct": True, "failed": 0, "metrics": {metric["name"]: {"value": v}}}
                       for v in values]
                for side, values in (("parent", parent), ("change", change),
                                     ("anchor", parent if anchor is None else anchor))}
        with contextlib.redirect_stderr(io.StringIO()):
            return bench_file.workload_record("w", runs, spec)[metric["name"]]

    def test_ratio_of_medians(self):
        metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
        got = self.record(metric, [1.0, 2.0, 9.0], [3.0, 1.0, 0.5])
        self.assertEqual((got["parent"]["median"], got["change"]["median"]), (2.0, 1.0))
        self.assertEqual(got["ratio"], 0.5)

    def test_the_anchor_ratio_is_taken_round_by_round(self):
        metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
        got = self.record(metric, [1.0, 1.0, 1.0], [1.0, 4.0, 3.0], [2.0, 2.0, 1.0])
        self.assertEqual(got["anchor"]["median"], 2.0)
        # the rounds' ratios 0.5, 2 and 3, where the medians' ratio is 3/2
        self.assertEqual(got[bench_file.RATIO]["median"], 2.0)

    def test_a_tie_counts_for_neither_side(self):
        for better, wins in (("lower", 1), ("higher", 1)):
            metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
            got = self.record(metric, [1.0, 2.0, 3.0], [1.0, 1.5, 3.5])
            self.assertEqual(got["change_wins"], wins, better)

    def test_inside_the_bound_at_it_and_past_it_just_beyond(self):
        for better, at, past in (("lower", 1.25, 1.2501), ("higher", 0.75, 0.7499)):
            metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
            self.assertTrue(self.record(metric, [1.0] * 3, [at] * 3)["inside_bound"], better)
            self.assertFalse(self.record(metric, [1.0] * 3, [past] * 3)["inside_bound"], better)


class TimingScripts(unittest.TestCase):
    """PATHS_CODE and IDENTITY_CODE patch and call names of congrlab; each runs
    here once against this checkout's src."""

    def run_code(self, code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], check=True,
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout

    def test_paths_code_times_both_paths_and_the_special_numbers_per_prime(self):
        spent = json.loads(self.run_code(bench_file.PATHS_CODE, "5:13"))
        self.assertEqual(set(spent), {"exact", "padic", "special"})
        for path, per in spent.items():
            self.assertEqual(set(per), {"5", "7", "11", "13"}, path)
            self.assertTrue(all(isinstance(s, float) and s > 0 for s in per.values()), path)

    def test_identity_code_prints_its_seconds(self):
        self.assertGreater(float(self.run_code(bench_file.IDENTITY_CODE, "3")), 0)


if __name__ == "__main__":
    unittest.main()
