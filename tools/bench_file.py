"""Write one BENCH_<name>.json from bench/run.py result lines and path timings.

    python3 tools/bench_file.py --parent DIR --change DIR --anchor DIR --out BENCH_12.json

DIR is a source checkout (make each with `git archive`): the parent, the
change, and a fixed anchor, the tree of the last re-anchor of ROADMAP.md,
which every file times in the same loop, so that its change/anchor ratios
compare across files although the host's speed drifts between them.  Every
figure is measured by one loop, `alternate`, in ROUNDS rounds of one run per
checkout, each run a child process, in the orders of `run_order`.

For each workload of BENCHMARK.json it runs `bench/run.py` for the
`run_seconds` BENCHMARK.json sets, in ROUNDS rounds, and keeps every result
line.  For each end-to-end metric it records the change/parent ratio of the
medians, whether the change stays inside the metric's bound, and the spread
of the change/anchor ratios of the rounds, and prints one line per metric
to stderr.  Every other figure is timed in ROUNDS rounds too, each run a
fresh process at --jobs 1, and each side is recorded as its median and
quartiles (`spread`), key by key for the per-path seconds, beside the
spread of the change/anchor ratios of the rounds (RATIO):
- the exact and the p-adic path (`_compare_pairs` of every check) and the
  exact path's special numbers (`ExactContext._bern` and `_euler`, left out
  of the exact path's seconds) over each of RANGES;
- the per-k checks PER_K_CHECKS alone, on both paths to PER_K_PADIC_LIMIT,
  over each of PER_K_RANGES;
- each path over each window of consecutive primes of EXPONENT_WINDOWS,
  one run per window, as its mean seconds per prime keyed by the window's
  mean prime, and its cost-vs-p exponent fitted to the medians;
- the identity suite over n = 1..N for each N of IDENTITY_NS, with its
  growth exponent log2(t(2N) / t(N)) of the medians.
Run it on an otherwise idle machine: every number is wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from tracer import cost_exponent  # noqa: E402

ROUNDS = 10  # fewer alternating rounds than this cannot back a claimed gain
SIDES = ("parent", "change", "anchor")
RATIO = "change/anchor"  # the key of the spread of each round's change/anchor ratio
# A single prime cannot show the exact path sweeping its rows over a range of
# primes; 7:1999 does.
RANGES = ("3:251", "7:499", "7:1999")
# Five consecutive primes from each of 251, 503, 1009 and 2003: a run of one
# prime, 0.01-0.2 s, is bimodal on a 2-vCPU host, so one prime per point
# cannot compare two trees.
EXPONENT_WINDOWS = ("251:271", "503:541", "1009:1031", "2003:2029")
# The checks compared one residue per k, timed alone; no per-layer metric of
# the benchmark isolates them.
PER_K_CHECKS = "L2.1a,L2.1b,PS11c-3.2"
PER_K_RANGES = ("7:499", "3:251")
PER_K_PADIC_LIMIT = 251
IDENTITY_NS = (200, 400)  # the identity suite over 1..N; each N doubles the last

# Times each path's _compare_pairs, all checks or those of argv[2], at every
# prime of argv[1], a range lo:hi, with the p-adic path up to argv[3] or to
# the last prime, and the exact path's B and E reads on their own; prints
# {"exact": {p: s}, "padic": {p: s}, "special": {p: s}}.
PATHS_CODE = """
import json, sys, time
from congrlab import congruences as C
from congrlab.arith import PrimeRange, sieve_primes
primes = sieve_primes(PrimeRange(*map(int, sys.argv[1].split(":"))))
spent = {"exact": {}, "padic": {}, "special": {}}
def add(side, p, seconds):
    spent[side][p] = spent[side].get(p, 0.0) + seconds
compare = C._compare_pairs
def timed(ctx, spec):
    start, special = time.perf_counter(), spent["special"].get(ctx.p, 0.0)
    try:
        return compare(ctx, spec)
    finally:
        # the B and E reads inside count as special only
        add("padic" if isinstance(ctx, C.PadicContext) else "exact", ctx.p,
            time.perf_counter() - start - (spent["special"].get(ctx.p, 0.0) - special))
def reading(read):
    def timed_read(ctx, *args):
        start = time.perf_counter()
        try:
            return read(ctx, *args)
        finally:
            add("special", ctx.p, time.perf_counter() - start)
    return timed_read
C._compare_pairs = timed
for name in ("_bern", "_euler"):
    setattr(C.ExactContext, name, reading(getattr(C.ExactContext, name)))
ids = C.check_ids(sys.argv[2] if len(sys.argv) > 2 else "all")
limit = int(sys.argv[3]) if len(sys.argv) > 3 else max(primes)
C.run_suite(ids, primes, padic_limit=limit, jobs=1)
print(json.dumps(spent))
"""


# Times run_identity_suite(None, range(1, N + 1)) at --jobs 1 for N = argv[1];
# prints the seconds.
IDENTITY_CODE = """
import sys, time
from congrlab.identities import run_identity_suite
start = time.perf_counter()
run_identity_suite(None, range(1, int(sys.argv[1]) + 1))
print(time.perf_counter() - start)
"""


def child(tree: Path, *argv: str) -> str:
    """The stdout of `python3 argv...` run in the checkout `tree`, its src first on the path."""
    return subprocess.run([sys.executable, *argv], cwd=tree, check=True, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(tree / "src"))).stdout


def run_order(i: int) -> tuple:
    """The sides of round i, counted from 0: rotation i of SIDES, with the
    parent and the change swapped in rounds 3-5 of every six, so that each
    side runs first in a third of the rounds and the parent runs before the
    change in every other round."""
    sides = SIDES if i % 6 < 3 else ("change", "parent", "anchor")
    return sides[i % 3:] + sides[:i % 3]


def alternate(trees: dict, count: int, measure, label: str) -> dict:
    """{side: [measure(tree of side) in each of `count` rounds]}, round i
    running the sides in `run_order(i)`; one stderr line per round."""
    runs = {side: [] for side in SIDES}
    for i in range(count):
        for side in run_order(i):
            runs[side].append(measure(trees[side]))
        print(f"# {label} round {i + 1}/{count}", file=sys.stderr, flush=True)
    return runs


def quotient(change, anchor):
    """change / anchor, key by key of dicts of numbers, leaving out each key
    whose anchor is 0, such as the special numbers of checks that read none."""
    if isinstance(change, dict):
        return {key: quotient(change[key], anchor[key]) for key in change if anchor[key] != 0}
    return change / anchor


def spreads(trees: dict, measure, label: str) -> dict:
    """Each side's `spread` of `measure` over ROUNDS rounds, and under RATIO
    the spread of each round's change/anchor ratio."""
    runs = alternate(trees, ROUNDS, measure, label)
    return {**{side: spread(rs) for side, rs in runs.items()},
            RATIO: spread(list(map(quotient, runs["change"], runs["anchor"])))}


def range_seconds(trees: dict, primes: str, *selection: str) -> dict:
    """Each side's PATHS_CODE seconds per path over `primes`, summed over the
    primes; `selection` is its optional check selector and p-adic limit."""
    def measure(tree):
        out = json.loads(child(tree, "-c", PATHS_CODE, primes, *selection))
        return {path: sum(per.values()) for path, per in out.items()}
    return spreads(trees, measure, " ".join((primes, *selection)))


def window_seconds(tree: Path) -> dict:
    """{path: {mean prime: mean PATHS_CODE seconds per prime}} of each window
    of EXPONENT_WINDOWS, one run per window."""
    per = {}
    for window in EXPONENT_WINDOWS:
        for path, seconds in json.loads(child(tree, "-c", PATHS_CODE, window)).items():
            mean_prime = statistics.fmean(map(int, seconds))
            per.setdefault(path, {})[mean_prime] = statistics.fmean(seconds.values())
    return per


def fitted(per: dict) -> dict:
    """One path's spread of seconds per prime, keyed by mean prime, with the
    cost-vs-p exponent of their medians."""
    return {"seconds": per, "exponent": cost_exponent({p: t["median"] for p, t in per.items()})}


def spread(values: list):
    """The median and quartiles of numbers, or key by key of dicts of them."""
    if isinstance(values[0], dict):
        return {key: spread([v[key] for v in values]) for key in values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def workload_record(workload: str, runs: dict, spec: dict) -> dict:
    record = {"correct": all(r["correct"] for side in runs.values() for r in side),
              "failed_rows": sum(r["failed"] for side in runs.values() for r in side)}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        # the change is worse by the share sign * (ratio - 1) of the parent's median
        ratio = change["median"] / parent["median"] if parent["median"] else None
        inside = ratio is None or sign * (ratio - 1) <= metric["bound"]
        anchored = (spread(list(map(quotient, values["change"], values["anchor"])))
                    if all(values["anchor"]) else None)
        record[name] = {"unit": metric["unit"], "parent": parent, "change": change,
                        "anchor": spread(values["anchor"]), RATIO: anchored,
                        "change_wins": wins, "ratio": ratio, "inside_bound": inside,
                        "runs": values}
        print(f"# {workload} {name}: median {parent['median']:.4g} -> {change['median']:.4g} "
              f"{metric['unit']} (parent IQR {parent['q1']:.4g}-{parent['q3']:.4g}), "
              f"ratio {'-' if ratio is None else f'{ratio:.3f}'}, {wins}/{len(values['change'])} "
              f"wins, {'inside' if inside else 'PAST'} its bound {metric['bound']:.0%} "
              f"({metric['better']} is better), change/anchor "
              f"{'-' if anchored is None else format(anchored['median'], '.3f')}",
              file=sys.stderr, flush=True)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--anchor", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = {side: getattr(args, side).resolve() for side in SIDES}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    # Where the environment sets PYTHONDONTWRITEBYTECODE, a tree with no
    # __pycache__ compiles its sources in every run: compile each first.
    for tree in trees.values():
        child(tree, "-m", "compileall", "-q", "src")

    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = alternate(trees, ROUNDS, lambda tree: json.loads(child(
            tree, "bench/run.py", "--workload", name, "--seconds", str(seconds)
        ).strip().splitlines()[-1]), name)
        workloads[name] = workload_record(name, runs, spec)

    paths = {rng: range_seconds(trees, rng) for rng in RANGES}
    per_k = {}
    for rng in PER_K_RANGES:
        per_k[rng] = t = range_seconds(trees, rng, PER_K_CHECKS, str(PER_K_PADIC_LIMIT))
        print(f"# {PER_K_CHECKS} over {rng}, both paths to {PER_K_PADIC_LIMIT}: " + ", ".join(
            f"{side} exact {t[side]['exact']['median']:.3f} s, "
            f"p-adic {t[side]['padic']['median']:.3f} s" for side in SIDES),
            file=sys.stderr, flush=True)
    windows = spreads(trees, window_seconds, "cost exponent")
    exponents = {side: {path: fitted(windows[side][path]) for path in ("exact", "padic")}
                 for side in SIDES}

    identity = {side: {"seconds": {}} for side in windows}
    for n in IDENTITY_NS:
        for side, t in spreads(trees, lambda tree: float(child(tree, "-c", IDENTITY_CODE, str(n))),
                               f"identity N={n}").items():
            identity[side]["seconds"][n] = t
    for side in SIDES:
        record = identity[side]
        per = record["seconds"]
        record["exponent"] = math.log2(per[IDENTITY_NS[1]]["median"]
                                       / per[IDENTITY_NS[0]]["median"])
        print(f"# identity suite --jobs 1, {side}: " + ", ".join(
            f"N={n} {t['median']:.3f} s" for n, t in per.items())
            + f", exponent {record['exponent']:.2f}", file=sys.stderr, flush=True)

    args.out.write_text(json.dumps({
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "settings": {"rounds": ROUNDS, "seconds": seconds,
                     "order": "round i, from 0, runs rotation i of (parent, change, anchor), "
                              "parent and change swapped in rounds 3-5 of every six",
                     "quartiles": "statistics.quantiles(n=4), exclusive method"},
        "workloads": workloads,
        "path_seconds_jobs1": paths,
        "per_k_seconds_jobs1": {"checks": PER_K_CHECKS, "padic_limit": PER_K_PADIC_LIMIT,
                                **per_k},
        "cost_exponent": {"windows": list(EXPONENT_WINDOWS), **exponents,
                          RATIO: windows[RATIO]},
        "identity_seconds_jobs1": {"n": list(IDENTITY_NS), **identity},
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
