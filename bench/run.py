"""End-to-end and per-layer benchmark of the congrlab command line.

    python3 bench/run.py --workload proven-sweep --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
workload is one `congrlab` command.  With `--trace 0` the benchmark runs it
as a fresh child process, again and again, in a closed loop with one caller,
until `--seconds` have passed (at least once), after timing the set-up a
fresh interpreter pays.  With `--trace 1` it runs the command once untraced
and once in process under the span recorder of `tracer.py`, and reports the
per-layer metrics.  Every run's verdict rows are checked against the
reference recorded in `bench/reference/`.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer
import verdicts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACE_OUT = BENCH / "out"
DEADLINE_S = 170.0  # the whole benchmark must exit within 180 s

# Consecutive primes near 1000; the seed picks one window, and seed 0 gives
# the first.  The windows lie close together so that their cost differs by
# a few percent: p^2.7 per prime varies 4% from the first to the last.
LARGE_PRIME_WINDOWS = ("997:1013", "991:1009", "1009:1019")

WORKLOADS = {
    "proven-sweep": lambda seed: ["verify"],
    "dual-path": lambda seed: ["verify", "--checks", "all", "--primes", "3:251",
                               "--padic-limit", "251", "--jobs", "2"],
    "large-prime": lambda seed: [
        "verify", "--primes", LARGE_PRIME_WINDOWS[seed % len(LARGE_PRIME_WINDOWS)]],
    "identity-suite": lambda seed: ["identity", "--n", "1:200"],
}

# A fresh interpreter imports the package and builds the Bernoulli and Euler
# tables up to the index the command needs (-1: none).
SETUP_CODE = """
import sys
import congrlab.cli
from congrlab.special import bernoulli_exact, euler_exact
n = int(sys.argv[1])
if n >= 0:
    bernoulli_exact(n)
    euler_exact(n)
"""
SETUP_MIN_REPS = 3
SETUP_MIN_TOTAL_S = 1.0
SETUP_MAX_REPS = 15


@dataclass
class Child:
    """Outcome of one child process: wall and CPU time, peak memory, output."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CONGRLAB_CACHE", None)  # measure the default, uncached run
    return env


def spawn(cmd: list[str], deadline: float) -> Child:
    """Run cmd to completion and take its resource use from wait4.

    CPU time covers the child and the workers it waited for; peak memory is
    the largest resident set among them.  A child still running at the
    deadline is killed with its process group.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, deadline - start), kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, out.decode())


def cli_cmd(argv):
    return [sys.executable, "-m", "congrlab.cli", *argv]


def option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def table_index(argv) -> int:
    """Largest Bernoulli/Euler index the command reads: B_{p-3}, E_{p-3} at
    the largest prime p of the range; -1 for commands that read none."""
    if argv[0] != "verify":
        return -1
    p = int(option(argv, "--primes", "7:499").split(":")[1])
    while p > 1 and any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        p -= 1
    return p - 3 if p >= 5 else -1


def measure_setup(argv, deadline) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_CODE, str(table_index(argv))]
    times = []
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < SETUP_MIN_TOTAL_S and len(times) < SETUP_MAX_REPS)):
        run = spawn(cmd, deadline)
        if run.exit != 0:
            raise RuntimeError(f"set-up probe exited with status {run.exit}")
        times.append(run.wall_s)
    return times


class Tally:
    """Verdict rows attempted and failed across the runs of one benchmark."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = 0

    def check(self, report_text, exit_status) -> int:
        attempted, failed = verdicts.count_failed(self.reference, report_text, exit_status)
        self.attempted += attempted
        self.failed += failed
        return attempted


def untraced(argv, seconds, tally, deadline) -> dict:
    setup = measure_setup(argv, deadline)
    runs, rows = [], []
    start = perf_counter()
    while not runs or (perf_counter() - start < seconds and perf_counter() < deadline):
        run = spawn(cli_cmd(argv), deadline)
        runs.append(run)
        rows.append(tally.check(run.stdout, run.exit))
    print(f"# {len(runs)} runs, {len(setup)} set-ups", flush=True)
    return {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "items_per_s": statistics.median(n / r.wall_s for n, r in zip(rows, runs)),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup),
    }


def traced(workload, argv, tally, deadline) -> dict:
    """One untraced run of the command, one in process under the recorder
    at --jobs 1 (spans made in pool workers would not come back), and an
    untraced --jobs 1 run to price the tracing when the command fans out."""
    jobs = int(option(argv, "--jobs", "1"))
    base = spawn(cli_cmd(argv), deadline)
    tally.check(base.stdout, base.exit)
    serial = list(argv)
    if jobs > 1:
        serial[serial.index("--jobs") + 1] = "1"
        base_serial = spawn(cli_cmd(serial), deadline)
        tally.check(base_serial.stdout, base_serial.exit)
    else:
        base_serial = base
    TRACE_OUT.mkdir(exist_ok=True)
    out = TRACE_OUT / f"trace-{workload}.json"
    out.unlink(missing_ok=True)
    run = spawn([sys.executable, str(BENCH / "tracer.py"), str(out), *serial], deadline)
    if run.exit != 0:
        raise RuntimeError(f"traced run exited with status {run.exit}")
    trace = json.loads(out.read_text())
    tally.check(trace["report"], trace["exit"])
    metrics = tracer.layer_metrics(trace)
    metrics["congruences.fanout_efficiency"] = base.cpu_s / (jobs * base.wall_s)
    metrics["cli.import_s"] = trace["import_s"]
    metrics["trace.overhead_s"] = run.wall_s - base_serial.wall_s
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not (SRC / "congrlab" / "cli.py").is_file():
        print(f"bench: no congrlab sources under {SRC}", file=sys.stderr)
        return 2
    argv = WORKLOADS[args.workload](args.seed)
    try:
        reference = verdicts.load_reference(args.workload, argv)
    except LookupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())

    print(f"# workload {args.workload}: congrlab {' '.join(argv)}", flush=True)
    tally = Tally(reference)
    if args.trace:
        values = traced(args.workload, argv, tally, deadline)
        wanted = spec["per_layer"]
    else:
        values = untraced(argv, args.seconds, tally, deadline)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_share':36s} {share:>16.6g} ({tally.failed} of {tally.attempted} rows)")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
