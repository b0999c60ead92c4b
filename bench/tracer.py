"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Run as a script, it executes one congrlab command in process with every
layer boundary wrapped, and writes the spans and the captured report:

    PYTHONPATH=src python3 bench/tracer.py OUT.json verify --primes 7:31

The recorder wraps congrlab's functions from outside, at the names the
callers look up, so nothing in the package changes.  A span is kept for
each call at a layer boundary, with the span that was open when it started.
Hot arithmetic calls (millions per run) are leaves: they get no span of
their own, only a call count and a total time on the open span.  Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
from functools import wraps
from time import perf_counter

LAYERS = ("cli", "special", "arith", "congruences", "identities", "report")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "leaves")

    def __init__(self, id, parent, name, attrs):
        self.id = id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.leaves = {}
        self.start = self.end = 0.0


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.binomial_args: set[tuple[int, int]] = set()
        self.max_exact_bits = 0

    def span(self, name, fn, attrs=None, result_attrs=None):
        """Wrap fn so that every call records a span named `name`.

        `attrs(*args)` and `result_attrs(result)` give the span's attributes.
        """
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1].id if stack else None
            span = Span(len(spans), parent, name,
                        attrs(*args, **kwargs) if attrs else None)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if result_attrs:
                span.attrs = result_attrs(result)
            return result
        return wrapper

    def leaf(self, name, fn, observe=None):
        """Wrap fn so that every call adds to a count and a time on the open span.

        Leaves are only called inside the root span of a traced run.
        """
        stack = self.stack

        @wraps(fn)
        def wrapper(*args):
            if observe:
                observe(*args)
            t = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t
                leaves = stack[-1].leaves
                acc = leaves.get(name)
                if acc is None:
                    leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.attrs, s.leaves]
                      for s in self.spans],
            "binomial_distinct": len(self.binomial_args),
            "max_exact_bits": self.max_exact_bits,
        }


def _patch(owner, attr, wrap) -> None:
    # A boundary that a later version renames or removes is skipped, and
    # its metrics read 0, rather than failing the traced run.
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, wrap(fn))


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries of an imported congrlab in place."""
    from congrlab import cli, congruences, identities
    from congrlab.arith import PAdic
    from congrlab.special import SpecialCache

    def see_binomial(n, k):
        rec.binomial_args.add((n, k))

    def see_exact(r, p, e):
        bits = max(abs(r.numerator).bit_length(), r.denominator.bit_length())
        if bits > rec.max_exact_bits:
            rec.max_exact_bits = bits

    def path_attrs(ctx, spec):
        return {"p": ctx.p, "padic": isinstance(ctx, congruences.PadicContext)}

    def span(name, attrs=None, result_attrs=None):
        return lambda fn: rec.span(name, fn, attrs, result_attrs)

    def leaf(name, observe=None):
        return lambda fn: rec.leaf(name, fn, observe)

    # names as the calling module binds them
    _patch(cli, "run_suite", span("congruences.run_suite"))
    _patch(cli, "run_identity_suite", span("identities.run_identity_suite"))
    _patch(cli, "emit_report", span(
        "report.emit_report", result_attrs=lambda text: {"bytes": len(text.encode())}))
    _patch(congruences, "evaluate_check", span(
        "congruences.evaluate_check", lambda check_id, p, *a, **k: {"p": p}))
    _patch(congruences, "_compare_pairs", span("congruences.path", path_attrs))
    _patch(congruences, "harmonic_prefix", span("special.harmonic_prefix"))
    _patch(congruences, "binomial_big", leaf("arith.binomial_big", see_binomial))
    _patch(congruences, "rat_reduce_mod", leaf("arith.rat_reduce_mod", see_exact))
    for method in ("ensure_bernoulli", "ensure_euler"):
        _patch(SpecialCache, method, span(f"special.{method}", lambda cache, n: {"n": n}))
    _patch(PAdic, "from_rational",
           lambda bound: staticmethod(rec.leaf("arith.from_rational", bound)))
    _patch(identities, "evaluate_identity", span("identities.evaluate_identity"))
    _patch(identities, "check_recurrence", span("identities.check_recurrence"))


# -- metrics derived from a written trace -----------------------------------


def cost_exponent(per_prime: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(p).

    Only primes of at least 1/8 of the largest are fitted, where the cost
    of the sums outweighs the fixed cost per check.  A run whose primes
    span less than a factor 2 gives 0: over a narrow range the slope is
    set by noise, not by p.
    """
    top = max(per_prime, default=0)
    pts = [(math.log(p), math.log(t)) for p, t in per_prime.items()
           if t > 0 and 8 * p >= top]
    if not pts or max(pts)[0] - min(pts)[0] < math.log(2):
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (see bench/README.md)."""
    spans = trace["spans"]
    dur = [end - start for _, _, _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for sid, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += dur[sid]

    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list] = {}
    leaves: dict[str, list] = {}
    exact_per_prime: dict[int, float] = {}
    padic_s = 0.0
    pair_ms = []
    for sid, parent, name, start, end, attrs, span_leaves in spans:
        leaf_s = sum(t for _, t in span_leaves.values())
        self_s[name.split(".")[0]] += dur[sid] - child_time[sid] - leaf_s
        by_name.setdefault(name, []).append(sid)
        if name == "congruences.path":
            if attrs["padic"]:
                padic_s += dur[sid]
            else:
                exact_per_prime[attrs["p"]] = exact_per_prime.get(attrs["p"], 0.0) + dur[sid]
        elif name == "congruences.evaluate_check":
            pair_ms.append(dur[sid] * 1000)
    for *_, span_leaves in spans:
        for name, (calls, t) in span_leaves.items():
            acc = leaves.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += t
            self_s[name.split(".")[0]] += t

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    tables = by_name.get("special.ensure_bernoulli", []) + by_name.get("special.ensure_euler", [])
    binom_calls, binom_s = leaves.get("arith.binomial_big", (0, 0.0))
    lift_calls, lift_s = leaves.get("arith.from_rational", (0, 0.0))
    emits = by_name.get("report.emit_report", [])
    metrics = {
        "special.tables_s": sum(dur[i] for i in tables),
        "special.max_index": max((spans[i][5]["n"] for i in tables), default=0),
        "special.harmonic_prefix_calls": len(by_name.get("special.harmonic_prefix", [])),
        "special.harmonic_prefix_s": total("special.harmonic_prefix"),
        "arith.binomial_calls": binom_calls,
        "arith.binomial_distinct_ratio": (trace["binomial_distinct"] / binom_calls
                                          if binom_calls else 0.0),
        "arith.binomial_s": binom_s,
        "arith.padic_lift_calls": lift_calls,
        "arith.padic_lift_s": lift_s,
        "arith.max_exact_bits": trace["max_exact_bits"],
        "congruences.exact_path_s": sum(exact_per_prime.values()),
        "congruences.padic_path_s": padic_s,
        "congruences.pair_ms_p50": statistics.median(pair_ms) if pair_ms else 0.0,
        "congruences.pair_ms_max": max(pair_ms, default=0.0),
        "congruences.cost_exponent": cost_exponent(exact_per_prime),
        "identities.evaluate_s": (total("identities.evaluate_identity")
                                  - total("identities.check_recurrence")),
        "identities.recurrence_s": total("identities.check_recurrence"),
        "report.emit_s": total("report.emit_report"),
        "report.bytes": sum(spans[i][5]["bytes"] for i in emits),
    }
    metrics.update({f"{layer}.self_s": t for layer, t in self_s.items()})
    return metrics


def main(out_path, argv) -> None:
    t = perf_counter()
    from congrlab import cli
    import_s = perf_counter() - t
    rec = Recorder()
    install(rec)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        status = rec.span("cli.parse_and_run", cli.parse_and_run)(argv)
    with open(out_path, "w") as fh:
        json.dump({**rec.to_json(), "import_s": import_s, "exit": status,
                   "report": report.getvalue()}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
