"""Command-line front end: verify / identity / series / bernoulli."""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .arith import PrimeRange, sieve_primes
from .congruences import CHECK_CATALOG, PADIC_PATH_MAX_PRIME, check_ids, run_suite
from .errors import CongrlabError
from .fanout import available_cpus
from .identities import run_identity_suite
from .report import emit_report, exit_status
from .series import run_series_suite
from .special import SpecialCache

EXIT_OK = 0
EXIT_USAGE = 2


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected lo:hi")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _at_least(least, kind=int):
    """An argparse type: a `kind` no smaller than `least`; nan is refused."""
    def at_least(text: str):
        value = kind(text)
        if not value >= least:
            raise argparse.ArgumentTypeError(f"{value} is not at least {least}")
        return value
    return at_least


def _selected(items: list, what: str) -> list:
    """The items a selection names; selecting nothing is a usage error."""
    if not items:
        raise ValueError(f"{what} selects nothing")
    return items


def _names(text: str) -> list | None:
    """A --names selection: None for all, else the listed names, each once
    and in the order it first appears."""
    if text == "all":
        return None
    return _selected(list(dict.fromkeys(s.strip() for s in text.split(",") if s.strip())),
                     f"--names {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congrlab",
        description="Exact verification of the p-adic congruence and identity "
                    "catalog for central binomial coefficient sums.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def out(sp):
        sp.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")

    def common(sp):
        sp.add_argument("--format", choices=["json", "csv", "md"], default="json")
        out(sp)

    def jobs(sp, per):
        sp.add_argument("--jobs", type=_at_least(1), default=available_cpus(),
                        help=f"worker processes, at most one per {per} "
                             "(default: the CPUs this process may use)")

    sp = sub.add_parser("verify", help="run congruence checks over a prime range")
    common(sp)
    sp.add_argument("--primes", type=_parse_range, default=(7, 499),
                    metavar="LO:HI")
    sp.add_argument("--checks", default="proven",
                    help="comma list of ids, or all/proven/conjectural/exploratory")
    sp.add_argument("--padic-limit", type=int, default=PADIC_PATH_MAX_PRIME,
                    help="run the p-adic second path for primes up to this")
    jobs(sp, "prime")

    sp = sub.add_parser("identity", help="verify exact identities")
    common(sp)
    sp.add_argument("--names", default="all",
                    help="comma list of identity names, or all")
    sp.add_argument("--n", type=_parse_range, default=(1, 50), metavar="LO:HI")
    jobs(sp, "identity")

    sp = sub.add_parser("series", help="floating sanity checks of the series")
    common(sp)
    sp.add_argument("--names", default="all")
    sp.add_argument("--terms", type=int, default=None)
    sp.add_argument("--tol", type=_at_least(0.0, float), default=None)

    sp = sub.add_parser("bernoulli", help="print the even-index Bernoulli numbers")
    out(sp)
    sp.add_argument("--max", type=_at_least(0), default=30, dest="max_index")

    return parser


def parse_and_run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.subcommand == "bernoulli":
            cache = SpecialCache()
            cache.ensure_bernoulli(args.max_index)
            report = "\n".join(f"B_{n} = {cache.bernoulli[n]}"
                               for n in range(0, args.max_index + 1, 2))
            status = EXIT_OK
        else:
            if args.subcommand == "verify":
                ids = check_ids(args.checks)
                primes = sieve_primes(PrimeRange(*args.primes))
                _selected([(i, p) for i in ids for p in primes
                           if p >= CHECK_CATALOG[i].min_prime],
                          "--checks {!r} at --primes {}:{}".format(args.checks, *args.primes))
                results, _ = run_suite(ids, primes, padic_limit=args.padic_limit,
                                       jobs=args.jobs)
            elif args.subcommand == "identity":
                lo, hi = args.n
                results = _selected(run_identity_suite(_names(args.names), range(lo, hi + 1),
                                                       args.jobs),
                                    f"--names {args.names!r} at --n {lo}:{hi}")
            else:  # series
                results = run_series_suite(_names(args.names), args.terms, args.tol)
            report, status = emit_report(results, args.format), exit_status(results)

        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(report + "\n")
        return status

    except (CongrlabError, ValueError, OSError) as exc:
        print(f"congrlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # an engine fault, never a verdict
        print(f"congrlab: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(parse_and_run())


if __name__ == "__main__":
    main()
