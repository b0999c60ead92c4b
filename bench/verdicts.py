"""Verdict rows of a congrlab JSON report and their comparison with a reference.

A verdict row is one (check, prime) pair of `verify` or one (identity, n)
case of `identity`.  Each row is reduced to a key, (id, p or n), and a
digest of the fields that make up its verdict: modulus, lhs, rhs, pass and
status.  Timings and notes are left out, so a faster engine that returns the
same verdicts matches the reference and one that flips or drops a verdict
does not.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VERDICT_FIELDS = ("modulus", "lhs", "rhs", "pass", "status")


def row_key(row: dict) -> str:
    where = row["p"] if row["p"] is not None else row["n"]
    return f"{row['id']}|{where}"


def row_digest(row: dict) -> str:
    blob = json.dumps([row[f] for f in VERDICT_FIELDS], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def report_digests(report_text: str) -> dict[str, str]:
    """Map each row key of a JSON report to its verdict digest.

    Raises ValueError when the text is not a report of verdict rows, or
    when one key occurs twice.
    """
    rows = json.loads(report_text)
    if not isinstance(rows, list) or not rows or "summary" not in rows[-1]:
        raise ValueError("not a congrlab JSON report")
    out = {}
    for row in rows[:-1]:
        key = row_key(row)
        if key in out:
            raise ValueError(f"duplicate verdict row {key}")
        out[key] = row_digest(row)
    return out


def count_failed(reference: dict, report_text: str, exit_status: int) -> tuple[int, int]:
    """Return (attempted, failed) rows of one run against its reference.

    A row fails when it is missing, extra, or its digest differs.  A run
    whose exit status differs from the reference's fails every row, and
    so does a report that cannot be parsed.
    """
    expected = reference["rows"]
    try:
        got = report_digests(report_text)
    except ValueError:
        return len(expected), len(expected)
    keys = expected.keys() | got.keys()
    if exit_status != reference["exit"]:
        return len(keys), len(keys)
    return len(keys), sum(1 for k in keys if expected.get(k) != got.get(k))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, argv: list[str]) -> dict:
    """The recorded reference for this workload's argument list.

    Raises LookupError when none was recorded for these arguments.
    """
    path = reference_path(workload)
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        raise LookupError(f"no reference file {path}") from None
    ref = table.get(" ".join(argv))
    if ref is None:
        raise LookupError(f"{path} has no reference for {' '.join(argv)!r}")
    return ref
