"""Serialization of check, identity and series results (json / csv / md)."""

from __future__ import annotations

import csv
import io
import json

from .congruences import CheckResult, summarize
from .identities import IdentityCase
from .series import SeriesReport

COLUMNS = ["id", "p", "n", "modulus", "lhs", "rhs", "pass", "status", "note",
           "elapsed_ms"]


def _passed(result) -> bool:
    """The verdict of an identity case or a series report."""
    return bool(result.passed if isinstance(result, IdentityCase) else result.converged)


def _to_row(result, include_elapsed: bool) -> dict:
    if isinstance(result, CheckResult):
        row = {
            "id": result.id,
            "p": result.p,
            "n": None,
            "modulus": f"p^{result.m}",
            "lhs": result.lhs,
            "rhs": result.rhs,
            "pass": (None if not result.applicable else bool(result.passed)),
            "status": (result.status if result.applicable else "inapplicable"),
            "note": result.note,
        }
        if result.path_agreement is False:
            row["note"] = (row["note"] + "; " if row["note"] else "") + \
                "PATH DISAGREEMENT"
    elif isinstance(result, IdentityCase):
        row = {
            "id": result.name,
            "p": None,
            "n": result.n,
            "modulus": "exact",
            "lhs": str(result.lhs),
            "rhs": str(result.rhs),
            "pass": _passed(result),
            "status": "identity",
            "note": "",
        }
    elif isinstance(result, SeriesReport):
        row = {
            "id": result.name,
            "p": None,
            "n": result.terms,
            "modulus": f"tol {result.tolerance:g}",
            "lhs": repr(result.partial),
            "rhs": repr(result.target),
            "pass": _passed(result),
            "status": "series",
            "note": f"error {result.error:.3e}",
        }
    else:
        raise TypeError(f"cannot serialize {type(result).__name__}")
    row["elapsed_ms"] = (round(getattr(result, "elapsed_ms", 0.0), 3)
                         if include_elapsed else None)
    return row


def _summary(results) -> dict:
    checks = [r for r in results if isinstance(r, CheckResult)]
    if checks:
        return summarize(checks)
    total = len(results)
    passed = sum(map(_passed, results))
    return {"total": total, "passed": passed, "failed": total - passed,
            "inapplicable": 0, "path_disagreements": 0, "by_status": {}}


def sort_results(results) -> list:
    def key(r):
        if isinstance(r, CheckResult):
            return (r.id, r.p)
        if isinstance(r, IdentityCase):
            return (r.name, r.n)
        return (r.name, 0)
    return sorted(results, key=key)


def emit_report(results, fmt: str = "json", include_elapsed: bool = True) -> str:
    """Serialize results deterministically, ordered by (id, p/n)."""
    results = sort_results(results)
    rows = [_to_row(r, include_elapsed) for r in results]
    summary = _summary(results)

    if fmt == "json":
        # The text of json.dumps(rows + [{"summary": summary}], indent=2):
        # each flat row goes through the C encoder, which indent= bypasses.
        row_text = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        tail = json.dumps([{"summary": summary}], indent=2)[2:-2]
        return "[\n" + ",\n".join(
            ["  {\n    " + row_text(row)[1:-1] + "\n  }" for row in rows] + [tail]) + "\n]"

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        buf.write(f"# summary: {json.dumps(summary, sort_keys=True)}\n")
        return buf.getvalue()

    if fmt == "md":
        lines = []
        current = None
        for row in rows:
            if row["id"] != current:
                current = row["id"]
                lines.append(f"\n## {current}\n")
                lines.append("| p/n | modulus | lhs | rhs | pass | status | note |")
                lines.append("|---|---|---|---|---|---|---|")
            where = row["p"] if row["p"] is not None else row["n"]
            lines.append(
                f"| {where} | {row['modulus']} | {row['lhs']} | {row['rhs']} "
                f"| {row['pass']} | {row['status']} | {row['note']} |")
        lines.append(f"\n**Summary:** {json.dumps(summary, sort_keys=True)}")
        return "\n".join(lines).lstrip("\n") + "\n"

    raise ValueError(f"unknown format {fmt!r}")


def exit_status(results) -> int:
    """0 unless a proven check fails or the two paths disagree."""
    for r in results:
        if isinstance(r, CheckResult):
            if r.path_agreement is False:
                return 1
            if r.applicable and r.status == "proven" and not r.passed:
                return 1
        elif isinstance(r, (IdentityCase, SeriesReport)):
            if not _passed(r):
                return 1
    return 0
