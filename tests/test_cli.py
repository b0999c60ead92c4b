"""Report serialization, exit-status contract and the command-line front end."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import congrlab
from congrlab import congruences, report, special
from congrlab.arith import PrimeRange, sieve_primes
from congrlab.cli import parse_and_run
from congrlab.congruences import CheckResult, evaluate_check
from congrlab.fanout import available_cpus
from congrlab.identities import IDENTITY_CATALOG, evaluate_identity
from congrlab.report import emit_report, exit_status, sort_results
from congrlab.series import evaluate_series
from congrlab.special import SpecialCache


def _result(id="T1.1-1.1", p=7, passed=True, status="proven", applicable=True,
            agreement=None):
    return CheckResult(id, p, 1, 1 if applicable else None,
                       1 if applicable and passed else (0 if applicable else None),
                       passed if applicable else None, status, applicable,
                       path_agreement=agreement, elapsed_ms=1.5)


# -- serialization ------------------------------------------------------------


def test_json_single_passing_result():
    rows = json.loads(emit_report([_result()], "json"))
    assert rows[0]["pass"] is True
    assert rows[-1]["summary"]["passed"] == 1


def test_json_empty_results_summary_only():
    rows = json.loads(emit_report([], "json"))
    assert len(rows) == 1
    assert rows[0]["summary"]["total"] == 0
    assert rows[0]["summary"]["passed"] == 0


def test_summary_splits_by_status():
    results = [_result(), _result(id="CJ1.1-a", status="conjectural", passed=False)]
    rows = json.loads(emit_report(results, "json"))
    by_status = rows[-1]["summary"]["by_status"]
    assert by_status["proven"]["passed"] == 1
    assert by_status["conjectural"]["failed"] == 1


def test_csv_format():
    text = emit_report([_result()], "csv")
    reader = csv.DictReader(io.StringIO(text.split("# summary:")[0]))
    rows = list(reader)
    assert rows[0]["id"] == "T1.1-1.1" and rows[0]["pass"] == "True"
    assert "# summary:" in text


def test_md_format_groups_by_id():
    text = emit_report([_result(p=11), _result(p=7)], "md")
    assert text.count("## T1.1-1.1") == 1
    assert "| 7 |" in text and "| 11 |" in text
    assert "**Summary:**" in text


def test_mixed_result_kinds_serialize():
    results = [_result(), evaluate_identity("TELE1", 0),
               evaluate_series("S-ZETA2", terms=5, tol=1.0)]
    for fmt in ("json", "csv", "md"):
        assert emit_report(results, fmt)


def test_json_report_is_the_indented_dump_of_its_rows():
    """Rows go through the C encoder; the text is still that of the
    indent=2 dump of the rows and the summary."""
    cache = SpecialCache()
    for results in ([evaluate_check(i, p, cache) for i in ("T1.1-1.1", "L2.1a") for p in (5, 7)]
                    + [_result(agreement=False)],
                    [evaluate_identity("APERY", n) for n in (1, 2)],
                    [evaluate_series("S-ZETA2", terms=5, tol=1.0)],
                    []):
        for include_elapsed in (True, False):
            ordered = sort_results(results)
            rows = [report._to_row(r, include_elapsed) for r in ordered]
            expected = json.dumps(rows + [{"summary": report._summary(ordered)}], indent=2)
            assert emit_report(results, "json", include_elapsed) == expected


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report([], "xml")


def test_inapplicable_serializes_without_pass():
    rows = json.loads(emit_report([_result(applicable=False)], "json"))
    assert rows[0]["pass"] is None and rows[0]["status"] == "inapplicable"


def test_path_disagreement_flagged_in_note():
    rows = json.loads(emit_report([_result(agreement=False)], "json"))
    assert "PATH DISAGREEMENT" in rows[0]["note"]


def test_report_deterministic_without_elapsed():
    cache = SpecialCache()
    runs = []
    for _ in range(2):
        results = [evaluate_check(i, p, cache)
                   for i in ("T1.1-1.1", "T1.2-1.7") for p in (7, 11, 13)]
        runs.append(emit_report(results, "json", include_elapsed=False))
    assert runs[0] == runs[1]


def test_sort_results_orders_by_id_then_prime():
    results = [_result(p=13), _result(id="A1", p=7), _result(p=7)]
    ordered = sort_results(results)
    assert [(r.id, r.p) for r in ordered] == [("A1", 7), ("T1.1-1.1", 7),
                                              ("T1.1-1.1", 13)]


# -- exit-status contract --------------------------------------------------------


fake_results = st.lists(
    st.builds(
        _result,
        id=st.sampled_from(["A", "B", "C"]),
        p=st.sampled_from([7, 11]),
        passed=st.booleans(),
        status=st.sampled_from(["proven", "conjectural", "exploratory"]),
        applicable=st.booleans(),
        agreement=st.sampled_from([None, True, False]),
    ),
    max_size=12,
)


@given(fake_results)
def test_exit_status_contract(results):
    expect = 0
    for r in results:
        if r.path_agreement is False:
            expect = 1
        if r.applicable and r.status == "proven" and not r.passed:
            expect = 1
    assert exit_status(results) == expect


def test_exit_one_on_injected_proven_failure():
    assert exit_status([_result(passed=False)]) == 1


def test_exit_zero_on_injected_conjectural_failure():
    assert exit_status([_result(status="conjectural", passed=False)]) == 0


def test_exit_one_on_path_disagreement_even_if_passing():
    assert exit_status([_result(passed=True, agreement=False)]) == 1


# -- command line -----------------------------------------------------------------


def test_cli_verify_small_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = parse_and_run(["verify", "--primes", "7:31",
                          "--checks", "T1.1-1.1,T1.2-1.7",
                          "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[-1]["summary"]["failed"] == 0


@pytest.mark.parametrize("argv", [
    ["bernoulli", "--max", "30"],
    ["series"],
    ["identity", "--n", "1:20"],
    ["verify", "--primes", "7:31", "--format", "json"],
], ids=["bernoulli", "series", "identity", "verify"])
def test_cli_out_file_holds_what_stdout_prints(tmp_path, capsys, argv):
    def timeless(text):
        return [line for line in text.splitlines(keepends=True) if '"elapsed_ms"' not in line]

    assert parse_and_run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert parse_and_run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert timeless(out.read_text()) == timeless(printed)


def test_cli_unknown_check_exits_2():
    assert parse_and_run(["verify", "--primes", "7:97", "--checks", "NO_SUCH"]) == 2


def test_cli_bad_range_exits_2():
    assert parse_and_run(["verify", "--primes", "9:5"]) == 2
    assert parse_and_run(["verify", "--primes", "seven:ten"]) == 2


def test_cli_unknown_subcommand_exits_2():
    assert parse_and_run(["frobnicate"]) == 2


def _assert_two_blocks(lo, hi):
    """A run of lo..hi at two workers and the default p-adic limit cuts two
    blocks, so the fault in the first is raised in a fan-out."""
    primes = sieve_primes(PrimeRange(lo, hi))
    assert len(congruences._plan(primes, 2, congruences.PADIC_PATH_MAX_PRIME)) == 2


def test_cli_special_number_mismatch_exits_2_without_rows(monkeypatch, capsys):
    build = SpecialCache.ensure_bernoulli

    def corrupt(cache, n):
        build(cache, n)
        cache.bernoulli[4] += 1  # B_{p-3} at p = 7

    monkeypatch.setattr(SpecialCache, "ensure_bernoulli", corrupt)
    # in this process, and in a fan-out: 7..199 takes two blocks
    _assert_two_blocks(7, 199)
    for jobs, window in (("1", "7:13"), ("2", "7:199")):
        code = parse_and_run(["verify", "--primes", window, "--checks", "T1.1-1.1",
                              "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "B_4 mod 7" in captured.err


@pytest.mark.parametrize("route, index, check", [
    ("bernoulli_by_index", 994, "T1.1-1.1"),
    ("bernoulli_by_index", 992, "CJ1.1-b"),
    ("euler_by_index", 994, "X-S11c-b"),
], ids=["B_p-3", "B_p-5", "E_p-3"])
def test_cli_corrupt_index_value_exits_2_without_rows(monkeypatch, capsys, route, index,
                                                      check):
    """The special numbers from 997 up come by index; one off by one at 997
    is an engine fault, in this process and in a fan-out (997..1100
    takes two blocks)."""
    by_index = getattr(special, route)
    monkeypatch.setattr(special, route,
                        lambda n: by_index(n) + (n == index))
    _assert_two_blocks(997, 1100)
    for jobs, window in (("1", "997:1009"), ("2", "997:1100")):
        code = parse_and_run(["verify", "--primes", window, "--checks", check,
                              "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"_{index} mod 997" in captured.err


def test_cli_wrong_harmonic_gap_step_exits_2_without_rows(monkeypatch, capsys):
    """One step of the exact gaps' accumulation off by one at p = 101, above
    the p-adic limit, misses H_{p-1} in their last numerator: an engine
    fault, in this process and in a fan-out (101..307 takes two
    blocks)."""
    gaps = congruences.harmonic_gap_numerators

    def wrong_step(n, k=10):
        L, nums = gaps(n)
        return L, nums[:k - 1] + [A + (n == 50) for A in nums[k - 1:]]

    monkeypatch.setattr(congruences, "harmonic_gap_numerators", wrong_step)
    _assert_two_blocks(101, 307)
    for jobs, window in (("1", "101:103"), ("2", "101:307")):
        code = parse_and_run(["verify", "--primes", window, "--checks", "PS11c-3.2",
                              "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "p=101: harmonic gap A_50/L != H_100" in captured.err


def test_cli_internal_error_exits_2_without_rows(monkeypatch, capsys):
    """An error outside the engine's own types is a fault, not a verdict:
    exit 1 would read as a counterexample."""
    start, lhs, rhs = IDENTITY_CATALOG["SIGMA"]

    def broken(n, F):
        if n == 3:
            raise ZeroDivisionError("injected")
        return lhs(n, F)

    monkeypatch.setitem(IDENTITY_CATALOG, "SIGMA", (start, broken, rhs))
    # one name runs in this process; two fan out, and the fault comes back
    for jobs, names in (("1", "SIGMA"), ("2", "SIGMA,APERY")):
        code = parse_and_run(["identity", "--names", names, "--n", "1:5", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "congrlab: internal error: ZeroDivisionError: injected\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--checks", ","],
    ["verify", "--primes", "24:28"],
    ["identity", "--names", ","],
    ["series", "--names", " , "],
    ["verify", "--primes", "2:3"],
    ["identity", "--names", "APERY", "--n=-3:0"],
])
def test_cli_empty_selection_exits_2(argv, capsys):
    """A selection of nothing, of primes where no selected check applies, or
    of n below every selected identity's start would verify nothing and
    exit 0."""
    assert parse_and_run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "selects nothing" in captured.err


@pytest.mark.parametrize("argv, total", [
    (["verify", "--checks", "T1.1-1.1,T1.1-1.1", "--primes", "7:11"], 2),
    (["identity", "--names", "SIGMA,SIGMA", "--n", "1:3"], 3),
    (["series", "--names", "S-ZETA2,S-ZETA2"], 1),
])
def test_cli_repeated_name_yields_one_row_each(argv, total, capsys):
    """A name listed twice is evaluated and reported once per p or n."""
    assert parse_and_run(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    keys = [(row["id"], row["p"], row["n"]) for row in rows[:-1]]
    assert len(set(keys)) == len(keys) == rows[-1]["summary"]["total"] == total


def test_cli_identity_markdown(capsys):
    code = parse_and_run(["identity", "--names", "APERY", "--n", "1:50",
                          "--format", "md"])
    captured = capsys.readouterr()
    assert code == 0
    assert "## APERY" in captured.out and "| 50 |" in captured.out


def test_cli_identity_unknown_name_exits_2():
    assert parse_and_run(["identity", "--names", "NO_SUCH"]) == 2


def test_cli_series(capsys):
    code = parse_and_run(["series", "--names", "S-ZETA2,S-PI3", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert "S-ZETA2" in captured.out and "S-PI3" in captured.out


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_series_tolerance_below_zero_exits_2(tol, capsys):
    """A negative tolerance would fail every series and exit 1, the
    counterexample status."""
    assert parse_and_run(["series", "--names", "S-ZETA2", "--tol", tol]) == 2
    assert capsys.readouterr().out == ""


def test_cli_bernoulli_prints_and_persists_cache(capsys):
    code = parse_and_run(["bernoulli", "--max", "12"])
    captured = capsys.readouterr()
    assert code == 0
    assert "B_12 = -691/2730" in captured.out


def test_cli_bernoulli_rejects_format():
    """`bernoulli` prints plain lines only, so a report format is a usage error."""
    assert parse_and_run(["bernoulli", "--max", "4", "--format", "json"]) == 2


def test_cli_bernoulli_rejects_negative_max(capsys):
    assert parse_and_run(["bernoulli", "--max", "-4"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_jobs_below_one_exits_2(capsys):
    for jobs in ("0", "-3"):
        assert parse_and_run(["verify", "--primes", "7:11", "--jobs", jobs]) == 2
        assert parse_and_run(["identity", "--n", "1:3", "--jobs", jobs]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--primes", "7:251", "--checks", "T1.1-1.1"],
    ["identity", "--names", "APERY,TELE1,BBAG", "--n", "1:5"],
])
def test_cli_jobs_default_to_the_cpus_this_process_may_use(argv, monkeypatch, fan_out_sizes,
                                                          capsys):
    """One allowed CPU runs the plain loop; three fan out over three
    workers, this process and two children.  7..251 holds three blocks'
    work."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parse_and_run(argv) == 0
    assert fan_out_sizes == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert parse_and_run(argv) == 0
    assert fan_out_sizes == [3]
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["2", "8"])
def test_cli_verify_in_one_block_imports_no_pool(jobs, tmp_path):
    """Three primes near 1000 run as one block in this process at any number
    of workers, which imports neither concurrent.futures nor
    multiprocessing, nor pickle; runs that fan out, of primes and of
    identities, import pickle but no pool, and no select."""
    code = ("import sys\n"
            "from congrlab.cli import parse_and_run\n"
            "def run(*argv):\n"
            "    status = parse_and_run([*argv, '--out', sys.argv[1]])\n"
            "    print(status, sorted({m.split('.')[0] for m in sys.modules}\n"
            "                         & {'concurrent', 'multiprocessing', 'pickle', 'select'}))\n"
            "run('verify', '--primes', '997:1013', '--jobs', sys.argv[2])\n"
            "run('verify', '--primes', '7:499', '--jobs', '2')\n"
            "run('identity', '--n', '1:40', '--jobs', '2')\n")
    src = os.path.dirname(os.path.dirname(congrlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report.json"), jobs],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "0 []\n0 ['pickle']\n0 ['pickle']\n"
    assert json.loads((tmp_path / "report.json").read_text())[-1]["summary"]["total"] > 0


def test_importing_the_package_loads_none_of_its_modules():
    """congrlab/__init__.py exports nothing: a caller imports the submodule
    that holds a name, and `import congrlab` alone loads no congrlab.*."""
    code = "import sys, congrlab; print([m for m in sys.modules if m.startswith('congrlab.')])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(congrlab.__file__)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout == "[]\n"


def test_available_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert available_cpus() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1


def test_cli_determinism_across_runs(tmp_path):
    texts = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        assert parse_and_run(["verify", "--primes", "7:19", "--checks",
                              "T1.1-1.1", "--format", "json",
                              "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        for row in rows:
            row.pop("elapsed_ms", None)
        texts.append(json.dumps(rows, sort_keys=True))
    assert texts[0] == texts[1]
