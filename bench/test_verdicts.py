"""Checks of the benchmark's verdict comparison.

    python3 -m unittest discover -s bench
"""

import json
import unittest
from time import perf_counter

import run
import verdicts

EXPECTED_ROWS = {"proven-sweep": 3772, "dual-path": 2650, "large-prime": 123,
                 "identity-suite": 1800}


class TamperedVerdicts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        child = run.spawn(run.cli_cmd(["verify", "--primes", "7:13"]), perf_counter() + 60)
        cls.report = child.stdout
        cls.reference = {"exit": child.exit, "rows": verdicts.report_digests(child.stdout)}
        cls.n = len(cls.reference["rows"])

    def tampered(self, change):
        rows = json.loads(self.report)
        change(rows)
        return json.dumps(rows)

    def test_untouched_report_matches(self):
        self.assertEqual(verdicts.count_failed(self.reference, self.report, 0), (self.n, 0))

    def test_one_flipped_verdict_fails(self):
        def flip(rows):
            rows[0]["pass"] = not rows[0]["pass"]
        attempted, failed = verdicts.count_failed(self.reference, self.tampered(flip), 0)
        self.assertEqual((attempted, failed), (self.n, 1))

    def test_one_changed_residue_fails(self):
        def bump(rows):
            rows[5]["rhs"] += 1
        self.assertEqual(verdicts.count_failed(self.reference, self.tampered(bump), 0)[1], 1)

    def test_dropped_row_fails(self):
        def drop(rows):
            del rows[3]
        self.assertEqual(verdicts.count_failed(self.reference, self.tampered(drop), 0), (self.n, 1))

    def test_timings_and_notes_are_ignored(self):
        def retime(rows):
            for row in rows[:-1]:
                row["elapsed_ms"] = 0.0
                row["note"] = "x"
        self.assertEqual(verdicts.count_failed(self.reference, self.tampered(retime), 0)[1], 0)

    def test_unexpected_exit_status_fails_every_row(self):
        self.assertEqual(verdicts.count_failed(self.reference, self.report, 1), (self.n, self.n))

    def test_unparsable_report_fails_every_row(self):
        self.assertEqual(verdicts.count_failed(self.reference, "Traceback", 0), (self.n, self.n))


class RecordedReferences(unittest.TestCase):
    def test_every_seed_input_has_a_passing_reference(self):
        for workload, argv_of in run.WORKLOADS.items():
            for seed in range(len(run.LARGE_PRIME_WINDOWS)):
                ref = verdicts.load_reference(workload, argv_of(seed))
                self.assertEqual(ref["exit"], 0)
                self.assertEqual(len(ref["rows"]), EXPECTED_ROWS[workload])
                self.assertEqual(ref["summary"]["path_disagreements"], 0)
                proven = ref["summary"]["by_status"].get("proven", {})
                self.assertEqual(proven.get("failed", 0), 0)

    def test_unrecorded_input_is_refused(self):
        with self.assertRaises(LookupError):
            verdicts.load_reference("large-prime", ["verify", "--primes", "7:13"])


if __name__ == "__main__":
    unittest.main()
