#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

    python3 perfbench/selftest.py

Checks that a seed fixes the benchmark's inputs, and the rules the report
rests on: nearest-rank percentiles and the choice of the tail percentile,
span self-time arithmetic, miss-cause attribution and the reconciliation
against the server's stats line. Run from the root of a checkout; the input
test builds perfbench_driver like run.py does.
"""

import filecmp
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 11))
        self.assertEqual(benchlib.nearest_rank(samples, 0.5), 5)
        self.assertEqual(benchlib.nearest_rank(samples, 0.9), 9)
        self.assertEqual(benchlib.nearest_rank(samples, 0.99), 10)
        self.assertEqual(benchlib.nearest_rank(samples, 0.0), 1)
        self.assertEqual(benchlib.nearest_rank([3.0], 0.99), 3.0)
        self.assertIsNone(benchlib.nearest_rank([], 0.5))
        # Order of the input does not matter.
        self.assertEqual(benchlib.nearest_rank([9, 1, 5, 3, 7], 0.5), 5)

    def test_highest_supported_percentile(self):
        cases = {19: None, 20: 0.5, 99: 0.75, 100: 0.9, 199: 0.9,
                 200: 0.95, 999: 0.95, 1000: 0.99, 10000: 0.999}
        for n, expected in cases.items():
            self.assertEqual(benchlib.highest_supported_percentile(n),
                             expected, n)
        self.assertEqual(benchlib.beyond(100, 0.9), 10)
        self.assertEqual(benchlib.percentile_label(0.999), "p99.9")
        self.assertEqual(benchlib.percentile_label(0.9), "p90")

    def test_spread(self):
        self.assertAlmostEqual(benchlib.spread([10, 10, 10, 10]), 0.0)
        # statistics.quantiles (exclusive): q1=1.5, q2=3, q3=4.5.
        self.assertAlmostEqual(benchlib.spread([1, 2, 3, 4, 5]), 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_span_tree(self):
        spans = {
            0: {"start": 0, "end": 100, "parent": -1},
            1: {"start": 10, "end": 30, "parent": 0},
            2: {"start": 20, "end": 40, "parent": 0},   # overlaps span 1
            3: {"start": 50, "end": 60, "parent": 0},
            4: {"start": 12, "end": 15, "parent": 1},
            5: {"start": 200, "end": 210, "parent": -1},  # another root
        }
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[0], 100 - 30 - 10)
        self.assertEqual(selfs[1], 20 - 3)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 3)
        self.assertEqual(selfs[5], 10)
        # Self times of a tree sum to the root's span when children nest.
        nested = {k: v for k, v in spans.items() if k not in (2, 5)}
        self.assertEqual(sum(benchlib.self_times(nested).values()), 100)


def rec(key, sent, recv, hit, ok=True):
    return {"key": key, "sent": sent, "recv": recv, "hit": hit, "ok": ok}


class MissCauseTest(unittest.TestCase):
    def test_scripted_sequence(self):
        records = [
            rec("a", 0, 10, False),    # first sight
            rec("a", 5, 12, False),    # a is being computed: duplicate
            rec("a", 20, 21, True),    # hit
            rec("a", 30, 40, False),   # a was served before: eviction
            rec("b", 31, 35, False),   # first sight
            rec("c", 50, 51, None, ok=False),   # failed: no cause
            rec("c", 52, 60, False),   # failed earlier, never served: first
            rec("d", 70, 90, True),    # hit in flight ...
            rec("d", 75, 95, False),   # ... so d was resident: eviction
        ]
        self.assertEqual(benchlib.classify_misses(records), [
            "first_sight", "duplicate", None, "eviction", "first_sight",
            None, "first_sight", None, "eviction"])

    def test_duplicate_wins_over_eviction(self):
        records = [rec("a", 0, 1, False), rec("a", 10, 30, False),
                   rec("a", 20, 31, False)]
        self.assertEqual(benchlib.classify_misses(records),
                         ["first_sight", "eviction", "duplicate"])


class ReconcileTest(unittest.TestCase):
    SERVER = {"served": "10", "failed": "0", "cache_hits": "4",
              "cache_misses": "6", "cache_evictions": "2",
              "cache_entries": "4/4"}

    def client(self, **overrides):
        c = {"ok": 10, "failed": 0, "hits": 4, "misses": 6,
             "duplicate_misses": 0, "eviction_misses": 1}
        c.update(overrides)
        return c

    def test_exact(self):
        self.assertEqual(benchlib.reconcile(self.client(), self.SERVER), [])

    def test_mismatches(self):
        self.assertEqual(len(benchlib.reconcile(self.client(hits=5),
                                                self.SERVER)), 1)
        self.assertEqual(len(benchlib.reconcile(self.client(eviction_misses=3),
                                                self.SERVER)), 1)
        server = dict(self.SERVER, cache_evictions="1")
        self.assertEqual(len(benchlib.reconcile(self.client(), server)), 1)
        # A duplicate miss may have replaced its key instead of inserting.
        self.assertEqual(benchlib.reconcile(
            self.client(duplicate_misses=1), server), [])


class SeedTest(unittest.TestCase):
    """The same seed gives byte-identical inputs; another seed does not."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = Path(tempfile.mkdtemp(dir=run.BUILD))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def make(self, name, seed):
        out = self.tmp / name
        run.run_checked([run.DRIVER, "collection", "--schemas=60",
                         f"--seed={seed}", f"--out={out / 'col'}"], "collection")
        run.run_checked([run.DRIVER, "requests", "--schemas=60", f"--seed={seed}",
                         "--queries=8", "--requests=200", "--zipf=1.0",
                         "--rate-qps=50", "--classes=interactive:3:300,batch:1:0",
                         "--target-mix=0,0.85,0.95", f"--out={out / 'q'}"],
                        "requests")
        return out

    def assertSameTree(self, a, b):
        cmp = filecmp.dircmp(a, b)
        self.assertFalse(cmp.left_only or cmp.right_only)
        _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                               shallow=False)
        self.assertEqual((mismatch, errors), ([], []))
        for sub in cmp.common_dirs:
            self.assertSameTree(a / sub, b / sub)

    def test_inputs(self):
        first = self.make("a", 5)
        again = self.make("b", 5)
        other = self.make("c", 6)
        self.assertSameTree(first, again)
        for rel in ("col/repo/schema-000000.xsd", "q/q0000.txt", "q/plan.tsv"):
            self.assertNotEqual((first / rel).read_bytes(),
                                (other / rel).read_bytes(), rel)


if __name__ == "__main__":
    unittest.main()
