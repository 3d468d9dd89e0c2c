"""Tests for the benchmark's own pieces.

    python3 -m unittest discover ddbbench/tests
"""

import collections
import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import run as runner  # noqa: E402
from stats import latency_summary, percentile, spread  # noqa: E402
from workloads import Run, parse_oracle  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))  # 1..10
        self.assertEqual(percentile(values, 50), 5)   # rank ceil(5.0) = 5
        self.assertEqual(percentile(values, 90), 9)   # rank 9
        self.assertEqual(percentile(values, 91), 10)  # rank ceil(9.1) = 10
        self.assertEqual(percentile(values, 99), 10)
        self.assertEqual(percentile([7.0], 90), 7.0)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(percentile([3, 1, 2], 50), 2)

    def test_summary_reports_its_sample_count(self):
        summary = latency_summary([float(v) for v in range(200, 0, -1)])
        self.assertEqual(summary["n"], 200)
        self.assertEqual(summary["p50"], 100.0)
        self.assertEqual(summary["p90"], 180.0)
        self.assertEqual(summary["p99"], 198.0)
        self.assertEqual(summary["max"], 200.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_spread_uses_statistics_quartiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 10.2, 9.9, 10.1, 10.3, 9.8, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / q2)


class AnswerChecker(unittest.TestCase):
    def test_planted_wrong_answer_is_caught(self):
        run = Run("cli_ground")
        op = {"expect": "inferred", "cls": "8x32x5/gcwa/reach"}
        run.check(op, "inferred", 327)
        self.assertEqual(run.failures, [])
        run.check(op, "not inferred", 327)
        self.assertEqual(run.attempted, 2)
        self.assertEqual(len(run.failures), 1)
        self.assertIn("expected 'inferred'", run.failures[0])
        self.assertEqual(run.fail_frac(), 0.5)
        line = json.loads(runner.result_line(run, {}))
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 2, 1))

    def test_oracle_line_parses_and_garbage_does_not(self):
        self.assertEqual(parse_oracle("[oracle: 327 SAT calls, 99 candidates]\n"), (327, 99))
        self.assertIsNone(parse_oracle("error: unknown atom"))

    def test_generator_answers_flip_between_churn_versions(self):
        entries = gen.catalog(1)
        rounds, reads = gen.churn_plan(1, 2, entries)
        by_entry = collections.defaultdict(list)
        for load, query in rounds:
            self.assertEqual(load["request"]["db"], query["request"]["db"])
            by_entry[query["request"]["db"]].append(query["expect"])
        for answers in by_entry.values():
            self.assertGreater(len(answers), 1)
            for older, newer in zip(answers, answers[1:]):
                self.assertNotEqual(older, newer)
        self.assertEqual(len(reads), len(rounds) * gen.READS_PER_ROUND)


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(gen.cli_plan(7, 5), gen.cli_plan(7, 5))
        self.assertEqual(gen.hot_plan(7, 2, gen.catalog(7)), gen.hot_plan(7, 2, gen.catalog(7)))
        self.assertEqual(gen.churn_plan(7, 2, gen.catalog(7)), gen.churn_plan(7, 2, gen.catalog(7)))

    def test_two_seeds_same_composition_different_constants(self):
        for plan in (
            lambda s: gen.cli_plan(s, 5),
            lambda s: gen.hot_plan(s, 2, gen.catalog(s)),
            lambda s: [op for pair in gen.churn_plan(s, 2, gen.catalog(s))[0] for op in pair]
            + gen.churn_plan(s, 2, gen.catalog(s))[1],
        ):
            a, b = plan(1), plan(2)
            self.assertEqual(collections.Counter(op["cls"] for op in a),
                             collections.Counter(op["cls"] for op in b))
            self.assertEqual(collections.Counter(op["expect"] for op in a),
                             collections.Counter(op["expect"] for op in b))
            text = lambda ops: [json.dumps(op.get("request", op.get("source")), sort_keys=True)
                                for op in ops]
            self.assertNotEqual(sorted(text(a)), sorted(text(b)))

    def test_renaming_preserves_the_order_of_constants(self):
        def names(seed):
            n = gen.Names(gen.rng_for(seed, "t"))
            return [n("c", i, 2) for i in range(12)] + [n("n", i) for i in range(40)]
        a, b = names(1), names(2)
        self.assertNotEqual(a, b)
        rank = lambda xs: sorted(range(len(xs)), key=xs.__getitem__)
        self.assertEqual(rank(a), rank(b))

    def test_the_program_text_is_the_only_seeded_part_of_a_shape(self):
        strip = lambda src: [line.count(",") for line in src.splitlines()]
        a = gen.chains_program(gen.Names(gen.rng_for(1, "x")), 3, 4, 2)
        b = gen.chains_program(gen.Names(gen.rng_for(2, "x")), 3, 4, 2)
        self.assertNotEqual(a, b)
        self.assertEqual(strip(a), strip(b))

    def test_fixed_work_scales_with_seconds_only(self):
        self.assertEqual(len(gen.cli_plan(1, 15)), len(gen.cli_plan(9, 15)))
        self.assertLess(len(gen.cli_plan(1, 5)), len(gen.cli_plan(1, 15)))


class BaselineDiff(unittest.TestCase):
    BOUNDS = {"latency_p50_ms": ("lower", 0.1), "ops_per_s": ("higher", 0.1)}

    def stored(self):
        return {
            "latency_p50_ms": {"value": 10.0, "unit": "ms"},
            "ops_per_s": {"value": 100.0, "unit": "1/s"},
            "oracle_calls_per_op": {"value": 117.0, "unit": "count"},
        }

    def test_identical_runs_match(self):
        self.assertEqual(runner.compare(self.stored(), self.stored(), self.BOUNDS), [])

    def test_within_bound_matches(self):
        fresh = self.stored()
        fresh["latency_p50_ms"]["value"] = 10.9
        fresh["ops_per_s"]["value"] = 91.0
        self.assertEqual(runner.compare(fresh, self.stored(), self.BOUNDS), [])

    def test_worse_than_bound_or_different_count_mismatches(self):
        fresh = self.stored()
        fresh["latency_p50_ms"]["value"] = 11.5
        fresh["ops_per_s"]["value"] = 85.0
        fresh["oracle_calls_per_op"]["value"] = 118.0
        problems = runner.compare(fresh, self.stored(), self.BOUNDS)
        self.assertEqual(len(problems), 3)

    def test_missing_metric_mismatches(self):
        fresh = self.stored()
        del fresh["ops_per_s"]
        self.assertEqual(len(runner.compare(fresh, self.stored(), self.BOUNDS)), 1)


if __name__ == "__main__":
    unittest.main()
