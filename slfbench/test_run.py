#!/usr/bin/env python3
"""Tests of the benchmark's own rules. Run: python3 slfbench/test_run.py"""

import json
import os
import re
import statistics
import unittest
from types import SimpleNamespace
from unittest import mock

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class PercentileRule(unittest.TestCase):
    def test_p80_keeps_ten_jobs_beyond_it_on_every_workload(self):
        # fig5: 60 jobs; screen: 60 screened + 2 exact re-runs; fig6: 80.
        for n in (60, 62, 80):
            samples = [float(i) for i in range(n)]
            value, beyond = run.tail_percentile(samples)
            self.assertGreaterEqual(beyond, run.TAIL_SAMPLES)
            self.assertEqual(beyond, sum(1 for x in samples if x > value))

    def test_short_tail_is_refused(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([float(i) for i in range(49)])

    def test_nearest_rank(self):
        self.assertEqual(run.percentile([5, 1, 3], 50), (3, 1))
        self.assertEqual(run.percentile([7], 80), (7, 0))


class PaperErr(unittest.TestCase):
    # Class averages of normalized IPC from EXPERIMENTS.md.
    def test_fig5_table(self):
        # ENF int 1.004, fp 0.999 against the paper's ~0.99-1.00.
        self.assertAlmostEqual(run.paper_err("fig5", 1.004, 0.999), 0.0065)

    def test_fig6_table(self):
        # ENF(total) int 0.941, fp 0.988 against ~0.91 and ~1.02.
        self.assertAlmostEqual(run.paper_err("fig6", 0.941, 0.988), 0.0315)

    def test_screen_uses_the_fig5_figure(self):
        self.assertEqual(run.paper_err("screen", 1.004, 0.999),
                         run.paper_err("fig5", 1.004, 0.999))


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.3]
        med, q1, q3, sp = run.spread(values)
        qs = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (qs[0], qs[2]))
        self.assertAlmostEqual(sp, (qs[2] - qs[0]) / statistics.median(values))
        self.assertEqual(med, statistics.median(values))


class EndToEnd(unittest.TestCase):
    def raw(self):
        # Three repetitions of a 50-job workload: job j takes j+1 ms at
        # the reference speed, and the host ran the repetitions 1.0, 3.0
        # and 1.2 times slower, the reference passes around them too.
        reps = []
        for slow in (1.0, 3.0, 1.2):
            reps.append({
                "wall_s": 2.0 * slow, "cpu_s": 4.0 * slow,
                "insts": 5000, "cycles": 9000,
                "job_ms": [slow * (j + 1) for j in range(50)],
                "job_cpu_ms": [slow * (j + 1) for j in range(50)],
                "job_ref_ms": [slow * run.REF_MS] * 50})
        return {"workload": "fig5", "reps": reps,
                "setup_s": [0.3, 0.1, 0.2],
                "setup_ref_ms": [run.REF_MS, 2 * run.REF_MS, run.REF_MS],
                "peak_rss_kb": 2048, "attempted": 150, "failed": 0,
                "norm_ipc": {"int": 1.004, "fp": 0.999}}

    def test_host_times_are_scaled_to_the_reference_speed(self):
        with mock.patch.object(run, "log"):
            m = run.end_to_end(self.raw())
        self.assertAlmostEqual(m["wall_s"], 2.0)
        self.assertAlmostEqual(m["kips_cpu"], 15000 / (3 * 1275))
        self.assertAlmostEqual(m["job_ms_p50"], 25)
        self.assertAlmostEqual(m["job_ms_p80"], 40)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["sim_mcycles"], 0.009)

    def test_job_times_are_means_over_the_repetitions(self):
        raw = self.raw()
        for r in raw["reps"]:
            r["job_ref_ms"] = [run.REF_MS] * 50
        with mock.patch.object(run, "log"):
            m = run.end_to_end(raw)
        # Unscaled, the slow repetition enters each job's mean.
        self.assertAlmostEqual(m["job_ms_p50"], 5.2 / 3 * 25)
        self.assertAlmostEqual(m["wall_s"], 2.4)

    def test_cycles_must_repeat(self):
        raw = self.raw()
        raw["reps"][1]["cycles"] += 1
        with mock.patch.object(run, "log"), self.assertRaises(RuntimeError):
            run.end_to_end(raw)


class Seeds(unittest.TestCase):
    class Captured(Exception):
        pass

    def pair(self, **kw):
        """(wseed, root_seed) that run_once hands to the harness."""
        args = SimpleNamespace(workload="fig5", seed=1, wseed=None,
                               heldout=False, seconds=1, trace=0)
        vars(args).update(kw)

        def harness(exe, workload, wseed, root_seed, seconds, trace):
            raise self.Captured((wseed, root_seed))

        with mock.patch.object(run, "run_harness", harness):
            with self.assertRaises(self.Captured) as cm:
                run.run_once(args, "exe")
        return cm.exception.args[0]

    def test_seed_selects_the_root_seed_only(self):
        # Every --seed simulates the same programs, so sim_mcycles and
        # paper_err are exact across the runs a bound is checked on.
        self.assertEqual(self.pair(seed=1), (run.BENCH_WSEED, 1))
        self.assertEqual(self.pair(seed=7), (run.BENCH_WSEED, 7))

    def test_wseed_and_heldout(self):
        self.assertEqual(self.pair(seed=3, wseed=9), (9, 3))
        self.assertEqual(self.pair(seed=3, heldout=True), run.HELDOUT_PAIR)
        self.assertNotEqual(run.HELDOUT_PAIR[0], run.BENCH_WSEED)

    def test_spread_mode_repeats_one_seed_pair(self):
        seeds = []

        def once(args, exe):
            seeds.append((args.seed, args.wseed))
            return {"correct": True, "metrics": {
                "wall_s": {"value": 1.0 + len(seeds), "unit": "s"}}}

        args = SimpleNamespace(workload="fig5", seed=4, wseed=None,
                               spread=3, trace=0)
        with mock.patch.object(run, "run_once", once), \
                mock.patch("builtins.print"):
            self.assertTrue(run.spread_mode(args, "exe"))
        self.assertEqual(seeds, [(4, None)] * 3)


class MetricNames(unittest.TestCase):
    def test_names_and_units_use_the_allowed_characters(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)

    def test_self_times_are_layer_metrics(self):
        self.assertTrue(set(run.SELF_TIMES) <= set(run.PER_LAYER))


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.REPO_ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "slfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["slfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(tuple(names), run.MEASURED)
        self.assertTrue(set(run.MEASURED) <= set(run.WORKLOADS))
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_end_to_end_lists_exactly_the_reported_metrics(self):
        listed = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(listed, run.END_TO_END)
        bounds = {}
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            bounds[m["name"]] = m["bound"]
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer_lists_exactly_the_reported_metrics(self):
        listed = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(listed, run.PER_LAYER)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()
