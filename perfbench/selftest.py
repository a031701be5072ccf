"""Self-tests of the benchmark: python3 perfbench/selftest.py (from the repo root)."""
import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        pct, value = run.tail(range(60, 0, -1))
        self.assertAlmostEqual(pct, 100 * 50 / 60)
        self.assertAlmostEqual(value, 50.5, delta=0.5)  # near the 50th of 1..60
        self.assertAlmostEqual(run.tail(range(11))[0], 100 / 11)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail(range(10))

    def test_quantile_estimate(self):
        self.assertAlmostEqual(run.quantile([7.0] * 25, 0.9), 7.0)
        self.assertAlmostEqual(run.quantile(range(101), 0.5), 50.0)
        # one outlier moves a high quantile only part of the way
        xs = list(range(100)) + [10_000]
        self.assertLess(run.quantile(xs, 0.9), 200)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        S = tracing.Span
        spans = [
            S("onestep.to_basic_form", None, 0.0, 10.0, {"out_disjuncts": 3}),
            S("automata.classify_automaton", 0, 1.0, 4.0),
            S("onestep.to_basic_form", 1, 2.0, 3.0, {"out_disjuncts": 2}),
            S("paritygame.solve", 0, 5.0, 9.0, {"positions": 7}),
            S("paritygame.solve", None, 12.0, 14.0, {"positions": 5}),
        ]
        out = tracing.summarize(spans, wall_s=20.0)
        self.assertEqual(out["onestep.to_basic_form.calls"], 2)
        self.assertAlmostEqual(out["onestep.to_basic_form.self_s"], (10 - 3 - 4) + 1)
        self.assertAlmostEqual(out["onestep.to_basic_form.max_call_s"], 10.0)
        self.assertEqual(out["onestep.to_basic_form.out_disjuncts"], 5)
        self.assertAlmostEqual(out["automata.classify_automaton.self_s"], 2.0)
        self.assertAlmostEqual(out["paritygame.solve.self_s"], 6.0)
        self.assertEqual(out["paritygame.solve.positions"], 12)
        self.assertAlmostEqual(out["trace.covered_share"], 12 / 20)

    def test_distinct_share(self):
        S = tracing.Span
        spans = [S("onestep.min_valuations", None, 0, 1, {"keys": k}) for k in "aaba"]
        self.assertAlmostEqual(tracing.summarize(spans, 4.0)["onestep.min_valuations.distinct_share"], 0.5)


class SpeedAdjustment(unittest.TestCase):
    @staticmethod
    def ticks(loop_s):
        ticks = [(0.2 * k, 0.2 * k + loop_s) for k in range(11)]
        return ticks, [s for s, _ in ticks]

    def test_probe_time_removed_and_speed_scaled(self):
        ticks, starts = self.ticks(2 * speed.NOMINAL_S)  # host at half speed
        # ticks starting at 0.2 .. 1.0 fall inside [0.1, 1.1]
        work = 1.0 - 5 * 2 * speed.NOMINAL_S
        self.assertAlmostEqual(speed.adjust(ticks, starts, 0.1, 1.1), work / 2)
        # a probe that began before the span and ran into it
        work = 0.097 - (2 * speed.NOMINAL_S - 0.003)
        self.assertAlmostEqual(speed.adjust(ticks, starts, 0.003, 0.1), work / 2)

    def test_nominal_speed_leaves_time_unchanged(self):
        ticks, starts = self.ticks(speed.NOMINAL_S)
        self.assertAlmostEqual(speed.adjust(ticks, starts, 0.05, 0.15), 0.1)

    def test_span_far_from_probes_uses_nearest(self):
        ticks = [(0.0, 0.007), (10.0, 10.0 + speed.NOMINAL_S)]
        starts = [0.0, 10.0]
        self.assertAlmostEqual(speed.adjust(ticks, starts, 8.0, 9.0), 1.0)

    def test_probe_samples_while_started(self):
        p = speed.Probe()
        p.start()
        try:
            while len(p.ticks) < 3:
                speed.loop()
        finally:
            p.stop()
        self.assertGreater(p.spent, 0.0)
        self.assertLess(p.clock(), time.perf_counter())


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({(m["name"], m["unit"]) for m in bench["end_to_end"]}, set(run.E2E))
        layers = {(m["name"], m["unit"]) for m in bench["per_layer"]}
        self.assertEqual({n for n, _ in layers}, set(tracing.metric_names()))
        self.assertEqual(len(layers), len(tracing.metric_names()))


class Tracing(unittest.TestCase):
    def test_install_patches_every_binding_and_uninstall_restores(self):
        import muaut.automata.core as core
        import muaut.paritygame as pg
        original = pg.solve
        t = tracing.Tracer()
        t.install()
        try:
            self.assertIsNot(core.solve, original)
            self.assertIs(core.solve, pg.solve)
        finally:
            t.uninstall()
        self.assertIs(core.solve, original)
        self.assertIs(pg.solve, original)

    def test_games_makes_no_normal_form_call(self):
        layers = run.child("games", 1, "--trace")["layers"]
        self.assertEqual(layers["onestep.to_basic_form.calls"], 0)
        self.assertGreater(layers["automata.acceptance_game.calls"], 0)
        self.assertGreater(layers["paritygame.solve.calls"], 0)


if __name__ == "__main__":
    unittest.main()
