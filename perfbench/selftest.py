"""Self-test of the benchmark's input generator, expected tables and tracer.

    python3 perfbench/selftest.py
"""

import json
import os
import re
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    BENCHMARKED,
    RADON_JET_BOX,
    USER_B_OVER_5_MAX_DENOMINATOR,
    USER_ODE_FILE,
    WORKLOADS,
    make_inputs,
)

SEEDS = range(500)
_RHS = re.compile(r"^rhs\s*=\s*-\((?P<a>[^)]*)\)\*r\^3/q\^2 \+ 5\*r\*s/q \+ \((?P<b>[^)]*)\)\*s\^2/r$",
                  re.MULTILINE)


def _user_coefficients(seed):
    _, files = make_inputs("user-pentad", seed)
    m = _RHS.search(files[USER_ODE_FILE])
    return Fraction(m["a"]), Fraction(m["b"])


def _radon_jet(seed):
    argv, _ = make_inputs("conics5-radon", seed)
    point = argv[argv.index("--point") + 1]
    return {k: float(v) for k, v in (item.split("=") for item in point.split(","))}


class InputGenerator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            for seed in (0, 1, 12345):
                self.assertEqual(make_inputs(name, seed), make_inputs(name, seed))

    def test_other_seed_other_inputs(self):
        for name in WORKLOADS:
            argvs = {tuple(make_inputs(name, seed)[0]) for seed in range(20)}
            self.assertEqual(len(argvs), 20, name)
        texts = {make_inputs("user-pentad", seed)[1][USER_ODE_FILE] for seed in range(20)}
        self.assertEqual(len(texts), 20)

    def test_program_sees_only_generated_inputs(self):
        for name in WORKLOADS:
            argv, files = make_inputs(name, 7)
            self.assertNotIn("--json", argv)
            for fname in files:
                self.assertIn(fname, argv)

    def test_user_rhs_coefficients(self):
        for seed in SEEDS:
            a, b = _user_coefficients(seed)
            self.assertNotEqual(b, 0, seed)
            self.assertLessEqual((b / 5).denominator, USER_B_OVER_5_MAX_DENOMINATOR, seed)
            self.assertGreater(a, 0, seed)

    def test_radon_jets_in_box(self):
        for seed in SEEDS:
            jet = _radon_jet(seed)
            self.assertEqual(list(jet), [name for name, _, _ in RADON_JET_BOX])
            for name, lo, hi in RADON_JET_BOX:
                self.assertTrue(lo <= jet[name] <= hi, (seed, name, jet[name]))


class ExpectedTables(unittest.TestCase):
    def test_tables(self):
        sizes = {"conics5-all": 65, "gn5-geom": 12, "conics5-radon": 16, "user-pentad": 6}
        for name, w in WORKLOADS.items():
            names = [n for n, _ in w.expected]
            self.assertEqual(names, sorted(set(names)), name)
            self.assertEqual(len(names), sizes[name], name)
        failing = [n for n, s in WORKLOADS["user-pentad"].expected if s == "fail"]
        self.assertEqual(failing, ["residual_identity_1", "residual_identity_2",
                                   "residual_identity_3"])

    def test_gate(self):
        expected = dict(WORKLOADS["user-pentad"].expected)
        rows = [{"name": n, "status": s} for n, s in expected.items()]
        ok = {"error": None, "exit": 1, "text": json.dumps(rows)}
        self.assertEqual(run.check_report(ok, expected), ([], 0))
        self.assertEqual(run.check_report(dict(ok, exit=2), expected)[1], 6)
        lost = dict(ok, text=json.dumps(rows[1:]))
        self.assertEqual(len(run.check_report(lost, expected)[0]), 1)
        flipped = [dict(r, status="pass") for r in rows]
        self.assertEqual(run.check_report(dict(ok, text=json.dumps(flipped)), expected),
                         (["exit 1 disagrees with the check statuses"], 3))


class BenchmarkFile(unittest.TestCase):
    def test_matches_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]},
                         {n: WORKLOADS[n].why for n in BENCHMARKED})
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)


class Tracer(unittest.TestCase):
    def test_self_and_total_times(self):
        # a(0..100) > b(10..60) > a(20..30); c(70..90) under the outer a
        trace = {
            "names": ["cli.pentad_suite", "expr.diff", "expr.topo_order"],
            "spans": [(0, 0, 100, -1), (1, 10, 60, 0), (0, 20, 30, 1), (2, 70, 90, 0)],
            "counts": {"expr.diff_nodes_visited": 7},
        }
        out = spans.aggregate(trace)
        self.assertEqual(out["cli.pentad_suite_s"], 100e-9)   # outermost call only
        self.assertEqual(out["expr.diff_s"], 40e-9)
        self.assertEqual(out["expr.topo_order_s"], 20e-9)
        self.assertEqual(out["expr.topo_order_calls"], 1)
        self.assertEqual(out["expr.diff_nodes_visited"], 7)

    def test_install_patches_every_binding(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import odegeom.cli  # noqa: F401

        originals = {}
        for name, module_name, attr in spans.TARGETS:
            if "." not in attr:
                originals[name] = getattr(sys.modules[module_name], attr)
        spans.Tracer().install()
        for mod_name, mod in sys.modules.items():
            if mod_name.startswith("odegeom"):
                for key, value in vars(mod).items():
                    for name, orig in originals.items():
                        self.assertIsNot(value, orig, f"{mod_name}.{key} still untraced")


if __name__ == "__main__":
    unittest.main()
