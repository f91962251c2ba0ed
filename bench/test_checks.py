"""The benchmark's checks reject corrupted output.

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'

Each test runs one real operation of a workload, confirms that its output
passes, then corrupts one detail and confirms that the check refuses it.
"""

import copy
import json
import os
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import instances  # noqa: E402
import run  # noqa: E402
import tree  # noqa: E402
import workloads  # noqa: E402

API = run.load_engine()


def _op(ops, label):
    return next(op for op in ops if op.label == label)


def _edit(output, change):
    """A copy of a CLI output whose JSON payload went through `change`."""
    payload = json.loads(output["stdout"])
    change(payload)
    return {**output, "stdout": json.dumps(payload) + "\n"}


class NormalizeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ops = workloads.build_normalize(API, run.ROOT, seed=0)
        cls.fair = _op(ops, "fair spine depth 8")
        cls.outer = _op(ops, "outermost-fair spine depth 8")
        cls.fair_out = cls.fair.run()[1]
        cls.outer_out = cls.outer.run()[1]

    def test_real_output_passes(self):
        self.assertEqual(self.fair.check(self.fair_out), [])
        self.assertEqual(self.outer.check(self.outer_out), [])
        self.assertEqual(workloads.check_agreement([self.fair_out, self.outer_out]), [])

    def test_changed_symbol_in_approximant(self):
        bad = _edit(self.fair_out, lambda p: p.update(
            approximant=p["approximant"].replace("b", "a", 1)))
        self.assertTrue(self.fair.check(bad))
        self.assertTrue(workloads.check_agreement([bad, self.outer_out]))

    def test_rational_form_with_another_period(self):
        bad = _edit(self.fair_out, lambda p: p.update(
            rational_normal_form="rec S1. g(b, g(b, S1))"))
        self.assertTrue(self.fair.check(bad))

    def test_renamed_binder_is_accepted(self):
        ok = _edit(self.fair_out, lambda p: p.update(
            rational_normal_form="rec T. g(b, T)"))
        self.assertEqual(self.fair.check(ok), [])

    def test_wrong_stable_depth_or_status(self):
        self.assertTrue(self.fair.check(_edit(self.fair_out, lambda p: p.update(stable_depth=7))))
        self.assertTrue(self.fair.check(_edit(self.fair_out, lambda p: p.update(status="normal-form"))))

    def test_looping_redex(self):
        no_loop = _edit(self.fair_out, lambda p: p.update(
            steps=[s for s in p["steps"] if s["rule"] != "loop"]))
        self.assertTrue(self.fair.check(no_loop))
        looped = _edit(self.outer_out, lambda p: p["steps"].append(
            {"rule": "loop", "position": "2"}))
        self.assertTrue(self.outer.check(looped))

    def test_failed_command(self):
        self.assertTrue(self.fair.check({"exit": 1, "stdout": "", "stderr": "error"}))


class NeededChecks(unittest.TestCase):
    def test_needed_output(self):
        ops = workloads.build_needed(API, run.ROOT, seed=0)
        op = _op(ops, "needed-fair spine depth 3")
        out = op.run()[1]
        self.assertEqual(op.check(out), [])
        looped = _edit(out, lambda p: p["steps"].insert(0, {"rule": "loop", "position": "2"}))
        self.assertTrue(op.check(looped))
        shifted = _edit(out, lambda p: p.update(approximant="g(b, g(b, g(b, _|_)))"))
        self.assertTrue(op.check(shifted))


class CrosscheckChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        insts = instances.generate(0, 12)
        ops = workloads.build_crosscheck(API, run.ROOT, seed=0)[:12]
        # a finite term with a duplicating redex exercises every comparison
        cls.pairs = [(inst, op, op.run()[1]) for inst, op in zip(insts, ops)]
        cls.inst, cls.op, cls.out = next(
            (i, o, r) for i, o, r in cls.pairs if i.rec_free and r["essential"])

    def corrupt(self, key, value):
        bad = copy.deepcopy(self.out)
        bad[key] = value
        return self.op.check(bad)

    def test_real_outputs_pass(self):
        for _, op, out in self.pairs:
            self.assertEqual(op.check(out), [], op.label)

    def test_oracle_disagreements(self):
        self.assertTrue(self.corrupt("exhaustion", not self.out["finite_jumps"]))
        self.assertTrue(self.corrupt("exhaustion_all", not self.out["finite_jumps_all"]))
        self.assertTrue(self.corrupt("finals", self.out["finals"] + ["k"]))
        self.assertTrue(self.corrupt("finals", ["c1(" + self.out["finals"][0] + ")"]))
        self.assertTrue(self.corrupt("descendant_sets", 2))
        self.assertTrue(self.corrupt("phi_ok", False))
        self.assertTrue(self.corrupt("reaches_prefix", self.out["reaches_prefix"][1:]))

    def test_engine_targets(self):
        self.assertTrue(self.corrupt("target_term", "c2(" + self.out["target"] + ", k)"))
        self.assertTrue(self.corrupt("all_target", "c1(" + self.out["all_target"] + ")"))

    def test_alpha_equivalence_is_not_a_difference(self):
        self.assertTrue(tree.alpha_eq(tree.parse("[x] c2(x, rec R. c2(k, R))"),
                                      tree.parse("[y] c2(y, c2(k, rec Q. c2(k, Q)))")))
        self.assertFalse(tree.alpha_eq(tree.parse("[x] [y] c2(x, y)"),
                                       tree.parse("[x] [y] c2(y, x)")))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = [(i.system_text, i.term_text, i.redexes) for i in instances.generate(3, 40)]
        b = [(i.system_text, i.term_text, i.redexes) for i in instances.generate(3, 40)]
        self.assertEqual(a, b)
        labels = lambda s: [op.label for op in workloads.build_normalize(API, run.ROOT, s)]  # noqa: E731
        self.assertEqual(labels(5), labels(5))

    def test_cycles_are_never_nested(self):
        def nested(t, inside):
            if t[0] == "r":
                return inside or nested(t[2], True)
            if t[0] == "a":
                return nested(t[2], True)
            return t[0] == "s" and any(nested(a, inside) for a in t[2])

        generated = instances.generate(1, 200)
        self.assertTrue(any(tree.has_rec(i.tree) for i in generated))
        for inst in generated:
            self.assertFalse(nested(inst.tree, False), inst.term_text)

    def test_benchmark_json_names_the_workloads(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
