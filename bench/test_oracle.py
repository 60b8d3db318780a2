"""Tests of the benchmark's own oracles on hand-worked cases.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import random
import sys
import unittest

import gen
import oracle as o
from oracle import fun, numeral

A, B, C = fun("a"), fun("b"), fun("c")
ACK = [
    (fun("ack", fun("0"), "n"), fun("s", "n")),
    (fun("ack", fun("s", "m"), fun("0")), fun("ack", "m", fun("s", fun("0")))),
    (fun("ack", fun("s", "m"), fun("s", "n")), fun("ack", "m", fun("ack", fun("s", "m"), "n"))),
]
PLUS = [
    (fun("plus", fun("0"), "y"), "y"),
    (fun("plus", fun("s", "x"), "y"), fun("s", fun("plus", "x", "y"))),
]
TIMES = PLUS + [
    (fun("times", fun("0"), "y"), fun("0")),
    (fun("times", fun("s", "x"), "y"), fun("plus", fun("times", "x", "y"), "y")),
]


class Arithmetic(unittest.TestCase):
    def test_ackermann_values_and_steps(self):
        self.assertEqual(o.ack(0, 7), (8, 1))
        self.assertEqual(o.ack(1, 0), (2, 2))  # ack(1,0) -> ack(0,1) -> 2
        self.assertEqual(o.ack(2, 10), (23, 275))
        self.assertEqual(o.ack(3, 3), (61, 2432))

    def test_plus_and_times(self):
        self.assertEqual(o.plus(2, 3), (5, 3))
        # times(2,y) -> plus(times(1,y),y) -> plus(plus(times(0,y),y),y)
        # -> plus(plus(0,y),y) -> plus(y,y), then 3 + 1 steps of plus.
        self.assertEqual(o.times(2, 3), (6, 8))
        self.assertEqual(o.times(0, 9), (0, 1))

    def test_evaluator_agrees_with_innermost_rewriting(self):
        cases = [(ACK, "ack", o.ack, 2, 3), (ACK, "ack", o.ack, 3, 1), (PLUS, "plus", o.plus, 4, 2),
                 (TIMES, "times", o.times, 3, 4)]
        for rules, name, evaluate, m, n in cases:
            value, steps = evaluate(m, n)
            t, k, done = o.normalize(rules, fun(name, numeral(m), numeral(n)), 10_000)
            self.assertEqual((o.numeral_value(t), k, done), (value, steps, True), (name, m, n))


class Unification(unittest.TestCase):
    def test_most_general_unifier(self):
        s, t = fun("f", "x", fun("g", "y")), fun("f", fun("g", "z"), "x")
        sigma = o.unify(s, t)
        self.assertTrue(o.equal(o.apply(sigma, s), o.apply(sigma, t)))
        self.assertEqual(len(sigma), 2)  # x and one of y, z: nothing more is bound

    def test_occurs_check_and_clash(self):
        self.assertIsNone(o.unify("x", fun("f", "x")))
        self.assertIsNone(o.unify(fun("f", A), fun("g", A)))
        self.assertIsNone(o.unify(fun("f", "x", "x"), fun("f", A, B)))
        self.assertEqual(o.unify("x", "x"), {})


class Overlaps(unittest.TestCase):
    def test_self_overlap_below_the_root(self):
        rules = [(fun("f", fun("f", "x")), fun("f", "x"))]
        (j, p, i, peak, left, right), = o.overlaps(rules)
        self.assertEqual((j, p, i), (0, (0,), 0))
        self.assertEqual([o.render(t) for t in o.canonical([peak, left, right])],
                         ["f(f(f(x1)))", "f(f(x1))", "f(f(x1))"])

    def test_root_overlaps_both_ways_and_scopes(self):
        rules = [(fun("f", "x"), "x"), (fun("f", "x"), fun("g", "x"))]
        self.assertEqual([ov[:3] for ov in o.overlaps(rules)], [(0, (), 1), (1, (), 0)])
        self.assertEqual(o.overlaps(rules, "inner"), [])
        self.assertEqual(len(o.overlaps(rules, "outer")), 2)

    def test_verdicts(self):
        clash = [(fun("f", A), B), (A, C)]
        verdict = o.local_confluence(clash, 10)
        self.assertEqual(verdict[0], "NO")
        self.assertEqual((o.render(verdict[2]), o.render(verdict[3])), ("f(c)", "b"))
        joins = [(A, B), (A, C), (B, fun("d")), (C, fun("d"))]
        self.assertEqual(o.local_confluence(joins, 10), ("YES",))
        loop = [(A, fun("f", A)), (A, B)]
        self.assertEqual(o.local_confluence(loop, 50), ("MAYBE", 2))


class Matching(unittest.TestCase):
    def test_nonlinear_patterns(self):
        self.assertEqual(o.match(fun("f", "x", "x"), fun("f", A, A)), {"x": A})
        self.assertIsNone(o.match(fun("f", "x", "x"), fun("f", A, B)))
        self.assertIsNone(o.match(fun("f", A), fun("f", "x")))

    def test_reducts_and_normal_forms(self):
        rules = [(A, B), (fun("f", "x"), C)]
        t = fun("g", fun("f", A), A)
        self.assertEqual([(p, i) for p, i, _ in o.reducts(rules, t)], [((0,), 1), ((0, 0), 0), ((1,), 0)])
        self.assertTrue(o.is_reduct(rules, t, fun("g", C, A)))
        self.assertFalse(o.is_reduct(rules, t, fun("g", C, B)))
        self.assertFalse(o.is_normal_form(rules, t))
        self.assertTrue(o.is_normal_form(rules, fun("g", C, B)))

    def test_leftmost_innermost(self):
        rules = [(A, B), (fun("f", "x"), C)]
        self.assertTrue(o.equal(o.innermost_step(rules, fun("g", fun("f", A), A)), fun("g", fun("f", B), A)))
        self.assertIsNone(o.innermost_step(rules, fun("g", B)))


class DeepTerms(unittest.TestCase):
    """Every check must hold far past Python's recursion limit."""

    def test_deep_terms_at_the_default_limit(self):
        n = 20 * sys.getrecursionlimit()
        t, u = numeral(n), numeral(n)
        self.assertTrue(o.equal(t, u))
        self.assertFalse(o.equal(t, numeral(n - 1)))
        self.assertEqual(o.numeral_value(t), n)
        self.assertEqual(o.render(t), "s(" * n + "0" + ")" * n)
        self.assertEqual(o.depth(t), n)
        self.assertTrue(o.is_normal_form(PLUS, t))
        self.assertEqual(o.match(fun("plus", fun("0"), "y"), fun("plus", fun("0"), t)), {"y": t})

    def test_json_and_shared_sizes(self):
        doc = {"fun": "f", "args": [{"var": "x"}, {"fun": "a", "args": []}]}
        self.assertTrue(o.equal(o.from_json(doc), fun("f", "x", A)))
        t = A
        for _ in range(30):
            t = fun("p", t, t)
        self.assertEqual(o.tree_size(t), 2 ** 31 - 1)
        self.assertEqual(o.dag_nodes(t), 31)


class Generators(unittest.TestCase):
    def test_decreasing_rules_shrink_terms(self):
        rng = random.Random(7)
        for lhs, rhs in gen.decreasing_system(rng, 200, 40):
            self.assertFalse(o.is_var(lhs))
            self.assertLess(o.tree_size(rhs), o.tree_size(lhs))
            self.assertLessEqual(o.depth(lhs), 3)
            for v in set(o.variables(rhs)):
                self.assertLessEqual(o.variables(rhs).count(v), o.variables(lhs).count(v))


if __name__ == "__main__":
    unittest.main()
