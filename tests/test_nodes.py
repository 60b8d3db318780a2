"""The contract of the term nodes `Var`, `Fun` and `TaggedVar`, and of
`Rule` and `CriticalPair`: frozen, slotted values that pickle, copy and
compare as the dataclasses they are.

Standard library only, so that it runs under every supported interpreter:

    PYTHONPATH=src python3 -m unittest discover -s tests -p 'test_nodes.py'
"""

import copy
import dataclasses
import pickle
import unittest
from dataclasses import FrozenInstanceError

from trskit.criticalpairs import CriticalPair
from trskit.rule import Rule, TaggedVar
from trskit.term import Fun, Var


class TupleSubclass(tuple):
    pass


def samples():
    x = Var("x")
    tagged = TaggedVar("L", "x")
    return [x, Fun("a"), Fun("f", (x, Fun("g", (x,)))), tagged, Var(tagged)]


class FrozenTest(unittest.TestCase):
    def test_assignment_raises(self):
        cases = [(Var("x"), "name"), (Fun("f"), "symbol"), (Fun("f"), "args"), (TaggedVar("L", "x"), "side")]
        for node, field in cases:
            with self.subTest(node=node, field=field):
                with self.assertRaises(FrozenInstanceError):
                    setattr(node, field, "y")
                with self.assertRaises(FrozenInstanceError):
                    delattr(node, field)
                with self.assertRaises(FrozenInstanceError):
                    node.other = 1

    def test_no_instance_dict(self):
        for node in samples():
            with self.subTest(node=node):
                self.assertFalse(hasattr(node, "__dict__"))


class ConstructionTest(unittest.TestCase):
    def test_args_become_an_exact_tuple(self):
        x = Var("x")
        for args in ([x, x], (a for a in (x, x)), TupleSubclass((x, x)), (x, x)):
            with self.subTest(args=type(args).__name__):
                t = Fun("f", args)
                self.assertIs(type(t.args), tuple)
                self.assertEqual(t.args, (x, x))

    def test_tuple_args_are_kept(self):
        args = (Var("x"),)
        self.assertIs(Fun("f", args).args, args)

    def test_keywords(self):
        x = Var(name="x")
        self.assertEqual(Fun(symbol="f", args=[x]), Fun("f", (x,)))
        self.assertEqual(Fun(symbol="a"), Fun("a", ()))
        self.assertEqual(TaggedVar(side="L", base="x"), TaggedVar("L", "x"))
        self.assertEqual(x, Var("x"))


class CopyTest(unittest.TestCase):
    def test_pickle_and_copy_round_trip(self):
        for node in samples():
            for name, clone in [
                ("pickle", lambda t: pickle.loads(pickle.dumps(t))),
                ("copy", copy.copy),
                ("deepcopy", copy.deepcopy),
            ]:
                with self.subTest(node=node, via=name):
                    other = clone(node)
                    self.assertIs(type(other), type(node))
                    self.assertEqual(other, node)
                    self.assertEqual(hash(other), hash(node))
                    self.assertEqual(repr(other), repr(node))


class EqualityTest(unittest.TestCase):
    def test_var_and_fun_of_one_name_differ(self):
        self.assertNotEqual(Var("x"), Fun("x"))
        self.assertNotEqual(Fun("x"), Var("x"))
        self.assertFalse(Var("x") == Fun("x"))
        self.assertFalse(Fun("x") == Var("x"))

    def test_tagged_names(self):
        tagged = Var(TaggedVar("L", "x"))
        self.assertEqual(tagged, Var(TaggedVar("L", "x")))
        self.assertNotEqual(tagged, Var(("L", "x")))
        self.assertNotEqual(Var(("L", "x")), tagged)
        self.assertNotEqual(tagged, Var(TaggedVar("R", "x")))
        self.assertEqual(hash(TaggedVar("L", "x")), hash(("L", "x")))


# The dataclass `Rule` would be without its hand-written parts.
GeneratedRule = dataclasses.make_dataclass("Rule", [(f.name, f.type) for f in dataclasses.fields(Rule)], frozen=True)


def rule_sides():
    """Sides of a few rules, two of them equal but not identical."""
    x = Var("x")
    return [
        (Fun("f", (x, Fun("a"))), x),
        (Fun("f", (Var("x"), Fun("a"))), Var("x")),
        (Fun("f", (x, Fun("a"))), Fun("a")),
        (x, Fun("g", (Var(TaggedVar("L", "x")),))),
    ]


class RuleTest(unittest.TestCase):
    def test_frozen_without_instance_dict(self):
        r = Rule(*rule_sides()[0])
        self.assertFalse(hasattr(r, "__dict__"))
        for field in ("lhs", "rhs"):
            with self.subTest(field=field):
                with self.assertRaises(FrozenInstanceError):
                    setattr(r, field, Fun("b"))
                with self.assertRaises(FrozenInstanceError):
                    delattr(r, field)
        with self.assertRaises(FrozenInstanceError):
            r.other = 1

    def test_compares_hashes_and_prints_as_the_generated_dataclass(self):
        values = rule_sides()
        for v in values:
            r, generated = Rule(*v), GeneratedRule(*v)
            self.assertEqual(repr(r), repr(generated))
            self.assertEqual(hash(r), hash(generated))
            self.assertNotEqual(r, generated)
            self.assertNotEqual(r, v)
            for w in values:
                self.assertEqual(Rule(*v) == Rule(*w), GeneratedRule(*v) == GeneratedRule(*w))
        self.assertEqual(Rule(*values[0]), Rule(*values[1]))
        self.assertNotEqual(Rule(*values[0]), Rule(*values[2]))

    def test_keywords_and_replace(self):
        lhs, rhs = rule_sides()[0]
        r = Rule(lhs=lhs, rhs=rhs)
        self.assertEqual(r, Rule(lhs, rhs))
        moved = dataclasses.replace(r, rhs=Fun("b"))
        self.assertIs(type(moved), Rule)
        self.assertEqual(moved, Rule(lhs, Fun("b")))
        self.assertEqual(dataclasses.replace(r), r)

    def test_pickle_and_copy_round_trip(self):
        for v in rule_sides():
            r = Rule(*v)
            for name, clone in [
                ("pickle", lambda t: pickle.loads(pickle.dumps(t))),
                ("copy", copy.copy),
                ("deepcopy", copy.deepcopy),
            ]:
                with self.subTest(rule=r, via=name):
                    other = clone(r)
                    self.assertIs(type(other), Rule)
                    self.assertEqual(other, r)
                    self.assertEqual(hash(other), hash(r))
                    self.assertEqual(repr(other), repr(r))


# The dataclass `CriticalPair` would be without its hand-written parts.
GeneratedPair = dataclasses.make_dataclass(
    "CriticalPair", [(f.name, f.type) for f in dataclasses.fields(CriticalPair)], frozen=True
)


def pair_fields():
    """Field values of a few pairs, two of them equal but not identical."""
    xl, xr = Var(TaggedVar("L", "x")), Var(TaggedVar("R", "x"))
    inner, outer = Rule(Fun("g", (Var("x"),)), Var("x")), Rule(Fun("f", (Fun("g", (Var("x"),)),)), Fun("a"))
    top = Fun("f", (Fun("g", (xr,)),))
    return [
        (top, Fun("f", (xr,)), Fun("a"), inner, outer, (0,), 0, 1),
        (Fun("f", (Fun("g", (xr,)),)), Fun("f", (xr,)), Fun("a"), inner, outer, (0,), 0, 1),
        (top, Fun("f", (xl,)), Fun("a"), inner, outer, (0,), 0, 1),
        (top, top, top, outer, outer, (), 1, 1),
    ]


class CriticalPairTest(unittest.TestCase):
    def test_frozen_without_instance_dict(self):
        cp = CriticalPair(*pair_fields()[0])
        self.assertFalse(hasattr(cp, "__dict__"))
        for field in dataclasses.fields(CriticalPair):
            with self.subTest(field=field.name):
                with self.assertRaises(FrozenInstanceError):
                    setattr(cp, field.name, None)
                with self.assertRaises(FrozenInstanceError):
                    delattr(cp, field.name)
        with self.assertRaises(FrozenInstanceError):
            cp.other = 1

    def test_compares_hashes_and_prints_as_the_generated_dataclass(self):
        values = pair_fields()
        for v in values:
            cp, generated = CriticalPair(*v), GeneratedPair(*v)
            self.assertEqual(repr(cp), repr(generated))
            self.assertEqual(hash(cp), hash(generated))
            self.assertNotEqual(cp, generated)
            self.assertNotEqual(cp, v)
            for w in values:
                self.assertEqual(CriticalPair(*v) == CriticalPair(*w), GeneratedPair(*v) == GeneratedPair(*w))
        self.assertEqual(CriticalPair(*values[0]), CriticalPair(*values[1]))
        self.assertNotEqual(CriticalPair(*values[0]), CriticalPair(*values[2]))

    def test_keywords_and_replace(self):
        v = pair_fields()[0]
        names = [f.name for f in dataclasses.fields(CriticalPair)]
        cp = CriticalPair(**dict(zip(names, v)))
        self.assertEqual(cp, CriticalPair(*v))
        moved = dataclasses.replace(cp, left_pos=(), left_rule_index=2)
        self.assertIs(type(moved), CriticalPair)
        self.assertEqual(moved, CriticalPair(*v[:5], (), 2, v[7]))
        self.assertEqual(dataclasses.replace(cp), cp)

    def test_pickle_and_copy_round_trip(self):
        cp = CriticalPair(*pair_fields()[0])
        for name, clone in [
            ("pickle", lambda t: pickle.loads(pickle.dumps(t))),
            ("copy", copy.copy),
            ("deepcopy", copy.deepcopy),
        ]:
            with self.subTest(via=name):
                other = clone(cp)
                self.assertIs(type(other), CriticalPair)
                self.assertEqual(other, cp)
                self.assertEqual(hash(other), hash(cp))
                self.assertEqual(repr(other), repr(cp))


if __name__ == "__main__":
    unittest.main()
