"""The contract of the term nodes `Var`, `Fun` and `TaggedVar`: frozen,
slotted values that pickle, copy and compare as the dataclasses they are.

Standard library only, so that it runs under every supported interpreter:

    PYTHONPATH=src python3 -m unittest discover -s tests -p 'test_nodes.py'
"""

import copy
import pickle
import unittest
from dataclasses import FrozenInstanceError

from trskit.rule import TaggedVar
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


if __name__ == "__main__":
    unittest.main()
