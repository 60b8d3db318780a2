"""Bounded normalization and a Knuth-Bendix-style local-confluence check.

`nf` is a call-by-value evaluator: it normalizes the arguments of an
application left to right, then tries the rules at its root in list
order, and on a match goes on with the rule's right-hand side under the
matching substitution.  That is the leftmost-innermost sequence of
``rewriting.step(rules, t, Strategy.INNERMOST)[0]`` (smallest innermost
redex position in preorder, then smallest rule index), found without
building the other reducts.  The walk keeps its own stack, so the depth of
a term costs no Python recursion.  Steps count against a step budget, so
results are reproducible and termination is never assumed.

Under call-by-value the normal form of an argument, and the steps to it, do
not depend on the context, so one `nf` call memoizes them: each redex met
as an argument of a pending application (not at the root, and not the
contractum of such a redex, so a loop at the root of a term keeps no memo)
is stored with its normal form and step count, keyed by its symbol and its
arguments up to equality.  An equal redex met again takes the stored normal
form and adds the stored steps, unless they would overshoot the budget;
then it is rewritten step by step, so steps, terms and verdicts are those
of the step-by-step walk in every case.  The memo lives for one call and
grows with the argument redexes it normalizes.

`check_local_confluence` normalizes both sides of each critical pair as
the enumeration yields it.  Two distinct normal forms reachable from one
peak refute confluence outright and end the enumeration; pairs whose sides
hit the step budget stay unresolved, and make the verdict Unknown unless a
later pair yields a witness.  Two rules that overlap at the root give two
pairs, each the other with its sides swapped up to a renaming of
variables, so they have the same outcome: each root overlap is joined
once, when its first pair comes, and the second pair is never built; it
counts as two unresolved pairs when it stays unresolved.
A terminating system that is locally confluent is confluent, but
termination itself is not checked here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from . import criticalpairs as _cp, rule as _rule, substitution
from .criticalpairs import CriticalPair
from .rule import Rule
from .term import Fun, Term, Var


@dataclass(frozen=True)
class NormalizationResult:
    term: Term
    steps: int
    reached_normal_form: bool


@dataclass(frozen=True)
class LocallyConfluent:
    pass


@dataclass(frozen=True)
class NotConfluent:
    witness: CriticalPair
    nf_left: Term
    nf_right: Term


@dataclass(frozen=True)
class Unknown:
    unresolved: int


ConfluenceVerdict = LocallyConfluent | NotConfluent | Unknown


def nf(rules: Sequence[Rule], t: Term, max_steps: int) -> NormalizationResult:
    """Reduce ``t`` leftmost-innermost for at most ``max_steps`` rewrite steps.

    Each step is the one ``rewriting.step(rules, current,
    Strategy.INNERMOST)[0]`` takes.  Once the budget is spent the walk goes
    on without rewriting: at the next redex it stops with the current term
    and ``reached_normal_form`` false; if there is none, the term is normal
    and ``reached_normal_form`` is true, also when ``steps == max_steps``.

    The normal form of each argument redex is computed once per call and
    reused, with its steps counted again each time, for equal redexes met
    later (see the module docstring).  The result may therefore share
    subterms where the step-by-step walk builds equal copies.  Memory grows
    with the argument redexes normalized, and is freed when the call returns.
    """
    return _nf(_rule.index_by_root(rules), t, max_steps)


def _nf(by_root: dict, t: Term, max_steps: int) -> NormalizationResult:
    """`nf` under valid rules indexed by `rule.index_by_root`."""
    candidates, match = by_root.get, substitution.match
    steps = 0
    # Normal forms of argument redexes: key -> (normal form, steps taken).
    memo: dict = {}
    key_of = _keys()
    # A frame is an application whose arguments are being normalized: its
    # pattern, the substitution the pattern stands under (None for a subterm
    # of ``t``, taken as it is) and the arguments normalized so far.  A
    # marker ``(None, key, steps)`` stands below the contractum of the
    # argument redex ``key``, rewritten when ``steps`` had been taken.
    stack: list = []
    pattern, sigma = t, None
    while True:
        # Go down the leftmost arguments of ``pattern`` to a leaf.
        while isinstance(pattern, Fun) and pattern.args:
            stack.append((pattern, sigma, []))
            pattern = pattern.args[0]
        if isinstance(pattern, Var):
            # Variables of ``t`` are normal, and so are the images of a
            # matching substitution: they are arguments already normalized.
            value = pattern if sigma is None else sigma[pattern.name]
            candidate = False
        else:
            value, candidate = pattern, True
        # Go up with ``value``, a normal term unless ``candidate`` (its
        # arguments are normal, its root is not tried yet), until a step
        # or an argument not yet normalized gives a new pattern.
        while True:
            if candidate:
                theta = None
                for _, r in candidates(value.symbol, ()):
                    theta = match(r.lhs, value)
                    if theta is not None:
                        break
                if theta is not None:
                    if steps >= max_steps:
                        return NormalizationResult(_rebuild(value, stack), steps, False)
                    if stack and stack[-1][0] is not None:
                        # An argument redex: its normal form and the steps
                        # to it do not depend on the context.
                        key = (value.symbol, *map(key_of, value.args))
                        hit = memo.get(key)
                        if hit is not None and steps + hit[1] <= max_steps:
                            value, k = hit
                            steps += k
                            candidate = False
                            continue
                        stack.append((None, key, steps))
                    steps += 1
                    pattern, sigma = r.rhs, theta
                    break
            if not stack:
                return NormalizationResult(value, steps, True)
            if stack[-1][0] is None:
                # ``value`` is the normal form of the argument redex below it.
                _, key, before = stack.pop()
                memo[key] = (value, steps - before)
                candidate = False
                continue
            parent, parent_sigma, done = stack[-1]
            done.append(value)
            if len(done) < len(parent.args):
                pattern, sigma = parent.args[len(done)], parent_sigma
                break
            stack.pop()
            if parent_sigma is None and all(map(operator.is_, done, parent.args)):
                value = parent
            else:
                value = Fun(parent.symbol, tuple(done))
            candidate = True


def _keys():
    """A function that keys terms for the memo of `_nf`: equal terms get
    equal keys.  A variable is its own key; an application's key is the id
    of the first application keyed with its symbol and the keys of its
    arguments.  Each node is keyed once, with its own stack, and kept alive,
    so that no id is reused while the keys are in use."""
    keys: dict = {}
    firsts: dict = {}
    alive: list = []
    known = keys.get

    def key(t: Term):
        if type(t) is Var:
            return t
        k = known(id(t))
        if k is not None:
            return k
        # Key the node on top once its arguments are keyed.
        todo = [t]
        while todo:
            u = todo[-1]
            shape = [u.symbol]
            for a in u.args:
                if type(a) is Var:
                    shape.append(a)
                    continue
                k = known(id(a))
                if k is None:
                    todo.append(a)
                    break
                shape.append(k)
            else:
                todo.pop()
                i = id(u)
                keys[i] = firsts.setdefault(tuple(shape), i)
                alive.append(u)
        return keys[id(t)]

    return key


def _rebuild(hole: Term, stack: list) -> Term:
    """The whole current term: ``hole`` plugged into the stacked frames."""
    for pattern, sigma, done in reversed(stack):
        if pattern is None:
            continue
        rest = pattern.args[len(done) + 1 :]
        if sigma is not None:
            rest = tuple(substitution.apply(sigma, a) for a in rest)
        hole = Fun(pattern.symbol, (*done, hole, *rest))
    return hole


def check_local_confluence(rules: Sequence[Rule], max_steps: int) -> ConfluenceVerdict:
    """Join the critical pairs by normalization, within ``max_steps`` per side.

    Pairs are joined in the order of `criticalpairs.critical_pairs` with
    `Scope.ALL` (``cps --scope all``), each as soon as it is built.  The
    first pair whose sides reach distinct normal forms ends the check and is
    the witness of the NO; pairs after it are never built.

    Of the two pairs of a root overlap only the first is built and joined:
    the second is its mirror, up to a renaming of variables (mgus are unique
    up to renaming, and `nf` commutes with renaming), so it can be neither
    the first NO nor joined differently, and its unifier is never computed.
    ``Unknown.unresolved`` still counts both pairs of an unresolved root
    overlap.
    """
    by_root = _rule.index_by_root(rules)
    unresolved = 0
    for cp in _cp._pairs(rules, by_root, _cp.Scope.ALL, mirrors=False):
        left = _nf(by_root, cp.left, max_steps)
        right = _nf(by_root, cp.right, max_steps)
        if left.reached_normal_form and right.reached_normal_form:
            if left.term != right.term:
                return NotConfluent(cp, left.term, right.term)
        else:
            # An unresolved root pair stands for its mirror too.
            unresolved += 1 if cp.left_pos else 2
    if unresolved:
        return Unknown(unresolved)
    return LocallyConfluent()
