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

`check_local_confluence` normalizes both sides of each critical pair as
the enumeration yields it.  Two distinct normal forms reachable from one
peak refute confluence outright and end the enumeration; pairs whose sides
hit the step budget stay unresolved, and make the verdict Unknown unless a
later pair yields a witness.  Two rules that overlap at the root give two
pairs, each the other with its sides swapped up to a renaming of
variables, so they have the same outcome: each root overlap is joined
once, and counts as two unresolved pairs when it stays unresolved.
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
    """
    _rule.check_valid(rules)
    return _nf(_rule.index_by_root(rules), t, max_steps)


def _nf(by_root: dict, t: Term, max_steps: int) -> NormalizationResult:
    """`nf` under valid rules indexed by `rule.index_by_root`."""
    candidates, match = by_root.get, substitution.match
    steps = 0
    # A frame is an application whose arguments are being normalized: its
    # pattern, the substitution the pattern stands under (None for a subterm
    # of ``t``, taken as it is) and the arguments normalized so far.
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
                    steps += 1
                    pattern, sigma = r.rhs, theta
                    break
            if not stack:
                return NormalizationResult(value, steps, True)
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


def _rebuild(hole: Term, stack: list) -> Term:
    """The whole current term: ``hole`` plugged into the stacked frames."""
    for pattern, sigma, done in reversed(stack):
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

    Of the two pairs of a root overlap only the first is joined: the second
    is its mirror, up to a renaming of variables (mgus are unique up to
    renaming, and `nf` commutes with renaming), so it can be neither the
    first NO nor joined differently.  ``Unknown.unresolved`` still counts
    both pairs of an unresolved root overlap.
    """
    _rule.check_valid(rules)
    by_root = _rule.index_by_root(rules)
    unresolved = 0
    for cp in _cp._pairs(rules, by_root, _cp.Scope.ALL):
        root = not cp.left_pos
        if root and cp.left_rule_index < cp.right_rule_index:
            # The mirror of the root pair (right_rule_index, left_rule_index),
            # joined already with the same outcome.
            continue
        left = _nf(by_root, cp.left, max_steps)
        right = _nf(by_root, cp.right, max_steps)
        if left.reached_normal_form and right.reached_normal_form:
            if left.term != right.term:
                return NotConfluent(cp, left.term, right.term)
        else:
            unresolved += 2 if root else 1
    if unresolved:
        return Unknown(unresolved)
    return LocallyConfluent()
