"""Critical pairs: annotated overlaps between rules of a list.

For rules i (applied below, "left step") and j (applied at the root,
"right step"), an overlap is a non-variable position p of rule j's
left-hand side whose subterm unifies with rule i's left-hand side after
the two rules are renamed apart.  The root overlap of a rule with itself
(same index) is excluded; two identical rules at different indices do
overlap.  Mirror pairs from swapping the two rules at the root are kept,
as their annotations differ.

The peak and both reducts live in the tagged namespace of `rule.tag`,
which `rule.rename_apart` also uses; rendering and JSON output rename
variables to ``x1, x2, ...`` by first occurrence in preorder over (top,
left, right).  One generation tags only the left-hand sides, with one
variable node per name and side for all the rules.  Each reduct is built
from the right-hand side of the rule as listed, in one walk that puts the
mgu's image of each variable's tagged node in its place, so no right side
is tagged and then substituted; and one `CriticalPair` is made per overlap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from . import position as _position, rule as _rule, substitution, term as _term
from .position import Position
from .rule import Rule, TaggedVar  # noqa: F401  (TaggedVar is part of this surface)
from .term import Term, Var


class Scope(enum.Enum):
    ALL = "all"
    INNER = "inner"
    OUTER = "outer"


@dataclass(frozen=True, init=False)
class CriticalPair:
    """A frozen dataclass with ``__slots__``, built as `term.Fun` is: one is
    made for every overlap, so ``__init__`` stores each field through its
    slot setter, and pickling and copying call the constructor."""

    __slots__ = (
        "top", "left", "right", "left_rule", "right_rule", "left_pos", "left_rule_index", "right_rule_index"
    )
    top: Term
    left: Term
    right: Term
    left_rule: Rule
    right_rule: Rule
    left_pos: Position
    left_rule_index: int
    right_rule_index: int

    def __init__(
        self, top: Term, left: Term, right: Term, left_rule: Rule, right_rule: Rule,
        left_pos: Position, left_rule_index: int, right_rule_index: int,
    ) -> None:
        _set_top(self, top)
        _set_left(self, left)
        _set_right(self, right)
        _set_left_rule(self, left_rule)
        _set_right_rule(self, right_rule)
        _set_left_pos(self, left_pos)
        _set_left_rule_index(self, left_rule_index)
        _set_right_rule_index(self, right_rule_index)

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


_set_top = CriticalPair.top.__set__
_set_left = CriticalPair.left.__set__
_set_right = CriticalPair.right.__set__
_set_left_rule = CriticalPair.left_rule.__set__
_set_right_rule = CriticalPair.right_rule.__set__
_set_left_pos = CriticalPair.left_pos.__set__
_set_left_rule_index = CriticalPair.left_rule_index.__set__
_set_right_rule_index = CriticalPair.right_rule_index.__set__


def critical_pairs(rules: Sequence[Rule], scope: Scope = Scope.ALL) -> list[CriticalPair]:
    """All critical pairs of ``rules``, in order of (outer rule, position, inner rule)."""
    return list(_pairs(rules, _rule.index_by_root(rules), scope))


def _pairs(rules: Sequence[Rule], by_root: dict, scope: Scope, *, mirrors: bool = True):
    """The critical pairs of the valid ``rules``, indexed in ``by_root`` by
    `rule.index_by_root`, one at a time in the order of `critical_pairs`,
    so that a caller can stop at any of them.  Without ``mirrors``, a root
    pair whose left rule index is below its right one, the mirror of the
    root pair before it, is neither unified nor built.

    Each left-hand side is tagged as `rule.tag` does, with one node per
    variable name and side for all the rules; each reduct is instantiated
    from the right-hand side of the rule as listed, in one walk that sends
    each variable to the mgu's image of its tagged node."""
    # Looked up once per call, through the modules, so that a function
    # replaced there before the call is the one called.
    unify, apply = substitution.unify, substitution.apply
    replace_at, of_path = _term.replace_at, _position.of_path
    tag_left, instantiate_left = _rule._tagger("L")
    tag_right, instantiate_right = _rule._tagger("R")
    # Rule i's tagged left side, made when it is first tried; TaggedVar
    # compares by value, so one variant serves every overlap.
    left_sides: dict = {}
    for j, outer in enumerate(rules):
        outer_lhs = tag_right(outer.lhs)
        # A preorder walk of the left-hand side, with `position.of_path` paths.
        stack: list = [(outer_lhs, None)]
        while stack:
            overlapped, path = stack.pop()
            if isinstance(overlapped, Var):
                continue
            if scope is not Scope.OUTER:
                args = overlapped.args
                stack.extend((args[k], (path, k)) for k in range(len(args) - 1, -1, -1))
            if scope is Scope.INNER and path is None:
                continue
            # Only rules whose left-hand side has the overlapped root symbol
            # can unify with it.
            for i, inner in by_root.get(overlapped.symbol, ()):
                if path is None and (i == j or i < j and not mirrors):
                    continue
                inner_lhs = left_sides.get(i)
                if inner_lhs is None:
                    inner_lhs = left_sides[i] = tag_left(inner.lhs)
                sigma = unify(inner_lhs, overlapped)
                if sigma is None:
                    continue
                p = of_path(path)
                top = apply(sigma, outer_lhs)
                left = replace_at(top, p, instantiate_left(inner.rhs, sigma))
                right = instantiate_right(outer.rhs, sigma)
                yield CriticalPair(top, left, right, inner, outer, p, i, j)


def canonical_renaming(cp: CriticalPair) -> dict:
    """Map the pair's tagged variables to ``x1, x2, ...`` in first-occurrence order."""
    seen = dict.fromkeys(_term.vars(cp.top) + _term.vars(cp.left) + _term.vars(cp.right))
    return {v: f"x{k}" for k, v in enumerate(seen, 1)}


def canonical_terms(cp: CriticalPair, *more: Term) -> tuple[Term, ...]:
    """The pair's peak and reducts, then ``more`` terms over its variables,
    renamed by `canonical_renaming`."""
    sigma = {v: Var(name) for v, name in canonical_renaming(cp).items()}
    return tuple(substitution.apply(sigma, t) for t in (cp.top, cp.left, cp.right, *more))


def render(cp: CriticalPair) -> str:
    top, left, right = canonical_terms(cp)
    return "\n".join(
        [
            f"peak: {_term.render(top)}",
            f"left: {_term.render(left)}  (rule {cp.left_rule_index} at {_position.render(cp.left_pos)})",
            f"right: {_term.render(right)}  (rule {cp.right_rule_index} at root)",
        ]
    )


def to_json(cp: CriticalPair, *, term=_term.to_json) -> dict:
    """The JSON document of ``cp``; ``term`` gives the value of each term."""
    top, left, right = canonical_terms(cp)
    return {
        "top": term(top),
        "left": term(left),
        "right": term(right),
        "leftRule": _rule.to_json(cp.left_rule, term=term),
        "rightRule": _rule.to_json(cp.right_rule, term=term),
        "leftPos": list(cp.left_pos),
        "leftRuleIndex": cp.left_rule_index,
        "rightRuleIndex": cp.right_rule_index,
    }
