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
left, right).
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


@dataclass(frozen=True)
class CriticalPair:
    top: Term
    left: Term
    right: Term
    left_rule: Rule
    right_rule: Rule
    left_pos: Position
    left_rule_index: int
    right_rule_index: int


def critical_pairs(rules: Sequence[Rule], scope: Scope = Scope.ALL) -> list[CriticalPair]:
    """All critical pairs of ``rules``, in order of (outer rule, position, inner rule)."""
    _rule.check_valid(rules)
    return list(_pairs(rules, _rule.index_by_root(rules), scope))


def _pairs(rules: Sequence[Rule], by_root: dict, scope: Scope):
    """The critical pairs of the valid ``rules``, indexed in ``by_root`` by
    `rule.index_by_root`, one at a time in the order of `critical_pairs`,
    so that a caller can stop at any of them."""
    # Rule i's variant on the left side, made when it is first tried;
    # TaggedVar compares by value, so one variant serves every overlap.
    left_variants: dict = {}
    for j, outer in enumerate(rules):
        rho2 = _rule.tag(outer, "R")
        # A preorder walk of the left-hand side, with `position.of_path` paths.
        stack: list = [(rho2.lhs, None)]
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
                if path is None and i == j:
                    continue
                rho1 = left_variants.get(i)
                if rho1 is None:
                    rho1 = left_variants[i] = _rule.tag(inner, "L")
                sigma = substitution.unify(rho1.lhs, overlapped)
                if sigma is None:
                    continue
                p = _position.of_path(path)
                top = substitution.apply(sigma, rho2.lhs)
                left = _term.replace_at(top, p, substitution.apply(sigma, rho1.rhs))
                right = substitution.apply(sigma, rho2.rhs)
                yield CriticalPair(top, left, right, inner, outer, p, i, j)


def canonical_renaming(cp: CriticalPair) -> dict:
    """Map the pair's tagged variables to ``x1, x2, ...`` in first-occurrence order."""
    mapping: dict = {}
    for t in (cp.top, cp.left, cp.right):
        for v in _term.vars(t):
            if v not in mapping:
                mapping[v] = f"x{len(mapping) + 1}"
    return mapping


def canonical_terms(cp: CriticalPair, *more: Term) -> tuple[Term, ...]:
    """The pair's peak and reducts, then ``more`` terms over its variables,
    renamed by `canonical_renaming`."""
    mapping = canonical_renaming(cp)
    terms = (cp.top, cp.left, cp.right, *more)
    return tuple(_term.map_symbols(t, mapping.__getitem__, lambda f: f) for t in terms)


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
