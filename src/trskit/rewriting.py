"""One-step rewriting of a term by a list of rules, under position strategies.

Each rewrite step is reported as a `Reduct` carrying the resulting term
together with the redex position, the rule as listed (not renamed), its
index, and the matching substitution.  Strategies are position filters:
they select a subset of the full reduct list and never reorder it, so
reducts always come sorted by position (preorder) and then rule index.
`step` finds the redexes in one preorder walk that keeps its own stack,
tries only the rules whose left-hand side has the node's root symbol, and
builds the reduct terms only for the redexes the strategy admits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import position as _position, rule as _rule, substitution, term as _term
from .position import Position
from .rule import Rule
from .term import Term, Var


class Strategy(enum.Enum):
    FULL = "full"
    ROOT = "root"
    OUTERMOST = "outermost"
    INNERMOST = "innermost"


@dataclass(frozen=True)
class Reduct:
    result: Term
    pos: Position
    rule: Rule
    rule_index: int
    subst: Mapping


@dataclass(frozen=True)
class ListProperties:
    valid: bool
    left_linear: bool
    right_linear: bool
    linear: bool
    duplicating: bool
    collapsing: bool
    erasing: bool
    ground: bool


def step(rules: Sequence[Rule], subject: Term, strategy: Strategy = Strategy.FULL) -> list[Reduct]:
    """All one-step reducts of ``subject`` admitted by ``strategy``.

    Rules must be valid.  Duplicate rules in the list yield one reduct per
    rule index.
    """
    by_root = _rule.index_by_root(rules)
    # Redexes in preorder as [path, depth, matches, innermost]; a path is
    # None at the root and (parent path, argument index) below it.
    redexes: list = []
    # The smallest depth visited since the last redex: that redex has one
    # below it exactly when the walk reaches the next redex without
    # leaving its subtree.
    low = 0
    stack: list = [(subject, None, 0)]
    while stack:
        t, path, depth = stack.pop()
        low = min(low, depth)
        if isinstance(t, Var):
            continue
        matches = []
        for i, r in by_root.get(t.symbol, ()):
            sigma = substitution.match(r.lhs, t)
            if sigma is not None:
                matches.append((i, r, sigma))
        if matches:
            if redexes and low > redexes[-1][1]:
                redexes[-1][3] = False
            redexes.append([path, depth, matches, True])
            low = depth + 1
            if strategy is Strategy.OUTERMOST:
                continue
        if strategy is Strategy.ROOT:
            break
        for k in range(len(t.args) - 1, -1, -1):
            stack.append((t.args[k], (path, k), depth + 1))

    reducts: list[Reduct] = []
    for path, _, matches, innermost in redexes:
        if strategy is Strategy.INNERMOST and not innermost:
            continue
        at = _position.of_path(path)
        for i, r, sigma in matches:
            contractum = substitution.apply(sigma, r.rhs)
            reducts.append(Reduct(_term.replace_at(subject, at, contractum), at, r, i, sigma))
    return reducts


def is_normal_form(rules: Sequence[Rule], t: Term) -> bool:
    return not step(rules, t, Strategy.OUTERMOST)


def list_properties(rules: Sequence[Rule]) -> ListProperties:
    """TRS-level aggregates: linearity-style flags hold for every rule,
    duplicating/collapsing/erasing as soon as some rule has them."""
    valid, left_linear, right_linear, duplicating, erasing, collapsing, ground = _rule._flags(rules)
    return ListProperties(
        valid=valid,
        left_linear=left_linear,
        right_linear=right_linear,
        linear=left_linear and right_linear,
        duplicating=duplicating,
        collapsing=collapsing,
        erasing=erasing,
        ground=ground,
    )


def render(r: Reduct) -> str:
    return (
        f"{_term.render(r.result)} @ {_position.render(r.pos)} "
        f"by ({_rule.render(r.rule)}) with {substitution.render(r.subst)}"
    )


def to_json(r: Reduct, *, term=_term.to_json) -> dict:
    """The JSON document of ``r``; ``term`` gives the value of each term."""
    return {
        "result": term(r.result),
        "pos": list(r.pos),
        "ruleIndex": r.rule_index,
        "subst": substitution.to_json(r.subst, term=term),
    }
