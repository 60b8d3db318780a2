"""Rewrite rules: directed equations between terms over a shared namespace.

Invalid rules (variable left-hand side, fresh right-hand variables) are
representable so that parsers can report on bad input; operations that
need validity check it explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

from . import substitution, term as _term
from .term import Fun, Term, Var


class InvalidRuleError(Exception):
    """Raised when an operation requires valid rules and one is not."""


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class RuleProperties:
    left_linear: bool
    right_linear: bool
    linear: bool
    duplicating: bool
    erasing: bool
    collapsing: bool
    ground: bool


@dataclass(frozen=True)
class TaggedVar:
    """A variable pushed into a two-sided namespace by `tag` and `rename_apart`."""

    side: str
    base: Any

    def __str__(self) -> str:
        return f"{self.base}@{self.side}"


def is_valid(r: Rule) -> bool:
    """Left-hand side is not a variable and binds every right-hand variable."""
    if isinstance(r.lhs, Var):
        return False
    return set(_term.vars(r.rhs)) <= set(_term.vars(r.lhs))


def check_valid(rules: Sequence[Rule]) -> None:
    for i, r in enumerate(rules):
        if not is_valid(r):
            raise InvalidRuleError(f"rule {i} is not a valid rewrite rule: {render(r)}")


def index_by_root(rules: Sequence[Rule]) -> dict:
    """Map the root symbol of each left-hand side to its ``(index, rule)``
    pairs in list order; the rules must be valid."""
    index: dict = {}
    for i, r in enumerate(rules):
        index.setdefault(r.lhs.symbol, []).append((i, r))
    return index


def properties(r: Rule) -> RuleProperties:
    return _validity_and_properties(r)[1]


def _validity_and_properties(r: Rule) -> tuple[bool, RuleProperties]:
    """`is_valid` and `properties` of ``r``, from one walk of each side."""
    lhs_counts = Counter(_term.vars(r.lhs))
    rhs_counts = Counter(_term.vars(r.rhs))
    valid = not isinstance(r.lhs, Var) and rhs_counts.keys() <= lhs_counts.keys()
    left_linear = all(n == 1 for n in lhs_counts.values())
    right_linear = all(n == 1 for n in rhs_counts.values())
    return valid, RuleProperties(
        left_linear=left_linear,
        right_linear=right_linear,
        linear=left_linear and right_linear,
        duplicating=any(n > lhs_counts[v] for v, n in rhs_counts.items()),
        erasing=any(v not in rhs_counts for v in lhs_counts),
        collapsing=isinstance(r.rhs, Var),
        ground=not lhs_counts and not rhs_counts,
    )


# Marker symbol used to match both sides of a rule with one substitution.
_PAIR = object()


def is_instance_of(r1: Rule, r2: Rule) -> bool:
    """Whether one substitution sends both sides of ``r2`` to those of ``r1``."""
    pattern = Fun(_PAIR, (r2.lhs, r2.rhs))
    subject = Fun(_PAIR, (r1.lhs, r1.rhs))
    return substitution.match(pattern, subject) is not None


def is_variant_of(r1: Rule, r2: Rule) -> bool:
    return is_instance_of(r1, r2) and is_instance_of(r2, r1)


def rename_apart(r1: Rule, r2: Rule) -> tuple[Rule, Rule]:
    """Variants of ``r1`` and ``r2`` with guaranteed-disjoint variable sets."""
    return tag(r1, "L"), tag(r2, "R")


def tag(r: Rule, side: str) -> Rule:
    """The variant of ``r`` with each variable ``v`` renamed to ``TaggedVar(side, v)``."""
    variables = dict.fromkeys((*_term.vars(r.lhs), *_term.vars(r.rhs)))
    sigma = {v: Var(TaggedVar(side, v)) for v in variables}
    return Rule(substitution.apply(sigma, r.lhs), substitution.apply(sigma, r.rhs))


def render(r: Rule) -> str:
    return f"{_term.render(r.lhs)} -> {_term.render(r.rhs)}"


def to_json(r: Rule, *, term=_term.to_json) -> dict:
    """The JSON document of ``r``; ``term`` gives the value of each side."""
    return {"lhs": term(r.lhs), "rhs": term(r.rhs)}
