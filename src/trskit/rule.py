"""Rewrite rules: directed equations between terms over a shared namespace.

Invalid rules (variable left-hand side, fresh right-hand variables) are
representable so that parsers can report on bad input; operations that
need validity check it when they index the rules with `index_by_root`.

`Rule` is a frozen dataclass with ``__slots__`` and a hand-written
``__init__``, as the term nodes are (see `trskit.term`): it has no
``__dict__``, and compares, hashes and prints as the generated dataclass.
`properties` and `rewriting.list_properties` share one pass over the
variables of each rule, which builds no object per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from . import substitution, term as _term
from .term import Fun, Term, Var


class InvalidRuleError(Exception):
    """Raised when an operation requires valid rules and one is not."""


@dataclass(frozen=True, init=False)
class Rule:
    """A frozen dataclass with ``__slots__``, built as `term.Fun` is: a parse
    makes one for every rule and a critical-pair generation one for every
    rule it renames, so ``__init__`` stores each side through its slot
    setter, and pickling and copying call the constructor."""

    __slots__ = ("lhs", "rhs")
    lhs: Term
    rhs: Term

    def __init__(self, lhs: Term, rhs: Term) -> None:
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)

    def __reduce__(self) -> tuple:
        return self.__class__, (self.lhs, self.rhs)

    def __str__(self) -> str:
        return render(self)


_set_lhs = Rule.lhs.__set__
_set_rhs = Rule.rhs.__set__


@dataclass(frozen=True)
class RuleProperties:
    left_linear: bool
    right_linear: bool
    linear: bool
    duplicating: bool
    erasing: bool
    collapsing: bool
    ground: bool


@dataclass(frozen=True, init=False)
class TaggedVar:
    """A variable pushed into a two-sided namespace by `tag` and `rename_apart`.

    A frozen dataclass with ``__slots__``, built as `term.Var` is.  It is
    hashed whenever a substitution over renamed rules is read, so
    ``__init__`` also stores its hash, ``hash((side, base))`` as the
    dataclass computes it, in the ``_hash`` slot, which is not a field.
    Pickling and copying call the constructor, which hashes again: a string
    hash holds only in the process that computed it.
    """

    __slots__ = ("side", "base", "_hash")
    side: str
    base: Any

    def __init__(self, side: str, base: Any) -> None:
        _set_side(self, side)
        _set_base(self, base)
        _set_hash(self, hash((side, base)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return self.__class__, (self.side, self.base)

    def __str__(self) -> str:
        return f"{self.base}@{self.side}"


_set_side = TaggedVar.side.__set__
_set_base = TaggedVar.base.__set__
_set_hash = TaggedVar._hash.__set__


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
    pairs in list order.

    Raises `InvalidRuleError`, as `check_valid` does, if a rule is not
    valid; the operations that need valid rules check them here."""
    check_valid(rules)
    index: dict = {}
    for i, r in enumerate(rules):
        index.setdefault(r.lhs.symbol, []).append((i, r))
    return index


def properties(r: Rule) -> RuleProperties:
    _, left_linear, right_linear, duplicating, erasing, collapsing, ground = _flags((r,))
    return RuleProperties(
        left_linear=left_linear,
        right_linear=right_linear,
        linear=left_linear and right_linear,
        duplicating=duplicating,
        erasing=erasing,
        collapsing=collapsing,
        ground=ground,
    )


def _flags(rules: Sequence[Rule]) -> tuple[bool, ...]:
    """Whether every rule is valid, left-linear and right-linear, whether
    some rule is duplicating, erasing and collapsing, and whether every rule
    is ground, in one pass that lists the variables of each side once.

    A rule is duplicating when some variable occurs more often on its right
    side than on its left; occurrences are counted only when both sides
    repeat a variable."""
    valid = left_linear = right_linear = ground = True
    duplicating = erasing = collapsing = False
    for r in rules:
        lhs, rhs = _term.vars(r.lhs), _term.vars(r.rhs)
        lhs_vars, rhs_vars = set(lhs), set(rhs)
        bound = rhs_vars <= lhs_vars
        lhs_linear, rhs_linear = len(lhs) == len(lhs_vars), len(rhs) == len(rhs_vars)
        valid = valid and bound and not isinstance(r.lhs, Var)
        left_linear = left_linear and lhs_linear
        right_linear = right_linear and rhs_linear
        ground = ground and not lhs and not rhs
        # A bound right-linear rule has each variable on the right once; a
        # bound left-linear rule that repeats one on the right has it on the
        # left once.
        duplicating = duplicating or not bound or (not rhs_linear and (lhs_linear or not _fits(rhs, lhs)))
        erasing = erasing or not lhs_vars <= rhs_vars
        collapsing = collapsing or isinstance(r.rhs, Var)
    return valid, left_linear, right_linear, duplicating, erasing, collapsing, ground


def _fits(rhs: list, lhs: list) -> bool:
    """Whether no name occurs more often in ``rhs`` than in ``lhs``."""
    room: dict = {}
    for v in lhs:
        room[v] = room.get(v, 0) + 1
    for v in rhs:
        n = room.get(v, 0)
        if not n:
            return False
        room[v] = n - 1
    return True


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
    """The variant of ``r`` with each variable ``v`` renamed to ``TaggedVar(side, v)``.

    Each side is renamed in one walk; each variable's new node is made when
    it is first met and used for all its occurrences.  Each call makes new
    nodes; `criticalpairs` tags the left-hand sides of one generation with
    one node per variable name and side."""
    tag_term, _ = _tagger(side)
    return Rule(tag_term(r.lhs), tag_term(r.rhs))


def _tagger(side: str):
    """Two functions over one table of new nodes, one per variable name, so
    that the variants are those `tag` makes, with fewer nodes (the nodes
    are values):

    * ``tag_term(t)`` renames the variables of ``t`` as `tag` does;
    * ``instantiate(t, sigma)`` is ``apply(sigma, tag_term(t))`` in one
      walk, for a ``t`` whose variables ``tag_term`` has met already, such
      as the right-hand side of a valid rule whose left side it tagged.
      The image of a variable is ``sigma``'s image of its tagged node, or
      that node itself."""
    renamed: dict = {}

    def rename(name: Any, _: Var) -> Var:
        v = renamed.get(name)
        if v is None:
            v = renamed[name] = Var(TaggedVar(side, name))
        return v

    def tag_term(t: Term) -> Term:
        return substitution._replace_vars(t, rename)

    def instantiate(t: Term, sigma: dict) -> Term:
        image = sigma.get

        def instance(name: Any, _: Var) -> Term:
            v = renamed[name]
            return image(v.name, v)

        return substitution._replace_vars(t, instance)

    return tag_term, instantiate


def render(r: Rule) -> str:
    return f"{_term.render(r.lhs)} -> {_term.render(r.rhs)}"


def to_json(r: Rule, *, term=_term.to_json) -> dict:
    """The JSON document of ``r``; ``term`` gives the value of each side."""
    return {"lhs": term(r.lhs), "rhs": term(r.rhs)}
