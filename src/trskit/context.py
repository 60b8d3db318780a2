"""Contexts: terms with exactly one hole.

The hole count is guaranteed structurally: a ``CFun`` node has exactly one
context child, so every context contains exactly one ``Hole``.  Every
operation here, ``==``, ``hash`` and ``repr`` included, walks a context
through one spine walk, ``_spine``, which yields its ``CFun`` layers from a
loop, so contexts of any depth work at Python's default recursion limit.
The walk is lazy so that ``==`` stops at the first layer that differs or is
shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Hashable, Iterator, Sequence

from .position import Position
from .term import Fun, Term
from . import term as _term


@dataclass(frozen=True)
class Hole:
    def __str__(self) -> str:
        return "[]"


@dataclass(frozen=True, eq=False)
class CFun:
    symbol: Hashable
    before: tuple[Term, ...]
    inner: "Context"
    after: tuple[Term, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CFun):
            return NotImplemented
        for c, d in zip_longest(_spine(self), _spine(other)):
            if c is d:
                return True
            if c is None or d is None:
                return False
            if c.symbol != d.symbol or c.before != d.before or c.after != d.after:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple((c.symbol, c.before, c.after) for c in _spine(self)))

    def __repr__(self) -> str:
        layers = list(_spine(self))
        return (
            "".join(f"CFun(symbol={c.symbol!r}, before={c.before!r}, inner=" for c in layers)
            + repr(HOLE)
            + "".join(f", after={c.after!r})" for c in reversed(layers))
        )

    def __str__(self) -> str:
        return render(self)


Context = Hole | CFun

HOLE = Hole()


def _spine(c: Context) -> Iterator[CFun]:
    """The ``CFun`` layers of ``c``, from the outermost to the one above the hole."""
    while isinstance(c, CFun):
        yield c
        c = c.inner


def of_term(t: Term, p: Sequence[int]) -> Context:
    """The context obtained by cutting the subterm of ``t`` at ``p`` out."""
    c: Context = HOLE
    for t, i in reversed(_term._descend(t, p)[0]):
        c = CFun(t.symbol, t.args[:i], c, t.args[i + 1 :])
    return c


def plug(c: Context, s: Term) -> Term:
    """Replace the hole with ``s``."""
    for c in reversed(list(_spine(c))):
        s = Fun(c.symbol, c.before + (s,) + c.after)
    return s


def hole_position(c: Context) -> Position:
    return tuple([len(c.before) for c in _spine(c)])


def render(c: Context) -> str:
    """Rendered like a term with ``[]`` at the hole, e.g. ``f(a,[])``."""
    layers = list(_spine(c))
    head = [f"{c.symbol}(" + "".join([_term.render(a) + "," for a in c.before]) for c in layers]
    tail = ["".join(["," + _term.render(a) for a in c.after]) + ")" for c in reversed(layers)]
    return "".join(head) + "[]" + "".join(tail)
