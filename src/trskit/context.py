"""Contexts: terms with exactly one hole.

The hole count is guaranteed structurally: a ``CFun`` node has exactly one
context child, so every context contains exactly one ``Hole``.  Like the
term traversals, those here walk the spine of a context with a loop, so
contexts of any depth work at Python's default recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .position import Position
from .term import Fun, InvalidPositionError, Term, Var
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
        c, d = self, other
        while isinstance(c, CFun) and isinstance(d, CFun):
            if c is d:
                return True
            if (c.symbol, c.before, c.after) != (d.symbol, d.before, d.after):
                return False
            c, d = c.inner, d.inner
        return c == d

    def __hash__(self) -> int:
        layers = []
        c: Context = self
        while isinstance(c, CFun):
            layers.append((c.symbol, c.before, c.after))
            c = c.inner
        return hash(tuple(layers))

    def __repr__(self) -> str:
        head, tail = [], []
        c: Context = self
        while isinstance(c, CFun):
            head.append(f"CFun(symbol={c.symbol!r}, before={c.before!r}, inner=")
            tail.append(f", after={c.after!r})")
            c = c.inner
        return "".join(head) + repr(c) + "".join(reversed(tail))

    def __str__(self) -> str:
        return render(self)


Context = Hole | CFun

HOLE = Hole()


def of_term(t: Term, p: Sequence[int]) -> Context:
    """The context obtained by cutting the subterm of ``t`` at ``p`` out."""
    above = []
    for i in p:
        if isinstance(t, Var) or not 0 <= i < len(t.args):
            raise InvalidPositionError(f"no subterm at index {i}")
        above.append((t, i))
        t = t.args[i]
    c: Context = HOLE
    for t, i in reversed(above):
        c = CFun(t.symbol, t.args[:i], c, t.args[i + 1 :])
    return c


def plug(c: Context, s: Term) -> Term:
    """Replace the hole with ``s``."""
    layers = []
    while isinstance(c, CFun):
        layers.append(c)
        c = c.inner
    for c in reversed(layers):
        s = Fun(c.symbol, c.before + (s,) + c.after)
    return s


def hole_position(c: Context) -> Position:
    p = []
    while isinstance(c, CFun):
        p.append(len(c.before))
        c = c.inner
    return tuple(p)


def render(c: Context) -> str:
    """Rendered like a term with ``[]`` at the hole, e.g. ``f(a,[])``."""
    head, tail = [], []
    while isinstance(c, CFun):
        head.append(f"{c.symbol}(")
        head.extend(_term.render(a) + "," for a in c.before)
        tail.append(")")
        tail.extend("," + _term.render(a) for a in reversed(c.after))
        c = c.inner
    return "".join(head) + "[]" + "".join(reversed(tail))
