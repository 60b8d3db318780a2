"""Positions: paths of argument indices addressing subterms of a term.

A position is a tuple of 0-based argument indices; the empty tuple is the
root.  Tuples compare lexicographically with prefixes first, so plain
``sorted`` yields preorder.
"""

from __future__ import annotations

import enum
from typing import Iterable

Position = tuple[int, ...]

ROOT: Position = ()


class Relation(enum.Enum):
    """How two positions relate in the prefix order."""

    EQUAL = "equal"
    ABOVE = "above"
    BELOW = "below"
    PARALLEL = "parallel"


def compare(p: Iterable[int], q: Iterable[int]) -> Relation:
    """Compare two positions: ABOVE means ``p`` is a proper prefix of ``q``."""
    p, q = tuple(p), tuple(q)
    if p == q:
        return Relation.EQUAL
    if p == q[: len(p)]:
        return Relation.ABOVE
    if q == p[: len(q)]:
        return Relation.BELOW
    return Relation.PARALLEL


def concat(p: Iterable[int], q: Iterable[int]) -> Position:
    return tuple(p) + tuple(q)


def of_path(path) -> Position:
    """The position a parent-link path leads to: ``None`` is the root, and
    ``(parent path, argument index)`` the argument below its parent."""
    p = []
    while path is not None:
        path, k = path
        p.append(k)
    return tuple(reversed(p))


def render(p: Iterable[int]) -> str:
    """Render as ``[0,1]``; the root renders as ``[]``."""
    return "[" + ",".join(str(i) for i in p) + "]"
