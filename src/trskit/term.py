"""First-order terms: variables and function symbols applied to arguments.

Terms are immutable trees.  Variable and function-symbol identifiers are
opaque: anything hashable with equality works (strings in practice,
tagged pairs when rules are renamed apart).  A constant is a ``Fun`` with
no arguments; there is no separate constructor for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence, TypeVar

from .position import Position

A = TypeVar("A")


class InvalidPositionError(Exception):
    """Raised when a position does not address a node of the given term."""


@dataclass(frozen=True)
class Var:
    name: Hashable

    def __str__(self) -> str:
        return str(self.name)


@dataclass(frozen=True)
class Fun:
    symbol: Hashable
    args: tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        return render(self)


Term = Var | Fun


def fold(t: Term, on_var: Callable[[Any], A], on_fun: Callable[[Any, list[A]], A]) -> A:
    """Structural recursion: ``on_var`` at leaves, ``on_fun`` on folded children."""
    if isinstance(t, Var):
        return on_var(t.name)
    return on_fun(t.symbol, [fold(a, on_var, on_fun) for a in t.args])


def map_symbols(t: Term, on_var: Callable[[Any], Any], on_fun: Callable[[Any], Any]) -> Term:
    """Rename every variable via ``on_var`` and every function symbol via ``on_fun``."""
    if isinstance(t, Var):
        return Var(on_var(t.name))
    return Fun(on_fun(t.symbol), tuple(map_symbols(a, on_var, on_fun) for a in t.args))


def vars(t: Term) -> list:
    """All variable occurrences in preorder, duplicates preserved."""
    if isinstance(t, Var):
        return [t.name]
    out: list = []
    for a in t.args:
        out.extend(vars(a))
    return out


def funs(t: Term) -> list:
    """All function-symbol occurrences in preorder, duplicates preserved."""
    if isinstance(t, Var):
        return []
    out = [t.symbol]
    for a in t.args:
        out.extend(funs(a))
    return out


def size(t: Term) -> int:
    return fold(t, lambda _: 1, lambda _, cs: 1 + sum(cs))


def positions(t: Term) -> list[Position]:
    """All positions of ``t`` in preorder: root first, then children left to right."""
    out: list[Position] = [()]
    if isinstance(t, Fun):
        for i, a in enumerate(t.args):
            out.extend((i,) + p for p in positions(a))
    return out


def subterm_at(t: Term, p: Sequence[int]) -> Term:
    """The subterm rooted at ``p``; the root position yields ``t`` itself."""
    for k, i in enumerate(p):
        if isinstance(t, Var) or not 0 <= i < len(t.args):
            raise InvalidPositionError(f"no subterm at index {i} (position step {k})")
        t = t.args[i]
    return t


def replace_at(t: Term, p: Sequence[int], s: Term) -> Term:
    """``t`` with the subterm at ``p`` replaced by ``s``."""
    if not p:
        return s
    i = p[0]
    if isinstance(t, Var) or not 0 <= i < len(t.args):
        raise InvalidPositionError(f"no subterm at index {i}")
    args = list(t.args)
    args[i] = replace_at(args[i], p[1:], s)
    return Fun(t.symbol, tuple(args))


def equal(s: Term, t: Term) -> bool:
    """``s == t`` without recursion, so terms of any depth compare; a pair
    of identical subterms is not walked."""
    stack = [(s, t)]
    while stack:
        s, t = stack.pop()
        if s is t:
            continue
        if isinstance(s, Var) or isinstance(t, Var):
            if s != t:
                return False
        elif s.symbol != t.symbol or len(s.args) != len(t.args):
            return False
        else:
            stack.extend(zip(s.args, t.args))
    return True


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def is_linear(t: Term) -> bool:
    occurrences = vars(t)
    return len(occurrences) == len(set(occurrences))


def is_instance_of(t: Term, u: Term) -> bool:
    """Whether ``t`` can be obtained from ``u`` by substituting ``u``'s variables."""
    from . import substitution

    return substitution.match(u, t) is not None


def is_variant_of(t: Term, u: Term) -> bool:
    """Whether ``t`` and ``u`` are equal up to renaming of variables."""
    return is_instance_of(t, u) and is_instance_of(u, t)


def render(t: Term) -> str:
    """Canonical text: ``f(t1,...,tn)`` without spaces, constants without parens."""
    if isinstance(t, Var):
        return str(t.name)
    if not t.args:
        return str(t.symbol)
    return f"{t.symbol}({','.join(render(a) for a in t.args)})"


def to_json(t: Term) -> dict:
    if isinstance(t, Var):
        return {"var": str(t.name)}
    return {"fun": str(t.symbol), "args": [to_json(a) for a in t.args]}


def from_json(obj: dict) -> Term:
    if "var" in obj:
        return Var(obj["var"])
    return Fun(obj["fun"], tuple(from_json(a) for a in obj["args"]))
