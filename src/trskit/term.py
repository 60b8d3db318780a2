"""First-order terms: variables and function symbols applied to arguments.

Terms are immutable trees, which may share subterm objects.  Variable and
function-symbol identifiers are opaque: anything hashable with equality
works (strings in practice, tagged pairs when rules are renamed apart).  A
constant is a ``Fun`` with no arguments; there is no separate constructor.

``Var`` and ``Fun`` are frozen dataclasses with ``__slots__``: assigning to
or deleting any attribute raises ``dataclasses.FrozenInstanceError``, and a
node has no ``__dict__``.  Every operation builds terms, so their
``__init__`` is written by hand and stores each field once, through the
field's slot descriptor, at half to two thirds of the cost of the
generated frozen ``__init__``; ``Fun`` copies ``args`` into a tuple only
when it is not one already.  Pickling and copying call the constructor
(``__reduce__``), as restoring slots one by one would meet the frozen
``__setattr__``.

Every traversal here, ``==``, ``hash`` and ``repr`` included, keeps its own
stack, so terms of any depth work at Python's default recursion limit.
``==`` compares each pair of shared nodes once; the others walk the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence, TypeVar

from .position import Position

A = TypeVar("A")


class InvalidPositionError(Exception):
    """Raised when a position does not address a node of the given term."""


@dataclass(frozen=True, init=False)
class Var:
    __slots__ = ("name",)
    name: Hashable

    def __init__(self, name: Hashable) -> None:
        _set_name(self, name)

    def __reduce__(self) -> tuple:
        return self.__class__, (self.name,)

    def __str__(self) -> str:
        return str(self.name)


@dataclass(frozen=True, eq=False, init=False)
class Fun:
    __slots__ = ("symbol", "args")
    symbol: Hashable
    args: tuple["Term", ...]

    def __init__(self, symbol: Hashable, args: Sequence["Term"] = ()) -> None:
        _set_symbol(self, symbol)
        _set_args(self, args if type(args) is tuple else tuple(args))

    def __reduce__(self) -> tuple:
        return self.__class__, (self.symbol, self.args)

    def __eq__(self, other: object) -> bool:
        """Structural equality.  A pair of identical subterms is not walked,
        and neither is a pair of nodes met before, so terms that share
        subterms cost the size of their DAGs, not of the unfolded trees."""
        if not isinstance(other, Fun):
            return NotImplemented
        if self.symbol != other.symbol or len(self.args) != len(other.args):
            return False
        if self is other:
            return True
        compared: set = set()
        stack = list(zip(self.args, other.args))
        while stack:
            s, t = stack.pop()
            if s is t:
                continue
            if isinstance(s, Var) or isinstance(t, Var):
                if s != t:
                    return False
            elif s.symbol != t.symbol or len(s.args) != len(t.args):
                return False
            elif s.args and (id(s), id(t)) not in compared:
                compared.add((id(s), id(t)))
                stack.extend(zip(s.args, t.args))
        return True

    def __hash__(self) -> int:
        # Equal terms give equal sequences of variables and (symbol, arity)
        # pairs in this walk.
        nodes = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                nodes.append(t)
            else:
                nodes.append((t.symbol, len(t.args)))
                stack.extend(t.args)
        return hash(tuple(nodes))

    def __repr__(self) -> str:
        """The dataclass format, e.g. ``Fun(symbol='f', args=(Var(name='x'),))``."""
        out: list[str] = []
        # Terms still to write, and the punctuation between them as strings.
        stack: list = [self]
        while stack:
            s = stack.pop()
            if isinstance(s, str):
                out.append(s)
            elif isinstance(s, Var):
                out.append(repr(s))
            else:
                out.append(f"Fun(symbol={s.symbol!r}, args=(")
                stack.append(",))" if len(s.args) == 1 else "))")
                for i in range(len(s.args) - 1, -1, -1):
                    stack.append(s.args[i])
                    if i:
                        stack.append(", ")
        return "".join(out)

    def __str__(self) -> str:
        return render(self)


Term = Var | Fun

# Setters of the slots, which store a field past the frozen ``__setattr__``.
_set_name = Var.name.__set__
_set_symbol = Fun.symbol.__set__
_set_args = Fun.args.__set__


def fold(t: Term, on_var: Callable[[Any], A], on_fun: Callable[[Any, list[A]], A]) -> A:
    """Structural recursion: ``on_var`` at leaves, ``on_fun`` on folded children.

    Leaves are visited left to right and each application after its
    arguments; the walk keeps its own stack.
    """
    values: list = []
    # An application waiting for its folded arguments is pushed as a 1-tuple.
    stack: list = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Var):
            values.append(on_var(s.name))
        elif isinstance(s, Fun):
            if s.args:
                stack.append((s,))
                stack.extend(s.args[::-1])
            else:
                values.append(on_fun(s.symbol, []))
        else:
            (s,) = s
            n = len(s.args)
            folded = values[-n:]
            del values[-n:]
            values.append(on_fun(s.symbol, folded))
    return values[0]


def map_symbols(t: Term, on_var: Callable[[Any], Any], on_fun: Callable[[Any], Any]) -> Term:
    """Rename every variable via ``on_var`` and every function symbol via ``on_fun``."""
    return fold(t, lambda v: Var(on_var(v)), lambda f, args: Fun(on_fun(f), tuple(args)))


def vars(t: Term) -> list:
    """All variable occurrences in preorder, duplicates preserved."""
    out: list = []
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Var):
            out.append(s.name)
        elif s.args:
            stack.extend(s.args[::-1])
    return out


def funs(t: Term) -> list:
    """All function-symbol occurrences in preorder, duplicates preserved."""
    out: list = []
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Fun):
            out.append(s.symbol)
            stack.extend(s.args[::-1])
    return out


def size(t: Term) -> int:
    return fold(t, lambda _: 1, lambda _, cs: 1 + sum(cs))


def positions(t: Term) -> list[Position]:
    """All positions of ``t`` in preorder: root first, then children left to right.

    The positions of a term of depth d hold O(d²) indices in all, so code
    that needs only the nodes walks the term itself, not these."""
    out: list[Position] = []
    stack: list = [((), t)]
    while stack:
        p, s = stack.pop()
        out.append(p)
        if isinstance(s, Fun):
            for i in range(len(s.args) - 1, -1, -1):
                stack.append((p + (i,), s.args[i]))
    return out


def _descend(t: Term, p: Sequence[int]) -> tuple[list[tuple[Fun, int]], Term]:
    """The applications passed on the way from ``t`` down to ``p``, outermost
    first, each with the argument index taken there, and the subterm at ``p``."""
    above = []
    for k, i in enumerate(p):
        if isinstance(t, Var) or not 0 <= i < len(t.args):
            raise InvalidPositionError(f"no subterm at index {i} (position step {k})")
        above.append((t, i))
        t = t.args[i]
    return above, t


def subterm_at(t: Term, p: Sequence[int]) -> Term:
    """The subterm rooted at ``p``; the root position yields ``t`` itself."""
    return _descend(t, p)[1]


def replace_at(t: Term, p: Sequence[int], s: Term) -> Term:
    """``t`` with the subterm at ``p`` replaced by ``s``."""
    above, _ = _descend(t, p)
    for t, i in reversed(above):
        s = Fun(t.symbol, t.args[:i] + (s,) + t.args[i + 1 :])
    return s


def is_ground(t: Term) -> bool:
    return not vars(t)


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
    out: list[str] = []
    # Terms still to render, and the punctuation between them as strings.
    stack: list = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            out.append(s)
        elif isinstance(s, Var):
            out.append(str(s.name))
        elif not s.args:
            out.append(str(s.symbol))
        else:
            out.append(f"{s.symbol}(")
            stack.append(")")
            args = s.args
            for i in range(len(args) - 1, 0, -1):
                stack.append(args[i])
                stack.append(",")
            stack.append(args[0])
    return "".join(out)


def to_json(t: Term) -> dict:
    if isinstance(t, Var):
        return {"var": str(t.name)}
    root = {"fun": str(t.symbol), "args": []}
    # Applications whose argument list in the output is still empty.
    stack = [(t.args, root["args"])]
    while stack:
        args, out = stack.pop()
        for a in args:
            if isinstance(a, Var):
                out.append({"var": str(a.name)})
            else:
                obj = {"fun": str(a.symbol), "args": []}
                out.append(obj)
                if a.args:
                    stack.append((a.args, obj["args"]))
    return root


def from_json(obj: dict) -> Term:
    if "var" in obj:
        return Var(obj["var"])
    # A frame is an application, its arguments not yet converted and those
    # converted so far.
    stack = [(obj, iter(obj["args"]), [])]
    while True:
        node, rest, done = stack[-1]
        for a in rest:
            if "var" in a:
                done.append(Var(a["var"]))
            else:
                stack.append((a, iter(a["args"]), []))
                break
        else:
            stack.pop()
            t = Fun(node["fun"], tuple(done))
            if not stack:
                return t
            stack[-1][2].append(t)
