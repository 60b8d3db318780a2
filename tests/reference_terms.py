"""The term nodes as frozen dataclasses with generated ``__init__``
methods, and `TaggedVar` with the generated hash.

`trskit.term` and `trskit.rule` build the same values with hand-written
``__init__`` methods that store each field once, and `trskit.rule.TaggedVar`
caches its hash.  The replay tests in ``test_term.py`` convert terms between
the two and check that ``repr``, ``str``, ``==``, ``!=`` and ``hash`` agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from trskit import rule, term


@dataclass(frozen=True)
class Var:
    name: Hashable

    def __str__(self) -> str:
        return str(self.name)


@dataclass(frozen=True, eq=False)
class Fun:
    symbol: Hashable
    args: tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

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


@dataclass(frozen=True)
class TaggedVar:
    """A variable pushed into a two-sided namespace by `tag` and `rename_apart`."""

    side: str
    base: Any

    def __str__(self) -> str:
        return f"{self.base}@{self.side}"


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


def to_reference(t: term.Term) -> Term:
    """``t`` built from the classes above, sharing the subterms it shares."""
    return _convert(t, term.Var, Var, Fun, rule.TaggedVar, TaggedVar)


def from_reference(t: Term) -> term.Term:
    """The inverse of `to_reference`."""
    return _convert(t, Var, term.Var, term.Fun, TaggedVar, rule.TaggedVar)


def _convert(t, source_var, var, fun, source_tagged, tagged):
    built: dict = {}
    stack = [t]
    while stack:
        s = stack[-1]
        if id(s) in built:
            stack.pop()
        elif isinstance(s, source_var):
            name = s.name
            if isinstance(name, source_tagged):
                name = tagged(name.side, name.base)
            built[id(s)] = var(name)
            stack.pop()
        else:
            pending = [a for a in s.args if id(a) not in built]
            if pending:
                stack.extend(pending)
            else:
                built[id(s)] = fun(s.symbol, tuple(built[id(a)] for a in s.args))
                stack.pop()
    return built[id(t)]
