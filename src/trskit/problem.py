r"""Reading and writing rewrite problems in the WST (old TPDB) text format.

A problem file is a sequence of parenthesized sections::

    (VAR x y)
    (RULES
    f(x,y) -> f(y,x)
    a -> b
    )
    (STRATEGY INNERMOST)
    (COMMENT free text, parens balanced)

Identifiers are maximal runs of characters other than whitespace,
parentheses, comma and double quote; ``->`` and ``->=`` are reserved
arrow tokens, never identifiers.  Identifiers listed in ``VAR`` are
variables, every other identifier is a function symbol (so undeclared
nullary names are constants).  Rules are juxtaposed inside ``RULES`` and
disambiguated by the arrows; ``->=`` introduces a weak (relative) rule.
``STRATEGY`` admits FULL, INNERMOST or OUTERMOST.  ``THEORY`` and any
unknown section are preserved verbatim; a ``THEORY`` section additionally
sets a warning flag since its semantics are not interpreted here.

Function symbols must be used with one arity throughout; parsing fails
otherwise unless the check is explicitly disabled.

Whitespace is every character that ``str.isspace()`` accepts; in the
latin-1 text that the CLI reads, that includes ``\x1c``-``\x1f``, ``\x85``
and ``\xa0``.  `ParseError` carries a 1-based line and column.  Only
``\n`` ends a line; every other character, tab and ``\r`` included, is one
column.  An error at the end of the input points just past its last
character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, Optional

from . import rule as _rule, term as _term
from .rewriting import Strategy
from .rule import Rule
from .term import Fun, Term, Var


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Problem:
    variables: tuple = ()
    strict_rules: tuple[Rule, ...] = ()
    weak_rules: tuple[Rule, ...] = ()
    strategy: Optional[Strategy] = None
    comment: Optional[str] = None
    preserved_sections: tuple[tuple[str, str], ...] = ()
    has_theory: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "strict_rules", tuple(self.strict_rules))
        object.__setattr__(self, "weak_rules", tuple(self.weak_rules))
        object.__setattr__(
            self, "preserved_sections", tuple((k, b) for k, b in self.preserved_sections)
        )


# A token is a special character or a maximal run of other non-whitespace;
# its kind is lparen, rparen, comma, quote, arrow or ident.
_KINDS = {"(": "lparen", ")": "rparen", ",": "comma", '"': "quote", "->": "arrow", "->=": "arrow"}
_TOKEN = re.compile(r'\s*([(),"]|[^\s(),"]+)')

_STRATEGY_NAMES = {
    "FULL": Strategy.FULL,
    "INNERMOST": Strategy.INNERMOST,
    "OUTERMOST": Strategy.OUTERMOST,
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` for every token of ``text``, in order."""
    return [(_KINDS.get(m[1], "ident"), m[1], m.start(1)) for m in _TOKEN.finditer(text)]


def _error(text: str, message: str, off: int) -> ParseError:
    """A `ParseError` at offset ``off`` of ``text``."""
    return ParseError(message, text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))


def _closing(text: str, tokens: list, i: int) -> int:
    """Index of the ``)`` that closes the section whose body starts at token ``i``."""
    depth = 0
    for j in range(i, len(tokens)):
        kind = tokens[j][0]
        if kind == "lparen":
            depth += 1
        elif kind == "rparen":
            if depth == 0:
                return j
            depth -= 1
    raise _error(text, "unbalanced parentheses", len(text))


def parse(text: str, *, check_arity: bool = True) -> Problem:
    """Parse a WST problem, or raise `ParseError` with a source position."""
    tokens = _tokenize(text)

    def token(i: int) -> tuple[str, str, int]:
        if i >= len(tokens):
            raise _error(text, "unbalanced parentheses", len(text))
        return tokens[i]

    variables: dict = {}  # ordered and without duplicates
    seen: set = set()
    rule_tokens: list = []
    rules_end = 0
    strategy: Optional[Strategy] = None
    comment: Optional[str] = None
    preserved: list[tuple[str, str]] = []

    i = 0
    while i < len(tokens):
        kind, word, off = tokens[i]
        if kind == "rparen":
            raise _error(text, "unbalanced parentheses", off)
        if kind != "lparen":
            raise _error(text, f"expected '(', found {word!r}", off)
        kind, name, off = token(i + 1)
        if kind not in ("ident", "arrow"):
            raise _error(text, "expected section key", off)
        if name in ("VAR", "RULES", "STRATEGY"):
            if name in seen:
                raise _error(text, f"duplicate {name} section", off)
            seen.add(name)
        i += 2
        if name == "VAR":
            while True:
                kind, word, off = token(i)
                i += 1
                if kind == "rparen":
                    break
                if kind != "ident":
                    raise _error(text, f"expected variable name, found {word!r}", off)
                variables[word] = None
        elif name == "STRATEGY":
            kind, word, off = token(i)
            if kind != "ident" or word not in _STRATEGY_NAMES:
                raise _error(text, f"unknown STRATEGY keyword {word!r}", off)
            strategy = _STRATEGY_NAMES[word]
            kind, word, off = token(i + 1)
            if kind != "rparen":
                raise _error(text, f"expected ')' after strategy, found {word!r}", off)
            i += 2
        else:
            j = _closing(text, tokens, i)
            if name == "RULES":
                rule_tokens, rules_end = tokens[i:j], tokens[j][2]
            else:
                raw = text[off + len(name) : tokens[j][2]]
                if name == "COMMENT":
                    body = raw.strip()
                    comment = body if comment is None else f"{comment}\n{body}"
                else:
                    preserved.append((name, raw))
            i = j + 1

    strict, weak = _parse_rules(text, rule_tokens, rules_end, variables.keys(), check_arity)
    return Problem(
        variables=tuple(variables),
        strict_rules=tuple(strict),
        weak_rules=tuple(weak),
        strategy=strategy,
        comment=comment,
        preserved_sections=tuple(preserved),
        has_theory=any(key == "THEORY" for key, _ in preserved),
    )


def parse_term(
    text: str, variables: Iterable, *, arity: Optional[Mapping] = MappingProxyType({})
) -> Term:
    """Parse one complete term; identifiers in ``variables`` become variables.

    Function symbols must keep one arity throughout the term, and the arity
    that ``arity`` gives them, if any (see `arities`); ``arity=None`` checks
    nothing.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise _error(text, "expected a term", len(text))
    arity = None if arity is None else dict(arity)
    t, i = _parse_term_tokens(text, tokens, 0, set(variables), arity, tokens[-1][2])
    if i != len(tokens):
        _, word, off = tokens[i]
        raise _error(text, f"trailing input {word!r}", off)
    return t


def arities(p: Problem) -> dict:
    """The arity of each function symbol in the rules of ``p``; a symbol used
    with several arities (possible only without the arity check) gets one."""
    out: dict = {}
    stack: list = [t for r in p.strict_rules + p.weak_rules for t in (r.lhs, r.rhs)]
    while stack:
        t = stack.pop()
        if isinstance(t, Fun):
            out.setdefault(t.symbol, len(t.args))
            stack.extend(t.args)
    return out


def _parse_rules(
    text: str,
    tokens: list,
    end: int,
    variables: AbstractSet,
    check_arity: bool,
) -> tuple[list[Rule], list[Rule]]:
    """Rules juxtaposed in ``tokens``; ``end`` is the offset of the closing ``)``."""
    arity: Optional[dict] = {} if check_arity else None
    strict: list[Rule] = []
    weak: list[Rule] = []
    i = 0
    while i < len(tokens):
        lhs, i = _parse_term_tokens(text, tokens, i, variables, arity, end)
        if i >= len(tokens):
            raise _error(text, "missing arrow", end)
        kind, arrow, off = tokens[i]
        if kind != "arrow":
            raise _error(text, f"expected '->' or '->=', found {arrow!r}", off)
        i += 1
        rhs, i = _parse_term_tokens(text, tokens, i, variables, arity, end)
        (weak if arrow == "->=" else strict).append(Rule(lhs, rhs))
    return strict, weak


def _parse_term_tokens(
    text: str,
    tokens: list,
    i: int,
    variables: AbstractSet,
    arity: Optional[dict],
    end: int,
) -> tuple[Term, int]:
    """The term starting at token ``i`` and the index after it; running out of
    tokens is an error at offset ``end``."""

    def check(word: str, off: int, n: int) -> None:
        if arity is None:
            return
        prev = arity.setdefault(word, n)
        if prev != n:
            raise _error(text, f"inconsistent arity for {word!r}: {n} here, {prev} before", off)

    # Applications whose arguments are still being read: (symbol, offset, arguments).
    stack: list[tuple[str, int, list[Term]]] = []
    while True:
        if i >= len(tokens):
            message = "unbalanced parentheses" if stack else "unexpected end of input"
            raise _error(text, message, end)
        kind, word, off = tokens[i]
        if kind != "ident":
            raise _error(text, f"expected a term, found {word!r}", off)
        t: Term
        if i + 1 < len(tokens) and tokens[i + 1][0] == "lparen":
            if word in variables:
                raise _error(text, "variable applied to arguments", off)
            if i + 2 < len(tokens) and tokens[i + 2][0] == "rparen":
                check(word, off, 0)
                t = Fun(word)
                i += 3
            else:
                stack.append((word, off, []))
                i += 2
                continue
        elif word in variables:
            t = Var(word)
            i += 1
        else:
            check(word, off, 0)
            t = Fun(word)
            i += 1
        while True:
            if not stack:
                return t, i
            stack[-1][2].append(t)
            if i >= len(tokens):
                raise _error(text, "unbalanced parentheses", end)
            kind, sep, off = tokens[i]
            if kind == "comma":
                i += 1
                break
            if kind != "rparen":
                raise _error(text, f"expected ',' or ')', found {sep!r}", off)
            sym, sym_off, args = stack.pop()
            check(sym, sym_off, len(args))
            t = Fun(sym, tuple(args))
            i += 1


def render(p: Problem) -> str:
    """Canonical text for a problem; `parse` of the result reproduces ``p``."""
    lines = []
    if p.variables:
        lines.append("(VAR " + " ".join(str(v) for v in p.variables) + ")")
    else:
        lines.append("(VAR)")
    lines.append("(RULES")
    for r in p.strict_rules:
        lines.append(_rule.render(r))
    for r in p.weak_rules:
        lines.append(f"{_term.render(r.lhs)} ->= {_term.render(r.rhs)}")
    lines.append(")")
    if p.strategy is not None:
        lines.append(f"(STRATEGY {p.strategy.name})")
    for key, raw in p.preserved_sections:
        lines.append(f"({key}{raw})")
    if p.comment is not None:
        lines.append(f"(COMMENT {p.comment})")
    return "\n".join(lines) + "\n"


def to_json(p: Problem) -> dict:
    return {
        "variables": [str(v) for v in p.variables],
        "strictRules": [_rule.to_json(r) for r in p.strict_rules],
        "weakRules": [_rule.to_json(r) for r in p.weak_rules],
        "strategy": p.strategy.name if p.strategy is not None else None,
        "comment": p.comment,
        "preservedSections": [{"key": k, "body": b} for k, b in p.preserved_sections],
        "hasTheory": p.has_theory,
    }
