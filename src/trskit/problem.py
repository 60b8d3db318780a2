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

The reader works on the tokens as plain strings from one regex pass.  The
offset of a token in the text is computed only when an error or the raw
text of a preserved section needs it, by matching tokens from whichever
end of the text is nearer, so a section after a long ``RULES`` costs the
tokens after it, not those before it.  One parse builds one node per
variable or constant name and shares it among the occurrences of that name
(`trskit.term` allows shared subterms); arities are still checked at every
occurrence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice, repeat
from types import MappingProxyType
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional

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


# A token is a special character or a maximal run of other non-whitespace.
_TOKEN = re.compile(r'\s*([(),"]|[^\s(),"]+)')
_ARROWS = ("->", "->=")
# Tokens that are not identifiers, and the sentinel "" that ends a token list.
_NOT_IDENT = frozenset(("(", ")", ",", '"', *_ARROWS, ""))

_STRATEGY_NAMES = {
    "FULL": Strategy.FULL,
    "INNERMOST": Strategy.INNERMOST,
    "OUTERMOST": Strategy.OUTERMOST,
}


class _Source:
    """The tokens of ``text``, as strings ended by the sentinel ``""``, and
    their offsets in ``text``, found only when asked for.

    No token is ``""``, so reading one or two tokens ahead of any token but
    the sentinel needs no bounds check.  A token's offset is counted from
    whichever end of the text is nearer.  Tokens are set by character
    classes alone, so the reversed text has the same tokens, reversed and
    in reverse order, and its `finditer` reaches the last tokens first.
    Each direction has one `finditer` pass, which resumes where the last
    request left it and keeps the offsets it has passed, so no match is
    pulled twice.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = _TOKEN.findall(text)
        self._count = len(self.tokens)
        self.tokens.append("")
        # Offsets of the first tokens, and (in the reversed text) ends of
        # the last tokens, with the passes that find more.
        self._head: list[int] = []
        self._tail: list[int] = []
        self._ahead: Optional[Iterator[re.Match]] = None
        self._behind: Optional[Iterator[re.Match]] = None

    def offset(self, i: int) -> int:
        """Offset of the ``i``-th token of the text; ``len(text)`` if there
        are not that many."""
        k = self._count - 1 - i  # the same token, counted from the end
        if k < 0:
            return len(self.text)
        if i <= k:
            if len(self._head) <= i:
                if self._ahead is None:
                    self._ahead = _TOKEN.finditer(self.text)
                self._head += map(re.Match.start, islice(self._ahead, i + 1 - len(self._head)), repeat(1))
            return self._head[i]
        if len(self._tail) <= k:
            if self._behind is None:
                self._behind = _TOKEN.finditer(self.text[::-1])
            self._tail += map(re.Match.end, islice(self._behind, k + 1 - len(self._tail)), repeat(1))
        return len(self.text) - self._tail[k]

    def error(self, message: str, i: int) -> ParseError:
        """A `ParseError` at token ``i``."""
        text, off = self.text, self.offset(i)
        return ParseError(message, text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))


def _closing(tokens: list[str], i: int) -> int:
    """Index of the ``)`` that closes the section whose body starts at token
    ``i``, or of the sentinel if the input ends first."""
    depth = 0
    while True:
        word = tokens[i]
        if word == "(":
            depth += 1
        elif word == ")":
            if depth == 0:
                return i
            depth -= 1
        elif not word:
            return i
        i += 1


def parse(text: str, *, check_arity: bool = True) -> Problem:
    """Parse a WST problem, or raise `ParseError` with a source position."""
    src = _Source(text)
    tokens = src.tokens

    def fail(message: str, i: int) -> ParseError:
        """The error at token ``i``; at the sentinel, a section is left open."""
        return src.error(message if tokens[i] else "unbalanced parentheses", i)

    variables: dict = {}  # ordered and without duplicates
    seen: set = set()
    rules_at = len(tokens) - 1  # first token of the rules; without RULES, the sentinel
    strategy: Optional[Strategy] = None
    comment: Optional[str] = None
    preserved: list[tuple[str, str]] = []

    i = 0
    while tokens[i]:
        if tokens[i] == ")":
            raise fail("unbalanced parentheses", i)
        if tokens[i] != "(":
            raise fail(f"expected '(', found {tokens[i]!r}", i)
        name = tokens[i + 1]
        if name in _NOT_IDENT and name not in _ARROWS:
            raise fail("expected section key", i + 1)
        if name in ("VAR", "RULES", "STRATEGY"):
            if name in seen:
                raise fail(f"duplicate {name} section", i + 1)
            seen.add(name)
        i += 2
        if name == "VAR":
            while tokens[i] != ")":
                word = tokens[i]
                if word in _NOT_IDENT:
                    raise fail(f"expected variable name, found {word!r}", i)
                variables[word] = None
                i += 1
            i += 1
        elif name == "STRATEGY":
            word = tokens[i]
            if word not in _STRATEGY_NAMES:
                raise fail(f"unknown STRATEGY keyword {word!r}", i)
            strategy = _STRATEGY_NAMES[word]
            word = tokens[i + 1]
            if word != ")":
                raise fail(f"expected ')' after strategy, found {word!r}", i + 1)
            i += 2
        else:
            j = _closing(tokens, i)
            if not tokens[j]:
                raise fail("unbalanced parentheses", j)
            if name == "RULES":
                # Its closing parenthesis becomes the sentinel that ends the rules.
                rules_at, tokens[j] = i, ""
            else:
                raw = text[src.offset(i - 1) + len(name) : src.offset(j)]
                if name == "COMMENT":
                    body = raw.strip()
                    comment = body if comment is None else f"{comment}\n{body}"
                else:
                    preserved.append((name, raw))
            i = j + 1

    strict, weak = _parse_rules(src, rules_at, variables.keys(), check_arity)
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
    src = _Source(text)
    last = len(src.tokens) - 2
    if last < 0:
        raise src.error("expected a term", 0)
    arity = None if arity is None else dict(arity)
    t, i = _parse_term_tokens(src, 0, set(variables), arity, {}, last)
    if src.tokens[i]:
        raise src.error(f"trailing input {src.tokens[i]!r}", i)
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
    src: _Source,
    i: int,
    variables: AbstractSet,
    check_arity: bool,
) -> tuple[list[Rule], list[Rule]]:
    """Rules juxtaposed from token ``i`` up to the sentinel, which stands
    for the closing ``)`` of ``RULES``."""
    tokens = src.tokens
    arity: Optional[dict] = {} if check_arity else None
    leaves: dict = {}
    strict: list[Rule] = []
    weak: list[Rule] = []
    while tokens[i]:
        lhs, i = _parse_term_tokens(src, i, variables, arity, leaves, None)
        arrow = tokens[i]
        if arrow not in _ARROWS:
            raise src.error(f"expected '->' or '->=', found {arrow!r}" if arrow else "missing arrow", i)
        rhs, i = _parse_term_tokens(src, i + 1, variables, arity, leaves, None)
        (weak if arrow == "->=" else strict).append(Rule(lhs, rhs))
    return strict, weak


def _parse_term_tokens(
    src: _Source,
    i: int,
    variables: AbstractSet,
    arity: Optional[dict],
    leaves: dict,
    end: Optional[int],
) -> tuple[Term, int]:
    """The term starting at token ``i`` and the index after it.

    ``leaves`` maps each variable and constant name read so far to its one
    node.  Running into the sentinel is an error at token ``end``, or at
    the sentinel itself if ``end`` is ``None``.
    """
    tokens = src.tokens
    # Applications whose arguments are still being read: (symbol, token index, arguments).
    stack: list[tuple[str, int, list[Term]]] = []
    while True:
        word = tokens[i]
        if word in _NOT_IDENT:
            if word:
                raise src.error(f"expected a term, found {word!r}", i)
            message = "unbalanced parentheses" if stack else "unexpected end of input"
            raise src.error(message, i if end is None else end)
        at = i
        if tokens[i + 1] == "(":
            if word in variables:
                raise src.error("variable applied to arguments", i)
            if tokens[i + 2] != ")":
                stack.append((word, i, []))
                i += 2
                continue
            i += 3
        else:
            i += 1
        t = leaves.get(word)
        if t is None:
            t = leaves[word] = Var(word) if word in variables else Fun(word)
        if arity is not None and type(t) is Fun and arity.setdefault(word, 0):
            raise _arity_error(src, arity, word, at, 0)
        while stack:
            stack[-1][2].append(t)
            sep = tokens[i]
            if sep == ",":
                i += 1
                break
            if sep != ")":
                if sep:
                    raise src.error(f"expected ',' or ')', found {sep!r}", i)
                raise src.error("unbalanced parentheses", i if end is None else end)
            sym, at, args = stack.pop()
            if arity is not None and arity.setdefault(sym, len(args)) != len(args):
                raise _arity_error(src, arity, sym, at, len(args))
            t = Fun(sym, tuple(args))
            i += 1
        else:
            return t, i


def _arity_error(src: _Source, arity: dict, symbol: str, at: int, n: int) -> ParseError:
    """The error for ``symbol`` used at token ``at`` with ``n`` arguments."""
    return src.error(f"inconsistent arity for {symbol!r}: {n} here, {arity[symbol]} before", at)


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


def to_json(p: Problem, *, term=_term.to_json) -> dict:
    """The JSON document of ``p``; ``term`` gives the value of each rule side."""
    return {
        "variables": [str(v) for v in p.variables],
        "strictRules": [_rule.to_json(r, term=term) for r in p.strict_rules],
        "weakRules": [_rule.to_json(r, term=term) for r in p.weak_rules],
        "strategy": p.strategy.name if p.strategy is not None else None,
        "comment": p.comment,
        "preservedSections": [{"key": k, "body": b} for k, b in p.preserved_sections],
        "hasTheory": p.has_theory,
    }
