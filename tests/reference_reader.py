"""The WST reader over ``(kind, text, offset)`` token tuples, with every
offset computed up front and a new node for every leaf.

`trskit.problem` reads plain token strings and finds offsets only for
errors and preserved sections; the replay tests in ``test_problem.py``
check that it gives the same problems and the same errors as this reader.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, Optional

from trskit.problem import ParseError, Problem
from trskit.rewriting import Strategy
from trskit.rule import Rule
from trskit.term import Fun, Term, Var

# A token is a special character or a maximal run of other non-whitespace;
# its kind is lparen, rparen, comma, quote, arrow or ident.
_KINDS = {"(": "lparen", ")": "rparen", ",": "comma", '"': "quote", "->": "arrow", "->=": "arrow"}
TOKEN = re.compile(r'\s*([(),"]|[^\s(),"]+)')

_STRATEGY_NAMES = {
    "FULL": Strategy.FULL,
    "INNERMOST": Strategy.INNERMOST,
    "OUTERMOST": Strategy.OUTERMOST,
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` for every token of ``text``, in order."""
    return [(_KINDS.get(m[1], "ident"), m[1], m.start(1)) for m in TOKEN.finditer(text)]


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


def reference_parse(text: str, *, check_arity: bool = True) -> Problem:
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


def reference_parse_term(
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
