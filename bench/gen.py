"""Seeded input generators.  Everything here is drawn from a ``random.Random``
passed in, so one seed always gives the same inputs.  Terms are `oracle`
terms; `wst` writes them out in the WST text that trskit parses."""

from __future__ import annotations

import random

from oracle import fun, is_var, render, tree_size as size, variables

VARS = ("x", "y", "z", "u", "v", "w")


def signature(rng: random.Random, n: int, prefix: str = "f") -> list[tuple[str, int]]:
    """``n`` symbols whose arities (0-3) come in fixed proportions, so that
    only the names, not the sizes, of generated terms depend on the seed."""
    arities = [(0, 1, 2, 3, 0, 1, 2, 1, 2, 0)[k % 10] for k in range(n)]
    rng.shuffle(arities)
    return [(f"{prefix}{k}", a) for k, a in enumerate(arities)]


def term(rng: random.Random, sig, depth: int, var_pool: list, var_share: float = 0.35):
    """A random term of depth at most ``depth``.  Variable occurrences are
    taken from the front of ``var_pool``, so each entry is used at most once."""
    if depth == 0 or (var_pool and rng.random() < var_share):
        if var_pool and (depth == 0 or rng.random() < 0.8):
            return var_pool.pop(0)
        return fun(rng.choice([s for s, a in sig if a == 0]))
    sym, arity = rng.choice(sig)
    return fun(sym, *(term(rng, sig, depth - 1, var_pool, var_share) for _ in range(arity)))


def decreasing_rule(rng: random.Random, sig, max_depth: int = 3):
    """A rule whose right side is smaller than its left side and uses no
    variable more often than the left side does, so every step shrinks the
    term and every rewrite sequence ends.  Left sides have depth <= 3 and
    4-8 nodes, so that rule size, which sets the cost of most operations,
    varies little from seed to seed; one in four repeats a variable."""
    while True:
        pool = list(VARS) if rng.random() < 0.75 else [rng.choice(VARS[:2]) for _ in range(6)]
        lhs = term(rng, sig, rng.randint(2, max_depth), pool)
        if not is_var(lhs) and 4 <= size(lhs) <= 8:
            break
    avail = variables(lhs)
    while True:
        pool = list(avail)
        rng.shuffle(pool)
        rhs = term(rng, sig, rng.randint(0, max_depth - 1), pool, var_share=0.5)
        if size(rhs) < size(lhs):
            return lhs, rhs


def decreasing_system(rng: random.Random, n_rules: int, n_symbols: int) -> list:
    sig = signature(rng, n_symbols)
    return [decreasing_rule(rng, sig) for _ in range(n_rules)]


def var_names(rules) -> list:
    """The rules' variables in order of first occurrence."""
    names: list = []
    for lhs, rhs in rules:
        for v in variables(lhs) + variables(rhs):
            if v not in names:
                names.append(v)
    return names


def wst(rules, weak=(), *, strategy=None, theory=None, comment=None, extra=()) -> str:
    """WST text for the rules; ``extra`` holds ``(key, body)`` sections kept verbatim."""
    lines = [f"(VAR {' '.join(var_names(list(rules) + list(weak)))})", "(RULES"]
    lines += [f"{render(l)} -> {render(r)}" for l, r in rules]
    lines += [f"{render(l)} ->= {render(r)}" for l, r in weak]
    lines.append(")")
    if strategy:
        lines.append(f"(STRATEGY {strategy})")
    if theory:
        lines.append(f"(THEORY {theory})")
    lines += [f"({key} {body})" for key, body in extra]
    if comment:
        lines.append(f"(COMMENT {comment})")
    return "\n".join(lines) + "\n"
