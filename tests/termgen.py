"""Shared generators: random terms/rules, exhaustive enumerations, strategies."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from trskit import substitution, term
from trskit.rule import Rule
from trskit.term import Fun, Var

SIGNATURE = (("f", 2), ("g", 1), ("a", 0), ("b", 0))
VARIABLES = ("x", "y", "z")


def random_term(rng: random.Random, max_depth: int = 4, variables=VARIABLES, signature=SIGNATURE):
    if max_depth > 0 and rng.random() < 0.7:
        sym, n = rng.choice(signature)
        return Fun(sym, tuple(random_term(rng, max_depth - 1, variables, signature) for _ in range(n)))
    if variables and rng.random() < 0.5:
        return Var(rng.choice(variables))
    constants = [s for s, n in signature if n == 0]
    return Fun(rng.choice(constants))


def random_valid_rule(rng: random.Random, max_depth: int = 2):
    """A rule with non-variable lhs binding every rhs variable."""
    while True:
        lhs = random_term(rng, max_depth)
        if isinstance(lhs, Fun):
            break
    lhs_vars = tuple(dict.fromkeys(term.vars(lhs)))
    rhs = random_term(rng, max_depth, variables=lhs_vars)
    return Rule(lhs, rhs)


def root_overlapping_system(rng: random.Random, max_rules: int = 6) -> list:
    """Valid rules that often overlap at the root: in half of the systems
    every left-hand side has root ``f``, and in half some rules appear again
    at other indices, as the same object or with their variables renamed."""
    same_root = rng.random() < 0.5
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        if same_root:
            lhs = Fun("f", (random_term(rng, 1), random_term(rng, 1)))
            rhs = random_term(rng, 2, variables=tuple(dict.fromkeys(term.vars(lhs))))
            rules.append(Rule(lhs, rhs))
        else:
            rules.append(random_valid_rule(rng))
    if rng.random() < 0.5:
        renaming = dict(zip(VARIABLES, rng.sample(VARIABLES, len(VARIABLES))))
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(rules)
            if rng.random() < 0.5:
                r = Rule(*(term.map_symbols(t, renaming.get, lambda s: s) for t in (r.lhs, r.rhs)))
            rules.insert(rng.randint(0, len(rules)), r)
    return rules


def dag(depth: int, leaf, symbol: str = "f"):
    """``symbol(t, t)`` with one shared object ``t``, ``depth`` times over
    ``leaf``: ``depth + 1`` objects that unfold to ``2**(depth + 1) - 1`` nodes."""
    t = leaf
    for _ in range(depth):
        t = Fun(symbol, (t, t))
    return t


def enumerate_terms(max_depth: int, signature=SIGNATURE, variables=VARIABLES) -> list:
    """All terms of depth at most ``max_depth`` over the given symbols."""
    leaves = [Var(v) for v in variables] + [Fun(s) for s, n in signature if n == 0]
    current = list(leaves)
    for _ in range(max_depth):
        grown = list(leaves)
        for s, n in signature:
            if n == 0:
                continue
            for combo in itertools.product(current, repeat=n):
                grown.append(Fun(s, combo))
        current = grown
    return current


def brute_force_overlaps(rules) -> list:
    """Overlap triples (outer index, position, inner index), via plain suffix renaming."""
    out = []
    for j, outer in enumerate(rules):
        outer_lhs = term.map_symbols(outer.lhs, lambda v: f"{v}#2", lambda f: f)
        for p in term.positions(outer_lhs):
            if isinstance(term.subterm_at(outer_lhs, p), Var):
                continue
            for i, inner in enumerate(rules):
                if p == () and i == j:
                    continue
                inner_lhs = term.map_symbols(inner.lhs, lambda v: f"{v}#1", lambda f: f)
                if substitution.unify(inner_lhs, term.subterm_at(outer_lhs, p)) is not None:
                    out.append((j, p, i))
    return out


def term_strategy(variables=("x", "y", "z"), max_leaves: int = 12):
    leaves = st.sampled_from([Var(v) for v in variables] + [Fun("a"), Fun("b")])
    return st.recursive(
        leaves,
        lambda ts: st.builds(lambda l, r: Fun("f", (l, r)), ts, ts)
        | st.builds(lambda t: Fun("g", (t,)), ts),
        max_leaves=max_leaves,
    )


def rule_strategy(max_leaves: int = 8):
    """Valid rules only: rhs built from a draw over the lhs variable set."""

    @st.composite
    def build(draw):
        lhs = draw(term_strategy(max_leaves=max_leaves).filter(lambda t: isinstance(t, Fun)))
        lhs_vars = tuple(dict.fromkeys(term.vars(lhs))) or ("x",)
        if term.is_ground(lhs):
            rhs = draw(term_strategy(variables=(), max_leaves=max_leaves))
        else:
            rhs = draw(term_strategy(variables=lhs_vars, max_leaves=max_leaves))
        return Rule(lhs, rhs)

    return build()


def subst_strategy(variables=("x", "y", "z"), max_leaves: int = 6):
    return st.dictionaries(
        st.sampled_from(variables), term_strategy(max_leaves=max_leaves), max_size=3
    ).map(substitution.to_standard)
