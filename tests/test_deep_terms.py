"""Every public traversal works on deep terms at the default recursion limit.

Linear operations run on unary chains ``s(s(...(leaf)))`` of depth 100 000.
Only ``positions`` and ``step`` under FULL run at depth 2 000, because their
output is quadratic in the depth.
A second test reads the source and fails on any function that calls
itself by name, so that recursion does not come back.
"""

import ast
import functools
from pathlib import Path

import pytest

from trskit import analysis, context, criticalpairs, problem, rewriting, rule, substitution, term
from trskit.analysis import LocallyConfluent
from trskit.context import CFun
from trskit.criticalpairs import CriticalPair
from trskit.rewriting import Strategy
from trskit.rule import Rule
from trskit.term import Fun, Var

DEEP = 100_000
QUADRATIC = 2_000
SRC = Path(__file__).resolve().parent.parent / "src" / "trskit"

x, y = Var("x"), Var("y")
a, b = Fun("a"), Fun("b")
S_X = Rule(Fun("s", (x,)), x)


def chain(n, leaf=x, symbol="s"):
    t = leaf
    for _ in range(n):
        t = Fun(symbol, (t,))
    return t


@functools.lru_cache(maxsize=None)
def shared(n, leaf=x):
    """``chain(n, leaf)``, built once for the cases that only read it."""
    return chain(n, leaf)


@pytest.fixture(scope="module", autouse=True)
def release_shared_chains():
    yield
    shared.cache_clear()


def text(n, leaf="x"):
    return "s(" * n + leaf + ")" * n


def case(depth):
    def register(check):
        CASES.append(pytest.param(depth, check, id=check.__name__))
        return check

    return register


CASES: list = []


# term -----------------------------------------------------------------------


@case(DEEP)
def term_fold_vars_funs_size(n):
    t = shared(n)
    assert term.fold(t, lambda _: 1, lambda _, cs: 1 + sum(cs)) == n + 1
    assert term.vars(t) == ["x"]
    assert len(term.funs(t)) == n
    assert term.size(t) == n + 1


@case(DEEP)
def term_map_symbols(n):
    got = term.map_symbols(shared(n), str.upper, str.upper)
    assert term.render(got) == text(n).upper()


@case(QUADRATIC)
def term_positions(n):
    ps = term.positions(shared(n))
    assert len(ps) == n + 1 and ps[-1] == (0,) * n


@case(DEEP)
def term_subterm_and_replace_at(n):
    assert term.subterm_at(shared(n), (0,) * n) == x
    assert term.replace_at(shared(n), (0,) * n, a) == shared(n, a)


@case(DEEP)
def term_ground_linear_instance_variant(n):
    assert not term.is_ground(shared(n)) and term.is_ground(shared(n, a))
    assert term.is_linear(shared(n))
    assert term.is_instance_of(shared(n, a), shared(n))
    assert term.is_variant_of(shared(n), shared(n, y))


@case(DEEP)
def term_render_str_and_json(n):
    assert term.render(shared(n)) == text(n)
    assert str(shared(n, a)) == text(n, "a")
    assert term.from_json(term.to_json(shared(n))) == shared(n)


@case(DEEP)
def term_repr(n):
    assert repr(shared(n, a)) == "Fun(symbol='s', args=(" * n + "Fun(symbol='a', args=())" + ",))" * n


@case(DEEP)
def term_eq_and_hash(n):
    t, u = shared(n), chain(n)
    assert t == u and hash(t) == hash(u)
    assert t != shared(n, y)
    assert {t: 1}[u] == 1


# substitution ---------------------------------------------------------------


@case(DEEP)
def substitution_apply_and_compose(n):
    assert substitution.apply({"x": a}, shared(n)) == shared(n, a)
    assert substitution.apply_generalized({"x": a}, shared(n)) == shared(n, a)
    assert substitution.apply_generalized({"y": a}, shared(n)) is None
    assert substitution.compose({"y": shared(n)}, {"x": a}) == {"y": shared(n, a), "x": a}


@case(DEEP)
def substitution_match(n):
    assert substitution.match(shared(n), shared(n, a)) == {"x": a}
    both = Fun("f", (shared(n, a), chain(n, a)))
    assert substitution.match(Fun("f", (x, x)), both) == {"x": shared(n, a)}


@case(DEEP)
def substitution_render_and_json(n):
    sigma = {"x": shared(n, a)}
    assert substitution.render(sigma) == "{x -> " + text(n, "a") + "}"
    assert term.from_json(substitution.to_json(sigma)["x"]) == shared(n, a)


@case(DEEP)
def substitution_unify(n):
    assert substitution.unify(shared(n), shared(n, a)) == {"x": a}
    assert substitution.unify(x, shared(n)) is None


# context --------------------------------------------------------------------


@case(DEEP)
def context_round_trip(n):
    c = context.of_term(shared(n), (0,) * n)
    assert context.hole_position(c) == (0,) * n
    assert context.plug(c, a) == shared(n, a)
    assert context.render(c) == text(n, "[]") == str(c)
    d = context.of_term(shared(n, a), (0,) * n)
    assert c == d and hash(c) == hash(d)
    assert c != context.of_term(Fun("t", (shared(n - 1),)), (0,) * n)
    # Sharing the inner tail object: unequal above it, equal on every layer.
    assert c != CFun("t", (), c.inner, ())
    e = CFun("s", (), c.inner, ())
    assert c == e and hash(c) == hash(e)


@case(DEEP)
def context_repr(n):
    c = context.of_term(Fun("f", (a, shared(n - 1))), (1,) + (0,) * (n - 1))
    layer = "CFun(symbol='s', before=(), inner="
    assert repr(c) == (
        "CFun(symbol='f', before=(Fun(symbol='a', args=()),), inner="
        + layer * (n - 1)
        + "Hole()"
        + ", after=())" * n
    )


# rule -----------------------------------------------------------------------


@case(DEEP)
def rule_checks(n):
    r = Rule(Fun("g", (shared(n),)), shared(n))
    assert rule.is_valid(r)
    rule.check_valid([r])
    assert rule.properties(r).linear
    assert rule.is_instance_of(Rule(Fun("g", (shared(n, a),)), shared(n, a)), r)
    assert rule.is_variant_of(r, Rule(Fun("g", (shared(n, y),)), shared(n, y)))


@case(DEEP)
def rule_rename_render_json(n):
    r = Rule(shared(n), x)
    left, _ = rule.rename_apart(r, r)
    assert term.vars(left.lhs) == [rule.TaggedVar("L", "x")]
    assert rule.render(r) == text(n) + " -> x"
    assert term.from_json(rule.to_json(r)["lhs"]) == r.lhs


# rewriting ------------------------------------------------------------------


@case(DEEP)
def rewriting_step(n):
    t = shared(n, a)
    [root] = rewriting.step([S_X], t, Strategy.ROOT)
    [outer] = rewriting.step([S_X], t, Strategy.OUTERMOST)
    assert root.pos == outer.pos == () and outer.result is t.args[0]
    [inner] = rewriting.step([S_X], t, Strategy.INNERMOST)
    assert inner.pos == (0,) * (n - 1) and inner.result == shared(n - 1, a)
    assert rewriting.render(inner).startswith(text(n - 1, "a") + " @ [0,")
    assert rewriting.to_json(inner)["pos"] == [0] * (n - 1)


@case(QUADRATIC)
def rewriting_step_full(n):
    # Two redexes at the bottom; a redex at every node would build n
    # reducts of depth up to n.
    rules = [Rule(Fun("s", (Fun("s", (a,)),)), b), Rule(Fun("s", (a,)), b)]
    reducts = rewriting.step(rules, shared(n, a), Strategy.FULL)
    assert [r.pos for r in reducts] == [(0,) * (n - 2), (0,) * (n - 1)]
    assert reducts[0].result == shared(n - 2, b)


@case(DEEP)
def rewriting_normal_form_and_properties(n):
    assert not rewriting.is_normal_form([S_X], shared(n, a))
    assert rewriting.is_normal_form([Rule(b, a)], shared(n, a))
    assert rewriting.list_properties([Rule(Fun("g", (shared(n),)), shared(n))]).linear


# criticalpairs --------------------------------------------------------------


@case(DEEP)
def criticalpairs_critical_pairs(n):
    # The inner rule unifies at the bottom only.
    pairs = criticalpairs.critical_pairs([Rule(Fun("g", (shared(n, a),)), a), Rule(Fun("s", (a,)), b)])
    assert [cp.left_pos for cp in pairs] == [(0,) * n]
    assert pairs[0].left == Fun("g", (shared(n - 1, b),))


@case(DEEP)
def criticalpairs_render_and_json(n):
    cp = CriticalPair(shared(n), y, x, S_X, S_X, (), 0, 1)
    assert criticalpairs.render(cp) == (
        f"peak: {text(n, 'x1')}\nleft: x2  (rule 0 at [])\nright: x1  (rule 1 at root)"
    )
    assert term.from_json(criticalpairs.to_json(cp)["top"]) == shared(n, Var("x1"))


# problem --------------------------------------------------------------------


@case(DEEP)
def problem_parse_render_json(n):
    source = f"(VAR x)\n(RULES\n{text(n)} -> x\n)\n"
    p = problem.parse(source)
    assert p.strict_rules[0].lhs == shared(n)
    assert problem.render(p) == source
    assert term.from_json(problem.to_json(p)["strictRules"][0]["lhs"]) == shared(n)
    assert problem.parse_term(text(n, "a"), ["x"]) == shared(n, a)


# analysis -------------------------------------------------------------------


@case(DEEP)
def analysis_nf(n):
    res = analysis.nf([S_X], shared(n, a), n)
    assert (res.term, res.steps, res.reached_normal_form) == (a, n, True)


@case(DEEP)
def analysis_check_local_confluence(n):
    # One root overlap whose two sides normalize to separately built copies
    # of the deep numeral.
    f = lambda t: Fun("f", (t,))
    rules = [Rule(f(x), Fun("c", (shared(n, a),))), Rule(f(b), Fun("c", (chain(n, a),)))]
    assert analysis.check_local_confluence(rules, 10) == LocallyConfluent()


@pytest.mark.parametrize("depth, check", CASES)
def test_traversal_on_a_deep_term(default_recursion_limit, depth, check):
    check(depth)


def self_calls(tree):
    """``(function, line)`` for every call of a function by its own name,
    directly or through ``self``, nested functions included."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            by_name = isinstance(callee, ast.Name) and callee.id == fn.name
            by_self = (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            )
            if by_name or by_self:
                found.append((fn.name, node.lineno))
    return found


def test_self_calls_are_found():
    source = "def f(t):\n    return f(t)\n\ndef g(t):\n    def visit(u):\n        visit(u)\n    return h(t)\n"
    assert self_calls(ast.parse(source)) == [("f", 2), ("visit", 6)]


def test_no_function_calls_itself():
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := self_calls(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}
