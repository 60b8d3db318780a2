import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from termgen import random_term, random_valid_rule, rule_strategy
from trskit import analysis, criticalpairs, problem, rewriting, substitution
from trskit.analysis import LocallyConfluent, NotConfluent, Unknown
from trskit.rewriting import Strategy
from trskit.rule import InvalidRuleError, Rule
from trskit.term import Fun, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

x = Var("x")
a, b, c, d = Fun("a"), Fun("b"), Fun("c"), Fun("d")


def f(*args):
    return Fun("f", args)


def test_nf_examples():
    res = analysis.nf([Rule(f(x), x)], f(f(a)), 10)
    assert (res.term, res.steps, res.reached_normal_form) == (a, 2, True)

    res = analysis.nf([Rule(f(x), x)], a, 0)
    assert (res.term, res.steps, res.reached_normal_form) == (a, 0, True)

    res = analysis.nf([Rule(a, f(a))], a, 5)
    assert res.term == f(f(f(f(f(a)))))
    assert (res.steps, res.reached_normal_form) == (5, False)


def test_nf_requires_valid_rules():
    with pytest.raises(InvalidRuleError):
        analysis.nf([Rule(x, a)], a, 1)


def test_nf_deterministic_and_replayable():
    rng = random.Random(11)
    for _ in range(150):
        rules = [random_valid_rule(rng) for _ in range(rng.randint(1, 2))]
        subject = random_term(rng, max_depth=3)
        res = analysis.nf(rules, subject, 8)
        assert analysis.nf(rules, subject, 8) == res
        current, steps = subject, 0
        while steps < res.steps:
            reducts = rewriting.step(rules, current, Strategy.INNERMOST)
            current = reducts[0].result
            steps += 1
        assert current == res.term
        assert res.reached_normal_form == rewriting.is_normal_form(rules, res.term)


def reference_nf(rules, t, max_steps):
    """The one-step definition of `analysis.nf`: keep the first innermost reduct."""
    current, steps = t, 0
    while True:
        reducts = rewriting.step(rules, current, Strategy.INNERMOST)
        if not reducts:
            return analysis.NormalizationResult(current, steps, True)
        if steps >= max_steps:
            return analysis.NormalizationResult(current, steps, False)
        current = reducts[0].result
        steps += 1


def assert_same_result(rules, subject, budget):
    got = analysis.nf(rules, subject, budget)
    want = reference_nf(rules, subject, budget)
    assert (got.steps, got.reached_normal_form) == (want.steps, want.reached_normal_form)
    assert got.term == want.term, (rules, subject, budget)


def test_nf_replays_the_innermost_reference():
    rng = random.Random(2024)
    for _ in range(300):
        rules = [random_valid_rule(rng) for _ in range(rng.randint(1, 5))]
        for _ in range(3):
            subject = random_term(rng, max_depth=3)
            for budget in (0, 1, 2, 3, 5, 8):
                assert_same_result(rules, subject, budget)


def test_nf_replays_the_reference_on_edge_cases():
    y = Var("y")
    g = lambda *args: Fun("g", args)
    cases = [
        # normal form reached at exactly the budget, and one step short of it
        ([Rule(f(x), x)], f(f(a)), 2),
        ([Rule(f(x), x)], f(f(a)), 1),
        # non-left-linear rule: fires only on equal arguments
        ([Rule(f(x, x), a)], g(f(f(b, b), f(b, b))), 5),
        ([Rule(f(x, x), a)], f(f(b, c), f(b, d)), 5),
        # collapsing rule, and a rule whose right side has a redex above the collapse
        ([Rule(g(x), x), Rule(f(x, y), g(f(y, x)))], f(g(a), g(b)), 3),
        ([Rule(g(x), x), Rule(f(x, y), g(f(y, x)))], f(g(a), g(b)), 10),
        # subject with variables; rule index decides between two root redexes
        ([Rule(f(x, y), y), Rule(f(x, x), x), Rule(g(a), b)], f(g(x), f(y, g(a))), 3),
        ([Rule(f(x, y), y), Rule(f(x, x), x), Rule(g(a), b)], f(g(x), f(y, g(a))), 1),
        # redex inside a right-hand side, budget spent while rebuilding the context
        ([Rule(a, g(b)), Rule(b, c), Rule(g(c), d)], f(a, f(a, b)), 0),
        ([Rule(a, g(b)), Rule(b, c), Rule(g(c), d)], f(a, f(a, b)), 1),
        ([Rule(a, g(b)), Rule(b, c), Rule(g(c), d)], f(a, f(a, b)), 4),
        ([Rule(a, g(b)), Rule(b, c), Rule(g(c), d)], f(a, f(a, b)), 6),
        ([Rule(a, g(b)), Rule(b, c), Rule(g(c), d)], f(a, f(a, b)), 9),
        ([Rule(a, b)], x, 0),
    ]
    for rules, subject, budget in cases:
        assert_same_result(rules, subject, budget)


def numeral(n, succ="s", zero="0"):
    t = Fun(zero)
    for _ in range(n):
        t = Fun(succ, (t,))
    return t


def test_nf_on_a_deep_argument(default_recursion_limit):
    rules = problem.parse((CORPUS / "peano_plus.trs").read_text()).strict_rules
    deep = numeral(10000)
    res = analysis.nf(rules, Fun("plus", (Fun("0"), deep)), 5)
    assert res.term is deep
    assert (res.steps, res.reached_normal_form) == (1, True)


def test_check_lc_compares_deep_normal_forms(default_recursion_limit):
    e = lambda t: Fun("e", (t,))
    dd = lambda t: Fun("d", (t,))
    rules = [Rule(a, dd(numeral(300))), Rule(a, e(numeral(300))), Rule(e(x), dd(x))]
    assert analysis.check_local_confluence(rules, 10) == LocallyConfluent()


def test_non_left_linear_rule_on_separately_built_numerals(default_recursion_limit):
    # Matching f(x,x) compares the two arguments with ==; they are equal
    # but distinct objects, so the comparison walks all 400 levels.
    n1, n2 = numeral(400), numeral(400)
    assert n1 is not n2
    res = analysis.nf([Rule(f(x, x), a)], f(n1, n2), 5)
    assert (res.term, res.steps, res.reached_normal_form) == (a, 1, True)
    c = Fun("c")
    rules = [Rule(f(x, x), a), Rule(c, f(numeral(400), numeral(400))), Rule(c, a)]
    assert analysis.check_local_confluence(rules, 5) == LocallyConfluent()


def test_check_lc_long_budget_on_diverging_choice(default_recursion_limit):
    rules = problem.parse((CORPUS / "diverging_choice.trs").read_text()).strict_rules
    assert analysis.check_local_confluence(rules, 3000) == Unknown(2)


def test_nf_keeps_duplicated_arguments_shared():
    p = lambda s, t: Fun("p", (s, t))
    rules = [Rule(f(x), f(p(x, x))), Rule(f(a), b)]
    res = analysis.nf(rules, f(a), 40)
    assert (res.steps, res.reached_normal_form) == (40, False)
    # The tree has 2**41 + 1 nodes; count the distinct objects instead.
    seen, todo = {id(res.term)}, [res.term]
    while todo:
        for s in todo.pop().args:
            if id(s) not in seen:
                seen.add(id(s))
                todo.append(s)
    assert len(seen) == 42


def test_check_lc_yes():
    rules = [Rule(a, b), Rule(a, c), Rule(b, d), Rule(c, d)]
    assert analysis.check_local_confluence(rules, 10) == LocallyConfluent()


def test_check_lc_no_with_witness():
    rules = [Rule(f(a), b), Rule(a, c)]
    verdict = analysis.check_local_confluence(rules, 10)
    assert isinstance(verdict, NotConfluent)
    assert verdict.nf_left == f(c)
    assert verdict.nf_right == b
    assert verdict.witness.top == f(a)
    # both normal forms really are normal forms reachable from the peak
    assert rewriting.is_normal_form(rules, verdict.nf_left)
    assert rewriting.is_normal_form(rules, verdict.nf_right)


def test_check_lc_unknown_counts_unresolved_pairs():
    rules = [Rule(a, f(a)), Rule(a, b)]
    assert len(criticalpairs.critical_pairs(rules)) == 2
    verdict = analysis.check_local_confluence(rules, 50)
    assert verdict == Unknown(2)


def test_overlap_free_is_confluent_with_zero_budget():
    rules = [Rule(f(x, a), x), Rule(Fun("g", (x,)), x)]
    assert criticalpairs.critical_pairs(rules) == []
    assert analysis.check_local_confluence(rules, 0) == LocallyConfluent()
    assert analysis.check_local_confluence([], 0) == LocallyConfluent()


def reference_check_local_confluence(rules, max_steps):
    """Build the full list of critical pairs, then join them in order."""
    unresolved = 0
    for cp in criticalpairs.critical_pairs(rules, criticalpairs.Scope.ALL):
        left = analysis.nf(rules, cp.left, max_steps)
        right = analysis.nf(rules, cp.right, max_steps)
        if left.reached_normal_form and right.reached_normal_form:
            if left.term != right.term:
                return NotConfluent(cp, left.term, right.term)
        else:
            unresolved += 1
    if unresolved:
        return Unknown(unresolved)
    return LocallyConfluent()


def assert_same_verdict(rules, budget):
    # Equal verdicts: for NO the whole witness pair and both normal forms,
    # for MAYBE the number of unresolved pairs.
    got = analysis.check_local_confluence(rules, budget)
    assert got == reference_check_local_confluence(rules, budget), (rules, budget)
    return type(got)


def test_check_lc_replays_the_reference_on_random_systems():
    rng = random.Random(77)
    kinds = set()
    for _ in range(150):
        rules = [random_valid_rule(rng) for _ in range(rng.randint(1, 6))]
        for budget in (0, 2, 6):
            kinds.add(assert_same_verdict(rules, budget))
    assert kinds == {LocallyConfluent, NotConfluent, Unknown}


def test_check_lc_replays_the_reference_on_the_corpus():
    for path in sorted(CORPUS.glob("*.trs")):
        rules = problem.parse(path.read_text()).strict_rules
        for budget in (0, 5, 100):
            assert_same_verdict(rules, budget)


def test_check_lc_stops_at_the_first_no(monkeypatch):
    h = lambda t: Fun("h", (t,))
    # Pair 0 (rule 1 below rule 0) is a NO; the h rules overlap each other
    # at the root, 40 * 39 pairs after it.
    rules = [Rule(f(a), b), Rule(a, c)] + [Rule(h(x), Fun(f"c{k}")) for k in range(40)]
    assert len(criticalpairs.critical_pairs(rules)) == 1 + 40 * 39
    calls = []
    unify = substitution.unify
    monkeypatch.setattr(substitution, "unify", lambda s, t: calls.append(1) or unify(s, t))
    verdict = analysis.check_local_confluence(rules, 10)
    assert isinstance(verdict, NotConfluent)
    cp = verdict.witness
    assert (cp.right_rule_index, cp.left_pos, cp.left_rule_index) == (0, (0,), 1)
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(rule_strategy(max_leaves=4), min_size=1, max_size=2))
def test_fuel_monotonicity(rules):
    low = analysis.check_local_confluence(rules, 2)
    high = analysis.check_local_confluence(rules, 12)
    if isinstance(low, LocallyConfluent):
        assert isinstance(high, LocallyConfluent)
    if isinstance(low, NotConfluent):
        assert isinstance(high, NotConfluent)
