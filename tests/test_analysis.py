import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from termgen import random_term, random_valid_rule, root_overlapping_system, rule_strategy
from trskit import analysis, criticalpairs, problem, rewriting, rule, substitution, term
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


def derivation(rules, t, limit):
    """The leftmost-innermost derivation from ``t``, one ``rewriting.step``
    at a time, for at most ``limit`` steps: its terms, and whether the last
    one is normal."""
    terms = [t]
    while reducts := rewriting.step(rules, terms[-1], Strategy.INNERMOST):
        if len(terms) > limit:
            return terms, False
        terms.append(reducts[0].result)
    return terms, True


def reference_nf(rules, t, max_steps):
    """The one-step definition of `analysis.nf`: keep the first innermost reduct."""
    terms, normal = derivation(rules, t, max_steps)
    return analysis.NormalizationResult(terms[-1], len(terms) - 1, normal)


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
        # argument redexes that differ only in a variable below their root
        ([Rule(g(x), x)], f(g(f(x, a)), g(f(y, a))), 5),
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


def sharing_family(n):
    """YES after about 2n + 3 steps per side; each side's normal form is a
    DAG of n + 2 objects that unfolds to about 2**n nodes."""
    s = lambda t: Fun("s", (t,))
    dd = lambda t: Fun("d", (t,))
    q = lambda t: Fun("q", (t,))
    big = Fun("N")
    return [
        Rule(f(a), dd(big)),
        Rule(a, b),
        Rule(f(b), dd(big)),
        Rule(big, numeral(n)),
        Rule(dd(s(x)), q(dd(x))),
        Rule(q(x), Fun("p", (x, x))),
        Rule(dd(Fun("0")), c),
    ]


def test_check_lc_compares_shared_normal_forms_once(time_limit):
    # A bool, so that a failure report renders no normal form.
    with time_limit(1.0):
        yes = analysis.check_local_confluence(sharing_family(40), 1000) == LocallyConfluent()
    assert yes


def test_check_lc_validates_and_indexes_the_rules_once(monkeypatch):
    calls = []
    for name in ("check_valid", "index_by_root"):

        def counted(rules, name=name, original=getattr(rule, name)):
            calls.append(name)
            return original(rules)

        monkeypatch.setattr(rule, name, counted)
    rules = [Rule(a, b), Rule(a, c), Rule(b, d), Rule(c, d)]
    assert analysis.check_local_confluence(rules, 10) == LocallyConfluent()
    assert calls == ["index_by_root", "check_valid"]


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
    """Build the full list of critical pairs, then join them in order, each
    side by `reference_nf`."""
    unresolved = 0
    for cp in criticalpairs.critical_pairs(rules, criticalpairs.Scope.ALL):
        left = reference_nf(rules, cp.left, max_steps)
        right = reference_nf(rules, cp.right, max_steps)
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


def test_check_lc_replays_the_reference_on_root_overlaps():
    # Duplicated rules and many left sides over one root symbol: most pairs
    # are root pairs, each joined once by check_local_confluence and twice
    # by the reference.
    rng = random.Random(909)
    kinds = set()
    for _ in range(300):
        rules = root_overlapping_system(rng)
        for budget in (0, 1, 3, 8):
            kinds.add(assert_same_verdict(rules, budget))
    assert kinds == {LocallyConfluent, NotConfluent, Unknown}


def count_calls(monkeypatch, module, name):
    """The list that gets one entry per call of ``module.name`` from now on."""
    calls = []
    function = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or function(*args))
    return calls


def test_check_lc_joins_each_root_overlap_once(monkeypatch):
    # a -> f(a) and a -> b overlap at the root only: two mirror pairs, one
    # unifier, one join of two sides, and both pairs unresolved.
    rules = problem.parse((CORPUS / "diverging_choice.trs").read_text()).strict_rules
    assert len(criticalpairs.critical_pairs(rules)) == 2
    nf_calls = count_calls(monkeypatch, analysis, "_nf")
    unify_calls = count_calls(monkeypatch, substitution, "unify")
    assert analysis.check_local_confluence(rules, 50) == Unknown(2)
    assert len(nf_calls) == 2
    assert len(unify_calls) == 1


def candidate_overlaps(rules):
    """The (outer rule, position, inner rule) triples whose root symbols
    agree, in the order `check_local_confluence` meets them, without the
    mirror root pairs: at the root, only inner rules after the outer one."""
    for j, outer in enumerate(rules):
        for p in term.positions(outer.lhs):
            s = term.subterm_at(outer.lhs, p)
            if isinstance(s, Var):
                continue
            for i, inner in enumerate(rules):
                if inner.lhs.symbol == s.symbol and (p != () or i > j):
                    yield j, p, i


def test_check_lc_unifies_each_candidate_overlap_once_but_no_mirror(monkeypatch):
    rng = random.Random(303)
    calls = count_calls(monkeypatch, substitution, "unify")
    kinds = set()
    for _ in range(300):
        rules = root_overlapping_system(rng)
        for budget in (0, 8):
            calls.clear()
            verdict = analysis.check_local_confluence(rules, budget)
            want = list(candidate_overlaps(rules))
            if isinstance(verdict, NotConfluent):
                cp = verdict.witness
                want = want[: want.index((cp.right_rule_index, cp.left_pos, cp.left_rule_index)) + 1]
            assert len(calls) == len(want), (rules, budget)
            kinds.add(type(verdict))
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
    calls = count_calls(monkeypatch, substitution, "unify")
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


y = Var("y")
s_ = lambda t: Fun("s", (t,))
ARITHMETIC = {
    "ack": problem.parse((CORPUS / "ackermann.trs").read_text()).strict_rules,
    "plus": problem.parse((CORPUS / "peano_plus.trs").read_text()).strict_rules,
}
ARITHMETIC["times"] = [
    *ARITHMETIC["plus"],
    Rule(Fun("times", (Fun("0"), y)), Fun("0")),
    Rule(Fun("times", (s_(x), y)), Fun("plus", (Fun("times", (x, y)), y))),
]


def call(family, m, n):
    return Fun(family, (numeral(m), numeral(n)))


def assert_nf_replays_the_derivation(rules, subject, limit):
    """`nf` at every budget up to ``limit``, and up to one step past the
    normal form, agrees with the derivation."""
    terms, normal = derivation(rules, subject, limit)
    n = len(terms) - 1
    for budget in range(min(n + 1, limit) + 1):
        got = analysis.nf(rules, subject, budget)
        k = min(budget, n)
        assert (got.steps, got.reached_normal_form) == (k, normal and budget >= n), (subject, budget)
        assert got.term == terms[k], (subject, budget)


def test_nf_memo_replays_the_reference_at_every_budget():
    # Argument redexes such as ack(1, j) and plus(s^j(0), y) are normalized
    # again and again; the budgets end before, inside and at the end of
    # each of those subcomputations, and one step past the normal form.
    times = lambda s, t: Fun("times", (s, t))
    cases = [("ack", call("ack", 2, n)) for n in range(5)] + [("ack", call("ack", 3, 1))]
    cases += [("times", call("times", m, n)) for m in range(5) for n in range(5)]
    cases += [("plus", call("plus", m, n)) for m in (0, 1, 4, 9) for n in (0, 3)]
    # Equal argument redexes, one object twice and built separately.
    cases += [
        ("times", Fun("plus", (call("times", 2, 3), call("times", 2, 3)))),
        ("times", times(call("plus", 2, 1), call("plus", 2, 1))),
        ("ack", Fun("ack", (call("ack", 1, 1), call("ack", 1, 1)))),
    ]
    shared = call("times", 2, 2)
    cases.append(("times", Fun("plus", (shared, shared))))
    for family, subject in cases:
        assert_nf_replays_the_derivation(ARITHMETIC[family], subject, 10_000)


def test_nf_memo_replays_the_reference_on_duplicating_systems():
    # A duplicating rule copies reducible arguments, and the subjects repeat
    # them, as one object and as equal objects built apart.
    g = lambda t: Fun("g", (t,))
    copy = lambda t: term.map_symbols(t, lambda v: v, lambda f: f)
    rng = random.Random(4242)
    for _ in range(200):
        rules = [random_valid_rule(rng) for _ in range(rng.randint(1, 4))]
        rules.insert(rng.randint(0, len(rules)), Rule(g(x), f(x, x)))
        for _ in range(2):
            t = random_term(rng, max_depth=3)
            u = random_term(rng, max_depth=2)
            for subject in (f(t, t), f(g(t), g(copy(t))), g(f(t, u)), f(f(t, u), copy(f(t, u)))):
                assert_nf_replays_the_derivation(rules, subject, 12)


def test_check_lc_replays_the_reference_on_lemma_systems():
    # The benchmark's lemma systems: a rule ``call -> value`` overlaps a rule
    # of the system at the root, so one side of the pair is ``need`` steps
    # from the value.  Budgets need - 1 (MAYBE), need and need + 1.
    kinds = set()
    for family, m, n in [("ack", 2, 1), ("ack", 2, 3), ("ack", 3, 1), ("plus", 3, 4), ("times", 3, 3)]:
        base = ARITHMETIC[family]
        terms, _ = derivation(base, call(family, m, n), 10_000)
        need = len(terms) - 2
        for value in (terms[-1], s_(terms[-1])):
            rules = [*base, Rule(call(family, m, n), value)]
            for budget in (need - 1, need, need + 1):
                kinds.add(assert_same_verdict(rules, budget))
    assert kinds == {LocallyConfluent, NotConfluent, Unknown}


def test_nf_memo_cuts_the_matching_on_ackermann(monkeypatch):
    # ack(2, 13) normalizes ack(1, j) and the plus-like chains below it over
    # and over: 867 calls of match without the memo.
    calls = []
    match = substitution.match
    monkeypatch.setattr(substitution, "match", lambda p, s: calls.append(1) or match(p, s))
    res = analysis.nf(ARITHMETIC["ack"], call("ack", 2, 13), 10_000)
    assert (res.term, res.steps, res.reached_normal_form) == (numeral(29), 434, True)
    assert len(calls) <= 300


def test_nf_keeps_no_memo_on_a_root_tail_loop():
    # Every redex of g(x) -> g(s(x)) from g(0) is at the root, and from
    # s(g(0)) every redex after the first is the contractum of the argument
    # redex g(0), so nothing is memoized: the peak is the size of the result.
    g = lambda t: Fun("g", (t,))
    rules = [Rule(g(x), g(s_(x)))]
    for start in (g(Fun("0")), s_(g(Fun("0")))):
        tracemalloc.start()
        try:
            res = analysis.nf(rules, start, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.steps, res.reached_normal_form) == (20_000, False)
        nodes, todo = {}, [res.term]
        while todo:
            t = todo.pop()
            if id(t) not in nodes:
                nodes[id(t)] = t
                todo.extend(t.args)
        size = sum(sys.getsizeof(t) + sys.getsizeof(t.args) for t in nodes.values())
        assert peak <= 1.25 * size, start


def test_nf_memo_on_a_deep_argument_chain(default_recursion_limit):
    # Every step below the root is an argument redex plus(s^j(0), s(0)):
    # 10 000 memo keys over a numeral 10 000 deep.
    res = analysis.nf(ARITHMETIC["plus"], Fun("plus", (numeral(10_000), numeral(1))), 20_000)
    assert (res.term, res.steps, res.reached_normal_form) == (numeral(10_001), 10_001, True)
