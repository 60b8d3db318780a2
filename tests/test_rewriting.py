import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from termgen import random_term, random_valid_rule, term_strategy
from trskit import rewriting, rule, substitution, term
from trskit.rewriting import Strategy
from trskit.rule import InvalidRuleError, Rule
from trskit.term import Fun, Var

x = Var("x")
a, b = Fun("a"), Fun("b")


def f(*args):
    return Fun("f", args)


def g(*args):
    return Fun("g", args)


R = [Rule(f(x), x)]


def brute_force_full(rules, subject):
    out = []
    for p in term.positions(subject):
        for i, r in enumerate(rules):
            sigma = substitution.match(r.lhs, term.subterm_at(subject, p))
            if sigma is not None:
                contractum = substitution.apply_generalized(sigma, r.rhs)
                out.append((p, i, term.replace_at(subject, p, contractum)))
    return out


def test_step_examples():
    assert rewriting.step(R, g(a)) == []
    full = rewriting.step(R, f(f(a)))
    assert [(r.pos, r.result) for r in full] == [((), f(a)), ((0,), f(a))]
    assert [r.pos for r in rewriting.step(R, f(f(a)), Strategy.OUTERMOST)] == [()]
    assert [r.pos for r in rewriting.step(R, f(f(a)), Strategy.INNERMOST)] == [(0,)]
    assert [r.pos for r in rewriting.step(R, f(f(a)), Strategy.ROOT)] == [()]


def test_step_requires_valid_rules():
    with pytest.raises(InvalidRuleError):
        rewriting.step([Rule(x, a)], f(a))


def test_reduct_records_rule_and_substitution():
    (reduct,) = rewriting.step(R, f(g(b)))
    assert reduct.rule is R[0]
    assert reduct.rule_index == 0
    assert reduct.subst == {"x": g(b)}
    assert reduct.result == g(b)


def test_duplicate_rules_give_one_reduct_per_index():
    reducts = rewriting.step([R[0], Rule(f(x), x)], f(a))
    assert [(r.pos, r.rule_index) for r in reducts] == [((), 0), ((), 1)]


def test_is_normal_form():
    assert rewriting.is_normal_form(R, a)
    assert not rewriting.is_normal_form(R, f(a))
    assert rewriting.is_normal_form([], f(a))


def test_list_properties_empty():
    p = rewriting.list_properties([])
    assert p.valid and p.left_linear and p.right_linear and p.linear and p.ground
    assert not (p.duplicating or p.collapsing or p.erasing)


def test_list_properties_examples():
    p = rewriting.list_properties([Rule(f(x), x), Rule(g(x), a)])
    assert p.left_linear and p.collapsing and p.erasing and p.valid
    assert not rewriting.list_properties([Rule(f(x, x), x)]).linear


def test_list_properties_agrees_with_the_per_rule_definitions():
    # valid rules, and rules with a variable left side or fresh right-side
    # variables
    rng = random.Random(13)
    invalid = 0
    for _ in range(500):
        rules = [
            random_valid_rule(rng) if rng.random() < 0.8 else Rule(random_term(rng, 2), random_term(rng, 2))
            for _ in range(rng.randint(0, 4))
        ]
        props = [rule.properties(r) for r in rules]
        want = rewriting.ListProperties(
            valid=all(rule.is_valid(r) for r in rules),
            left_linear=all(p.left_linear for p in props),
            right_linear=all(p.right_linear for p in props),
            linear=all(p.linear for p in props),
            duplicating=any(p.duplicating for p in props),
            collapsing=any(p.collapsing for p in props),
            erasing=any(p.erasing for p in props),
            ground=all(p.ground for p in props),
        )
        assert rewriting.list_properties(rules) == want, rules
        invalid += not want.valid
    assert 50 < invalid < 450


def reference_rule_properties(r):
    """`rule.is_valid` and `rule.properties` of ``r``, from the variable
    counts of each side: the per-rule definitions, kept as the reference."""
    lhs_counts = Counter(term.vars(r.lhs))
    rhs_counts = Counter(term.vars(r.rhs))
    valid = not isinstance(r.lhs, Var) and rhs_counts.keys() <= lhs_counts.keys()
    left_linear = all(n == 1 for n in lhs_counts.values())
    right_linear = all(n == 1 for n in rhs_counts.values())
    return valid, rule.RuleProperties(
        left_linear=left_linear,
        right_linear=right_linear,
        linear=left_linear and right_linear,
        duplicating=any(n > lhs_counts[v] for v, n in rhs_counts.items()),
        erasing=any(v not in rhs_counts for v in lhs_counts),
        collapsing=isinstance(r.rhs, Var),
        ground=not lhs_counts and not rhs_counts,
    )


def reference_list_properties(rules):
    """The fold of the per-rule reference over a rule list."""
    checked = [reference_rule_properties(r) for r in rules]
    props = [p for _, p in checked]
    return rewriting.ListProperties(
        valid=all(valid for valid, _ in checked),
        left_linear=all(p.left_linear for p in props),
        right_linear=all(p.right_linear for p in props),
        linear=all(p.linear for p in props),
        duplicating=any(p.duplicating for p in props),
        collapsing=any(p.collapsing for p in props),
        erasing=any(p.erasing for p in props),
        ground=all(p.ground for p in props),
    )


RULE_KINDS = ("random", "valid", "variable left side", "fresh right variable", "collapsing", "erasing",
              "ground", "counted")


def rule_of_kind(rng, kind):
    """A random rule of ``kind``; a "counted" rule has a variable ``v``
    ``n`` times on the left and ``n`` or ``n + 1`` times on the right,
    beside the variables of its left side."""
    lhs, rhs = random_term(rng, 3), random_term(rng, 3)
    w = Var("w")
    if kind == "random":
        return Rule(lhs, rhs)
    if kind == "valid":
        return random_valid_rule(rng, 3)
    if kind == "variable left side":
        return Rule(Var(rng.choice("xyzw")), rhs)
    if kind == "fresh right variable":
        return Rule(Fun("h", (lhs,)), Fun("h", (rhs, w)))
    if kind == "collapsing":
        return Rule(Fun("h", (lhs, w)), w)
    if kind == "erasing":
        return Rule(Fun("h", (lhs, w)), Fun("h", (lhs,)))
    if kind == "ground":
        return Rule(random_term(rng, 3, variables=()), random_term(rng, 3, variables=()))
    rhs = random_term(rng, 3, variables=tuple(dict.fromkeys(term.vars(lhs))))
    n = rng.randint(1, 3)
    v = Var("v")
    return Rule(Fun("h", (lhs, *[v] * n)), Fun("h", (rhs, *[v] * (n + rng.randint(0, 1)))))


def test_list_properties_replay_the_per_rule_fold():
    rng = random.Random(29)
    assert rewriting.list_properties([]) == reference_list_properties([])
    seen = Counter()
    for _ in range(3000):
        rules = [rule_of_kind(rng, rng.choice(RULE_KINDS)) for _ in range(rng.randint(0, 5))]
        want = reference_list_properties(rules)
        assert rewriting.list_properties(rules) == want, rules
        seen.update((name, value) for name, value in vars(want).items())
        for r in rules:
            valid, props = reference_rule_properties(r)
            assert (rule.is_valid(r), rule.properties(r)) == (valid, props), r
            if valid and not props.left_linear and not props.right_linear:
                # occurrences on both sides are counted
                seen["both sides repeat", props.duplicating] += 1
    # every flag is seen both ways, and rules that repeat a variable on both
    # sides are seen duplicating and not
    assert min(seen.values()) >= 200 and len(seen) == 2 * 8 + 2, seen


def test_reduct_invariants_random():
    rng = random.Random(7)
    for _ in range(300):
        rules = [random_valid_rule(rng) for _ in range(rng.randint(1, 3))]
        subject = random_term(rng, max_depth=3)
        for r in rewriting.step(rules, subject):
            assert term.subterm_at(subject, r.pos) == substitution.apply_generalized(
                r.subst, r.rule.lhs
            )
            assert r.result == term.replace_at(
                subject, r.pos, substitution.apply_generalized(r.subst, r.rule.rhs)
            )


def test_full_matches_brute_force_random():
    rng = random.Random(8)
    for _ in range(300):
        rules = [random_valid_rule(rng) for _ in range(rng.randint(1, 3))]
        subject = random_term(rng, max_depth=3)
        got = [(r.pos, r.rule_index, r.result) for r in rewriting.step(rules, subject)]
        assert got == brute_force_full(rules, subject)


def test_strategy_filters_random():
    rng = random.Random(9)
    for _ in range(300):
        rules = [random_valid_rule(rng) for _ in range(rng.randint(1, 3))]
        subject = random_term(rng, max_depth=3)
        full = rewriting.step(rules, subject)
        redexes = {r.pos for r in full}
        keys = lambda rs: [(r.pos, r.rule_index) for r in rs]
        outer = rewriting.step(rules, subject, Strategy.OUTERMOST)
        inner = rewriting.step(rules, subject, Strategy.INNERMOST)
        root = rewriting.step(rules, subject, Strategy.ROOT)
        assert keys(outer) == [
            k for k in keys(full) if not any(k[0][:n] in redexes for n in range(len(k[0])))
        ]
        assert keys(inner) == [
            k
            for k in keys(full)
            if not any(q != k[0] and q[: len(k[0])] == k[0] for q in redexes)
        ]
        assert keys(root) == [k for k in keys(full) if k[0] == ()]
        if root:
            assert set(keys(root)) <= set(keys(outer))


@settings(max_examples=50)
@given(term_strategy())
def test_unused_rule_never_removes_reducts(subject):
    rules = [Rule(f(x), x)]
    before = {(r.pos, r.rule_index) for r in rewriting.step(rules, subject)}
    extended = rules + [Rule(Fun("h", (x,)), x)]
    after = {(r.pos, r.rule_index) for r in rewriting.step(extended, subject)}
    assert before <= after


def test_render_and_json():
    (reduct,) = rewriting.step(R, f(a))
    assert rewriting.render(reduct) == "a @ [] by (f(x) -> x) with {x -> a}"
    assert rewriting.to_json(reduct) == {
        "result": {"fun": "a", "args": []},
        "pos": [],
        "ruleIndex": 0,
        "subst": {"x": {"fun": "a", "args": []}},
    }
