import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from termgen import brute_force_overlaps, root_overlapping_system, rule_strategy
from trskit import analysis, criticalpairs, problem, rewriting, rule, substitution, term
from trskit.criticalpairs import Scope
from trskit.rule import InvalidRuleError, Rule
from trskit.term import Fun, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

x, y = Var("x"), Var("y")
a, b, c = Fun("a"), Fun("b"), Fun("c")


def f(*args):
    return Fun("f", args)


def _pair_signature(cps):
    return [(cp.right_rule_index, cp.left_pos, cp.left_rule_index) for cp in cps]


def _joint_variant(cp, top, left, right):
    """The three terms as one tree, so shared variables are compared too."""
    marker = object()
    got = Fun(marker, (cp.top, cp.left, cp.right))
    want = Fun(marker, (top, left, right))
    return term.is_variant_of(got, want)


def test_self_overlap_below_root():
    rules = [Rule(f(f(x)), f(x))]
    (cp,) = criticalpairs.critical_pairs(rules)
    assert cp.left_pos == (0,)
    assert cp.left_rule_index == cp.right_rule_index == 0
    assert cp.left_rule is rules[0] and cp.right_rule is rules[0]
    assert _joint_variant(cp, f(f(f(x))), f(f(x)), f(f(x)))
    assert _pair_signature([cp]) == brute_force_overlaps(rules)


def test_overlap_inside_argument():
    rules = [Rule(f(a), b), Rule(a, c)]
    (cp,) = criticalpairs.critical_pairs(rules)
    assert cp.top == f(a) and cp.left == f(c) and cp.right == b
    assert cp.left_pos == (0,)
    assert cp.left_rule_index == 1 and cp.right_rule_index == 0
    assert _pair_signature([cp]) == brute_force_overlaps(rules)


def test_mirror_root_overlaps_are_kept():
    rules = [Rule(a, b), Rule(a, c)]
    cps = criticalpairs.critical_pairs(rules)
    assert [(cp.left, cp.right) for cp in cps] == [(c, b), (b, c)]
    assert all(cp.top == a and cp.left_pos == () for cp in cps)
    assert _pair_signature(cps) == brute_force_overlaps(rules)


def test_no_trivial_self_root_overlap():
    assert criticalpairs.critical_pairs([Rule(a, b)]) == []
    # two identical rules at different indices do overlap at the root
    assert len(criticalpairs.critical_pairs([Rule(a, b), Rule(a, b)])) == 2


def assert_root_pairs_mirror_each_other(rules):
    """Each root pair (inner i, outer j) has a mirror (inner j, outer i)
    whose sides are its own sides swapped, up to one renaming of variables."""
    cps = criticalpairs.critical_pairs(rules)
    root = {(cp.left_rule_index, cp.right_rule_index): cp for cp in cps if cp.left_pos == ()}
    for (i, j), m in root.items():
        c = root[j, i]
        assert rule.is_variant_of(Rule(m.left, m.right), Rule(c.right, c.left)), (rules, i, j)
    return len(root)


def test_root_pairs_mirror_each_other_on_the_corpus():
    systems = [problem.parse(path.read_text()).strict_rules for path in sorted(CORPUS.glob("*.trs"))]
    assert sum(map(assert_root_pairs_mirror_each_other, systems)) > 0


def test_root_pairs_mirror_each_other_on_random_systems():
    rng = random.Random(31)
    systems = [root_overlapping_system(rng) for _ in range(1200)]
    assert sum(map(assert_root_pairs_mirror_each_other, systems)) > 5000


def test_scopes():
    rules = [Rule(f(f(x)), f(x)), Rule(f(x), x)]
    every = criticalpairs.critical_pairs(rules, Scope.ALL)
    inner = criticalpairs.critical_pairs(rules, Scope.INNER)
    outer = criticalpairs.critical_pairs(rules, Scope.OUTER)
    assert all(cp.left_pos != () for cp in inner)
    assert all(cp.left_pos == () for cp in outer)
    assert sorted(_pair_signature(inner) + _pair_signature(outer)) == sorted(
        _pair_signature(every)
    )
    assert len(every) == len(inner) + len(outer)


def test_requires_valid_rules():
    with pytest.raises(InvalidRuleError):
        criticalpairs.critical_pairs([Rule(x, a)])


@settings(max_examples=60)
@given(st.lists(rule_strategy(max_leaves=5), min_size=1, max_size=3))
def test_overlap_enumeration_matches_oracle(rules):
    cps = criticalpairs.critical_pairs(rules)
    assert _pair_signature(cps) == brute_force_overlaps(rules)


def reference_critical_pairs(rules, scope):
    """`criticalpairs.critical_pairs` as it was built: each pair of rules
    renamed apart by `rule.rename_apart`, and the mgu applied to both tagged
    sides, for every (outer rule, position, inner rule) in that order."""
    pairs = []
    for j, outer in enumerate(rules):
        for p in term.positions(outer.lhs):
            if isinstance(term.subterm_at(outer.lhs, p), Var):
                continue
            # INNER keeps the positions below the root, OUTER the root
            if scope is not Scope.ALL and (p == ()) != (scope is Scope.OUTER):
                continue
            for i, inner in enumerate(rules):
                if p == () and i == j:
                    continue
                rho1, rho2 = rule.rename_apart(inner, outer)
                sigma = substitution.unify(rho1.lhs, term.subterm_at(rho2.lhs, p))
                if sigma is None:
                    continue
                top = substitution.apply(sigma, rho2.lhs)
                left = term.replace_at(top, p, substitution.apply(sigma, rho1.rhs))
                right = substitution.apply(sigma, rho2.rhs)
                pairs.append(criticalpairs.CriticalPair(top, left, right, inner, outer, p, i, j))
    return pairs


def assert_critical_pairs_replay_the_reference(rules):
    count = 0
    for scope in Scope:
        got = criticalpairs.critical_pairs(rules, scope)
        want = reference_critical_pairs(rules, scope)
        assert got == want, (rules, scope)
        # the same tagged variables, each with its side and name
        assert repr(got) == repr(want), (rules, scope)
        count += len(got)
    return count


def test_critical_pairs_replay_the_reference():
    systems = [problem.parse(path.read_text()).strict_rules for path in sorted(CORPUS.glob("*.trs"))]
    rng = random.Random(57)
    systems += [root_overlapping_system(rng) for _ in range(300)]
    assert sum(map(assert_critical_pairs_replay_the_reference, systems)) > 5000


@settings(max_examples=60)
@given(st.lists(rule_strategy(max_leaves=5), min_size=1, max_size=3))
def test_critical_pairs_replay_the_reference_on_random_rules(rules):
    assert_critical_pairs_replay_the_reference(rules)


@settings(max_examples=60)
@given(st.lists(rule_strategy(max_leaves=5), min_size=1, max_size=3))
def test_peak_rewrites_to_both_sides(rules):
    for cp in criticalpairs.critical_pairs(rules):
        reducts = rewriting.step([cp.left_rule, cp.right_rule], cp.top)
        assert any(
            r.pos == cp.left_pos and r.rule_index == 0 and r.result == cp.left
            for r in reducts
        )
        assert any(
            r.pos == () and r.rule_index == 1 and r.result == cp.right for r in reducts
        )
        assert not isinstance(term.subterm_at(cp.right_rule.lhs, cp.left_pos), Var)
        assert not (cp.left_pos == () and cp.left_rule_index == cp.right_rule_index)


def test_render_golden():
    (cp,) = criticalpairs.critical_pairs([Rule(f(f(x)), f(x))])
    assert criticalpairs.render(cp) == (
        "peak: f(f(f(x1)))\n"
        "left: f(f(x1))  (rule 0 at [0])\n"
        "right: f(f(x1))  (rule 0 at root)"
    )


def test_to_json_uses_canonical_variables():
    (cp,) = criticalpairs.critical_pairs([Rule(f(f(x)), f(x))])
    doc = criticalpairs.to_json(cp)
    assert doc["top"] == {
        "fun": "f",
        "args": [{"fun": "f", "args": [{"fun": "f", "args": [{"var": "x1"}]}]}],
    }
    assert doc["leftPos"] == [0]
    assert doc["leftRuleIndex"] == 0 and doc["rightRuleIndex"] == 0
    assert doc["leftRule"] == {
        "lhs": {"fun": "f", "args": [{"fun": "f", "args": [{"var": "x"}]}]},
        "rhs": {"fun": "f", "args": [{"var": "x"}]},
    }


def reference_canonical_terms(cp, *more):
    """`criticalpairs.canonical_terms` as it was written over `term.map_symbols`."""
    mapping = criticalpairs.canonical_renaming(cp)
    terms = (cp.top, cp.left, cp.right, *more)
    return tuple(term.map_symbols(t, mapping.__getitem__, lambda f: f) for t in terms)


def assert_canonical_terms_replay_the_reference(cp, *more):
    got = criticalpairs.canonical_terms(cp, *more)
    want = reference_canonical_terms(cp, *more)
    assert got == want
    assert [term.render(t) for t in got] == [term.render(t) for t in want]
    assert [term.to_json(t) for t in got] == [term.to_json(t) for t in want]


def test_canonical_terms_replay_the_reference():
    systems = [problem.parse(path.read_text()).strict_rules for path in sorted(CORPUS.glob("*.trs"))]
    rng = random.Random(43)
    systems += [root_overlapping_system(rng) for _ in range(400)]
    pairs = witnesses = 0
    for rules in systems:
        for cp in criticalpairs.critical_pairs(rules):
            assert_canonical_terms_replay_the_reference(cp)
            pairs += 1
        # the normal forms that `check-lc` prints with the witness
        verdict = analysis.check_local_confluence(rules, 50)
        if isinstance(verdict, analysis.NotConfluent):
            assert_canonical_terms_replay_the_reference(verdict.witness, verdict.nf_left, verdict.nf_right)
            witnesses += 1
    assert pairs > 2000 and witnesses > 100, (pairs, witnesses)
