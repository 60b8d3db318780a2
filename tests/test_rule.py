import pytest
from hypothesis import given

from termgen import rule_strategy, term_strategy
from trskit import criticalpairs, rule, substitution, term
from trskit.rule import InvalidRuleError, Rule, TaggedVar
from trskit.term import Fun, Var

x, y = Var("x"), Var("y")
a, b = Fun("a"), Fun("b")


def f(*args):
    return Fun("f", args)


def g(*args):
    return Fun("g", args)


def test_is_valid():
    assert rule.is_valid(Rule(f(x), g(x)))
    assert not rule.is_valid(Rule(x, a))
    assert not rule.is_valid(Rule(f(x), g(y)))


@given(term_strategy(), term_strategy())
def test_is_valid_matches_definition(lhs, rhs):
    expected = not isinstance(lhs, Var) and set(term.vars(rhs)) <= set(term.vars(lhs))
    assert rule.is_valid(Rule(lhs, rhs)) == expected


def test_check_valid():
    rule.check_valid([Rule(f(x), x)])
    with pytest.raises(InvalidRuleError, match="rule 1"):
        rule.check_valid([Rule(f(x), x), Rule(x, a)])


@pytest.mark.parametrize("bad", [Rule(x, a), Rule(f(x), y)])
def test_index_by_root_admits_only_valid_rules(bad):
    rules = [Rule(f(x), x), bad]
    with pytest.raises(InvalidRuleError) as indexing:
        rule.index_by_root(rules)
    with pytest.raises(InvalidRuleError) as checking:
        rule.check_valid(rules)
    assert str(indexing.value) == str(checking.value)


def test_properties_examples():
    p = rule.properties(Rule(f(x, x), x))
    assert (p.left_linear, p.right_linear, p.collapsing, p.erasing, p.duplicating) == (
        False,
        True,
        True,
        False,
        False,
    )
    p = rule.properties(Rule(f(x), g(x, x)))
    assert p.duplicating and p.left_linear and not p.right_linear
    p = rule.properties(Rule(f(x, y), x))
    assert p.erasing and p.collapsing
    assert rule.properties(Rule(f(a), b)).ground


@given(rule_strategy())
def test_linear_is_conjunction(r):
    p = rule.properties(r)
    assert p.linear == (p.left_linear and p.right_linear)
    assert p.left_linear == term.is_linear(r.lhs)
    assert p.right_linear == term.is_linear(r.rhs)


def test_instance_and_variant():
    assert rule.is_instance_of(Rule(f(a), a), Rule(f(x), x))
    assert rule.is_variant_of(Rule(f(x), x), Rule(f(y), y))
    assert not rule.is_instance_of(Rule(f(a), b), Rule(f(x), x))


def test_instance_needs_one_substitution_for_both_sides():
    # each side matches on its own, but with incompatible bindings
    general = Rule(f(x, y), y)
    assert rule.is_instance_of(Rule(f(a, b), b), general)
    assert not rule.is_instance_of(Rule(f(a, b), a), general)


def test_instance_oracle_on_single_lhs_match():
    # the only substitution matching the lhs is x -> a; it must fix the rhs too
    sigma = substitution.match(f(x), f(a))
    assert sigma == {"x": a}
    assert substitution.apply_generalized(sigma, x) == a != b


@given(rule_strategy(), rule_strategy(), rule_strategy())
def test_variant_is_equivalence(r1, r2, r3):
    assert rule.is_variant_of(r1, r1)
    assert rule.is_variant_of(r1, r2) == rule.is_variant_of(r2, r1)
    if rule.is_variant_of(r1, r2) and rule.is_variant_of(r2, r3):
        assert rule.is_variant_of(r1, r3)


def test_rename_apart():
    r1, r2 = rule.rename_apart(Rule(f(x), x), Rule(g(x), x))
    assert r1 == Rule(f(Var(TaggedVar("L", "x"))), Var(TaggedVar("L", "x")))
    assert r2 == Rule(g(Var(TaggedVar("R", "x"))), Var(TaggedVar("R", "x")))
    assert not set(term.vars(r1.lhs)) & set(term.vars(r2.lhs))


def test_tag_builds_one_variable_per_distinct_variable(monkeypatch):
    built = []

    def counted(side, base, original=TaggedVar):
        built.append(base)
        return original(side, base)

    monkeypatch.setattr(rule, "TaggedVar", counted)
    tagged = rule.tag(Rule(f(x, f(y, x)), g(f(x, y), x)), "L")
    xl, yl = Var(TaggedVar("L", "x")), Var(TaggedVar("L", "y"))
    assert tagged == Rule(f(xl, f(yl, xl)), g(f(xl, yl), xl))
    assert built == ["x", "y"]


def test_critical_pairs_build_one_variable_per_side_and_name(monkeypatch):
    built = []

    def counted(side, base, original=TaggedVar):
        built.append((side, base))
        return original(side, base)

    monkeypatch.setattr(rule, "TaggedVar", counted)
    rules = [Rule(f(x, y), g(x)), Rule(f(g(x), y), y), Rule(g(x), x)]
    assert len(criticalpairs.critical_pairs(rules)) == 3
    assert sorted(built) == [("L", "x"), ("L", "y"), ("R", "x"), ("R", "y")]
    # `rule.tag` alone makes new nodes for each rule it tags
    built.clear()
    rule.tag(rules[0], "L")
    rule.tag(rules[1], "L")
    assert built == [("L", "x"), ("L", "y"), ("L", "x"), ("L", "y")]


@given(rule_strategy(), rule_strategy())
def test_rename_apart_gives_disjoint_variants(r1, r2):
    s1, s2 = rule.rename_apart(r1, r2)
    vars1 = set(term.vars(s1.lhs)) | set(term.vars(s1.rhs))
    vars2 = set(term.vars(s2.lhs)) | set(term.vars(s2.rhs))
    assert not vars1 & vars2
    assert rule.is_variant_of(s1, r1)
    assert rule.is_variant_of(s2, r2)


def test_render():
    assert rule.render(Rule(f(x), x)) == "f(x) -> x"
    assert str(Rule(a, b)) == "a -> b"


def test_to_json():
    assert rule.to_json(Rule(f(x), x)) == {
        "lhs": {"fun": "f", "args": [{"var": "x"}]},
        "rhs": {"var": "x"},
    }
