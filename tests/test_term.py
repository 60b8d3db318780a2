import itertools

import pytest
from hypothesis import given, strategies as st

from reference_terms import from_reference, to_reference
from termgen import dag, term_strategy
from trskit import position, substitution, term
from trskit.rule import TaggedVar
from trskit.term import Fun, InvalidPositionError, Var

x, y = Var("x"), Var("y")
a, b = Fun("a"), Fun("b")


def f(*args):
    return Fun("f", args)


def g(t):
    return Fun("g", (t,))


terms = term_strategy()
small_positions = st.lists(st.integers(0, 2), max_size=4).map(tuple)


def test_fold_counts_nodes():
    count = lambda t: term.fold(t, lambda _: 1, lambda _, cs: 1 + sum(cs))
    assert count(x) == 1
    assert count(g(a)) == 2
    assert count(g(g(x))) == 3


def test_map_symbols():
    assert term.map_symbols(x, lambda v: v, lambda s: s) == x
    assert term.map_symbols(f(x, a), lambda v: v + "'", lambda s: s) == f(Var("x'"), a)


@given(terms)
def test_map_symbols_preserves_structure(t):
    renamed = term.map_symbols(t, lambda v: (v, 0), lambda s: (s, 1))
    assert term.size(renamed) == term.size(t)
    assert term.positions(renamed) == term.positions(t)


def test_vars_and_funs_occurrences():
    assert term.vars(a) == []
    assert term.vars(f(x, x)) == ["x", "x"]
    assert term.vars(f(g(y), x)) == ["y", "x"]
    assert term.funs(x) == []
    assert term.funs(f(a, x)) == ["f", "a"]
    assert term.funs(g(g(x))) == ["g", "g"]


def test_positions_preorder():
    assert term.positions(a) == [()]
    assert term.positions(f(g(a), x)) == [(), (0,), (0, 0), (1,)]


@given(terms)
def test_positions_count_equals_size(t):
    assert len(term.positions(t)) == term.size(t)


@given(terms)
def test_positions_prefix_closed_and_sibling_complete(t):
    ps = set(term.positions(t))
    for p in ps:
        assert p[:-1] in ps or p == ()
        if p and p[-1] > 0:
            assert p[:-1] + (p[-1] - 1,) in ps


def test_subterm_at():
    assert term.subterm_at(f(g(a), x), (0,)) == g(a)
    t = f(a, g(b))
    assert term.subterm_at(t, ()) == t
    with pytest.raises(InvalidPositionError):
        term.subterm_at(f(a, b), (2,))
    with pytest.raises(InvalidPositionError):
        term.subterm_at(x, (0,))


def test_replace_at():
    assert term.replace_at(f(a, b), (1,), x) == f(a, x)
    assert term.replace_at(f(a, b), (), x) == x
    with pytest.raises(InvalidPositionError):
        term.replace_at(f(a, b), (0, 0), x)


@given(terms, st.data())
def test_replace_subterm_laws(t, data):
    p = data.draw(st.sampled_from(term.positions(t)))
    s = data.draw(term_strategy(max_leaves=4))
    assert term.replace_at(t, p, term.subterm_at(t, p)) == t
    assert term.subterm_at(term.replace_at(t, p, s), p) == s


@given(terms, st.data())
def test_parallel_replacements_commute(t, data):
    ps = term.positions(t)
    p = data.draw(st.sampled_from(ps))
    q = data.draw(st.sampled_from(ps))
    if position.compare(p, q) is not position.Relation.PARALLEL:
        return
    s1 = data.draw(term_strategy(max_leaves=4))
    s2 = data.draw(term_strategy(max_leaves=4))
    one = term.replace_at(term.replace_at(t, p, s1), q, s2)
    other = term.replace_at(term.replace_at(t, q, s2), p, s1)
    assert one == other


def test_is_ground_and_linear():
    assert term.is_ground(f(a, g(b)))
    assert not term.is_ground(g(x))
    assert term.is_linear(f(x, y))
    assert not term.is_linear(f(x, x))


@given(terms)
def test_ground_implies_linear(t):
    if term.is_ground(t):
        assert term.is_linear(t)


def _variant_by_renaming(t, u):
    """Oracle: try every bijective variable renaming from t onto u."""
    tv = sorted(set(term.vars(t)), key=str)
    uv = sorted(set(term.vars(u)), key=str)
    if len(tv) != len(uv):
        return False
    for image in itertools.permutations(uv):
        sigma = {v: Var(w) for v, w in zip(tv, image)}
        if substitution.apply(sigma, t) == u:
            return True
    return False


def test_instance_and_variant():
    assert term.is_instance_of(f(a, b), f(x, y))
    assert not term.is_instance_of(f(x, y), f(a, b))
    assert term.is_variant_of(f(x, y), f(y, x))
    assert not term.is_variant_of(f(x, x), f(x, y))
    assert not _variant_by_renaming(f(x, x), f(x, y))


@given(terms, terms)
def test_equal_agrees_with_eq(t, u):
    # The JSON documents compare as nested dicts and lists.
    assert (t == u) == (term.to_json(t) == term.to_json(u))
    assert (t != u) == (not t == u)
    copy = term.from_json(term.to_json(t))
    assert t == copy and hash(t) == hash(copy)


def test_equal_on_deep_terms(default_recursion_limit):
    def chain(n, leaf):
        t = leaf
        for _ in range(n):
            t = g(t)
        return t

    assert chain(10000, a) == chain(10000, a)
    assert hash(chain(10000, a)) == hash(chain(10000, a))
    assert chain(10000, a) != chain(10000, b)
    assert chain(10000, x) != chain(10001, x)
    assert f(chain(10000, a), x) != f(chain(10000, a), y)


def test_equal_on_separately_built_dags(time_limit):
    # Bools, so that a failure report renders no term: these unfold to
    # 2**41 nodes.
    with time_limit(0.1):
        equal = dag(40, a) == dag(40, a)
        differ = dag(40, x) != dag(40, y)
        nested = f(dag(40, a), dag(39, a)) == f(dag(40, a), dag(39, a))
    assert equal and differ and nested


@given(terms, terms)
def test_variant_matches_renaming_oracle(t, u):
    assert term.is_variant_of(t, u) == _variant_by_renaming(t, u)


@given(terms, terms, terms)
def test_variant_is_equivalence(t, u, v):
    assert term.is_variant_of(t, t)
    assert term.is_variant_of(t, u) == term.is_variant_of(u, t)
    if term.is_variant_of(t, u) and term.is_variant_of(u, v):
        assert term.is_variant_of(t, v)


def test_render():
    assert term.render(f(g(a), x)) == "f(g(a),x)"
    assert term.render(a) == "a"
    assert term.render(x) == "x"
    assert str(f(x, a)) == "f(x,a)"


def test_repr_is_the_dataclass_format():
    from trskit.rule import TaggedVar

    assert repr(Fun("f", (x, a))) == "Fun(symbol='f', args=(Var(name='x'), Fun(symbol='a', args=())))"
    assert repr(Fun("f", (x,))) == "Fun(symbol='f', args=(Var(name='x'),))"
    assert repr(a) == "Fun(symbol='a', args=())"
    nested = Fun("g", (Fun("h", (x, Fun("k", (a,)), Var(TaggedVar("L", "y")))),))
    assert repr(nested) == (
        "Fun(symbol='g', args=(Fun(symbol='h', args=(Var(name='x'), "
        "Fun(symbol='k', args=(Fun(symbol='a', args=()),)), "
        "Var(name=TaggedVar(side='L', base='y')))),))"
    )
    assert repr(Fun(3, (Var(("p", 1)),))) == "Fun(symbol=3, args=(Var(name=('p', 1)),))"


# Leaves whose names collide across kinds: a string, a tagged pair on either
# side, the plain pair, and a constant of the same name as a variable.
replay_terms = st.recursive(
    st.sampled_from(
        [x, Var(TaggedVar("L", "x")), Var(TaggedVar("R", "x")), Var(("L", "x")), Fun("x"), a]
    ),
    lambda ts: st.builds(f, ts, ts)
    | st.builds(g, ts)
    | st.builds(lambda t: f(t, t), ts),
    max_leaves=10,
)


def assert_agrees_with_reference(t, u):
    rt, ru = to_reference(t), to_reference(u)
    for fast, ref in ((t, rt), (u, ru)):
        assert repr(fast) == repr(ref)
        assert str(fast) == str(ref)
        assert hash(fast) == hash(ref)
        assert repr(from_reference(ref)) == repr(fast)
    assert (t == u) == (rt == ru)
    assert (t != u) == (rt != ru)


@given(replay_terms, replay_terms)
def test_nodes_agree_with_the_dataclass_reference(t, u):
    assert_agrees_with_reference(t, u)
    assert_agrees_with_reference(t, from_reference(to_reference(t)))


def test_nodes_agree_with_the_reference_on_deep_and_shared_terms(default_recursion_limit):
    t = Var(TaggedVar("L", "x"))
    for _ in range(10000):
        t = g(t)
    assert_agrees_with_reference(t, g(t))
    leaf = Var(TaggedVar("L", "x"))
    assert_agrees_with_reference(dag(10, leaf), dag(10, Var(TaggedVar("L", "x"))))
    assert_agrees_with_reference(dag(10, leaf), dag(10, Var(TaggedVar("R", "x"))))
    # Too big to unfold: only == and != walk the DAG.
    rt = to_reference(dag(40, a))
    assert rt == to_reference(dag(40, a)) and not rt != to_reference(dag(40, a))
    assert rt != to_reference(dag(40, b)) and not rt == to_reference(dag(40, b))


@given(terms)
def test_json_round_trip(t):
    assert term.from_json(term.to_json(t)) == t


def test_json_shape():
    assert term.to_json(x) == {"var": "x"}
    assert term.to_json(g(a)) == {"fun": "g", "args": [{"fun": "a", "args": []}]}
