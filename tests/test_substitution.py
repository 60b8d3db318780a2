import itertools
import time

import pytest
from hypothesis import example, given, strategies as st

from termgen import dag, enumerate_terms, subst_strategy, term_strategy
from trskit import substitution, term
from trskit.term import Fun, Var

x, y, z = Var("x"), Var("y"), Var("z")
a, b = Fun("a"), Fun("b")


def f(*args):
    return Fun("f", args)


def g(t):
    return Fun("g", (t,))


terms = term_strategy()

# Every test here fails after this long instead of running for ever, since
# `unify` without its pair memo loops on some cyclic bindings.
SECONDS_PER_TEST = 60.0


@pytest.fixture(autouse=True)
def fail_instead_of_looping(time_limit):
    with time_limit(SECONDS_PER_TEST):
        yield


def test_apply_examples():
    assert substitution.apply({}, f(x, y)) == f(x, y)
    assert substitution.apply({"x": a}, f(x, y)) == f(a, y)
    assert substitution.apply({"x": g(y)}, f(x, x)) == f(g(y), g(y))


def test_apply_generalized_examples():
    assert substitution.apply_generalized({"x": a}, f(x, x)) == f(a, a)
    assert substitution.apply_generalized({"x": a}, f(x, y)) is None
    assert substitution.apply_generalized({}, a) == a


def test_compose_examples():
    sigma = {"x": g(y)}
    assert substitution.compose({}, sigma) == sigma
    assert substitution.compose(sigma, {}) == sigma
    assert substitution.compose({"x": y}, {"y": a}) == {"x": a, "y": a}


@given(subst_strategy(), subst_strategy(), terms)
def test_compose_law(sigma, tau, t):
    rho = substitution.compose(sigma, tau)
    assert substitution.apply(rho, t) == substitution.apply(tau, substitution.apply(sigma, t))


def _no_identity_bindings(sigma):
    return all(not (isinstance(t, Var) and t.name == v) for v, t in sigma.items())


@given(subst_strategy(), subst_strategy())
def test_compose_normalizes(sigma, tau):
    assert _no_identity_bindings(substitution.compose(sigma, tau))


def test_match_examples():
    sigma = substitution.match(f(x, y), f(a, g(b)))
    assert sigma == {"x": a, "y": g(b)}
    assert substitution.apply_generalized(sigma, f(x, y)) == f(a, g(b))
    assert substitution.match(f(x, x), f(a, b)) is None
    assert substitution.match(x, f(a, g(y))) == {"x": f(a, g(y))}


def test_match_domain_is_pattern_vars():
    sigma = substitution.match(f(x, x), f(y, y))
    assert sigma == {"x": y}


@given(terms, subst_strategy())
def test_match_complete_and_sound_on_instances(pattern, sigma0):
    full = substitution.to_generalized(sigma0, term.vars(pattern))
    subject = substitution.apply_generalized(full, pattern)
    sigma = substitution.match(pattern, subject)
    assert sigma is not None
    assert substitution.apply_generalized(sigma, pattern) == subject


@given(terms, terms)
def test_match_sound(pattern, subject):
    sigma = substitution.match(pattern, subject)
    if sigma is not None:
        assert substitution.apply_generalized(sigma, pattern) == subject
        assert set(sigma) == set(term.vars(pattern))


def reference_match(pattern, subject):
    """Matching over one stack of (pattern, subject) pairs."""
    sigma: dict = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            seen = sigma.get(p.name)
            if seen is None:
                sigma[p.name] = s
            elif seen != s:
                return None
        elif isinstance(s, Fun) and p.symbol == s.symbol and len(p.args) == len(s.args):
            stack.extend(zip(p.args, s.args))
        else:
            return None
    return sigma


def assert_match_replays_reference(pattern, subject):
    """The same bindings in the same key order as the reference, or ``None`` for both."""
    got, want = substitution.match(pattern, subject), reference_match(pattern, subject)
    if want is None:
        assert got is None
    else:
        assert got is not None and list(got.items()) == list(want.items())


@given(terms, terms)
def test_match_replays_the_reference(pattern, subject):
    assert_match_replays_reference(pattern, subject)


# Images for the variable occurrences of a pattern; two occurrences of one
# variable of a non-linear pattern often draw the same image, and often not.
occurrence_images = st.lists(
    st.sampled_from([a, b, x, g(a), f(y, a)]), min_size=12, max_size=12
)


@given(terms, occurrence_images)
def test_match_replays_the_reference_on_near_instances(pattern, images):
    # Each variable occurrence, left to right, replaced by the next image.
    it = iter(images)
    subject = term.fold(pattern, lambda v: next(it), lambda s, args: Fun(s, tuple(args)))
    assert_match_replays_reference(pattern, subject)


def test_match_replays_the_reference_on_non_linear_patterns():
    for pattern, subject in [
        (f(x, x), f(a, a)),
        (f(x, x), f(a, b)),
        (f(x, f(y, x)), f(g(b), f(a, g(b)))),
        (f(x, f(y, x)), f(g(b), f(a, g(a)))),
        (f(f(x, y), f(y, x)), f(f(a, b), f(b, a))),
        (f(f(x, y), f(y, x)), f(f(a, b), f(a, b))),
        (f(x, g(x)), f(y, g(y))),
        (f(x, a), f(b, g(a))),
        (g(x), x),
    ]:
        assert_match_replays_reference(pattern, subject)


def test_unify_examples():
    assert substitution.unify(x, g(x)) is None
    assert substitution.unify(f(x, a), f(b, y)) == {"x": b, "y": a}
    assert substitution.unify(a, a) == {}
    assert substitution.unify(f(a, x), f(b, y)) is None


def test_unify_most_general_by_hand():
    sigma = substitution.unify(f(x, y), f(y, x))
    assert sigma in ({"x": y}, {"y": x})
    unified = substitution.apply(sigma, f(x, y))
    # any other unifier's instance must be an instance of the mgu's
    for tau in ({"x": a, "y": a}, {"x": g(z), "y": g(z)}):
        assert substitution.match(unified, substitution.apply(tau, f(x, y))) is not None


@given(terms, terms)
def test_unify_sound_and_idempotent(s, t):
    sigma = substitution.unify(s, t)
    if sigma is None:
        return
    assert substitution.apply(sigma, s) == substitution.apply(sigma, t)
    assert substitution.compose(sigma, sigma) == sigma
    assert _no_identity_bindings(sigma)


@given(terms, terms)
def test_unify_symmetric_up_to_renaming(s, t):
    st_sigma = substitution.unify(s, t)
    ts_sigma = substitution.unify(t, s)
    assert (st_sigma is None) == (ts_sigma is None)
    if st_sigma is not None:
        one = substitution.apply(st_sigma, s)
        other = substitution.apply(ts_sigma, t)
        assert term.is_variant_of(one, other)


@given(terms, terms)
def test_match_implies_unify_after_renaming(pattern, subject):
    if substitution.match(pattern, subject) is None:
        return
    renamed = term.map_symbols(subject, lambda v: f"{v}'", lambda s: s)
    assert substitution.unify(pattern, renamed) is not None


def reference_unify(s, t):
    """Unification that applies ``sigma`` to both sides of every pair it pops."""
    sigma = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = substitution.apply(sigma, a), substitution.apply(sigma, b)
        if a == b:
            continue
        if isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if _occurs(a.name, b):
                return None
            binding = {a.name: b}
            sigma = {v: substitution.apply(binding, u) for v, u in sigma.items()}
            sigma[a.name] = b
        elif a.symbol == b.symbol and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return sigma


def _occurs(name, t):
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Var):
            if s.name == name:
                return True
        else:
            stack.extend(s.args)
    return False


def assert_replays_reference(s, t):
    """The same bindings in the same order as the reference, or ``None`` for both."""
    got, want = substitution.unify(s, t), reference_unify(s, t)
    if want is None:
        assert got is None
    else:
        assert got is not None and list(got.items()) == list(want.items())


# Bindings in solved form, which `_solve` returns as they are, and
# bindings where only the last one chains, which it solves.
@example(f(x, y, z), f(g(a), f(a, b), b), {})  # no image mentions a bound variable
@example(f(x, y), f(g(y), a), {})  # only the last image mentions one
@example(f(x, y), f(g(x), a), {})  # the cycle closes in the last binding
@example(f(x, y, z), f(g(z), a, g(y)), {})  # x's image chains through z's to y's
@given(terms, terms, subst_strategy())
def test_unify_replays_the_reference(s, t, tau):
    assert_replays_reference(s, t)
    # Instance pairs, in either orientation, mostly unify.
    assert_replays_reference(s, substitution.apply(tau, s))
    assert_replays_reference(substitution.apply(tau, s), s)


def test_unify_against_enumerated_unifiers():
    # depth <= 1 pairs over {f, g, a} with two variables: check most-generality
    pool = enumerate_terms(1, (("f", 2), ("g", 1), ("a", 0)), ("x", "y"))
    pairs = [(s, t) for s, t in itertools.product(pool, repeat=2)]
    taus = [
        {"x": u, "y": v}
        for u, v in itertools.product(enumerate_terms(1, (("g", 1), ("a", 0)), ()), repeat=2)
    ]
    for s, t in pairs:
        assert_replays_reference(s, t)
        sigma = substitution.unify(s, t)
        unifiers = [
            tau
            for tau in taus
            if substitution.apply(tau, s) == substitution.apply(tau, t)
        ]
        if sigma is None:
            assert not unifiers
        else:
            unified = substitution.apply(sigma, s)
            for tau in unifiers:
                assert substitution.match(unified, substitution.apply(tau, s)) is not None


MANY = 20_000
# A unifier that rewrites every stored image per new binding takes about
# 50 s on a case at this size (2-vCPU machine), and one with an occurs
# check per binding about 86 s on the image chain; triangular bindings
# checked for a cycle once take about 0.1 s.
MANY_SECONDS = 5.0


def many_bindings(kind, n):
    """``(s, t, bindings)``: a pair whose mgu has ``n`` bindings, and that
    mgu's items in bind order."""
    xs = [Var(f"x{i}") for i in range(n + 1)]
    if kind == "constant":
        return f(*xs[:n]), f(*xs[1:n], a), [(f"x{i}", a) for i in range(n - 1, -1, -1)]
    if kind == "chain":
        return f(*xs[:n]), f(*xs[1:]), [(f"x{i}", xs[0]) for i in range(n, 0, -1)]
    if kind == "free_images":
        # No image mentions a bound variable: x(i) gets g(y(i)).
        ys = [Var(f"y{i}") for i in range(n)]
        return f(*xs[:n]), f(*map(g, ys)), [(f"x{i}", g(ys[i])) for i in range(n - 1, -1, -1)]
    if kind == "last_image":
        # Only the last image mentions a bound variable: x0 gets g(x1), and
        # every other x(i) gets a.
        return f(*xs[:n]), f(g(xs[1]), *[a] * (n - 1)), [(f"x{i}", a) for i in range(n - 1, 0, -1)] + [("x0", g(a))]
    if kind == "image_chain":
        # Each image mentions the variable bound before it: x(i) gets
        # g^(n-i)(x(n)).
        bindings, image = [], xs[n]
        for i in range(n - 1, -1, -1):
            image = g(image)
            bindings.append((f"x{i}", image))
        return f(*xs[:n]), f(*map(g, xs[1:])), bindings
    # One variable against all: without path compression, each binding
    # lengthens the walk from y.
    return f(*xs[:n]), f(*[y] * n), [("y", xs[0])] + [(f"x{i}", xs[0]) for i in range(n - 1, 0, -1)]


@pytest.mark.parametrize("kind", ["constant", "chain", "one_variable", "image_chain", "free_images", "last_image"])
def test_unify_many_bindings(kind):
    s, t, want = many_bindings(kind, 5)
    assert list(reference_unify(s, t).items()) == want
    s, t, want = many_bindings(kind, MANY)
    start = time.perf_counter()
    sigma = substitution.unify(s, t)
    assert time.perf_counter() - start < MANY_SECONDS
    assert list(sigma) == [v for v, _ in want]
    # One `==` over all the images, so that the parts the chained images
    # share are compared once; a bool, so that a failure report does not
    # render n**2 / 2 nodes.
    same = Fun("images", tuple(sigma.values())) == Fun("images", tuple(u for _, u in want))
    assert same


def test_unify_cyclic_image_chain():
    def cyclic(n):
        # x(i) against g(x(i+1)), and the last against g(x0).
        xs = [Var(f"x{i}") for i in range(n)]
        return f(*xs), f(*map(g, xs[1:]), g(xs[0]))

    assert reference_unify(*cyclic(5)) is None
    s, t = cyclic(MANY)
    start = time.perf_counter()
    failed = substitution.unify(s, t) is None
    assert time.perf_counter() - start < MANY_SECONDS
    assert failed


def test_unify_ends_on_cyclic_bindings():
    # x is bound to g(g(x)); then g(x) against that image takes a pair of
    # applications apart again and again, unless each pair is taken apart
    # once.
    assert reference_unify(f(x, x), f(g(x), g(g(x)))) is None
    assert substitution.unify(f(x, x), f(g(x), g(g(x)))) is None
    assert substitution.unify(f(x, y), f(g(y), g(x))) is None


DAG_SECONDS = 0.1


@pytest.mark.parametrize(
    "check",
    [
        lambda: substitution.unify(dag(40, x), dag(40, a)) == {"x": a},
        lambda: substitution.unify(dag(40, x), dag(40, x)) == {},
        lambda: substitution.match(f(y, y), f(dag(40, a), dag(40, a))) == {"y": dag(40, a)},
        lambda: substitution.match(f(y, y), f(dag(40, a), dag(40, b))) is None,
    ],
    ids=["unify_binds", "unify_equal", "match_equal", "match_differ"],
)
def test_unify_and_match_on_separately_built_dags(check):
    # `check` returns a bool, so that a failure report renders no term:
    # these unfold to 2**41 nodes.
    start = time.perf_counter()
    ok = check()
    assert time.perf_counter() - start < DAG_SECONDS
    assert ok


@given(terms, terms, subst_strategy())
def test_unify_replays_the_reference_on_shared_subterms(s, t, tau):
    # `apply` puts one image object at every occurrence of its variable, so
    # the sides share subterm objects, also with each other.
    assert_replays_reference(substitution.apply(tau, s), substitution.apply(tau, t))
    assert_replays_reference(substitution.apply(tau, f(s, t)), substitution.apply(tau, f(t, s)))


@given(term_strategy(("y", "z")), term_strategy(("x", "z")), term_strategy(("x", "y")))
def test_unify_replays_the_reference_on_cycles_through_bindings(u, v, w):
    # No image mentions the variable it stands against, so a cycle goes
    # through two bindings or more.
    assert_replays_reference(f(x, y, z), f(u, v, w))
    assert_replays_reference(f(u, v, w), f(x, y, z))


def test_conversions():
    sigma = {"x": a}
    gen = substitution.to_generalized(sigma, ("x", "y"))
    assert gen == {"x": a, "y": y}
    assert substitution.to_standard(gen) == sigma


def test_render():
    assert substitution.render({}) == "{}"
    assert substitution.render({"y": b, "x": f(a, a)}) == "{x -> f(a,a), y -> b}"
