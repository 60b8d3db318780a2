import pytest
from hypothesis import given, strategies as st

from termgen import term_strategy
from trskit import context, term
from trskit.context import CFun, HOLE
from trskit.term import Fun, InvalidPositionError, Var

x = Var("x")
a, b = Fun("a"), Fun("b")
f_ab = Fun("f", (a, b))


def test_of_term():
    assert context.of_term(f_ab, ()) == HOLE
    assert context.of_term(f_ab, (1,)) == CFun("f", (a,), HOLE, ())
    with pytest.raises(InvalidPositionError):
        context.of_term(f_ab, (2,))


@pytest.mark.parametrize(
    "p, index, step",
    [
        pytest.param((1, 1), 1, 1, id="past-the-arity"),
        pytest.param((1, -1), -1, 1, id="negative"),
        pytest.param((0, 0), 0, 1, id="into-a-variable"),
        pytest.param((1, 0, 0), 0, 2, id="into-a-constant"),
    ],
)
def test_invalid_position_gives_one_message(p, index, step):
    t = Fun("f", (x, Fun("g", (a,))))
    message = f"no subterm at index {index} (position step {step})"
    for cut in (term.subterm_at, lambda t, p: term.replace_at(t, p, b), context.of_term):
        with pytest.raises(InvalidPositionError) as raised:
            cut(t, p)
        assert str(raised.value) == message


def test_plug():
    assert context.plug(HOLE, x) == x
    assert context.plug(CFun("f", (a,), HOLE, ()), b) == f_ab


def test_hole_position():
    assert context.hole_position(HOLE) == ()
    assert context.hole_position(CFun("f", (a,), HOLE, ())) == (1,)
    nested = CFun("g", (), CFun("f", (), HOLE, (b,)), ())
    assert context.hole_position(nested) == (0, 0)


def test_render():
    assert context.render(HOLE) == "[]"
    assert context.render(CFun("f", (a,), HOLE, ())) == "f(a,[])"
    assert str(CFun("g", (), HOLE, ())) == "g([])"


def test_repr_is_the_dataclass_format():
    c = context.of_term(Fun("f", (a, Fun("g", (x,)), b)), (1, 0))
    assert repr(c) == (
        "CFun(symbol='f', before=(Fun(symbol='a', args=()),), "
        "inner=CFun(symbol='g', before=(), inner=Hole(), after=()), "
        "after=(Fun(symbol='b', args=()),))"
    )
    assert repr(HOLE) == "Hole()"


@given(term_strategy(), st.data())
def test_decomposition_laws(t, data):
    p = data.draw(st.sampled_from(term.positions(t)))
    s = data.draw(term_strategy(max_leaves=4))
    c = context.of_term(t, p)
    assert context.hole_position(c) == p
    assert context.plug(c, term.subterm_at(t, p)) == t
    assert context.plug(c, s) == term.replace_at(t, p, s)
    assert context.of_term(context.plug(c, s), p) == c
