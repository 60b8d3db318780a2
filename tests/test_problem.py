import random
from pathlib import Path

import pytest

from trskit import problem, term
from trskit.problem import ParseError, Problem
from trskit.rewriting import Strategy
from trskit.rule import Rule
from trskit.term import Fun, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

x, y = Var("x"), Var("y")
a, b = Fun("a"), Fun("b")


def f(*args):
    return Fun("f", args)


def test_minimal_problem():
    p = problem.parse("(VAR x) (RULES f(x) -> x)")
    assert p.variables == ("x",)
    assert p.strict_rules == (Rule(f(x), x),)
    assert p.weak_rules == ()
    assert p.strategy is None and p.comment is None


def test_juxtaposed_rules_and_constants():
    p = problem.parse("(VAR x y) (RULES f(x,y) -> f(y,x) a -> b)")
    assert p.strict_rules == (Rule(f(x, y), f(y, x)), Rule(a, b))


def test_weak_rules_are_kept_apart():
    p = problem.parse("(VAR x) (RULES a ->= b f(x) -> x)")
    assert p.strict_rules == (Rule(f(x), x),)
    assert p.weak_rules == (Rule(a, b),)


def test_strategy_section():
    assert problem.parse("(STRATEGY FULL)").strategy is Strategy.FULL
    assert problem.parse("(STRATEGY INNERMOST)").strategy is Strategy.INNERMOST
    assert problem.parse("(STRATEGY OUTERMOST)").strategy is Strategy.OUTERMOST


def test_comment_and_preserved_sections():
    p = problem.parse("(COMMENT a (nested) remark)(PROOF anything goes)(THEORY (AC f))")
    assert p.comment == "a (nested) remark"
    assert p.preserved_sections == (("PROOF", " anything goes"), ("THEORY", " (AC f)"))
    assert p.has_theory


def test_repeated_comments_concatenate():
    p = problem.parse("(COMMENT one)(COMMENT two)")
    assert p.comment == "one\ntwo"


def test_duplicate_variables_collapse():
    assert problem.parse("(VAR x x y)").variables == ("x", "y")


@pytest.mark.parametrize(
    "text, message",
    [
        ("(VAR x) (RULES x(a) -> a)", "variable applied to arguments"),
        ("(VAR x) (RULES f(x) -> x f(x,x) -> x)", "inconsistent arity"),
        ("(VAR x) (RULES f(x) -> )", "unexpected end"),
        ("(VAR x) (RULES f(x) x)", "expected '->'"),
        ("(VAR x) (RULES f(x))", "missing arrow"),
        ("(VAR x) (RULES f(x -> x)", "unbalanced parentheses"),
        ("(VAR x", "unbalanced parentheses"),
        (")", "unbalanced parentheses"),
        ("(COMMENT never closed", "unbalanced parentheses"),
        ("(VAR x)(VAR y)", "duplicate VAR section"),
        ("(RULES)(RULES)", "duplicate RULES section"),
        ("(STRATEGY FULL)(STRATEGY FULL)", "duplicate STRATEGY section"),
        ("(STRATEGY CONTEXTSENSITIVE)", "unknown STRATEGY keyword"),
        ("(STRATEGY)", "unknown STRATEGY keyword"),
        ("stray", "expected '('"),
        ("(VAR x) (RULES f(x,,x) -> x)", "expected a term"),
        ('(VAR ")', "expected variable name"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        problem.parse(text)
    assert message in err.value.message


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        problem.parse("(VAR x)\n(RULES x(a) -> a)")
    assert (err.value.line, err.value.col) == (2, 8)


def test_arity_check_can_be_disabled():
    p = problem.parse("(RULES f(a) -> f(a,a))", check_arity=False)
    assert len(p.strict_rules) == 1


def test_rules_may_precede_var_declaration():
    p = problem.parse("(RULES f(x) -> x)(VAR x)")
    assert p.strict_rules == (Rule(f(x), x),)


def test_render_golden():
    p = Problem(variables=("x",), strict_rules=(Rule(f(x), x),))
    assert problem.render(p) == "(VAR x)\n(RULES\nf(x) -> x\n)\n"


def test_render_weak_arrow():
    p = Problem(variables=(), strict_rules=(), weak_rules=(Rule(a, b),))
    assert "a ->= b" in problem.render(p)


def test_round_trip_of_rich_problem():
    text = (
        "(VAR x y)\n(RULES\nf(x,y) -> f(y,x)\na ->= b\n)\n"
        "(STRATEGY OUTERMOST)\n(SIG (f 2))\n(COMMENT ok)\n"
    )
    p = problem.parse(text)
    assert problem.parse(problem.render(p)) == p
    assert problem.render(p) == text


def test_corpus_round_trips():
    files = sorted(CORPUS.glob("*.trs"))
    assert len(files) >= 6
    for path in files:
        p = problem.parse(path.read_text(encoding="latin-1"))
        assert problem.parse(problem.render(p)) == p


def test_to_json():
    p = problem.parse("(VAR x)(RULES f(x) -> x)(STRATEGY FULL)(COMMENT hi)")
    doc = problem.to_json(p)
    assert doc["variables"] == ["x"]
    assert doc["strategy"] == "FULL"
    assert doc["comment"] == "hi"
    assert doc["strictRules"][0]["rhs"] == {"var": "x"}
    assert doc["weakRules"] == []
    assert doc["hasTheory"] is False


def test_parse_term_examples():
    assert problem.parse_term("f(x,a)", {"x"}) == f(x, a)
    assert problem.parse_term("a()", set()) == a
    assert term.render(problem.parse_term("a()", set())) == "a"
    with pytest.raises(ParseError, match="unbalanced parentheses"):
        problem.parse_term("f(x", {"x"})
    with pytest.raises(ParseError, match="trailing input"):
        problem.parse_term("f(x) y", {"x", "y"})
    with pytest.raises(ParseError, match="variable applied"):
        problem.parse_term("x(a)", {"x"})
    with pytest.raises(ParseError, match="inconsistent arity"):
        problem.parse_term("f(f(a,a))", set())
    with pytest.raises(ParseError, match="expected a term"):
        problem.parse_term("", set())


def test_exotic_identifiers():
    # anything without whitespace, parens, comma or quote is an identifier,
    # and the arrows are recognized only as exact tokens
    p = problem.parse("(RULES f->g -> ->g)")
    assert p.strict_rules == (Rule(Fun("f->g"), Fun("->g")),)


def test_tokenizer_law():
    # tokens never contain whitespace or the special characters, the arrow
    # tokens are exactly '->' and '->=', the tokens spell the input without
    # its whitespace, and each offset points at its token's text
    rng = random.Random(5)
    alphabet = "ab-(>=), \t\n\"x"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        tokens = problem._tokenize(text)
        for kind, tok, off in tokens:
            assert tok
            assert not any(ch.isspace() for ch in tok)
            if len(tok) > 1:
                assert not any(ch in '(),"' for ch in tok)
            assert (kind == "arrow") == (tok in ("->", "->="))
            assert text[off : off + len(tok)] == tok
        assert "".join(tok for _, tok, _ in tokens) == "".join(text.split())


def test_fuzz_totality_smoke():
    rng = random.Random(99)
    pieces = ["(", ")", ",", '"', "VAR", "RULES", "->", "->=", "f", "x", " ", "\n", "COMMENT"]
    for _ in range(500):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 25)))
        try:
            problem.parse(text)
        except ParseError:
            pass


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        # end of input inside each kind of section, and right after '('
        ("(VAR x y", "unbalanced parentheses", 1, 9),
        ("(VAR x)\n(RULES\nf(x) -> x\n", "unbalanced parentheses", 4, 1),
        ("(STRATEGY", "unbalanced parentheses", 1, 10),
        ("(STRATEGY INNERMOST ", "unbalanced parentheses", 1, 21),
        ("(COMMENT (nested) but\nnever closed", "unbalanced parentheses", 2, 13),
        ("(PROOF (a (b)", "unbalanced parentheses", 1, 14),
        ("(", "unbalanced parentheses", 1, 2),
        ("(VAR x)\n(  \n ", "unbalanced parentheses", 3, 2),
        # '\r' before '\n' is a column of its own; only '\n' ends a line
        ("(VAR x)\r\n(RULES x(a) -> a)", "variable applied to arguments", 2, 8),
        ("(VAR x)\r\n\r\nstray", "expected '(', found 'stray'", 3, 1),
        ("(VAR x)\r(RULES x(a) -> a)", "variable applied to arguments", 1, 16),
        # a tab is one column
        ("(VAR\tx)\t(RULES\tx(a) -> a)", "variable applied to arguments", 1, 16),
        ("\t\t)", "unbalanced parentheses", 1, 3),
        # errors after a multi-line COMMENT
        ("(COMMENT one\ntwo (three)\nfour)\n  (STRATEGY FAST)", "unknown STRATEGY keyword 'FAST'", 4, 13),
        ("(COMMENT a\nb)(RULES f(x) -> x f(x,x) -> x)", "inconsistent arity for 'f': 2 here, 1 before", 2, 20),
        # positions of the errors found while reading the rules
        ("(RULES\nf(x) -> )", "unexpected end of input", 2, 9),
        ("(RULES\nf(x)\n)", "missing arrow", 3, 1),
        ("(RULES f(a -> a)", "unbalanced parentheses", 1, 17),
        ("(RULES a b)", "expected '->' or '->=', found 'b'", 1, 10),
        ("(RULES f(a b) -> a)", "expected ',' or ')', found 'b'", 1, 12),
        ("(STRATEGY FULL x)", "expected ')' after strategy, found 'x'", 1, 16),
        ("(VAR x ,)", "expected variable name, found ','", 1, 8),
        ("( ,)", "expected section key", 1, 3),
    ],
)
def test_parse_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as err:
        problem.parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("f(x) y", "trailing input 'y'", 1, 6),
        ("f(x)\n  g", "trailing input 'g'", 2, 3),
        ("f(x)\r\n)", "trailing input ')'", 2, 1),
        ("", "expected a term", 1, 1),
        ("  \t", "expected a term", 1, 4),
        ("\n \n", "expected a term", 3, 1),
        # running out of input points at the last token
        ("f(x,\n  a", "unbalanced parentheses", 2, 3),
        ("f(", "unbalanced parentheses", 1, 2),
    ],
)
def test_parse_term_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as err:
        problem.parse_term(text, {"x"})
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_whitespace_is_what_isspace_accepts():
    # in the latin-1 text, a character separates identifiers exactly when
    # str.isspace() accepts it
    for code in range(256):
        ch = chr(code)
        if ch in '(),"':
            continue
        p = problem.parse(f"(VAR{ch}x)")
        if ch.isspace():
            assert p.variables == ("x",), repr(ch)
            assert problem.parse_term(f"f(a,{ch}b){ch}", set()) == Fun("f", (a, b))
        else:
            assert p.preserved_sections == ((f"VAR{ch}x", ""),), repr(ch)
            assert problem.parse_term(f"a{ch}b", set()) == Fun(f"a{ch}b")
    assert {chr(c) for c in range(256) if chr(c).isspace()} >= set("\x1c\x1d\x1e\x1f\x85\xa0")


def test_every_prefix_and_suffix_of_the_corpus_parses_or_fails_cleanly():
    for path in sorted(CORPUS.glob("*.trs")):
        source = path.read_text(encoding="latin-1")
        for k in range(len(source) + 1):
            for text in (source[:k], source[k:]):
                for check_arity in (True, False):
                    try:
                        problem.parse(text, check_arity=check_arity)
                    except ParseError:
                        pass
