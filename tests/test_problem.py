import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import termgen
from reference_reader import reference_parse, reference_parse_term
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
    # tokens never contain whitespace or a special character unless they are
    # one, a token is an arrow exactly when it is '->' or '->=', the tokens
    # spell the input without its whitespace, and the offset helper points
    # at each token's text, whatever order the offsets are asked in
    rng = random.Random(5)
    alphabet = "ab-(>=), \t\n\"x"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        src = problem._Source(text)
        *tokens, sentinel = src.tokens
        assert sentinel == ""
        for tok in tokens:
            assert tok
            assert not any(ch.isspace() for ch in tok)
            if len(tok) > 1:
                assert not any(ch in '(),"' for ch in tok)
            assert (tok in problem._ARROWS) == (tok in ("->", "->="))
            if tok not in '(),"':
                try:
                    problem.parse(f"(RULES a {tok} b)")
                except ParseError as err:
                    assert err.message == f"expected '->' or '->=', found {tok!r}"
                    assert tok not in ("->", "->=")
                else:
                    assert tok in ("->", "->=")
        assert "".join(tokens) == "".join(text.split())
        order = list(range(len(tokens)))
        rng.shuffle(order)
        for k in order:
            off = src.offset(k)
            assert text[off : off + len(tokens[k])] == tokens[k]
        assert src.offset(len(tokens)) == len(text)


class CountingPattern:
    """Stands in for `problem._TOKEN` and counts its `finditer` passes and
    the matches they yield."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.passes = 0
        self.matches = 0

    def findall(self, text):
        return self.pattern.findall(text)

    def finditer(self, text):
        self.passes += 1
        for m in self.pattern.finditer(text):
            self.matches += 1
            yield m


def big_problem_text(n_rules, rule=lambda k: f"f(x,g{k}(y)) -> g{k}(x)"):
    """A file of ``n_rules`` rules with sections before and after RULES."""
    rules = "\n".join(rule(k) for k in range(n_rules))
    return f"(VAR x y)\n(RULES\n{rules}\n)\n(STRATEGY FULL)(THEORY (AC f))\n(SIGNATURE f/2 g/1)\n(COMMENT big)\n"


def test_offsets_are_computed_on_demand(monkeypatch):
    token = CountingPattern(problem._TOKEN)
    monkeypatch.setattr(problem, "_TOKEN", token)
    # no error and no preserved section: no offset at all
    problem.parse("(VAR x y)\n(RULES\nf(x,y) -> f(y,x)\na ->= b\n)\n(STRATEGY FULL)\n")
    problem.parse_term("f(x,a)", {"x"})
    problem.parse(big_problem_text(2000).split("(THEORY")[0])
    assert token.passes == 0
    # sections after 2000 rules are read from the end of the text: they pull
    # about as many matches as there are tokens after RULES, not 30 000
    text = big_problem_text(2000)
    after_rules = len(problem._TOKEN.findall(text[text.index("\n)\n") + 2 :]))
    p = problem.parse(text)
    assert p.preserved_sections == (("THEORY", " (AC f)"), ("SIGNATURE", " f/2 g/1"))
    assert p.comment == "big"
    assert token.passes == 1
    assert token.matches <= after_rules + 2
    # an error in the first rule is found from the start, and one in the
    # last rule, after the sections were read, from the end again
    for k, message, line, passes in ((0, "2 here, 1 before", 4, 2), (1999, "1 here, 2 before", 2002, 1)):
        token.passes = token.matches = 0
        bad = big_problem_text(2000, lambda i: f"f(x,g{i}(y)) -> g{i}(x)" if i != k else "f(x) -> x")
        with pytest.raises(ParseError) as err:
            problem.parse(bad)
        assert (err.value.message, err.value.line, err.value.col) == (f"inconsistent arity for 'f': {message}", line, 1)
        assert token.passes == passes
        assert token.matches <= after_rules + 20


def offsets_replay(text):
    """Ask `_Source.offset` for every token of ``text``, and for the end, in
    ascending, descending and shuffled order, each on a fresh source, and
    compare with a plain forward `finditer`."""
    want = [m.start(1) for m in problem._TOKEN.finditer(text)] + [len(text)]
    order = list(range(len(want)))
    shuffled = order[:]
    random.Random(text).shuffle(shuffled)
    for asked in (order, order[::-1], shuffled):
        src = problem._Source(text)
        assert [src.offset(i) for i in asked] == [want[i] for i in asked], (text, asked)


OFFSET_SOUP = ["(", ")", ",", '"', "->", "f", "ab", "x", " ", "\n", "\t", "\r", "\r\n", "\xa0", "\x85",
               "\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x0c", "é", "a\xa0b", "RULES"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(OFFSET_SOUP), max_size=40))
def test_offsets_replay_a_forward_pass(pieces):
    offsets_replay("".join(pieces))


def test_offsets_replay_a_forward_pass_on_seeded_soups():
    rng = random.Random(31)
    for _ in range(2000):
        text = "".join(rng.choice(OFFSET_SOUP) for _ in range(rng.randint(0, 60)))
        offsets_replay(text)
        # with and without whitespace at either end
        offsets_replay(text.strip())
    for path in sorted(CORPUS.glob("*.trs")):
        offsets_replay(path.read_text(encoding="latin-1"))
    offsets_replay("")
    offsets_replay(" \n\xa0")


def test_rule_errors_reported_after_a_later_section():
    # the offsets of the later sections are found first, from the end; the
    # error inside RULES is then found from whichever end is nearer
    rng = random.Random(41)
    checked = 0
    for _ in range(600):
        rules = [termgen.random_valid_rule(rng, 3) for _ in range(rng.randint(1, 8))]
        body = "\n".join(f"{term.render(r.lhs)} -> {term.render(r.rhs)}" for r in rules)
        tail = ["(THEORY (AC f))", "(COMMENT a\xa0comment\n)", "(SIG (f 2))", "(STRATEGY FULL)"]
        rng.shuffle(tail)
        sep = rng.choice(("\n", " ", "", "\r\n", "\t", "\x85"))
        text = sep.join(["(VAR x y z)", f"(RULES\n{body}\n)", *tail[: rng.randint(1, 4)]])
        bad = spoiled_rules(rng, text)
        got = outcome(problem.parse, bad)
        assert got == outcome(reference_parse, bad), bad
        if isinstance(got, tuple) and got[0].startswith(RULE_ERRORS):
            checked += 1
    assert checked > 300


def spoiled_rules(rng, text):
    """``text`` with one token inside RULES dropped, doubled or replaced."""
    tokens = problem._TOKEN.findall(text)
    spans = [m.span(1) for m in problem._TOKEN.finditer(text)]
    first = tokens.index("RULES") + 1
    start, end = spans[rng.randrange(first, problem._closing(tokens, first))]
    kind = rng.randrange(3)
    if kind == 0:
        return text[:start] + text[end:]
    if kind == 1:
        return text[:end] + " " + text[start:end] + text[end:]
    return text[:start] + rng.choice(("(", ")", ",", "->", "a", "x(", "f(a)")) + text[end:]


def test_one_node_per_leaf_name():
    p = problem.parse("(VAR x)(RULES f(x,a) -> g(x,a())\nh(x) -> a)")
    (r1, r2) = p.strict_rules
    assert r1.lhs.args[0] is r1.rhs.args[0]
    assert r1.lhs.args[1] is r1.rhs.args[1] is r2.rhs
    t = problem.parse_term("f(x,f(x,a),a)", {"x"}, arity=None)
    assert t.args[0] is t.args[1].args[0] and t.args[2] is t.args[1].args[1]
    # a shared name is still checked against every other use of its symbol
    with pytest.raises(ParseError, match="inconsistent arity for 'a': 0 here, 1 before"):
        problem.parse("(RULES a(b) -> b f(a) -> a)")
    with pytest.raises(ParseError, match="inconsistent arity for 'a': 1 here, 0 before"):
        problem.parse("(RULES f(a) -> a f(a(b)) -> b)")


def outcome(read, *args, **kwargs):
    """``repr`` of what ``read`` returns, or its error's message and position."""
    try:
        return repr(read(*args, **kwargs))
    except ParseError as err:
        return (err.message, err.line, err.col)


def assert_replays_the_reference(text):
    for check_arity in (True, False):
        got = outcome(problem.parse, text, check_arity=check_arity)
        assert got == outcome(reference_parse, text, check_arity=check_arity), text
    for variables, arity in (({"x"}, {}), (set(), None), ({"x", "y"}, {"f": 1, "a": 0})):
        got = outcome(problem.parse_term, text, variables, arity=arity)
        assert got == outcome(reference_parse_term, text, variables, arity=arity), text


SOUP = ["(", ")", ",", '"', "VAR", "RULES", "->", "->=", "f", "x", "a", "()", " ", "\n", "\t", "\xa0",
        "COMMENT", "STRATEGY", "FULL", "THEORY", "f(x)", "f(x,a)"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SOUP), max_size=30))
def test_reader_replays_the_reference_on_token_soups(pieces):
    assert_replays_the_reference("".join(pieces))


def test_reader_replays_the_reference_on_random_soups():
    rng = random.Random(17)
    for _ in range(3000):
        assert_replays_the_reference("".join(rng.choice(SOUP) for _ in range(rng.randint(0, 40))))


def generated_file(rng):
    """A problem text that uses every section kind in random order, with
    strict and weak rules of random terms."""
    rules = [termgen.random_valid_rule(rng, 3) for _ in range(rng.randint(1, 6))]
    arrows = [rng.choice(("->", "->=")) for _ in rules]
    body = "\n".join(f"{term.render(r.lhs)} {arrow} {term.render(r.rhs)}" for r, arrow in zip(rules, arrows))
    sections = [
        "(VAR x y z)",
        f"(RULES\n{body}\n)",
        f"(STRATEGY {rng.choice(('FULL', 'INNERMOST', 'OUTERMOST'))})",
        "(THEORY (AC f)\n(C g))",
        "(COMMENT generated (with\tnested) parens\n over lines)",
        "(SIG (f 2) (g 1))",
    ]
    rng.shuffle(sections)
    return rng.choice(("\n", " ", "", "\r\n", "\t")).join(sections)


def spoiled(rng, text):
    """``text`` with one token dropped, doubled or replaced, or one arity changed."""
    tokens = problem._TOKEN.findall(text)
    spans = [m.span(1) for m in problem._TOKEN.finditer(text)]
    k = rng.randrange(len(tokens))
    start, end = spans[k]
    kind = rng.randrange(4)
    if kind == 0:
        return text[:start] + text[end:]
    if kind == 1:
        return text[:end] + " " + tokens[k] + text[end:]
    if kind == 2:
        return text[:start] + rng.choice(SOUP) + text[end:]
    return text.replace("g(", "g(a,", 1) if rng.random() < 0.5 else text.replace("a", "a()", 1)


RULE_ERRORS = ("missing arrow", "expected '->'", "expected a term", "expected ','", "unexpected end",
               "inconsistent arity", "variable applied")


def test_reader_replays_the_reference_on_generated_files():
    rng = random.Random(23)
    late_rule_errors = 0
    for _ in range(1500):
        text = generated_file(rng)
        assert not isinstance(outcome(problem.parse, text), tuple), text
        assert_replays_the_reference(text)
        bad = spoiled(rng, text)
        assert_replays_the_reference(bad)
        got = outcome(problem.parse, bad)
        if isinstance(got, tuple) and got[0].startswith(RULE_ERRORS):
            rules_at = bad.find("(RULES")
            later = ("(THEORY", "(COMMENT", "(SIG")
            late_rule_errors += any(bad.find(key, rules_at) > 0 for key in later)
    # errors inside RULES that are reported after reading a preserved
    # section that follows RULES
    assert late_rule_errors > 100


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
                assert_replays_the_reference(text)
