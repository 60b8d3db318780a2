import hashlib
import io
import json
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import termgen
from trskit import analysis, cli, criticalpairs, problem, rewriting, term
from trskit.problem import Problem
from trskit.rewriting import Strategy
from trskit.rule import Rule
from trskit.term import Fun, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def write(tmp_path, text):
    path = tmp_path / "system.trs"
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_reprints_canonically(tmp_path, capsys):
    path = write(tmp_path, "(VAR   x)(RULES\n  f(x)  ->  x)")
    code, out, _ = run(capsys, "parse", path)
    assert code == 0
    assert out == "(VAR x)\n(RULES\nf(x) -> x\n)\n"


def test_parse_json(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES f(x) -> x)")
    code, out, _ = run(capsys, "parse", "--json", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["variables"] == ["x"]


def test_commands_are_looked_up_when_main_runs(tmp_path, capsys, monkeypatch):
    # the argument parser is built once, and a command replaced after that
    # still runs
    path = write(tmp_path, "(VAR x)(RULES f(x) -> x)")
    assert run(capsys, "parse", path) == (0, "(VAR x)\n(RULES\nf(x) -> x\n)\n", "")
    monkeypatch.setattr(cli, "cmd_parse", lambda args: print(f"replaced {args.command}") or 7)
    assert run(capsys, "parse", path) == (7, "replaced parse\n", "")
    assert cli._arg_parser() is cli._arg_parser()


def test_parse_error_reports_position(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES x(a) -> a)")
    code, out, err = run(capsys, "parse", path)
    assert code == 2
    assert "variable applied to arguments" in err


def test_props(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES f(x,x) -> x)")
    code, out, _ = run(capsys, "props", path)
    assert code == 0
    assert "left-linear: no" in out
    assert "collapsing: yes" in out


def test_props_flags_invalid_rules(tmp_path, capsys):
    path = write(tmp_path, "(VAR x y)(RULES f(x) -> y)")
    code, out, _ = run(capsys, "props", path)
    assert code == 1
    assert "valid: no" in out


def test_props_and_parse_succeed_on_corpus(capsys):
    for path in sorted(CORPUS.glob("*.trs")):
        assert run(capsys, "parse", str(path))[0] == 0
        assert run(capsys, "props", str(path))[0] == 0


def test_cps_scopes(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES f(f(x)) -> f(x))")
    code, out, _ = run(capsys, "cps", path)
    assert code == 0
    assert "critical pairs: 1" in out
    code, out, _ = run(capsys, "cps", path, "--scope", "outer")
    assert code == 0
    assert "critical pairs: 0" in out
    code, out, _ = run(capsys, "cps", path, "--scope", "inner")
    assert "critical pairs: 1" in out


def test_cps_root_overlaps(tmp_path, capsys):
    path = write(tmp_path, "(RULES a -> b a -> c)")
    code, out, _ = run(capsys, "cps", path, "--scope", "outer")
    assert code == 0
    assert "critical pairs: 2" in out


def test_cps_json_matches_text_count(tmp_path, capsys):
    path = write(tmp_path, "(RULES a -> b a -> c)")
    _, out, _ = run(capsys, "cps", "--json", path)
    doc = json.loads(out)
    assert doc["count"] == 2
    assert len(doc["criticalPairs"]) == 2


def test_rewrite_strategies(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES f(x) -> x)")
    code, out, _ = run(capsys, "rewrite", path, "f(f(a))")
    assert code == 0
    assert "reducts: 2" in out
    code, out, _ = run(capsys, "rewrite", path, "f(f(a))", "--strategy", "outer")
    assert "reducts: 1" in out and "@ []" in out
    code, out, _ = run(capsys, "rewrite", path, "f(f(a))", "--strategy", "inner")
    assert "reducts: 1" in out and "@ [0]" in out
    code, out, _ = run(capsys, "rewrite", path, "f(f(a))", "--strategy", "root")
    assert "reducts: 1" in out


def test_rewrite_json(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES f(x) -> x)")
    _, out, _ = run(capsys, "rewrite", "--json", path, "f(a)")
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["reducts"][0]["pos"] == []
    assert doc["reducts"][0]["ruleIndex"] == 0


def test_normalize(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES f(x) -> x)")
    code, out, _ = run(capsys, "normalize", path, "f(f(a))")
    assert code == 0
    assert out.splitlines() == ["a", "steps: 2", "NORMAL FORM"]


def test_normalize_step_limit(tmp_path, capsys):
    path = write(tmp_path, "(RULES a -> f(a))")
    code, out, _ = run(capsys, "normalize", path, "a", "--max-steps", "5")
    assert code == 2
    assert out.splitlines() == ["f(f(f(f(f(a)))))", "steps: 5", "STEP LIMIT"]


def test_normalize_json_status(tmp_path, capsys):
    path = write(tmp_path, "(RULES a -> f(a))")
    _, out, _ = run(capsys, "normalize", "--json", path, "a", "--max-steps", "3")
    doc = json.loads(out)
    assert doc["status"] == "STEP LIMIT"
    assert doc["steps"] == 3


def test_check_lc_yes(tmp_path, capsys):
    path = write(tmp_path, "(RULES a -> b a -> c b -> d c -> d)")
    code, out, _ = run(capsys, "check-lc", path)
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_check_lc_no(tmp_path, capsys):
    path = write(tmp_path, "(RULES f(a) -> b a -> c)")
    code, out, _ = run(capsys, "check-lc", path)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "NO"
    assert "normal form of left: f(c)" in lines
    assert "normal form of right: b" in lines


def test_check_lc_maybe(tmp_path, capsys):
    path = write(tmp_path, "(RULES a -> f(a) a -> b)")
    code, out, _ = run(capsys, "check-lc", path, "--max-steps", "50")
    assert code == 2
    assert out.splitlines()[0] == "MAYBE"


def test_check_lc_refuses_weak_rules(tmp_path, capsys):
    path = write(tmp_path, "(VAR x)(RULES f(x) -> x g(x) ->= x)")
    code, out, err = run(capsys, "check-lc", path)
    assert code == 2
    assert "weak rules" in err
    assert out == ""


def test_check_lc_json_statuses(tmp_path, capsys):
    cases = [
        ("(RULES a -> b a -> c b -> d c -> d)", "YES"),
        ("(RULES f(a) -> b a -> c)", "NO"),
        ("(RULES a -> f(a) a -> b)", "MAYBE"),
    ]
    for text, status in cases:
        path = write(tmp_path, text)
        _, out, _ = run(capsys, "check-lc", "--json", path)
        assert json.loads(out)["status"] == status


def test_check_lc_json_witness(tmp_path, capsys):
    path = write(tmp_path, "(RULES f(a) -> b a -> c)")
    _, out, _ = run(capsys, "check-lc", "--json", path)
    doc = json.loads(out)
    assert doc["nfLeft"] == {"fun": "f", "args": [{"fun": "c", "args": []}]}
    assert doc["nfRight"] == {"fun": "b", "args": []}
    assert doc["witness"]["leftPos"] == [0]


def test_json_error_document(tmp_path, capsys):
    path = write(tmp_path, "(VAR x")
    code, out, err = run(capsys, "check-lc", "--json", path)
    assert code == 2
    assert json.loads(out)["status"] == "error"
    assert "unbalanced parentheses" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "parse", "does-not-exist.trs")
    assert code == 2
    assert "does-not-exist" in err


def test_no_arity_check_flag(tmp_path, capsys):
    path = write(tmp_path, "(RULES f(a) -> f(a,a))")
    assert run(capsys, "parse", path)[0] == 2
    assert run(capsys, "parse", "--no-arity-check", path)[0] == 0


def test_subject_is_checked_against_the_problem_arities(capsys):
    peano = str(CORPUS / "peano_plus.trs")
    cases = [
        (["normalize", peano, "plus(s(0))"], "1:1: inconsistent arity for 'plus': 1 here, 2 before"),
        (["rewrite", peano, "plus(0,s(0),0)"], "1:1: inconsistent arity for 'plus': 3 here, 2 before"),
        (["rewrite", peano, "s(0,plus(0,0))"], "1:1: inconsistent arity for 's': 2 here, 1 before"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"trskit: error: {message}"
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out) == {"status": "error", "message": message}
    # A symbol the problem does not use may take any one arity.
    code, out, _ = run(capsys, "normalize", peano, "f(plus(0,0),g)")
    assert (code, out.splitlines()) == (0, ["f(0,g)", "steps: 1", "NORMAL FORM"])
    code, out, _ = run(capsys, "normalize", "--no-arity-check", peano, "plus(s(0))")
    assert (code, out.splitlines()) == (0, ["plus(s(0))", "steps: 0", "NORMAL FORM"])
    code, out, _ = run(capsys, "rewrite", "--no-arity-check", peano, "plus(0,s(0),0)")
    assert (code, out) == (0, "reducts: 0\n")


def test_negative_step_budget_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "(RULES a -> f(a) a -> b)")
    for argv in (["normalize", path, "a", "--max-steps", "-5"], ["check-lc", path, "--max-steps", "-1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"trskit: error: --max-steps must be at least 0, not {argv[-1]}\n"
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "error"
    _, out, _ = run(capsys, "normalize", path, "a", "--max-steps", "0")
    assert out.splitlines() == ["a", "steps: 0", "STEP LIMIT"]
    _, out, _ = run(capsys, "check-lc", path, "--max-steps", "0")
    assert out.splitlines()[0] == "MAYBE"


def test_invalid_rule_is_an_error_for_cps(tmp_path, capsys):
    path = write(tmp_path, "(VAR x y)(RULES f(x) -> y)")
    code, _, err = run(capsys, "cps", path)
    assert code == 2
    assert "not a valid rewrite rule" in err


def test_theory_warning(tmp_path, capsys):
    path = write(tmp_path, "(THEORY (AC f))(VAR x)(RULES f(x,a) -> x)")
    code, _, err = run(capsys, "parse", path)
    assert code == 0
    assert "THEORY" in err


DEEP_PLUS = "plus(0," + "s(" * 3000 + "0" + ")" * 3000 + ")"
DEEP_NUMERAL = "s(" * 3000 + "0" + ")" * 3000


def test_normalize_deep_term_at_default_recursion_limit(capsys, default_recursion_limit):
    peano = str(CORPUS / "peano_plus.trs")
    code, out, _ = run(capsys, "normalize", peano, DEEP_PLUS)
    assert code == 0
    assert out == f"{DEEP_NUMERAL}\nsteps: 1\nNORMAL FORM\n"


def test_normalize_json_deep_term_at_default_recursion_limit(capsys, default_recursion_limit):
    peano = str(CORPUS / "peano_plus.trs")
    code, out, _ = run(capsys, "normalize", "--json", peano, DEEP_PLUS)
    assert code == 0
    # json.loads would need deep recursion, so check the shape and the
    # length of json.dumps(indent=2) for this document.
    assert out.startswith('{\n  "term": {\n    "fun": "s",\n    "args": [\n      {\n')
    assert out.endswith('  },\n  "steps": 1,\n  "status": "NORMAL FORM"\n}\n')
    assert out.count('"fun": "s"') == 3000
    assert len(out) == 90150092


def test_rewrite_inner_deep_term_at_default_recursion_limit(capsys, default_recursion_limit):
    peano = str(CORPUS / "peano_plus.trs")
    code, out, _ = run(capsys, "rewrite", peano, DEEP_PLUS, "--strategy", "inner")
    assert code == 0
    assert out == (
        f"{DEEP_NUMERAL} @ [] by (plus(0,y) -> y) with {{y -> {DEEP_NUMERAL}}}\nreducts: 1\n"
    )


json_text = st.text() | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aé€\u2028😀'))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_json_writer_matches_json_dumps(obj):
    buf = io.StringIO()
    cli._write_json(obj, buf.write)
    assert buf.getvalue() == json.dumps(obj, indent=2)


def written(obj):
    """The text `cli._write_json` writes for ``obj``, and its number of
    ``write`` calls."""
    pieces: list = []
    cli._write_json(obj, pieces.append)
    return "".join(pieces), len(pieces)


# Names of every kind the reader can give, and some it cannot: latin-1,
# other non-ASCII, quotes, backslashes and control characters.
names = st.text(st.sampled_from('ab0_-\\"\x00\x1f\x7f\x85\xa0\xa7\xe9\xff€\u2028😀'), min_size=1, max_size=4)


@st.composite
def renamed_rules(draw):
    """Valid rules over ``f/2, g/1, a, b`` and ``x, y, z``, with every symbol
    and variable renamed (one to one) to a drawn name."""
    rng = draw(st.randoms(use_true_random=False))
    rules = [termgen.random_valid_rule(rng, 3) for _ in range(rng.randint(1, 4))]
    drawn = draw(st.lists(names, min_size=7, max_size=7, unique=True))
    funs, variables = dict(zip("fgab", drawn)), dict(zip("xyz", drawn[4:]))
    return [
        Rule(*(term.map_symbols(t, variables.__getitem__, funs.__getitem__) for t in (r.lhs, r.rhs)))
        for r in rules
    ]


def documents(rules, subject, term_json):
    """The document of each command, as `cli` lays it out, with each term
    given by ``term_json``."""
    pairs = criticalpairs.critical_pairs(rules)
    reducts = rewriting.step(rules, subject, Strategy.FULL)
    p = Problem(
        variables=tuple(dict.fromkeys(v for r in rules for v in term.vars(r.lhs))),
        strict_rules=rules[1:],
        weak_rules=rules[:1],
        strategy=Strategy.INNERMOST,
        comment='a "comment"\\',
        preserved_sections=(("THEORY", " (AC \xe9)"),),
        has_theory=True,
    )
    docs = [
        problem.to_json(p, term=term_json),
        {"criticalPairs": [criticalpairs.to_json(cp, term=term_json) for cp in pairs], "count": len(pairs)},
        {"reducts": [rewriting.to_json(r, term=term_json) for r in reducts], "count": len(reducts)},
        {"term": term_json(subject), "steps": 3, "status": "NORMAL FORM"},
    ]
    if pairs:
        w = pairs[0]
        docs.append({"status": "NO", "witness": criticalpairs.to_json(w, term=term_json),
                     "nfLeft": term_json(w.left), "nfRight": term_json(w.right)})
    return docs


@settings(max_examples=300, deadline=None)
@given(renamed_rules(), st.data())
def test_terms_are_written_as_their_json_documents(rules, data):
    subject = data.draw(st.sampled_from([r.lhs for r in rules] + [r.rhs for r in rules]))
    for doc, public in zip(documents(rules, subject, cli._as_is),
                           documents(rules, subject, term.to_json), strict=True):
        assert written(doc)[0] == json.dumps(public, indent=2)


def test_shared_subterms_are_written_unfolded():
    # the normal form of f(x) -> f(p(x,x)) at 12 steps shares each p node
    # between both argument positions of its parent
    rules = [Rule(Fun("f", (Var("x"),)), Fun("f", (Fun("p", (Var("x"), Var("x"))),)))]
    result = analysis.nf(rules, Fun("f", (Fun("a"),)), 12)
    assert result.steps == 12 and not result.reached_normal_form
    assert term.size(result.term) == 2 ** 13
    text, _ = written({"term": result.term, "steps": result.steps, "status": "STEP LIMIT"})
    assert text == json.dumps({"term": term.to_json(result.term), "steps": 12, "status": "STEP LIMIT"}, indent=2)
    # one leaf node written at many depths
    x = Var("x\xe9")
    t = Fun("h", (x, Fun("h", (x, Fun("h", (x, x)))), x))
    assert written([t, t, {"k": t}])[0] == json.dumps([term.to_json(t)] * 2 + [{"k": term.to_json(t)}], indent=2)


class Digest:
    """A ``write`` that keeps a hash, the length, the number of calls and the
    longest piece."""

    def __init__(self):
        self.hash, self.length, self.calls, self.longest = hashlib.sha256(), 0, 0, 0

    def write(self, text):
        self.hash.update(text.encode())
        self.length += len(text)
        self.calls += 1
        self.longest = max(self.longest, len(text))


def test_deep_term_is_written_as_its_json_document(default_recursion_limit):
    # json.dumps cannot take this term's document at the default recursion
    # limit, so compare with the writer's own generic path
    deep = problem.parse_term(DEEP_NUMERAL, set())
    as_term, as_dicts = Digest(), Digest()
    cli._write_json({"term": deep, "steps": 1, "status": "NORMAL FORM"}, as_term.write)
    cli._write_json({"term": term.to_json(deep), "steps": 1, "status": "NORMAL FORM"}, as_dicts.write)
    assert as_term.hash.digest() == as_dicts.hash.digest()
    # the document of `normalize --json` on DEEP_PLUS, without its last newline
    assert as_term.length == as_dicts.length == 90150092 - 1
    # the document arrives in pieces of less than a megabyte
    assert as_term.calls > 100 and as_dicts.calls > 100
    assert as_term.longest < 1 << 20 and as_dicts.longest < 1 << 20


def test_big_documents_arrive_in_several_writes():
    rules = [Rule(Fun(f"f{k}", (Var("x"), Fun("a"))), Fun("g", (Var("x"),))) for k in range(2000)]
    doc = problem.to_json(Problem(variables=("x",), strict_rules=tuple(rules)), term=cli._as_is)
    text, calls = written(doc)
    assert calls > 1
    assert text == json.dumps(problem.to_json(Problem(variables=("x",), strict_rules=tuple(rules))), indent=2)


CORPUS_TEXTS = {path.name: path.read_text("latin-1") for path in sorted(CORPUS.glob("*.trs"))}
PIECES = ["(", ")", ",", " ", "\n", "->", "->=", "x", "y", "0", "s", "plus", "f", "(VAR x)", "(RULES a -> b)"]
TERM_PIECES = ["plus", "ack", "s", "0", "f", "a", "x", "y", "(", ")", ",", " "]


@st.composite
def problem_texts(draw):
    """A corpus file as it is, cut short, or with a few pieces cut out or put in."""
    text = CORPUS_TEXTS[draw(st.sampled_from(sorted(CORPUS_TEXTS)))]
    how = draw(st.sampled_from(["as is", "truncated", "mutated"]))
    if how == "truncated":
        text = text[: draw(st.integers(0, len(text)))]
    elif how == "mutated":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 4)))
            text = text[:i] + draw(st.sampled_from(["", *PIECES])) + text[j:]
    return how, text


@st.composite
def invocations(draw):
    cmd = draw(st.sampled_from(["parse", "props", "cps", "rewrite", "normalize", "check-lc"]))
    argv = [cmd, "FILE"]
    if cmd == "cps" and draw(st.booleans()):
        argv += ["--scope", draw(st.sampled_from(["all", "inner", "outer"]))]
    if cmd in ("rewrite", "normalize"):
        argv.append("".join(draw(st.lists(st.sampled_from(TERM_PIECES), max_size=12))))
    if cmd == "rewrite" and draw(st.booleans()):
        argv += ["--strategy", draw(st.sampled_from(["full", "root", "outer", "inner"]))]
    budget = None
    if cmd in ("normalize", "check-lc") and draw(st.booleans()):
        budget = draw(st.integers(-50, 200))
        argv += ["--max-steps", str(budget)]
    for flag in ("--json", "--no-arity-check"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv, budget


def loads_deep(text):
    """`json.loads` past the recursion limit: `normalize FILE a --json` under
    ``a -> f(a)`` writes a term 1000 steps deep, which nests 2000 levels."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, 10_000))
    try:
        return json.loads(text)
    finally:
        sys.setrecursionlimit(saved)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problem_texts(), invocations())
@example(("as is", CORPUS_TEXTS["diverging_choice.trs"]), (["normalize", "FILE", "a", "--json"], None))
def test_cli_contract(tmp_path, capsys, problem_text, invocation):
    how, text = problem_text
    argv, budget = invocation
    path = tmp_path / "problem.trs"
    path.write_text(text, encoding="latin-1")
    argv[1] = str(path)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    errors = [line for line in err.splitlines() if line.startswith("trskit: error: ")]
    assert len(errors) <= 1
    if "--json" in argv:
        doc = loads_deep(out)
        assert (doc.get("status") == "error") == bool(errors)
    else:
        # A failed run prints no result at all; every result has a line.
        assert (out == "") == bool(errors)
    if errors:
        assert code == 2
    if budget is not None and budget < 0:
        assert errors
    if how == "as is" and argv[0] in ("parse", "props"):
        assert not errors
