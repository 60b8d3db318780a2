import io
import json
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from trskit import cli

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
