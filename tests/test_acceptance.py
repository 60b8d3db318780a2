"""Acceptance suite: one test per criterion, each checked against an
independent oracle (exhaustive enumeration, brute force, or replay).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import json
import random
import time
from pathlib import Path

from termgen import (
    brute_force_overlaps,
    enumerate_terms,
    random_term,
    random_valid_rule,
)
from trskit import (
    analysis,
    cli,
    context,
    criticalpairs,
    position,
    problem,
    rewriting,
    substitution,
    term,
)
from trskit.analysis import NotConfluent, Unknown
from trskit.rewriting import Strategy
from trskit.rule import Rule
from trskit.term import Fun, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

x = Var("x")
a, b, c, d = Fun("a"), Fun("b"), Fun("c"), Fun("d")


def f(*args):
    return Fun("f", args)


def _report(number: int, label: str, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({label}): PASS — {detail} [{elapsed:.1f}s]")


def test_criterion_1_term_and_position_laws():
    started = time.perf_counter()
    rng = random.Random(11)
    checked = 0
    for _ in range(10_000):
        t = random_term(rng, max_depth=4)
        ps = term.positions(t)
        p = rng.choice(ps)
        q = rng.choice(ps)
        s = random_term(rng, max_depth=2)

        assert term.replace_at(t, p, term.subterm_at(t, p)) == t
        assert term.subterm_at(term.replace_at(t, p, s), p) == s
        assert context.plug(context.of_term(t, p), s) == term.replace_at(t, p, s)
        assert context.plug(context.of_term(t, p), term.subterm_at(t, p)) == t
        assert context.hole_position(context.of_term(t, p)) == p

        equal = p == q
        above = not equal and p == q[: len(p)]
        below = not equal and q == p[: len(q)]
        parallel = not (equal or above or below)
        truth = {
            position.Relation.EQUAL: equal,
            position.Relation.ABOVE: above,
            position.Relation.BELOW: below,
            position.Relation.PARALLEL: parallel,
        }
        assert sum(truth.values()) == 1
        assert truth[position.compare(p, q)]
        checked += 1
    _report(1, "term/position laws", started, f"{checked} random terms, 0 violations")


def test_criterion_2_unification_oracle():
    started = time.perf_counter()
    signature = (("f", 2), ("g", 1), ("a", 0))
    variables = ("x", "y")
    patterns = enumerate_terms(2, signature, variables)
    assert len(patterns) == 243

    # candidate substitutions: both variables mapped to terms of depth <= 1,
    # giving every unified instance of depth <= 3 over these patterns
    images = enumerate_terms(1, signature, variables)
    taus = [dict(zip(variables, imgs)) for imgs in itertools.product(images, repeat=2)]

    interned: dict = {}

    def iid(t):
        n = interned.get(t)
        if n is None:
            n = len(interned)
            interned[t] = n
        return n

    table = [[iid(substitution.apply(tau, s)) for s in patterns] for tau in taus]
    by_id = list(interned)
    cols = list(zip(*table))

    unifiable = generality_checks = 0
    for si, s in enumerate(patterns):
        col_s = cols[si]
        for ti, t in enumerate(patterns):
            sigma = substitution.unify(s, t)
            # the instances that the enumerated substitutions unifying s and t give
            agreeing = {a for a, b in zip(col_s, cols[ti]) if a == b}
            if sigma is None:
                # completeness: no enumerated substitution unifies them either
                assert not agreeing, (term.render(s), term.render(t))
                continue
            unifiable += 1
            unified = substitution.apply(sigma, s)
            assert unified == substitution.apply(sigma, t)
            assert substitution.compose(sigma, sigma) == sigma
            for inst_id in agreeing:
                # most-generality: every enumerated unifier's instance is an
                # instance of the mgu's
                assert substitution.match(unified, by_id[inst_id]) is not None
                generality_checks += 1

    # matching against the apply-and-compare oracle, over the same pairs
    for s in patterns:
        for t in patterns:
            sigma = substitution.match(s, t)
            if sigma is not None:
                assert substitution.apply_generalized(sigma, s) == t
    for k, tau in enumerate(taus):
        row = table[k]
        for si, s in enumerate(patterns):
            found = substitution.match(s, by_id[row[si]])
            assert found is not None
            assert substitution.apply_generalized(found, s) == by_id[row[si]]

    _report(
        2,
        "unification oracle",
        started,
        f"{len(patterns) ** 2} pairs, {unifiable} unifiable, "
        f"{generality_checks} generality checks",
    )


def test_criterion_3_rewriting_oracle():
    started = time.perf_counter()
    rng = random.Random(33)
    reduct_count = 0
    for _ in range(10_000):
        rules = [
            random_valid_rule(rng, max_depth=rng.choice((1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        subject = random_term(rng, max_depth=3)

        expected = []
        for p in term.positions(subject):
            redex = term.subterm_at(subject, p)
            for i, r in enumerate(rules):
                sigma = substitution.match(r.lhs, redex)
                if sigma is not None:
                    contractum = substitution.apply_generalized(sigma, r.rhs)
                    expected.append((p, i, term.replace_at(subject, p, contractum)))

        full = rewriting.step(rules, subject)
        assert [(r.pos, r.rule_index, r.result) for r in full] == expected
        reduct_count += len(expected)

        redexes = {p for p, _, _ in expected}
        full_keys = [(p, i) for p, i, _ in expected]
        outer = [(r.pos, r.rule_index) for r in rewriting.step(rules, subject, Strategy.OUTERMOST)]
        inner = [(r.pos, r.rule_index) for r in rewriting.step(rules, subject, Strategy.INNERMOST)]
        assert outer == [
            k for k in full_keys if not any(k[0][:n] in redexes for n in range(len(k[0])))
        ]
        assert inner == [
            k
            for k in full_keys
            if not any(q != k[0] and q[: len(k[0])] == k[0] for q in redexes)
        ]
    _report(3, "rewriting oracle", started, f"10000 systems, {reduct_count} reducts compared")


def test_criterion_4_critical_pair_counts():
    started = time.perf_counter()

    nested = [Rule(f(f(x)), f(x))]
    cps = criticalpairs.critical_pairs(nested)
    assert len(cps) == 1
    assert cps[0].left_pos == (0,)
    assert cps[0].left == cps[0].right  # trivially joinable
    assert brute_force_overlaps(nested) == [(0, (0,), 0)]

    argument = [Rule(f(a), b), Rule(a, c)]
    cps = criticalpairs.critical_pairs(argument)
    assert len(cps) == 1
    assert (cps[0].top, cps[0].left, cps[0].right) == (f(a), f(c), b)
    assert brute_force_overlaps(argument) == [(0, (0,), 1)]

    mirrored = [Rule(a, b), Rule(a, c)]
    cps = criticalpairs.critical_pairs(mirrored)
    assert len(cps) == 2
    assert all(cp.left_pos == () for cp in cps)
    assert brute_force_overlaps(mirrored) == [(0, (), 1), (1, (), 0)]

    _report(4, "critical-pair counts", started, "3 systems, exact counts 1/1/2")


def test_criterion_5_check_lc_verdicts(tmp_path, capsys):
    started = time.perf_counter()

    def run(text, *argv):
        path = tmp_path / "system.trs"
        path.write_text(text)
        code = cli.main(["check-lc", str(path), *argv])
        return code, capsys.readouterr().out

    code, out = run("(RULES a -> b a -> c b -> d c -> d)")
    assert (code, out.splitlines()[0]) == (0, "YES")
    verdict = analysis.check_local_confluence(
        [Rule(a, b), Rule(a, c), Rule(b, d), Rule(c, d)], 10
    )
    assert verdict == analysis.LocallyConfluent()

    code, out = run("(RULES f(a) -> b a -> c)")
    lines = out.splitlines()
    assert (code, lines[0]) == (1, "NO")
    assert "normal form of left: f(c)" in lines
    assert "normal form of right: b" in lines
    verdict = analysis.check_local_confluence([Rule(f(a), b), Rule(a, c)], 10)
    assert isinstance(verdict, NotConfluent)
    assert (verdict.nf_left, verdict.nf_right) == (f(c), b)

    code, out = run("(RULES a -> f(a) a -> b)", "--max-steps", "50")
    assert (code, out.splitlines()[0]) == (2, "MAYBE")
    verdict = analysis.check_local_confluence([Rule(a, f(a)), Rule(a, b)], 50)
    assert isinstance(verdict, Unknown)

    _report(5, "check-lc verdicts", started, "YES/0, NO/1 with witness, MAYBE/2")


def test_criterion_6_parser_round_trip_and_fuzz():
    started = time.perf_counter()
    files = sorted(CORPUS.glob("*.trs"))
    assert len(files) >= 6

    parsed = []
    for path in files:
        p = problem.parse(path.read_text(encoding="latin-1"))
        assert problem.parse(problem.render(p)) == p
        parsed.append(p)

    # the corpus exercises every section kind
    assert any(p.variables for p in parsed)
    assert any(p.strict_rules for p in parsed)
    assert any(p.weak_rules for p in parsed)
    assert any(p.strategy is not None for p in parsed)
    assert any(p.comment is not None for p in parsed)
    assert any(p.preserved_sections for p in parsed)

    rng = random.Random(66)
    pieces = [
        "(", ")", ",", '"', "VAR", "RULES", "STRATEGY", "COMMENT", "THEORY",
        "FULL", "->", "->=", "f", "g", "x", "a", " ", "\n", "\t",
    ]
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(10_000):
        if rng.random() < 0.5:
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 24)))
        else:
            raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
            text = raw.decode("latin-1")
        try:
            problem.parse(text)
            outcomes["ok"] += 1
        except problem.ParseError:
            outcomes["rejected"] += 1
    assert sum(outcomes.values()) == 10_000

    _report(
        6,
        "parser round-trip and fuzz",
        started,
        f"{len(files)} corpus files round-trip; fuzz: {outcomes['ok']} parsed, "
        f"{outcomes['rejected']} rejected, 0 crashes",
    )


def test_criterion_7_verdict_monotonicity(capsys):
    started = time.perf_counter()
    verdict_codes = {"YES": 0, "NO": 1, "MAYBE": 2, "ERROR": 2}
    seen = []
    for path in sorted(CORPUS.glob("*.trs")):
        verdicts = {}
        for steps in (10, 1000):
            code = cli.main(["check-lc", str(path), "--max-steps", str(steps)])
            out = capsys.readouterr().out
            verdict = out.splitlines()[0] if out else "ERROR"
            assert code == verdict_codes[verdict], path.name
            verdicts[steps] = verdict
        assert not (verdicts[10] == "YES" and verdicts[1000] == "MAYBE"), path.name
        assert not (verdicts[10] == "NO" and verdicts[1000] == "YES"), path.name
        seen.append(f"{path.name}:{verdicts[10]}/{verdicts[1000]}")
    _report(7, "verdict monotonicity", started, "; ".join(seen))


def test_json_verdicts_match_text_on_corpus(tmp_path, capsys):
    # --json emits one JSON document whose status agrees with the text verdict
    for path in sorted(CORPUS.glob("*.trs")):
        code = cli.main(["check-lc", str(path)])
        text_out = capsys.readouterr().out
        json_code = cli.main(["check-lc", "--json", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert json_code == code
        if text_out:
            assert doc["status"] == text_out.splitlines()[0]
        else:
            assert doc["status"] == "error"
