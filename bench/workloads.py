"""The benchmark's workloads: the operations of one round, and their checks.

A workload's ``build(tk, seed, root, workdir)`` makes its inputs from the
seed, parses them with ``trskit.problem.parse``, and returns the list of
`Op` that make up one round.  Every run repeats whole rounds, so each run
attempts the same operations in the same proportions whatever the seed.
The seed changes the inputs (rule shapes, lemma values, terms, operation
order) but never the sizes that set an operation's cost, so that runs with
different seeds measure the same amount of work.

Each `Op` has a timed ``call`` into trskit and an untimed ``verify`` that
checks the result against `oracle` or against properties the result must
have.  ``digest`` summarizes a verified result cheaply, so later rounds are
checked against the verified first one without redoing the oracle's work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import gen
import oracle as o
from oracle import render


class Mismatch(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    verify: Callable[[Any], None]
    digest: Callable[[Any], Any]
    # Today this operation raises this exception; when it stops raising,
    # its result is verified like any other.
    known_failure: Optional[type] = None


def num(n: int) -> str:
    return "s(" * n + "0" + ")" * n


def rules_of(problem) -> list:
    return [(o.from_trskit(r.lhs), o.from_trskit(r.rhs)) for r in problem.strict_rules]


# ---------------------------------------------------------------------------
# join: normalization-heavy.  Lemma systems, sharing, and deep terms.

TIMES_RULES = """(VAR x y)
(RULES
plus(0,y) -> y
plus(s(x),y) -> s(plus(x,y))
times(0,y) -> 0
times(s(x),y) -> plus(times(x,y),y)
)
"""

# (family, m, n): the ground call each lemma system is built around.  Fixed,
# because they set each operation's cost; the seed picks everything else.
LEMMA_CALLS = [("ack", 2, n) for n in range(5, 13)] + [
    ("ack", 2, 13), ("ack", 3, 1), ("plus", 10, 30), ("plus", 20, 20),
    ("times", 5, 10), ("times", 8, 8), ("times", 9, 7), ("times", 7, 9),
]
SHARING_CHECKS = (8, 10, 12, 13)
SHARING_NFS = (10, 12)
DEEP_PLUS = 1200
DEEP_CHAIN = 300


def with_lemma(text: str, lemma: str) -> str:
    """Append a rule to the RULES section of a WST text."""
    start = text.index("(RULES")
    end = text.index("\n)", start)
    return text[:end] + "\n" + lemma + text[end:]


def build_join(tk, seed: int, root: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    corpus = {name: read(root, f"corpus/{name}.trs") for name in ("ackermann", "peano_plus")}
    base = {"ack": corpus["ackermann"], "plus": corpus["peano_plus"], "times": TIMES_RULES}
    evaluate = {"ack": o.ack, "plus": o.plus, "times": o.times}
    ops: list[Op] = []

    for family, m, n in LEMMA_CALLS:
        value, steps = evaluate[family](m, n)
        call_text = f"{family}({num(m)},{num(n)})"
        wrong = value + rng.choice((-1, 1)) * rng.randint(1, min(5, value))
        # The joining side starts one step into the derivation.
        need = steps - 1
        short = need // 2 + rng.randint(-3, 3)
        for kind, v, budget in (
            ("true", value, need + rng.randint(0, 20)),
            ("false", wrong, need + rng.randint(0, 20)),
            ("short", value, short),
        ):
            p = tk.problem.parse(with_lemma(base[family], f"{call_text} -> {num(v)}"))
            ops.append(lemma_check_op(tk, f"lc {family}({m},{n}) {kind}", p, value, v, need, budget))
        p = tk.problem.parse(base[family])
        subject = tk.problem.parse_term(call_text, p.variables)
        ops.append(nf_numeral_op(tk, f"nf {family}({m},{n})", p, subject, value, steps, steps + 50))

    f, q, a, b = (f"{s}{rng.randint(0, 99)}" for s in ("f", "p", "a", "b"))
    sharing = tk.problem.parse(f"(VAR x)\n(RULES\n{f}(x) -> {f}({q}(x,x))\n{f}({a}) -> {b}\n)\n")
    for budget in SHARING_CHECKS:
        ops.append(sharing_check_op(tk, f"lc sharing {budget}", sharing, budget))
    for budget in SHARING_NFS:
        start = tk.problem.parse_term(f"{f}({a})", sharing.variables)
        ops.append(sharing_nf_op(tk, f"nf sharing {budget}", sharing, start, (f, q, a), budget))

    rng.shuffle(ops)
    ops.extend(deep_ops(tk, corpus["peano_plus"]))
    return ops


def lemma_check_op(tk, name, p, value, lemma_value, need, budget) -> Op:
    """check_local_confluence on an arithmetic system plus one ground lemma.
    The lemma overlaps one rule at the root, both ways: two pairs, one side a
    numeral, the other ``need`` steps from the true value."""
    rules = p.strict_rules
    verdict = (
        ("MAYBE", 2) if budget < need else ("YES",) if lemma_value == value else ("NO",)
    )

    def verify(res):
        got = verdict_kind(tk, res)
        expect(got[0] == verdict[0], f"{name}: verdict {got}, expected {verdict}")
        if verdict[0] == "MAYBE":
            expect(res.unresolved == 2, f"{name}: {res.unresolved} unresolved, expected 2")
        elif verdict[0] == "NO":
            verify_witness(rules_of(p), res, name)
            values = sorted([o.numeral_value(o.from_trskit(res.nf_left)), o.numeral_value(o.from_trskit(res.nf_right))])
            expect(values == sorted([value, lemma_value]), f"{name}: normal forms {values}")

    return Op(
        name,
        lambda: tk.analysis.check_local_confluence(rules, budget),
        verify,
        lambda res: verdict_digest(tk, res),
    )


def nf_numeral_op(tk, name, p, subject, value, steps, budget) -> Op:
    def verify(res):
        got = (o.numeral_value(o.from_trskit(res.term)), res.steps, res.reached_normal_form)
        expect(got == (value, steps, True), f"{name}: got {got}, expected {(value, steps, True)}")

    return Op(name, lambda: tk.analysis.nf(p.strict_rules, subject, budget), verify, nf_digest)


def sharing_check_op(tk, name, p, budget) -> Op:
    """``f(x) -> f(p(x,x))`` never stops, so both pairs on ``f(a)`` stay open."""

    def verify(res):
        expect(verdict_kind(tk, res) == ("MAYBE",) and res.unresolved == 2, f"{name}: got {res}")

    return Op(
        name,
        lambda: tk.analysis.check_local_confluence(p.strict_rules, budget),
        verify,
        lambda res: verdict_digest(tk, res),
    )


def sharing_nf_op(tk, name, p, start, symbols, budget) -> Op:
    """After ``k`` steps ``f(a)`` is ``f(t_k)`` with ``t_0 = a`` and
    ``t_{k+1} = p(t_k,t_k)``: a tree of 2^(k+1) nodes, a DAG of k+2."""
    f, q, a = symbols

    def verify(res):
        t = o.fun(a)
        for _ in range(budget):
            t = o.fun(q, t, t)
        got = o.from_trskit(res.term)
        expect(res.steps == budget and not res.reached_normal_form, f"{name}: {res.steps} steps")
        expect(o.equal(got, o.fun(f, t)), f"{name}: wrong term")
        expect(o.tree_size(got) == 2 ** (budget + 1), f"{name}: tree size {o.tree_size(got)}")

    return Op(name, lambda: tk.analysis.nf(p.strict_rules, start, budget), verify, nf_digest)


def deep_ops(tk, peano_text: str) -> list[Op]:
    """Two inputs nested deeper than trskit's recursive traversals reach at
    the default recursion limit.  Neither depends on the seed."""
    peano = tk.problem.parse(peano_text)
    subject = tk.problem.parse_term(f"plus(0,{num(DEEP_PLUS)})", peano.variables)
    chain = tk.problem.parse(
        f"(VAR x)\n(RULES\na -> d({num(DEEP_CHAIN)})\na -> e({num(DEEP_CHAIN)})\ne(x) -> d(x)\n)\n"
    )

    def verify_nf(res):
        got = (o.numeral_value(o.from_trskit(res.term)), res.steps, res.reached_normal_form)
        expect(got == (DEEP_PLUS, 1, True), f"nf deep plus: got {got}")

    def verify_lc(res):
        expect(verdict_kind(tk, res) == ("YES",), f"lc deep chain: got {verdict_kind(tk, res)}")

    return [
        Op("nf deep plus", lambda: tk.analysis.nf(peano.strict_rules, subject, 10), verify_nf, nf_digest, RecursionError),
        Op(
            "lc deep chain",
            lambda: tk.analysis.check_local_confluence(chain.strict_rules, 10),
            verify_lc,
            lambda res: verdict_digest(tk, res),
            RecursionError,
        ),
    ]


def verdict_kind(tk, res) -> tuple:
    if isinstance(res, tk.analysis.LocallyConfluent):
        return ("YES",)
    if isinstance(res, tk.analysis.NotConfluent):
        return ("NO",)
    return ("MAYBE",)


def verify_witness(rules, res, name) -> None:
    """A NO witness: both sides are one-step reducts of the peak, and the two
    normal forms are irreducible and distinct."""
    cp = res.witness
    peak, left, right = (o.from_trskit(t) for t in (cp.top, cp.left, cp.right))
    expect(o.is_reduct(rules, peak, left), f"{name}: left side is not a reduct of the peak")
    expect(o.is_reduct(rules, peak, right), f"{name}: right side is not a reduct of the peak")
    nf_left, nf_right = o.from_trskit(res.nf_left), o.from_trskit(res.nf_right)
    expect(o.is_normal_form(rules, nf_left), f"{name}: left normal form is reducible")
    expect(o.is_normal_form(rules, nf_right), f"{name}: right normal form is reducible")
    expect(not o.equal(nf_left, nf_right), f"{name}: the normal forms are equal")


def term_digest(t) -> tuple:
    c = o.from_trskit(t)
    return o.tree_size(c), o.dag_nodes(c), o.depth(c)


def nf_digest(res) -> tuple:
    return res.steps, res.reached_normal_form, term_digest(res.term)


def verdict_digest(tk, res) -> tuple:
    kind = verdict_kind(tk, res)
    if kind == ("MAYBE",):
        return kind + (res.unresolved,)
    if kind == ("NO",):
        cp = res.witness
        return kind + (cp.left_rule_index, cp.right_rule_index, cp.left_pos,
                       term_digest(res.nf_left), term_digest(res.nf_right))
    return kind


# ---------------------------------------------------------------------------
# overlap: critical-pair generation on generated terminating systems.

# (rules, symbols, scopes): one system per entry; the sizes are fixed.  The
# small systems also get a local-confluence check; the scopes rotate.
OVERLAP_SYSTEMS = [
    (n, 8 + n // 5, (("all", "inner"), ("inner", "outer"), ("outer", "all"))[k % 3])
    for k, n in enumerate(range(30, 62, 2))
]
OVERLAP_SYSTEMS += [(100, 28, ("outer",)), (200, 48, ("outer",))]
OVERLAP_BUDGET = 50


def build_overlap(tk, seed: int, root: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for n_rules, n_symbols, scopes in OVERLAP_SYSTEMS:
        rules = gen.decreasing_system(rng, n_rules, n_symbols)
        p = tk.problem.parse(gen.wst(rules))
        label = f"{n_rules} rules #{len(ops)}"
        for scope in scopes:
            ops.append(critical_pairs_op(tk, f"cps {scope} {label}", p, rules, scope))
        if n_rules <= 60:
            ops.append(overlap_check_op(tk, f"lc {label}", p, rules))
    rng.shuffle(ops)
    return ops


def critical_pairs_op(tk, name, p, rules, scope) -> Op:
    flag = tk.criticalpairs.Scope(scope)

    def verify(res):
        want = o.overlaps(rules, scope)
        expect(len(res) == len(want), f"{name}: {len(res)} pairs, expected {len(want)}")
        for cp, (j, pos, i, peak, left, right) in zip(res, want):
            expect((cp.right_rule_index, cp.left_pos, cp.left_rule_index) == (j, pos, i), f"{name}: pair order")
            got = o.canonical([o.from_trskit(t) for t in (cp.top, cp.left, cp.right)])
            expect(all(map(o.equal, got, o.canonical([peak, left, right]))), f"{name}: pair ({j},{pos},{i})")

    return Op(
        name,
        lambda: tk.criticalpairs.critical_pairs(p.strict_rules, flag),
        verify,
        lambda res: [(cp.right_rule_index, cp.left_pos, cp.left_rule_index) for cp in res],
    )


def overlap_check_op(tk, name, p, rules) -> Op:
    def verify(res):
        want = o.local_confluence(rules, OVERLAP_BUDGET)
        got = verdict_kind(tk, res)
        expect(got[0] == want[0], f"{name}: verdict {got[0]}, expected {want[0]}")
        if want[0] == "MAYBE":
            expect(res.unresolved == want[1], f"{name}: unresolved {res.unresolved}, expected {want[1]}")
        if want[0] == "NO":
            verify_witness(rules, res, name)
            j, pos, i = want[1][:3]
            cp = res.witness
            expect((cp.right_rule_index, cp.left_pos, cp.left_rule_index) == (j, pos, i), f"{name}: witness pair")

    return Op(
        name,
        lambda: tk.analysis.check_local_confluence(p.strict_rules, OVERLAP_BUDGET),
        verify,
        lambda res: verdict_digest(tk, res),
    )


# ---------------------------------------------------------------------------
# cli: trskit.cli.main in-process on corpus files and generated WST files.

CORPUS = (
    "ackermann", "collapse_or_wrap", "commuting_joins", "diverging_choice", "double_f",
    "dup_erase", "peak_clash", "peano_plus", "relative_pair",
)
COMMANDS = ("parse", "props", "cps", "rewrite", "normalize", "check-lc")
SCOPES = ("all", "inner", "outer")
STRATEGIES = ("full", "root", "outer", "inner")
CLI_BIG_SIZES = (100, 150, 200, 300, 400, 500, 700, 1000, 1400, 2000)
CLI_CPS_RULES = 30
CLI_STEPS = 100
CLI_DEEP = 3000


@dataclass
class Input:
    """One problem file, with what the checks need to know about it."""

    path: str
    variables: list
    strict: list
    weak: list
    strategy: Optional[str] = None
    comment: Optional[str] = None
    preserved: tuple = ()


def build_cli(tk, seed: int, root: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    k = 0
    for idx, name in enumerate(CORPUS):
        path = os.path.join(root, "corpus", f"{name}.trs")
        inp = input_from_problem(path, tk.problem.parse(read(root, f"corpus/{name}.trs")))
        subject = seeded_term(rng, inp.strict or inp.weak)
        for c in range(3):
            cmd = COMMANDS[(3 * idx + c) % len(COMMANDS)]
            ops.append(cli_op(tk, inp, cmd, fmt_json=k % 2 == 1, scope=SCOPES[k % 3],
                              strategy=STRATEGIES[k % 4], subject=subject, steps=CLI_STEPS))
            k += 1

    for idx, size in enumerate(CLI_BIG_SIZES):
        inp = big_input(tk, rng, size, workdir, invalid_weak=size == 200)
        subject = seeded_term(rng, inp.strict)
        for c, cmd in enumerate(("parse", "parse", "props", "rewrite", "normalize", "check-lc")):
            ops.append(cli_op(tk, inp, cmd, fmt_json=(idx + c) % 2 == 1, strategy=STRATEGIES[idx % 4],
                              subject=subject, steps=300))

    small = gen.decreasing_system(rng, CLI_CPS_RULES, 14)
    inp = generated_input(tk, workdir, "cps", small, comment="generated, strict rules only")
    for fmt_json in (False, True):
        for scope in SCOPES:
            ops.append(cli_op(tk, inp, "cps", fmt_json, scope=scope))
        ops.append(cli_op(tk, inp, "check-lc", fmt_json, steps=CLI_STEPS))

    rng.shuffle(ops)
    peano = input_from_problem(
        os.path.join(root, "corpus", "peano_plus.trs"), tk.problem.parse(read(root, "corpus/peano_plus.trs"))
    )
    deep = o.fun("plus", o.fun("0"), o.numeral(CLI_DEEP))
    ops.append(cli_op(tk, peano, "normalize", False, subject=deep, steps=10))
    return ops


def read(root: str, rel: str) -> str:
    with open(os.path.join(root, rel), encoding="latin-1") as handle:
        return handle.read()


def input_from_problem(path: str, p) -> Input:
    return Input(
        path,
        [str(v) for v in p.variables],
        rules_of(p),
        [(o.from_trskit(r.lhs), o.from_trskit(r.rhs)) for r in p.weak_rules],
        p.strategy.name if p.strategy is not None else None,
        p.comment,
        tuple(p.preserved_sections),
    )


def generated_input(tk, workdir: str, stem: str, strict, weak=(), **sections) -> Input:
    """Write a generated problem file.  The checks use the generator's own
    rules and sections, not trskit's reading of the file."""
    text = gen.wst(strict, weak, **sections)
    path = os.path.join(workdir, f"{stem}.trs")
    with open(path, "w", encoding="latin-1") as handle:
        handle.write(text)
    p = tk.problem.parse(text)
    expect((len(p.strict_rules), len(p.weak_rules)) == (len(strict), len(weak)), f"{stem}: rule count")
    preserved = [("THEORY", " " + sections["theory"])] if sections.get("theory") else []
    preserved += [(key, " " + body) for key, body in sections.get("extra", ())]
    return Input(path, gen.var_names(list(strict) + list(weak)), list(strict), list(weak),
                 sections.get("strategy"), sections.get("comment"), tuple(preserved))


def big_input(tk, rng: random.Random, size: int, workdir: str, invalid_weak: bool) -> Input:
    """A file of ``size`` rules using every section kind: VAR, strict and weak
    RULES, STRATEGY, THEORY, an unknown section, and COMMENT."""
    sig = gen.signature(rng, max(8, size // 4))
    strict = [gen.decreasing_rule(rng, sig) for _ in range(size - size // 20)]
    weak = [gen.decreasing_rule(rng, sig) for _ in range(size // 20)]
    if invalid_weak:
        lhs, _ = weak[-1]
        weak[-1] = (lhs, "fresh")
    return generated_input(
        tk,
        workdir,
        f"big{size}",
        strict,
        weak,
        strategy=rng.choice(("FULL", "INNERMOST", "OUTERMOST")),
        theory=f"(EQUATIONS {render(strict[0][0])} == {render(strict[1][0])})",
        comment=f"generated, {size} rules, seed-drawn shapes",
        extra=[("SIGNATURE", " ".join(f"{s}/{a}" for s, a in sig))],
    )


def seeded_term(rng: random.Random, rules):
    """A left-hand side whose variables are filled with other left-hand
    sides, so the term has redexes at several depths."""
    lhs = rng.choice(rules)[0]
    fill = {v: rng.choice(rules)[0] for v in set(o.variables(lhs))}
    return o.apply(fill, lhs)


def cli_op(tk, inp: Input, cmd: str, fmt_json: bool, *, scope=None, strategy=None,
           subject=None, steps=None) -> Op:
    argv = [cmd, inp.path]
    if cmd == "cps":
        argv += ["--scope", scope]
    if cmd == "rewrite":
        argv += [render(subject), "--strategy", strategy]
    if cmd == "normalize":
        argv += [render(subject)]
    if cmd in ("normalize", "check-lc"):
        argv += ["--max-steps", str(steps)]
    if fmt_json:
        argv.append("--json")
    flags = [a for a in argv[2:] if a.startswith("--") or a.isalnum()]
    name = " ".join(["cli", cmd, os.path.basename(inp.path)] + flags)

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tk.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(res):
        code, out, err = res
        want_code, want_err, want = expected_cli(tk, inp, cmd, scope, strategy, subject, steps)
        expect(err.splitlines() == want_err, f"{name}: stderr {err!r}, expected {want_err}")
        expect(code == want_code, f"{name}: exit {code}, expected {want_code}")
        if want is None:  # an error: JSON carries only the status
            if fmt_json:
                expect(json.loads(out)["status"] == "error", f"{name}: JSON status")
            return
        got = read_json(inp, cmd, json.loads(out)) if fmt_json else read_text(tk, cmd, out)
        expect(got == want, f"{name}: output disagrees with the benchmark's computation")

    return Op(name, call, verify, lambda res: (res[0], len(res[1]), hash(res[1]), res[2]))


def expected_cli(tk, inp: Input, cmd, scope, strategy, subject, steps):
    """``(exit code, stderr lines, semantic output)``, worked out from the
    input alone; the output is ``None`` where the command must fail."""
    err = []
    if any(key == "THEORY" for key, _ in inp.preserved):
        err.append("trskit: warning: THEORY section present; its semantics are ignored")
    weak_note = f"trskit: warning: ignoring {len(inp.weak)} weak rule(s)"
    rules = inp.strict
    if cmd == "parse":
        return 0, err, parse_semantics(inp)
    if cmd == "props":
        props = rule_properties(inp.strict + inp.weak)
        props.update({"strict rules": len(inp.strict), "weak rules": len(inp.weak)})
        return (0 if props["valid"] else 1), err, props
    if inp.weak and cmd in ("cps", "rewrite", "normalize"):
        err.append(weak_note)
    if cmd == "cps":
        return 0, err, [pair_text(ov) for ov in o.overlaps(rules, scope)]
    if cmd == "rewrite":
        return 0, err, [reduct_text(rules, subject, p, i, r) for p, i, r in select(o.reducts(rules, subject), strategy)]
    if cmd == "normalize":
        t, n, done = o.normalize(rules, subject, steps)
        return (0 if done else 2), err, [render(t), f"steps: {n}", "NORMAL FORM" if done else "STEP LIMIT"]
    if inp.weak:
        err.append("trskit: error: weak rules present; the local-confluence check needs a strict TRS")
        return 2, err, None
    verdict = o.local_confluence(rules, steps)
    if verdict[0] == "YES":
        return 0, err, ["YES"]
    if verdict[0] == "MAYBE":
        return 2, err, ["MAYBE", f"unresolved critical pairs: {verdict[1]}"]
    ov, nf_left, nf_right = verdict[1:]
    # The normal forms use no variable the pair lacks, so renaming all five
    # terms together renames them as the pair's own renaming does.
    nf_left, nf_right = o.canonical([*ov[3:], nf_left, nf_right])[3:]
    return 1, err, ["NO"] + pair_text(ov) + [
        f"normal form of left: {render(nf_left)}",
        f"normal form of right: {render(nf_right)}",
    ]


def parse_semantics(inp: Input) -> dict:
    return {
        "variables": list(inp.variables),
        "strict": [f"{render(l)} -> {render(r)}" for l, r in inp.strict],
        "weak": [f"{render(l)} ->= {render(r)}" for l, r in inp.weak],
        "strategy": inp.strategy,
        "comment": inp.comment,
        "preserved": [list(kb) for kb in inp.preserved],
        "theory": any(key == "THEORY" for key, _ in inp.preserved),
    }


def rule_properties(rules) -> dict:
    def counts(t):
        c: dict = {}
        for v in o.variables(t):
            c[v] = c.get(v, 0) + 1
        return c

    rows = []
    for lhs, rhs in rules:
        cl, cr = counts(lhs), counts(rhs)
        rows.append(dict(
            valid=not o.is_var(lhs) and set(cr) <= set(cl),
            left_linear=all(n == 1 for n in cl.values()),
            right_linear=all(n == 1 for n in cr.values()),
            duplicating=any(n > cl.get(v, 0) for v, n in cr.items()),
            collapsing=o.is_var(rhs),
            erasing=any(v not in cr for v in cl),
            ground=not cl and not cr,
        ))
    every = lambda key: all(r[key] for r in rows)
    some = lambda key: any(r[key] for r in rows)
    return {
        "valid": every("valid"),
        "left-linear": every("left_linear"),
        "right-linear": every("right_linear"),
        "linear": every("left_linear") and every("right_linear"),
        "duplicating": some("duplicating"),
        "collapsing": some("collapsing"),
        "erasing": some("erasing"),
        "ground": every("ground"),
    }


def pair_text(ov) -> list[str]:
    j, p, i = ov[:3]
    peak, left, right = o.canonical(ov[3:])
    return [
        f"peak: {render(peak)}",
        f"left: {render(left)}  (rule {i} at [{','.join(map(str, p))}])",
        f"right: {render(right)}  (rule {j} at root)",
    ]


def select(reducts, strategy) -> list:
    """Filter reducts by position the way each ``--strategy`` is defined."""
    redexes = [p for p, _, _ in reducts]
    below = lambda p, q: len(q) > len(p) and q[: len(p)] == p
    if strategy == "root":
        return [r for r in reducts if r[0] == ()]
    if strategy == "outer":
        return [r for r in reducts if not any(below(q, r[0]) for q in redexes)]
    if strategy == "inner":
        return [r for r in reducts if not any(below(r[0], q) for q in redexes)]
    return reducts


def reduct_text(rules, subject, p, i, result) -> str:
    lhs, rhs = rules[i]
    sigma = o.match(lhs, o.subterm_at(subject, p))
    subst = ", ".join(f"{v} -> {render(t)}" for v, t in sorted(sigma.items()))
    return (f"{render(result)} @ [{','.join(map(str, p))}] by ({render(lhs)} -> {render(rhs)}) "
            f"with {{{subst}}}")


def read_text(tk, cmd: str, out: str):
    """The semantic content of a command's text output."""
    lines = out.splitlines()
    if cmd == "parse":  # the canonical text must re-parse to the same problem
        return parse_semantics(input_from_problem("", tk.problem.parse(out)))
    if cmd == "props":
        body = dict(line.split(": ", 1) for line in lines)
        return {k: int(v) if k.endswith(" rules") else v == "yes" for k, v in body.items()}
    if cmd == "cps":
        expect(lines[-1] == f"critical pairs: {len(lines) // 4}", "cps: count line")
        return [lines[k : k + 3] for k in range(0, len(lines) - 1, 4)]
    if cmd == "rewrite":
        expect(lines[-1] == f"reducts: {len(lines) - 1}", "rewrite: count line")
        return lines[:-1]
    return lines


def read_json(inp: Input, cmd: str, doc):
    """The semantic content of a command's ``--json`` output, in the same
    form `read_text` gives, so that text and JSON must agree."""
    if cmd == "parse":
        rules = lambda key, arrow: [
            f"{render(o.from_json(r['lhs']))} {arrow} {render(o.from_json(r['rhs']))}" for r in doc[key]
        ]
        return {
            "variables": doc["variables"],
            "strict": rules("strictRules", "->"),
            "weak": rules("weakRules", "->="),
            "strategy": doc["strategy"],
            "comment": doc["comment"],
            "preserved": [[s["key"], s["body"]] for s in doc["preservedSections"]],
            "theory": doc["hasTheory"],
        }
    if cmd == "props":
        keys = {"strictRules": "strict rules", "weakRules": "weak rules",
                "leftLinear": "left-linear", "rightLinear": "right-linear"}
        return {keys.get(k, k): v for k, v in doc.items()}
    if cmd == "cps":
        expect(doc["count"] == len(doc["criticalPairs"]), "cps --json: count")
        return [json_pair_text(cp) for cp in doc["criticalPairs"]]
    if cmd == "rewrite":
        expect(doc["count"] == len(doc["reducts"]), "rewrite --json: count")
        return [json_reduct_text(inp.strict, r) for r in doc["reducts"]]
    if cmd == "normalize":
        return [render(o.from_json(doc["term"])), f"steps: {doc['steps']}", doc["status"]]
    status = doc["status"]
    if status == "YES":
        return ["YES"]
    if status == "MAYBE":
        return ["MAYBE", f"unresolved critical pairs: {doc['unresolved']}"]
    return ["NO"] + json_pair_text(doc["witness"]) + [
        f"normal form of left: {render(o.from_json(doc['nfLeft']))}",
        f"normal form of right: {render(o.from_json(doc['nfRight']))}",
    ]


def json_pair_text(cp) -> list[str]:
    pos = ",".join(map(str, cp["leftPos"]))
    return [
        f"peak: {render(o.from_json(cp['top']))}",
        f"left: {render(o.from_json(cp['left']))}  (rule {cp['leftRuleIndex']} at [{pos}])",
        f"right: {render(o.from_json(cp['right']))}  (rule {cp['rightRuleIndex']} at root)",
    ]


def json_reduct_text(rules, r) -> str:
    lhs, rhs = rules[r["ruleIndex"]]
    subst = ", ".join(f"{v} -> {render(o.from_json(t))}" for v, t in r["subst"].items())
    return (f"{render(o.from_json(r['result']))} @ [{','.join(map(str, r['pos']))}] "
            f"by ({render(lhs)} -> {render(rhs)}) with {{{subst}}}")


WORKLOADS = {"join": build_join, "overlap": build_overlap, "cli": build_cli}
