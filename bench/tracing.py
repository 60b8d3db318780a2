"""Per-layer tracing from outside trskit.

`Tracer.install` replaces entry points of trskit's modules with timing
wrappers, as module attributes, and `Tracer.uninstall` puts the originals
back; nothing under ``src/`` is edited.  trskit calls its layers through
module attributes (``rewriting.step``, ``substitution.match``, ...), so the
wrappers see every call between layers.

Only entry points that do not call themselves are wrapped, so tracing adds
one frame per call, never one per term level, and cannot make an operation
fail that the untraced run completes.  Functions that run once per rewrite
step or coarser get a span each (name, start, end, parent span, operation
id).  The innermost ones (``match``, ``unify``, ``check_valid``,
``rename_apart``), called up to millions of times a round, are only counted
and timed, and their time is charged to the enclosing span.

Self time is a span's duration minus that of the wrapped calls inside it.
The CLI runs each command on a worker thread while the calling thread waits
in ``join``, so calls stay strictly nested and one shared stack serves both.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import oracle

SPANNED = [
    ("analysis", "nf"),
    ("analysis", "check_local_confluence"),
    ("rewriting", "step"),
    ("rewriting", "render"),
    ("rewriting", "to_json"),
    ("criticalpairs", "critical_pairs"),
    ("criticalpairs", "render"),
    ("criticalpairs", "to_json"),
    ("problem", "parse"),
    ("problem", "parse_term"),
    ("problem", "render"),
    ("problem", "to_json"),
    ("cli", "main"),
] + [("cli", f"cmd_{c}") for c in ("parse", "props", "cps", "rewrite", "normalize", "check_lc")]

COUNTED = [
    ("substitution", "match"),
    ("substitution", "unify"),
    ("rule", "check_valid"),
    ("rule", "rename_apart"),
]

# Several wrapped functions report under one name.
KEY = {
    "rewriting.to_json": "rewriting.render",
    "criticalpairs.to_json": "criticalpairs.render",
    **{f"cli.cmd_{c}": "cli.cmd" for c in ("parse", "props", "cps", "rewrite", "normalize", "check_lc")},
}

LC = "analysis.check_local_confluence"


class Tracer:
    def __init__(self, tk):
        self.tk = tk
        self.saved: list = []
        self.spans: list = []
        self.stats: dict = defaultdict(float)
        self.nf_terms: list = []
        self.op_id = -1
        # Frames are [name, span index, time spent in wrapped callees]; an
        # operation's frame also holds its start time.
        self.stack: list = [["", -1, 0.0]]

    def install(self) -> None:
        for mod, name in SPANNED:
            self._replace(mod, name, self._spanned)
        for mod, name in COUNTED:
            self._replace(mod, name, self._counted)

    def uninstall(self) -> None:
        for module, name, original in reversed(self.saved):
            setattr(module, name, original)
        self.saved.clear()

    def _replace(self, mod: str, name: str, make) -> None:
        module = getattr(self.tk, mod)
        original = getattr(module, name)
        self.saved.append((module, name, original))
        qual = f"{mod}.{name}"
        setattr(module, name, make(qual, KEY.get(qual, qual), original))

    def begin_op(self, name: str) -> None:
        self.op_id += 1
        self.stack.append([f"op {name}", len(self.spans), 0.0, perf_counter()])
        self.spans.append(None)

    def end_op(self) -> None:
        name, index, _, start = self.stack.pop()
        self.spans[index] = (name, start, perf_counter(), -1, self.op_id)

    def _spanned(self, qual: str, key: str, fn):
        stack, spans, stats = self.stack, self.spans, self.stats

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [qual, len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[2] += end - start
                spans[frame[1]] = (qual, start, end, parent[1], self.op_id)
                stats[key + ".calls"] += 1
                stats[key + ".self_s"] += end - start - frame[2]
            self._observe(qual, parent[0], args, result)
            return result

        return wrapper

    def _counted(self, qual: str, key: str, fn):
        stack, stats = self.stack, self.stats
        reducts = qual == "substitution.match"

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack[-1][2] += elapsed
                stats[key + ".calls"] += 1
                stats[key + ".self_s"] += elapsed
            if result is not None:
                stats[key + ".hits"] += 1
                if reducts and stack[-1][0] == "rewriting.step":
                    stats["rewriting.step.reducts_built"] += 1
            return result

        return wrapper

    def _observe(self, qual: str, parent: str, args, result) -> None:
        stats = self.stats
        if qual == "analysis.nf":
            stats["analysis.nf.steps"] += result.steps
            self.nf_terms.append(result.term)
            if parent == LC:
                stats[LC + ".nf_calls"] += 1
        elif qual == "criticalpairs.critical_pairs":
            stats[qual + ".pairs"] += len(result)
            if parent == LC:
                stats[LC + ".pairs_built"] += len(result)
        elif qual == "problem.parse":
            stats["problem.parse.bytes"] += len(args[0])

    def measure_terms(self) -> None:
        """Sizes of the normal forms seen since the last call; run between
        rounds, outside every timed interval."""
        for t in self.nf_terms:
            c = oracle.from_trskit(t)
            self.stats["term.result_tree_size"] += oracle.tree_size(c)
            self.stats["term.result_dag_nodes"] += oracle.dag_nodes(c)
        self.nf_terms.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(stats: dict, rounds: int, setup: dict) -> dict:
    """Per-layer metrics for one round: the traced set-up counts once, the
    traced rounds are averaged.  Each ratio is given next to its base."""
    s = defaultdict(float, {k: setup.get(k, 0.0) + stats.get(k, 0.0) / rounds for k in set(stats) | set(setup)})
    ms = lambda key: s[key + ".self_s"] * 1000
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "analysis.nf.calls": (s["analysis.nf.calls"], "count"),
        "analysis.nf.steps": (s["analysis.nf.steps"], "count"),
        "analysis.nf.self_ms": (ms("analysis.nf"), "ms"),
        "analysis.check_local_confluence.calls": (s[LC + ".calls"], "count"),
        "analysis.check_local_confluence.self_ms": (ms(LC), "ms"),
        "analysis.check_local_confluence.pairs_built": (s[LC + ".pairs_built"], "count"),
        "analysis.check_local_confluence.pairs_used_ratio": (ratio(s[LC + ".nf_calls"] / 2, s[LC + ".pairs_built"]), "ratio"),
        "rewriting.step.calls": (s["rewriting.step.calls"], "count"),
        "rewriting.step.self_ms": (ms("rewriting.step"), "ms"),
        "rewriting.step.reducts_built": (s["rewriting.step.reducts_built"], "count"),
        "rewriting.step.useful_ratio": (ratio(s["analysis.nf.steps"], s["rewriting.step.reducts_built"]), "ratio"),
        "substitution.match.calls": (s["substitution.match.calls"], "count"),
        "substitution.match.hit_ratio": (ratio(s["substitution.match.hits"], s["substitution.match.calls"]), "ratio"),
        "substitution.match.self_ms": (ms("substitution.match"), "ms"),
        "substitution.unify.calls": (s["substitution.unify.calls"], "count"),
        "substitution.unify.hit_ratio": (ratio(s["substitution.unify.hits"], s["substitution.unify.calls"]), "ratio"),
        "substitution.unify.self_ms": (ms("substitution.unify"), "ms"),
        "rule.check_valid.calls": (s["rule.check_valid.calls"], "count"),
        "rule.check_valid.self_ms": (ms("rule.check_valid"), "ms"),
        "rule.rename_apart.calls": (s["rule.rename_apart.calls"], "count"),
        "rule.rename_apart.self_ms": (ms("rule.rename_apart"), "ms"),
        "criticalpairs.critical_pairs.calls": (s["criticalpairs.critical_pairs.calls"], "count"),
        "criticalpairs.critical_pairs.pairs": (s["criticalpairs.critical_pairs.pairs"], "count"),
        "criticalpairs.critical_pairs.self_ms": (ms("criticalpairs.critical_pairs"), "ms"),
        "criticalpairs.render.self_ms": (ms("criticalpairs.render"), "ms"),
        "term.result_tree_size": (s["term.result_tree_size"], "count"),
        "term.result_dag_nodes": (s["term.result_dag_nodes"], "count"),
        "problem.parse.calls": (s["problem.parse.calls"], "count"),
        "problem.parse.kb": (s["problem.parse.bytes"] / 1000, "kB"),
        "problem.parse.self_ms": (ms("problem.parse"), "ms"),
        "problem.parse.kb_per_s": (ratio(s["problem.parse.bytes"], s["problem.parse.self_s"] * 1000), "kB/s"),
        "problem.parse_term.self_ms": (ms("problem.parse_term"), "ms"),
        "problem.render.self_ms": (ms("problem.render"), "ms"),
        "problem.to_json.self_ms": (ms("problem.to_json"), "ms"),
        "rewriting.render.self_ms": (ms("rewriting.render"), "ms"),
        "cli.main.calls": (s["cli.main.calls"], "count"),
        "cli.main.overhead_ms": (ms("cli.main"), "ms"),
        "cli.cmd.self_ms": (ms("cli.cmd"), "ms"),
    }
