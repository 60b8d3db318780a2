"""Command-line interface: parse, inspect, rewrite and analyze WST problem files.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative
finding (invalid rules in `props`, NO from `check-lc`), 2 for MAYBE and
for input or usage errors (told apart by the stderr message and by the
``status`` field of ``--json`` output).

Commands run on the calling thread at the interpreter's recursion limit:
the library's traversals keep their own stacks, and so does the writer of
``--json`` documents, so terms thousands of levels deep need nothing more.

A ``--json`` document is the public ``to_json`` document of the result
(`problem.to_json` and the like) with its terms left as `Term` objects;
the writer turns each term straight into the text that ``json.dumps(...,
indent=2)`` gives its `term.to_json` document, without building its
dicts, and hands the text over in pieces.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

from . import analysis, criticalpairs, problem, rewriting, term
from .criticalpairs import Scope
from .rewriting import Strategy
from .rule import InvalidRuleError
from .term import Fun, Var

_STRATEGY_FLAGS = {
    "full": Strategy.FULL,
    "root": Strategy.ROOT,
    "outer": Strategy.OUTERMOST,
    "inner": Strategy.INNERMOST,
}

_SCOPE_FLAGS = {"all": Scope.ALL, "inner": Scope.INNER, "outer": Scope.OUTER}


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    if getattr(args, "max_steps", 0) < 0:
        return _fail(args, f"--max-steps must be at least 0, not {args.max_steps}")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (problem.ParseError, InvalidRuleError, OSError) as e:
        return _fail(args, str(e))


def _fail(args, message: str) -> int:
    print(f"trskit: error: {message}", file=sys.stderr)
    if args.json:
        _emit_json({"status": "error", "message": message})
    return 2


def _emit_json(obj) -> None:
    _write_json(obj, sys.stdout.write)
    print()


# ``write`` is called once about this much text is gathered since its last
# call, counting punctuation in full and each value by its indentation.
_BATCH = 1 << 16


def _write_json(obj, write) -> None:
    """Write the text of ``json.dumps(obj, indent=2)`` through ``write``, for
    dicts with string keys, lists, strings, ints, bools and ``None``; a
    `Term` is written as the text of its `term.to_json` document.

    The writer keeps its own stack, so documents of any depth need no
    recursion, and hands the text over in batches, so the whole document
    is never held as one string.  An application's text is one f-string
    around its arguments.  The text of a variable or constant is kept for
    each node and indentation, since a parsed problem shares one node per
    leaf name.
    """
    out: list[str] = []
    leaves: dict = {}  # (id(leaf), len(nl)) -> its text at that indentation
    pending = 0  # punctuation and indentation of values gathered since the last write
    # Values still to write, each with the newline and indentation of its
    # line, and the punctuation between them as plain strings.
    stack: list = [(obj, "\n")]
    while stack:
        if pending > _BATCH:
            write("".join(out))
            out.clear()
            pending = 0
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            pending += len(item)
            continue
        o, nl = item
        kind = type(o)
        if kind is Fun and o.args:
            inner = nl + "    "
            out.append(f'{{{nl}  "fun": {encode_basestring_ascii(str(o.symbol))},{nl}  "args": [{inner}')
            stack.append(f"{nl}  ]{nl}}}")
            args = o.args
            if len(args) > 1:
                sep = "," + inner
                for k in range(len(args) - 1, 0, -1):
                    stack.append((args[k], inner))
                    stack.append(sep)
            stack.append((args[0], inner))
        elif kind is Fun or kind is Var:
            key = (id(o), len(nl))
            text = leaves.get(key)
            if text is None:
                if kind is Var:
                    text = f'{{{nl}  "var": {encode_basestring_ascii(str(o.name))}{nl}}}'
                else:
                    text = f'{{{nl}  "fun": {encode_basestring_ascii(str(o.symbol))},{nl}  "args": []{nl}}}'
                leaves[key] = text
            out.append(text)
        elif isinstance(o, str):
            out.append(encode_basestring_ascii(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, (dict, list)):
            is_dict = isinstance(o, dict)
            if not o:
                out.append("{}" if is_dict else "[]")
                continue
            out.append("{" if is_dict else "[")
            stack.append("}" if is_dict else "]")
            stack.append(nl)
            inner = nl + "  "
            items = list(o.items()) if is_dict else o
            for k in range(len(items) - 1, -1, -1):
                if is_dict:
                    key, value = items[k]
                    stack.append((value, inner))
                    stack.append(encode_basestring_ascii(key) + ": ")
                else:
                    stack.append((items[k], inner))
                stack.append(inner)
                if k:
                    stack.append(",")
        else:
            raise TypeError(f"cannot write {type(o).__name__} as JSON")
        pending += len(nl)
    write("".join(out))


def _as_is(t: term.Term) -> term.Term:
    """A term left in a document as itself, for `_write_json` to write."""
    return t


def _load(args) -> problem.Problem:
    with open(args.file, encoding="latin-1") as handle:
        text = handle.read()
    p = problem.parse(text, check_arity=not args.no_arity_check)
    if p.has_theory:
        print("trskit: warning: THEORY section present; its semantics are ignored", file=sys.stderr)
    return p


def _warn_weak(p: problem.Problem) -> None:
    if p.weak_rules:
        print(f"trskit: warning: ignoring {len(p.weak_rules)} weak rule(s)", file=sys.stderr)


def cmd_parse(args) -> int:
    p = _load(args)
    if args.json:
        _emit_json(problem.to_json(p, term=_as_is))
    else:
        print(problem.render(p), end="")
    return 0


def cmd_props(args) -> int:
    p = _load(args)
    rules = p.strict_rules + p.weak_rules
    props = rewriting.list_properties(rules)
    fields = [
        ("strictRules", "strict rules", len(p.strict_rules)),
        ("weakRules", "weak rules", len(p.weak_rules)),
        ("valid", "valid", props.valid),
        ("leftLinear", "left-linear", props.left_linear),
        ("rightLinear", "right-linear", props.right_linear),
        ("linear", "linear", props.linear),
        ("duplicating", "duplicating", props.duplicating),
        ("collapsing", "collapsing", props.collapsing),
        ("erasing", "erasing", props.erasing),
        ("ground", "ground", props.ground),
    ]
    if args.json:
        _emit_json({key: value for key, _, value in fields})
    else:
        for _, label, value in fields:
            if isinstance(value, bool):
                value = "yes" if value else "no"
            print(f"{label}: {value}")
    return 0 if props.valid else 1


def cmd_cps(args) -> int:
    p = _load(args)
    _warn_weak(p)
    pairs = criticalpairs.critical_pairs(p.strict_rules, _SCOPE_FLAGS[args.scope])
    if args.json:
        _emit_json({"criticalPairs": [criticalpairs.to_json(cp, term=_as_is) for cp in pairs], "count": len(pairs)})
    else:
        for cp in pairs:
            print(criticalpairs.render(cp))
            print()
        print(f"critical pairs: {len(pairs)}")
    return 0


def _subject(args, p: problem.Problem) -> term.Term:
    """The command's term, checked against the arities of ``p`` unless
    ``--no-arity-check`` is given."""
    arity = None if args.no_arity_check else problem.arities(p)
    return problem.parse_term(args.term, p.variables, arity=arity)


def cmd_rewrite(args) -> int:
    p = _load(args)
    _warn_weak(p)
    subject = _subject(args, p)
    reducts = rewriting.step(p.strict_rules, subject, _STRATEGY_FLAGS[args.strategy])
    if args.json:
        _emit_json({"reducts": [rewriting.to_json(r, term=_as_is) for r in reducts], "count": len(reducts)})
    else:
        for r in reducts:
            print(rewriting.render(r))
        print(f"reducts: {len(reducts)}")
    return 0


def cmd_normalize(args) -> int:
    p = _load(args)
    _warn_weak(p)
    subject = _subject(args, p)
    result = analysis.nf(p.strict_rules, subject, args.max_steps)
    status = "NORMAL FORM" if result.reached_normal_form else "STEP LIMIT"
    if args.json:
        _emit_json({"term": result.term, "steps": result.steps, "status": status})
    else:
        print(term.render(result.term))
        print(f"steps: {result.steps}")
        print(status)
    return 0 if result.reached_normal_form else 2


def cmd_check_lc(args) -> int:
    p = _load(args)
    if p.weak_rules:
        return _fail(args, "weak rules present; the local-confluence check needs a strict TRS")
    verdict = analysis.check_local_confluence(p.strict_rules, args.max_steps)
    if isinstance(verdict, analysis.LocallyConfluent):
        if args.json:
            _emit_json({"status": "YES"})
        else:
            print("YES")
        return 0
    if isinstance(verdict, analysis.NotConfluent):
        w = verdict.witness
        nf_left, nf_right = criticalpairs.canonical_terms(w, verdict.nf_left, verdict.nf_right)[3:]
        if args.json:
            _emit_json(
                {
                    "status": "NO",
                    "witness": criticalpairs.to_json(w, term=_as_is),
                    "nfLeft": nf_left,
                    "nfRight": nf_right,
                }
            )
        else:
            print("NO")
            print(criticalpairs.render(w))
            print(f"normal form of left: {term.render(nf_left)}")
            print(f"normal form of right: {term.render(nf_right)}")
        return 1
    if args.json:
        _emit_json({"status": "MAYBE", "unresolved": verdict.unresolved})
    else:
        print("MAYBE")
        print(f"unresolved critical pairs: {verdict.unresolved}")
    return 2


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Commands are looked up by name when
    `main` runs, so a ``cmd_*`` replaced after it is built still runs."""
    parser = argparse.ArgumentParser(
        prog="trskit",
        description="first-order term rewriting toolkit for WST (old TPDB) problem files",
    )
    sub = parser.add_subparsers(metavar="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file in WST format")
    common.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
    common.add_argument(
        "--no-arity-check",
        action="store_true",
        help="allow function symbols used with inconsistent arities",
    )

    p = sub.add_parser("parse", parents=[common], help="parse a problem and reprint it canonically")
    p.set_defaults(command="parse")

    p = sub.add_parser("props", parents=[common], help="report syntactic properties of the rules")
    p.set_defaults(command="props")

    p = sub.add_parser("cps", parents=[common], help="list critical pairs")
    p.add_argument("--scope", choices=sorted(_SCOPE_FLAGS), default="all")
    p.set_defaults(command="cps")

    p = sub.add_parser("rewrite", parents=[common], help="apply one rewrite step to a term")
    p.add_argument("term", help="term to rewrite, e.g. 'f(a,x)'")
    p.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS), default="full")
    p.set_defaults(command="rewrite")

    p = sub.add_parser("normalize", parents=[common], help="reduce a term to normal form")
    p.add_argument("term", help="term to normalize")
    p.add_argument("--max-steps", type=int, default=1000, help="rewrite-step budget (default 1000)")
    p.set_defaults(command="normalize")

    p = sub.add_parser(
        "check-lc",
        parents=[common],
        help="check local confluence by joining all critical pairs "
        "(for terminating systems this decides confluence)",
    )
    p.add_argument("--max-steps", type=int, default=1000, help="rewrite-step budget per side (default 1000)")
    p.set_defaults(command="check_lc")

    return parser


if __name__ == "__main__":
    sys.exit(main())
