"""Command-line interface: parse, inspect, rewrite and analyze WST problem files.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative
finding (invalid rules in `props`, NO from `check-lc`), 2 for MAYBE and
for input or usage errors (told apart by the stderr message and by the
``status`` field of ``--json`` output).  `main` loads the problem file
once and hands the `problem.Problem` to the command.

`main` owns both standard streams.  Whatever goes to stdout (a command's
output, a refusal's ``--json`` document, argparse's help) fails in one
way: a stdout that is full, closed or cannot encode the text is exit 2
with one ``trskit: error:`` line on stderr, none after a refusal's own,
and no JSON error document after partial output.  Such a stdout is
closed, so that the interpreter's flush at exit does not fail on it
again.  A line that stderr cannot take is lost and changes nothing.

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
import contextlib
import errno
import functools
import io
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


def main(argv=None) -> int:
    out, err = io.StringIO(), io.StringIO()
    try:
        if sys.stdout is None or sys.stdout.closed:
            raise OSError(errno.EBADF, "stdout is closed")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = _arg_parser().parse_args(argv)
            if getattr(args, "max_steps", 0) < 0:
                raise _Refusal(f"--max-steps must be at least 0, not {args.max_steps}")
            code = globals()[f"cmd_{args.command}"](args, _load(args))
        except SystemExit as e:
            code = e.code
        except (_Refusal, problem.ParseError, InvalidRuleError) as e:
            code = 2
            print(f"trskit: error: {e}", file=err)
            if args.json:
                _write_json({"status": "error", "message": str(e)}, out.write)
                print(file=out)
        # argparse's help and usage text and a refusal, written as output is
        if err.getvalue():
            _say(err.getvalue(), end="")
        if out.getvalue():
            sys.stdout.write(out.getvalue())
        sys.stdout.flush()
        return code
    except (OSError, UnicodeEncodeError) as e:
        # stdout failed or is not there; a refusal's line is the one error
        if not err.getvalue():
            _say(f"trskit: error: {e}")
        _close_failed(sys.stdout)
        return 2


class _Refusal(Exception):
    """An input error that the CLI finds itself: a file it cannot read or a
    negative step budget."""


def _say(text: str, end: str = "\n") -> None:
    """Print ``text`` on stderr.  A stderr that cannot take it is closed and
    the text is lost, so the command keeps its own exit code and output."""
    err = sys.stderr
    if err is not None and not err.closed:
        try:
            print(text, file=err, end=end)
        except (OSError, UnicodeEncodeError):
            _close_failed(err)


def _close_failed(stream) -> None:
    """Close ``stream``, if there is one, after a write to it failed.  A
    buffered stream keeps the text it could not write, and the
    interpreter's flush at exit would fail on it again; a closed stream is
    not flushed at exit.  Closing tries that flush once more, and its error
    is the one already reported."""
    if stream is not None:
        with contextlib.suppress(OSError):
            stream.close()


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
    around its arguments, and a variable's or a constant's is one f-string.
    """
    out: list[str] = []
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
        elif kind is Var:
            out.append(f'{{{nl}  "var": {encode_basestring_ascii(str(o.name))}{nl}}}')
        elif kind is Fun:
            out.append(f'{{{nl}  "fun": {encode_basestring_ascii(str(o.symbol))},{nl}  "args": []{nl}}}')
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
    try:
        with open(args.file, encoding="latin-1", newline="") as handle:
            text = handle.read()
    except OSError as e:
        raise _Refusal(e) from None
    p = problem.parse(text, check_arity=not args.no_arity_check)
    if p.has_theory:
        _say("trskit: warning: THEORY section present; its semantics are ignored")
    return p


def _warn_weak(p: problem.Problem) -> None:
    if p.weak_rules:
        _say(f"trskit: warning: ignoring {len(p.weak_rules)} weak rule(s)")


def cmd_parse(args, p: problem.Problem) -> int:
    if args.json:
        _emit_json(problem.to_json(p, term=_as_is))
    else:
        print(problem.render(p), end="")
    return 0


def cmd_props(args, p: problem.Problem) -> int:
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


def cmd_cps(args, p: problem.Problem) -> int:
    _warn_weak(p)
    pairs = criticalpairs.critical_pairs(p.strict_rules, Scope(args.scope))
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


def cmd_rewrite(args, p: problem.Problem) -> int:
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


def cmd_normalize(args, p: problem.Problem) -> int:
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


def cmd_check_lc(args, p: problem.Problem) -> int:
    if p.weak_rules:
        raise InvalidRuleError("weak rules present; the local-confluence check needs a strict TRS")
    verdict = analysis.check_local_confluence(p.strict_rules, args.max_steps)
    if isinstance(verdict, analysis.LocallyConfluent):
        code, doc, lines = 0, {"status": "YES"}, ["YES"]
    elif isinstance(verdict, analysis.NotConfluent):
        w = verdict.witness
        nf_left, nf_right = criticalpairs.canonical_terms(w, verdict.nf_left, verdict.nf_right)[3:]
        code = 1
        doc = {
            "status": "NO",
            "witness": criticalpairs.to_json(w, term=_as_is),
            "nfLeft": nf_left,
            "nfRight": nf_right,
        }
        lines = [
            "NO",
            criticalpairs.render(w),
            f"normal form of left: {term.render(nf_left)}",
            f"normal form of right: {term.render(nf_right)}",
        ]
    else:
        code = 2
        doc = {"status": "MAYBE", "unresolved": verdict.unresolved}
        lines = ["MAYBE", f"unresolved critical pairs: {verdict.unresolved}"]
    if args.json:
        _emit_json(doc)
    else:
        print("\n".join(lines))
    return code


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
    p.add_argument("--scope", choices=sorted(s.value for s in Scope), default="all")
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
