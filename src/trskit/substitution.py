"""Substitutions: finite maps from variable identifiers to terms.

Two application disciplines share the plain-dict representation:

* standard (`apply`): variables outside the domain are left untouched;
  the maps produced by `unify` and `compose` never store identity
  bindings, so their domain is exactly the set of variables moved.
* generalized (`apply_generalized`): the result term may live in a
  different variable namespace, so an unmapped variable is a failure and
  application returns ``None``.  Matching produces generalized
  substitutions whose domain is exactly the pattern's variables.

`unify` takes each pair of shared nodes apart once, and its occurs check is
one search for a cycle in its bindings.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional

from . import term as _term
from .term import Fun, Term, Var

Substitution = dict

GeneralizedSubstitution = dict


def apply(sigma: Mapping, t: Term) -> Term:
    """Homomorphic extension of ``sigma``; unmapped variables map to themselves."""
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if not sigma or not t.args:
        return t
    # A frame is an application, its arguments not yet substituted and
    # those substituted so far.
    stack = [(t, iter(t.args), [])]
    while True:
        node, rest, done = stack[-1]
        for a in rest:
            if isinstance(a, Var):
                done.append(sigma.get(a.name, a))
            elif a.args:
                stack.append((a, iter(a.args), []))
                break
            else:
                done.append(a)
        else:
            stack.pop()
            s = Fun(node.symbol, tuple(done))
            if not stack:
                return s
            stack[-1][2].append(s)


def apply_generalized(sigma: Mapping, t: Term) -> Optional[Term]:
    """Fully substitute ``t``, or return ``None`` if some variable is unmapped."""
    if all(v in sigma for v in _term.vars(t)):
        return apply(sigma, t)
    return None


def compose(sigma: Mapping, tau: Mapping) -> Substitution:
    """The substitution applying ``sigma`` first, then ``tau``."""
    rho = {}
    for v, t in sigma.items():
        t = apply(tau, t)
        if isinstance(t, Var) and t.name == v:
            continue
        rho[v] = t
    for v, t in tau.items():
        if v not in sigma:
            rho[v] = t
    return rho


def match(pattern: Term, subject: Term) -> Optional[GeneralizedSubstitution]:
    """Find sigma with sigma(pattern) = subject, or ``None`` if there is none.

    The result is generalized: its domain is exactly the variables of the
    pattern, and the subject's variable namespace may differ from the
    pattern's.
    """
    sigma: dict = {}
    # Two parallel stacks: the k-th pattern is to match the k-th subject.
    patterns, subjects = [pattern], [subject]
    while patterns:
        p = patterns.pop()
        s = subjects.pop()
        if type(p) is Var:
            seen = sigma.get(p.name)
            if seen is None:
                sigma[p.name] = s
            elif seen != s:
                return None
        elif type(s) is Fun and p.symbol == s.symbol and len(p.args) == len(s.args):
            patterns += p.args
            subjects += s.args
        else:
            return None
    return sigma


def unify(s: Term, t: Term) -> Optional[Substitution]:
    """Most general unifier of ``s`` and ``t`` over a shared variable namespace.

    Returns an idempotent substitution with fully applied bindings (no
    bound variable occurs in any stored image), or ``None`` on a symbol
    clash or when the bindings form a cycle.  The keys are in the order
    the variables were bound.
    """
    # Bindings are triangular: an image is stored as found, and `_solve`
    # does the occurs check once, as a search for a cycle (Martelli &
    # Montanari, TOPLAS 1982).  A pair of applications met again has its
    # argument pairs unified already, or the bindings are cyclic; so it is
    # taken apart once, and cyclic bindings end the loop.
    sigma: dict = {}
    taken: set = set()
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = _resolve(sigma, a), _resolve(sigma, b)
        if isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a != b:
                sigma[a.name] = b
        elif a.symbol != b.symbol or len(a.args) != len(b.args):
            return None
        elif a.args and (id(a), id(b)) not in taken:
            taken.add((id(a), id(b)))
            stack.extend(zip(a.args, b.args))
    return _solve(sigma)


def _resolve(sigma: dict, t: Term) -> Term:
    """Follow the triangular ``sigma`` from ``t`` to an application or an
    unbound variable, and bind each variable passed to that end."""
    path = []
    while isinstance(t, Var) and t.name in sigma:
        path.append(t.name)
        t = sigma[t.name]
    # Path compression: later walks from these variables take one step.
    for v in path:
        sigma[v] = t
    return t


def _solve(sigma: dict) -> Optional[Substitution]:
    """The triangular ``sigma`` fully applied, each image solved once, in key
    order, or ``None`` if a variable's image depends on the variable."""
    solved: dict = {}
    # Variables whose image the walk has entered; those not yet solved are
    # on the path of the walk.
    entered: set = set()
    for root in sigma:
        # Depth first: a variable is solved once the bound variables of its
        # image are.
        todo = [root]
        while todo:
            v = todo[-1]
            if v in solved:
                todo.pop()
                continue
            image = sigma[v]
            pending = [u for u in _term.vars(image) if u in sigma and u not in solved]
            if pending:
                entered.add(v)
                if not entered.isdisjoint(pending):
                    return None
                todo.extend(pending)
            else:
                todo.pop()
                solved[v] = apply(solved, image)
    return {v: solved[v] for v in sigma}


def to_generalized(sigma: Mapping, variables: Iterable[Hashable]) -> GeneralizedSubstitution:
    """Extend a standard substitution to total coverage of ``variables``."""
    out = dict(sigma)
    for v in variables:
        out.setdefault(v, Var(v))
    return out


def to_standard(sigma: Mapping) -> Substitution:
    """Drop identity bindings; only meaningful when both namespaces coincide."""
    return {
        v: t for v, t in sigma.items() if not (isinstance(t, Var) and t.name == v)
    }


def render(sigma: Mapping) -> str:
    """Render as ``{x -> f(a), y -> b}``, bindings sorted by variable."""
    items = sorted(sigma.items(), key=lambda kv: str(kv[0]))
    body = ", ".join(f"{v} -> {_term.render(t)}" for v, t in items)
    return "{" + body + "}"


def to_json(sigma: Mapping, *, term=_term.to_json) -> dict:
    """The JSON document of ``sigma``; ``term`` gives the value of each image."""
    return {str(v): term(t) for v, t in sorted(sigma.items(), key=lambda kv: str(kv[0]))}
