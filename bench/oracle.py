"""Reference computations the benchmark checks trskit against.

Nothing here imports trskit.  Terms are plain values: a variable is a
``str`` and an application is a pair ``(symbol, args)`` with ``args`` a
tuple of terms, so a constant is ``(symbol, ())``.  Every function that
walks a term of unbounded depth uses an explicit stack, so the checks hold
at Python's default recursion limit on terms thousands of levels deep.
Python's own ``==`` and ``hash`` on nested tuples recurse, so terms are
compared with `equal` and never used as dict keys.
"""

from __future__ import annotations

from functools import lru_cache


def is_var(t) -> bool:
    return isinstance(t, str)


def fun(symbol: str, *args):
    return (symbol, tuple(args))


def numeral(n: int, succ: str = "s", zero: str = "0"):
    t = (zero, ())
    for _ in range(n):
        t = (succ, (t,))
    return t


def numeral_value(t, succ: str = "s", zero: str = "0"):
    """``n`` if ``t`` is ``succ^n(zero)``, else ``None``."""
    n = 0
    while not is_var(t) and t[0] == succ and len(t[1]) == 1:
        t = t[1][0]
        n += 1
    return n if not is_var(t) and t == (zero, ()) else None


def equal(a, b) -> bool:
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if is_var(a) or is_var(b):
            if a != b:
                return False
            continue
        if a[0] != b[0] or len(a[1]) != len(b[1]):
            return False
        stack.extend(zip(a[1], b[1]))
    return True


def _convert(root, split):
    """Bottom-up conversion; ``split(node)`` gives ``(var_name, None)`` or
    ``(symbol, children)``.  Nodes shared by identity stay shared."""
    done: dict = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in done:
            continue
        head, children = split(node)
        if children is None:
            done[key] = (node, head)
        elif expanded:
            done[key] = (node, (head, tuple(done[id(c)][1] for c in children)))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children)
    return done[id(root)][1]


def from_trskit(t, rename=None):
    """Convert a trskit ``Var``/``Fun`` tree; variable names go through
    ``rename`` (a mapping) or ``str``."""

    def split(node):
        if hasattr(node, "args"):
            return str(node.symbol), node.args
        return (rename[node.name] if rename is not None else str(node.name)), None

    return _convert(t, split)


def from_json(obj):
    """Convert the ``{"var": ..}`` / ``{"fun": .., "args": [..]}`` encoding."""

    def split(node):
        if "var" in node:
            return node["var"], None
        return node["fun"], node["args"]

    return _convert(obj, split)


def tree_size(t) -> int:
    """Node count of the unfolded tree; shared nodes are counted once per path."""
    sizes: dict = {}
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in sizes:
            continue
        if is_var(node) or not node[1]:
            sizes[id(node)] = 1
        elif expanded:
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node[1])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node[1])
    return sizes[id(t)]


def dag_nodes(t) -> int:
    """Number of distinct node objects reachable from ``t``."""
    seen = {id(t)}
    stack = [t]
    while stack:
        node = stack.pop()
        if not is_var(node):
            for c in node[1]:
                if id(c) not in seen:
                    seen.add(id(c))
                    stack.append(c)
    return len(seen)


def depth(t) -> int:
    best = 0
    stack = [(t, 0)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        if not is_var(node):
            stack.extend((c, d + 1) for c in node[1])
    return best


def render(t) -> str:
    """trskit's canonical text: ``f(t1,...,tn)``, constants without parens."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # a variable or punctuation
            out.append(item)
        elif not item[1]:
            out.append(item[0])
        else:
            out.append(item[0] + "(")
            stack.append(")")
            for k in range(len(item[1]) - 1, -1, -1):
                stack.append(item[1][k])
                if k:
                    stack.append(",")
    return "".join(out)


def variables(t) -> list:
    """Variable occurrences in preorder, duplicates kept."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if is_var(node):
            out.append(node)
        else:
            stack.extend(reversed(node[1]))
    return out


def rename(t, mapping):
    """Rename variables through ``mapping``; shallow terms only (rule sides)."""
    if is_var(t):
        return mapping[t]
    return (t[0], tuple(rename(a, mapping) for a in t[1]))


def positions(t) -> list:
    """``(position, subterm)`` for every node, in preorder."""
    out = []
    stack = [((), t)]
    while stack:
        p, node = stack.pop()
        out.append((p, node))
        if not is_var(node):
            for k in range(len(node[1]) - 1, -1, -1):
                stack.append((p + (k,), node[1][k]))
    return out


def subterm_at(t, p):
    for k in p:
        t = t[1][k]
    return t


def replace_at(t, p, s):
    path = []
    for k in p:
        path.append(t)
        t = t[1][k]
    for node, k in zip(reversed(path), reversed(p)):
        args = list(node[1])
        args[k] = s
        s = (node[0], tuple(args))
    return s


def apply(sigma: dict, t):
    """Substitute into ``t``; unbound variables stay.  ``t`` is a rule side,
    so the recursion is as deep as the rule, however deep the bindings."""
    if is_var(t):
        return sigma.get(t, t)
    return (t[0], tuple(apply(sigma, a) for a in t[1]))


def match(pattern, subject):
    """``sigma`` with ``apply(sigma, pattern)`` equal to ``subject``, else ``None``."""
    sigma: dict = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if is_var(p):
            if p not in sigma:
                sigma[p] = s
            elif not equal(sigma[p], s):
                return None
        elif is_var(s) or p[0] != s[0] or len(p[1]) != len(s[1]):
            return None
        else:
            stack.extend(zip(p[1], s[1]))
    return sigma


def _occurs(v, t) -> bool:
    stack = [t]
    while stack:
        node = stack.pop()
        if is_var(node):
            if node == v:
                return True
        else:
            stack.extend(node[1])
    return False


def _resolve(sigma: dict, t):
    while is_var(t) and t in sigma:
        t = sigma[t]
    return t


def unify(s, t):
    """Most general unifier by Robinson's algorithm with occurs check, as a
    fully applied substitution, or ``None``."""
    sigma: dict = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = _resolve(sigma, a), _resolve(sigma, b)
        if is_var(a) and is_var(b) and a == b:
            continue
        if is_var(b):
            a, b = b, a
        if is_var(a):
            if _occurs(a, _fully(sigma, b)):
                return None
            sigma[a] = b
        elif a[0] == b[0] and len(a[1]) == len(b[1]):
            stack.extend(zip(a[1], b[1]))
        else:
            return None
    return {v: _fully(sigma, u) for v, u in sigma.items()}


def _fully(sigma: dict, t):
    t = _resolve(sigma, t)
    if is_var(t):
        return t
    return (t[0], tuple(_fully(sigma, a) for a in t[1]))


# Rewriting.  A rule is a pair ``(lhs, rhs)``.


def reducts(rules, t) -> list:
    """Every one-step reduct as ``(position, rule_index, result)``, by
    position in preorder, then rule index."""
    out = []
    for p, node in positions(t):
        for i, (lhs, rhs) in enumerate(rules):
            sigma = match(lhs, node)
            if sigma is not None:
                out.append((p, i, replace_at(t, p, apply(sigma, rhs))))
    return out


def is_reduct(rules, t, u) -> bool:
    return any(equal(r, u) for _, _, r in reducts(rules, t))


def is_normal_form(rules, t) -> bool:
    for _, node in positions(t):
        if any(match(lhs, node) is not None for lhs, _ in rules):
            return False
    return True


def innermost_step(rules, t):
    """The leftmost-innermost reduct (smallest rule index at that position),
    or ``None`` for a normal form.  The first redex in postorder has no redex
    below it and precedes every other innermost redex in preorder."""
    stack = [((), t, False)]
    while stack:
        p, node, expanded = stack.pop()
        if expanded or is_var(node):
            for lhs, rhs in rules:
                sigma = match(lhs, node)
                if sigma is not None:
                    return replace_at(t, p, apply(sigma, rhs))
        else:
            stack.append((p, node, True))
            for k in range(len(node[1]) - 1, -1, -1):
                stack.append((p + (k,), node[1][k], False))
    return None


def normalize(rules, t, max_steps: int):
    """``(term, steps, reached_normal_form)`` under leftmost-innermost rewriting."""
    steps = 0
    while True:
        u = innermost_step(rules, t)
        if u is None:
            return t, steps, True
        if steps >= max_steps:
            return t, steps, False
        t, steps = u, steps + 1


# Critical pairs and the local-confluence verdict.


def overlaps(rules, scope: str = "all") -> list:
    """Every overlap as ``(j, p, i, peak, left, right)``: rule ``i`` applied
    at non-variable position ``p`` of rule ``j``'s left-hand side, rule ``j``
    at the root; the root overlap of a rule with itself is left out.
    Listed by outer rule, position in preorder, inner rule."""
    out = []
    for j, (lhs_j, rhs_j) in enumerate(rules):
        outer = {v: v + "#2" for v in variables(lhs_j)}
        l2, r2 = rename(lhs_j, outer), rename(rhs_j, outer)
        for p, sub in positions(l2):
            if is_var(sub) or (scope == "inner" and p == ()) or (scope == "outer" and p != ()):
                continue
            for i, (lhs_i, rhs_i) in enumerate(rules):
                if p == () and i == j:
                    continue
                inner = {v: v + "#1" for v in variables(lhs_i)}
                sigma = unify(rename(lhs_i, inner), sub)
                if sigma is None:
                    continue
                peak = apply(sigma, l2)
                left = replace_at(peak, p, apply(sigma, rename(rhs_i, inner)))
                out.append((j, p, i, peak, left, apply(sigma, r2)))
    return out


def canonical(terms) -> list:
    """Rename variables to ``x1, x2, ...`` by first occurrence over ``terms``."""
    mapping: dict = {}
    for t in terms:
        for v in variables(t):
            mapping.setdefault(v, f"x{len(mapping) + 1}")
    return [rename(t, mapping) for t in terms]


def local_confluence(rules, max_steps: int):
    """``("YES",)``, ``("NO", overlap, nf_left, nf_right)`` for the first pair
    with distinct normal forms, or ``("MAYBE", unresolved)``."""
    unresolved = 0
    for ov in overlaps(rules):
        left, _, left_done = normalize(rules, ov[4], max_steps)
        right, _, right_done = normalize(rules, ov[5], max_steps)
        if left_done and right_done:
            if not equal(left, right):
                return ("NO", ov, left, right)
        else:
            unresolved += 1
    return ("MAYBE", unresolved) if unresolved else ("YES",)


# Arithmetic by call-by-value evaluation.  Each function returns the value
# and the number of rewrite steps leftmost-innermost rewriting takes with
# the rules in its docstring, on numerals s^n(0).


@lru_cache(maxsize=None)
def ack(m: int, n: int) -> tuple[int, int]:
    """``ack(0,n) -> s(n)``, ``ack(s(m),0) -> ack(m,s(0))``,
    ``ack(s(m),s(n)) -> ack(m,ack(s(m),n))``."""
    if m == 0:
        return n + 1, 1
    if n == 0:
        value, steps = ack(m - 1, 1)
        return value, steps + 1
    inner, inner_steps = ack(m, n - 1)
    value, outer_steps = ack(m - 1, inner)
    return value, 1 + inner_steps + outer_steps


def plus(a: int, b: int) -> tuple[int, int]:
    """``plus(0,y) -> y``, ``plus(s(x),y) -> s(plus(x,y))``."""
    return a + b, a + 1


def times(a: int, b: int) -> tuple[int, int]:
    """``times(0,y) -> 0``, ``times(s(x),y) -> plus(times(x,y),y)``, with `plus`."""
    steps = 1
    for k in range(a):
        steps += 1 + plus(k * b, b)[1]
    return a * b, steps
