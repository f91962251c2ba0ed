"""The benchmark's own term trees, written apart from the engine.

Checks must not trust the program they check, so printed engine output is
read back here and compared with trees the benchmark builds itself.

Nodes are tuples:
    ("s", name, args)   symbol application (a hole is the symbol "_|_")
    ("a", name, body)   abstraction [name] body
    ("v", name)         variable
    ("r", name, body)   cycle binder rec NAME. body
    ("rv", name)        cycle variable
"""

import re

HOLE = "_|_"

_TOKEN = re.compile(r"\s+|(_\|_)|([A-Za-z_][A-Za-z0-9_']*)|([()\[\],.])")


def sym(f, *args):
    return ("s", f, tuple(args))


def fmt(t):
    """Render in the engine's concrete syntax."""
    kind = t[0]
    if kind == "s":
        if not t[2]:
            return t[1]
        return f"{t[1]}({', '.join(fmt(a) for a in t[2])})"
    if kind == "a":
        return f"[{t[1]}] {fmt(t[2])}"
    if kind == "r":
        return f"rec {t[1]}. {fmt(t[2])}"
    return t[1]


def parse(text):
    """Read a printed term (the engine's grammar, without meta-variables)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unreadable term text at {pos}: {text!r}")
        if m.lastindex:
            tokens.append(m.group(m.lastindex))
        pos = m.end()
    tokens.append("")
    at = [0]

    def take():
        tok = tokens[at[0]]
        at[0] += 1
        return tok

    def expect(tok):
        if take() != tok:
            raise ValueError(f"expected {tok!r} in {text!r}")

    def term(bound, recs):
        tok = take()
        if tok == "[":
            name = take()
            expect("]")
            return ("a", name, term(bound | {name}, recs))
        if tok == "rec":
            name = take()
            expect(".")
            return ("r", name, term(bound, recs | {name}))
        if tok == HOLE:
            return sym(HOLE)
        if not tok or not (tok[0].isalpha() or tok[0] == "_"):
            raise ValueError(f"expected a term in {text!r}")
        if tokens[at[0]] == "(":
            take()
            args = [term(bound, recs)]
            while tokens[at[0]] == ",":
                take()
                args.append(term(bound, recs))
            expect(")")
            return ("s", tok, tuple(args))
        if tok in recs:
            return ("rv", tok)
        if tok in bound:
            return ("v", tok)
        return sym(tok)

    out = term(frozenset(), frozenset())
    if tokens[at[0]]:
        raise ValueError(f"trailing input in {text!r}")
    return out


def _subst_rv(t, name, value):
    kind = t[0]
    if kind == "rv":
        return value if t[1] == name else t
    if kind == "r":
        return t if t[1] == name else ("r", t[1], _subst_rv(t[2], name, value))
    if kind == "a":
        return ("a", t[1], _subst_rv(t[2], name, value))
    if kind == "s":
        return ("s", t[1], tuple(_subst_rv(a, name, value) for a in t[2]))
    return t


def resolve(t):
    """Unroll cycle binders at the root."""
    while t[0] == "r":
        t = _subst_rv(t[2], t[1], t)
    return t


def children(t):
    t = resolve(t)
    if t[0] == "a":
        return ((0, t[2]),)
    if t[0] == "s":
        return tuple((i + 1, a) for i, a in enumerate(t[2]))
    return ()


def subterm(t, p):
    for i in p:
        t = dict(children(t))[i]
    return resolve(t)


def positions(t, d):
    """Positions of depth <= d of the unfolding, in preorder."""
    out = []

    def walk(u, p):
        out.append(p)
        if len(p) < d:
            for i, c in children(u):
                walk(c, p + (i,))

    walk(t, ())
    return out


def truncate(t, d):
    """Printed depth-d approximant: nodes strictly above depth d, a hole at
    every depth-d cut point."""
    if d == 0:
        return HOLE
    u = resolve(t)
    if u[0] == "a":
        return f"[{u[1]}] {truncate(u[2], d - 1)}"
    if u[0] == "s":
        if not u[2]:
            return u[1]
        return f"{u[1]}({', '.join(truncate(a, d - 1) for a in u[2])})"
    return u[1]


def size(t):
    kind = t[0]
    if kind == "s":
        return 1 + sum(size(a) for a in t[2])
    if kind in ("a", "r"):
        return 1 + size(t[2])
    return 1


def canon(t, d, env=()):
    """Binder-name-free rendering of the unfolding down to depth d: bound
    variables print as the level of their binder."""
    if d == 0:
        return "*"
    u = resolve(t)
    if u[0] == "a":
        return f"[{canon(u[2], d - 1, env + (u[1],))}]"
    if u[0] == "v":
        for level in range(len(env) - 1, -1, -1):
            if env[level] == u[1]:
                return f"#{level}"
        return u[1]
    if not u[2]:
        return u[1]
    return f"{u[1]}({','.join(canon(a, d - 1, env) for a in u[2])})"


def alpha_eq(a, b):
    """Equality of the infinite unfoldings up to bound names.  Two rational
    trees with m and n syntax nodes that differ do so above depth m + n."""
    d = size(a) + size(b) + 2
    return canon(a, d) == canon(b, d)


def has_rec(t):
    kind = t[0]
    if kind in ("r", "rv"):
        return True
    if kind == "a":
        return has_rec(t[2])
    if kind == "s":
        return any(has_rec(a) for a in t[2])
    return False


def rec_equal(printed, known):
    """The printed rational form equals the known one up to the names of
    its cycle binders: both parse to the same tree once every rec binder is
    renamed by its order of appearance."""
    try:
        return _rename_recs(parse(printed)) == _rename_recs(known)
    except ValueError:
        return False


def _rename_recs(t, env=None, counter=None):
    env = env or {}
    counter = counter or [0]
    kind = t[0]
    if kind == "r":
        counter[0] += 1
        name = f"R{counter[0]}"
        return ("r", name, _rename_recs(t[2], {**env, t[1]: name}, counter))
    if kind == "rv":
        return ("rv", env.get(t[1], t[1]))
    if kind == "a":
        return ("a", t[1], _rename_recs(t[2], env, counter))
    if kind == "s":
        return ("s", t[1], tuple(_rename_recs(a, env, counter) for a in t[2]))
    return t
