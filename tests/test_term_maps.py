"""Every term-to-term map goes over `terms.rebuild`'s explicit stack, and
`iter_tagged` over a stack of its own.  On shallow terms each map agrees
with the recursive walk it replaced, written out below; on terms 3,000
levels deep or 50 arguments wide none of them raises RecursionError, and
the CLI ends such a run with exit 0, 3 or 4, never a traceback.
Substitution returns a subterm with no substituted variable free as it
is, so it renames no binder under which nothing is substituted."""

import contextlib
import io
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from icrs.cli import main
from icrs.errors import NotCycleRoot
from icrs.rewriting import substitute
from icrs.syntax import parse_term, print_term
from icrs.terms import (
    Abs, MetaApp, Rec, RecVar, Sym, Var, alpha_eq, children, fresh_name,
    free_recvars, free_vars, hole, iter_tagged, rebuild, resolve, strip_tags,
    subst_recvar, truncate, unfold,
)

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

BINDERS = ("x", "x1", "y")  # "y" is also free: values carrying it force renames
FREE = ("y", "z")
RECS = ("R", "S")
WIDE = {0: "k", 1: "c1", 2: "c2"}  # other arities get "w"


# ---------------------------------------------------------------------------
# the recursive walks the explicit stacks replaced

def ref_subst_recvar(t, name, value):
    match t:
        case RecVar(n):
            return value if n == name else t
        case Rec(v, body):
            return t if v == name else Rec(v, ref_subst_recvar(body, name, value))
        case Abs(x, body, tag):
            return Abs(x, ref_subst_recvar(body, name, value), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(ref_subst_recvar(a, name, value) for a in args), tag)
        case MetaApp(z, args):
            return MetaApp(z, tuple(ref_subst_recvar(a, name, value) for a in args))
    return t


def ref_unfold(t):
    hit = []

    def go(u):
        match u:
            case Rec(v, body):
                hit.append(u)
                return ref_subst_recvar(body, v, u)
            case Abs(x, body, tag):
                return Abs(x, go(body), tag)
            case Sym(f, args, tag):
                return Sym(f, tuple(map(go, args)), tag)
            case MetaApp(z, args):
                return MetaApp(z, tuple(map(go, args)))
        return u

    out = go(t)
    if not hit:
        raise NotCycleRoot("term has no rec binder to unroll")
    return out


def ref_strip_tags(t):
    match t:
        case Var(x, _):
            return Var(x)
        case Abs(x, body, _):
            return Abs(x, ref_strip_tags(body))
        case Sym(f, args, _):
            return Sym(f, tuple(map(ref_strip_tags, args)))
        case MetaApp(z, args):
            return MetaApp(z, tuple(map(ref_strip_tags, args)))
        case Rec(v, body):
            return Rec(v, ref_strip_tags(body))
    return t


def ref_truncate(t, d):
    if d == 0:
        return hole()
    match resolve(t):
        case Abs(x, body, tag):
            return Abs(x, ref_truncate(body, d - 1), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(ref_truncate(a, d - 1) for a in args), tag)
        case u:
            return u


def ref_iter_tagged(t):
    out, on_path = [], set()
    complete = True

    def walk(u, p):
        nonlocal complete
        r = resolve(u)
        if not tags_of(r):
            return
        if isinstance(u, Rec):
            if u in on_path:
                complete = False
                return
            on_path.add(u)
        if getattr(r, "tag", None) is not None:
            out.append((p, r.tag))
        for i, c in children(r):
            walk(c, p + (i,))
        if isinstance(u, Rec):
            on_path.remove(u)

    walk(t, ())
    return out, complete


def tags_of(t):
    """Does a tag occur in the rational representation of t?"""
    match t:
        case Var(_, tag):
            return tag is not None
        case Abs(_, body, tag):
            return tag is not None or tags_of(body)
        case Sym(_, args, tag):
            return tag is not None or any(map(tags_of, args))
        case Rec(_, body):
            return tags_of(body)
    return False


# the tag of a map entry that renames a variable: its occurrences keep
# their own tags
RENAMED = object()


def ref_substitute(t, m):
    """Capture-avoiding simultaneous substitution, renaming a binder that
    would capture a free variable of a value wherever something is
    substituted in its scope."""
    match t:
        case Var(x, tag):
            v = m.get(x, t)
            return Var(v.name, tag) if getattr(v, "tag", None) is RENAMED else v
        case Abs(x, body, tag):
            live = {k: v for k, v in m.items() if k != x}
            if not live:
                return t
            incoming = set().union(*map(free_vars, live.values()))
            if x in incoming:
                x2 = fresh_name(x, incoming | free_vars(body) | set(live))
                body, x = ref_substitute(body, {x: Var(x2, RENAMED)}), x2
            return Abs(x, ref_substitute(body, live), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(ref_substitute(a, m) for a in args), tag)
        case Rec(v, body):
            incoming = set().union(*map(free_recvars, m.values()))
            if v in incoming:
                v2 = fresh_name(v, incoming | free_recvars(body))
                body, v = ref_subst_recvar(body, v, RecVar(v2)), v2
            return Rec(v, ref_substitute(body, m))
    return t


# ---------------------------------------------------------------------------
# random terms with binders, free variables, rec cycles and tags

def _tag(rng, share):
    return rng.randrange(5) if rng.random() < share else None


def _leaf(rng, scope, recs, share):
    r = rng.random()
    if r < 0.3 and recs:
        return RecVar(rng.choice(recs))
    if r < 0.7:
        return Var(rng.choice(scope + FREE), _tag(rng, share))
    return Sym("k", (), _tag(rng, share))


def small_term(rng, depth, width, share, scope=(), recs=()):
    """A term at most `depth` deep; every rec cycle passes through a c2."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return _leaf(rng, scope, recs, share)
    if r < 0.4:
        x = rng.choice(BINDERS)
        return Abs(x, small_term(rng, depth - 1, width, share, scope + (x,), recs),
                   _tag(rng, share))
    if r < 0.55:
        v = rng.choice(RECS)
        inner = small_term(rng, depth - 1, width, share, scope, recs + (v,))
        return Rec(v, Sym("c2", (inner, RecVar(v)), _tag(rng, share)))
    n = rng.randint(0, width)
    return Sym(WIDE.get(n, "w"), tuple(
        small_term(rng, depth - 1, width, share, scope, recs) for _ in range(n)),
        _tag(rng, share))


def deep_term(rng, depth, width, share):
    """A term `depth` levels deep along one spine with small side
    arguments, built bottom-up without recursion."""
    levels, scope, recs = [], (), ()
    for _ in range(depth):
        r = rng.random()
        if r < 0.1:
            levels.append(("abs", rng.choice(BINDERS)))
            scope += (levels[-1][1],)
        elif r < 0.15:
            levels.append(("rec", rng.choice(RECS)))
            recs += (levels[-1][1],)
        else:
            n = rng.randint(1, width)
            side = [small_term(rng, 1, 2, share, scope, recs) for _ in range(n - 1)]
            levels.append(("sym", rng.randrange(n), side))
    t = _leaf(rng, scope, recs, share)
    for kind, a, *rest in reversed(levels):
        if kind == "abs":
            t = Abs(a, t, _tag(rng, share))
        elif kind == "rec":
            t = Rec(a, Sym("c2", (t, RecVar(a))))
        else:
            args = rest[0][:a] + [t] + rest[0][a:]
            t = Sym(WIDE.get(len(args), "w"), tuple(args), _tag(rng, share))
    return t


VALUES = (Var("y"), Var("x"), Sym("c2", (Var("x1"), Var("z"))), Sym("k"),
          Abs("y", Sym("c2", (Var("y"), Var("x")))))


def substitution(rng):
    """Distinct variables and values whose free variables meet the binders."""
    xs = rng.sample(("x", "x1", "y", "z"), rng.randint(1, 3))
    return xs, [rng.choice(VALUES) for _ in xs]


shallow = st.builds(
    lambda seed, depth, width, share: small_term(random.Random(seed), depth, width, share),
    st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 4),
    st.sampled_from((0.0, 0.15, 0.4)))


@st.composite
def deep_or_wide(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from((0.0, 0.05, 0.3)))
    if draw(st.booleans()):
        return deep_term(rng, draw(st.integers(1500, 3000)), draw(st.integers(1, 3)), share)
    return deep_term(rng, draw(st.integers(1, 6)), draw(st.integers(10, 50)), share)


GATE = settings(max_examples=60, deadline=2000, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
DEEP = settings(max_examples=15, deadline=10_000, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


def rec_nodes(t):
    """The Rec nodes of the rational representation."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        if isinstance(u, Rec):
            out.append(u)
        todo.extend((u.body,) if isinstance(u, Rec) else (c for _, c in children(u)))
    return out


def same_up_to_renaming(got, want):
    """got and want are alpha-equal and carry the same tags at the same
    positions above depth 8: an occurrence of a renamed binder keeps its
    tag, and the reference only renames more binders, those under which
    nothing is substituted."""
    assert alpha_eq(got, want)
    assert set(iter_tagged(truncate(want, 8))[0]) == set(iter_tagged(truncate(got, 8))[0])


# ---------------------------------------------------------------------------
# the maps agree with the recursive walks on shallow terms

@GATE
@given(shallow)
def test_maps_agree_with_the_recursive_walks(t):
    assert strip_tags(t) is ref_strip_tags(t)
    for d in range(5):
        assert truncate(t, d) is ref_truncate(t, d)
    assert iter_tagged(t) == ref_iter_tagged(t)
    recs = rec_nodes(t)
    if recs:
        assert unfold(t) is ref_unfold(t)
        for r in recs:
            assert subst_recvar(r.body, r.var, r) is ref_subst_recvar(r.body, r.var, r)
    else:
        with pytest.raises(NotCycleRoot):
            unfold(t)
    assert subst_recvar(t, "R", Sym("k")) is ref_subst_recvar(t, "R", Sym("k"))


@GATE
@given(shallow, st.integers(0, 2**32 - 1))
def test_substitute_agrees_with_the_recursive_walk(t, seed):
    xs, ts = substitution(random.Random(seed))
    got, want = substitute(t, xs, ts), ref_substitute(t, dict(zip(xs, ts)))
    same_up_to_renaming(got, want)


def test_rebuild_maps_children_leftmost_first():
    seen = []

    def enter(u, depth):
        seen.append((print_term(u), depth))
        return (u, depth + 1) if depth < 2 else Sym("k")

    out = rebuild(parse_term("f(g(a), [x] x, rec S. h(S))"), enter, 0)
    assert out == parse_term("f(g(k), [x] k, rec S. k)")
    assert seen == [("f(g(a), [x] x, rec S. h(S))", 0), ("g(a)", 1), ("a", 2),
                    ("[x] x", 1), ("x", 2), ("rec S. h(S)", 1), ("h(S)", 2)]


# ---------------------------------------------------------------------------
# substitution returns what it cannot change

class TestSubstitutionContract:
    def test_a_node_with_no_substituted_variable_free_comes_back(self):
        rng = random.Random(5)
        kept = 0
        for _ in range(300):
            t = small_term(rng, rng.randint(0, 6), 3, 0.2)
            xs, ts = substitution(rng)
            todo = [t]
            while todo:
                u = todo.pop()
                todo.extend((u.body,) if isinstance(u, Rec)
                            else (c for _, c in children(u)))
                if free_vars(u).isdisjoint(xs):
                    assert substitute(u, xs, ts) is u
                    kept += 1
        assert kept >= 1000

    def test_seeded_terms_agree_with_the_recursive_walk(self):
        rng = random.Random(11)
        renamed = 0
        for _ in range(400):
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 4)
            if rng.random() < 0.5:
                t = small_term(rng, 5, 3, 0.3)
            xs, ts = substitution(rng)
            got, want = substitute(t, xs, ts), ref_substitute(t, dict(zip(xs, ts)))
            same_up_to_renaming(got, want)
            renamed += got is not want
        assert renamed >= 5

    def test_a_binder_with_nothing_substituted_below_keeps_its_name(self):
        inner = parse_term("abs([y] app(y, y))")
        assert substitute(inner, ("x",), (Var("y"),)) is inner
        assert print_term(ref_substitute(inner, {"x": Var("y")})) == "abs([y1] app(y1, y1))"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["normalize", str(CORPUS / "lambda_beta.crs"), "--term",
                         "abs([y] app(abs([x] abs([y] app(y, y))), y))",
                         "--depth", "5"])
        assert code == 0
        assert "approximant: abs([y] abs([y] app(y, y)))" in out.getvalue().splitlines()

    def test_a_binder_that_would_capture_is_renamed(self):
        t = Abs("y", Sym("app", (Var("x"), Var("y"))))
        assert substitute(t, ("x",), (Var("y"),)) == \
            Abs("y1", Sym("app", (Var("y"), Var("y1"))))
        cycle = Rec("X", Sym("g", (Var("y"), RecVar("X"))))
        assert substitute(cycle, ("y",), (RecVar("X"),)) == \
            Rec("X1", Sym("g", (RecVar("X"), RecVar("X1"))))


# ---------------------------------------------------------------------------
# deep and wide terms

@DEEP
@given(deep_or_wide(), st.integers(0, 2**32 - 1))
def test_no_map_recurses_on_deep_or_wide_terms(t, seed):
    assert not iter_tagged(strip_tags(t))[0]
    iter_tagged(t)
    recs = rec_nodes(t)
    if recs:
        truncate(t, 12)  # an unfolding's tree can grow exponentially with depth
        unfold(t)
        r = recs[-1]
        assert subst_recvar(r.body, r.var, r) is resolve(r)
    else:
        assert truncate(t, 4000) is t
    xs, ts = substitution(random.Random(seed))
    out = substitute(t, xs, ts)
    assert free_vars(out) <= (free_vars(t) - set(xs)).union(*map(free_vars, ts))


@pytest.fixture(scope="module")
def template_system(tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "templates.crs"
    path.write_text(genrand.CONSTRUCTORS + "\n" + "\n".join(
        src for _, src in genrand.RULE_TEMPLATES))
    return str(path)


@DEEP
@given(deep_or_wide(), st.sampled_from(("fair", "outermost-fair", "needed-fair")),
       st.integers(1, 20))
def test_cli_normalize_never_ends_in_a_traceback(template_system, t, strategy, fuel):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["normalize", template_system, "--term", print_term(strip_tags(t)),
                     "--strategy", strategy, "--fuel", str(fuel), "--emit", "all"])
    assert code in (0, 3, 4), err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
