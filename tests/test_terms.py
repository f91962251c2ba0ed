import pathlib
import pickle
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icrs import (
    Abs, Rec, RecVar, Sym, Var, alpha_eq, distance, graft, is_prefix_set,
    parse_system, parse_term, positions_to_depth, print_term, resolve,
    subterm_at, truncate, unfold,
)
from icrs.errors import NotCycleRoot, PositionError, TermError
from icrs.syntax import parse_metaterm
from icrs.terms import (
    MetaApp, check_guarded, children, free_vars, hole, iter_tagged,
    prefix_closure, set_tag_at, strip_tags,
)

import genrand


def T(text):
    return parse_term(text)


class TestPositions:
    def test_positions_of_binder_term(self):
        t = T("f([x] g(x), a)")
        assert positions_to_depth(t, 2) == {
            (): "f", (1,): "[x]", (1, 0): "g", (2,): "a"}

    def test_depth_zero_is_root_only(self):
        assert positions_to_depth(T("f([x] g(x), a)"), 0) == {(): "f"}

    def test_rational_positions_unfold(self):
        got = positions_to_depth(T("rec L. cons(a, L)"), 2)
        # the listed shallow entries of the twice-unrolled list
        assert got[()] == "cons" and got[(1,)] == "a" and got[(2,)] == "cons"
        assert all(len(p) <= 2 for p in got)

    def test_monotone_in_depth(self):
        t = T("f([x] g(x), rec L. cons(a, L))")
        for d in range(4):
            assert set(positions_to_depth(t, d)) <= set(positions_to_depth(t, d + 1))


class TestSubterm:
    def test_direct_descent(self):
        assert print_term(subterm_at(T("f([x] g(x), a)"), (1, 0))) == "g(x)"

    def test_root_is_identity(self):
        t = T("f(a, b)")
        assert subterm_at(t, ()) is t

    def test_cycle_unrolls_to_itself(self):
        t = T("rec L. cons(a, L)")
        assert alpha_eq(subterm_at(t, (2,)), t)

    def test_out_of_range(self):
        with pytest.raises(PositionError):
            subterm_at(T("f(a)"), (2,))


class TestGraft:
    def test_capture_is_wanted(self):
        # grafting x under [x] binds it: contexts use fixed representatives
        out = graft(T("[x] a"), (0,), Var("x"))
        assert print_term(out) == "[x] x"
        assert not free_vars(out)

    def test_root_graft(self):
        assert print_term(graft(T("f(a)"), (), T("b"))) == "b"

    def test_argument_graft(self):
        assert print_term(graft(T("f(a, b)"), (2,), T("c"))) == "f(a, c)"

    def test_graft_roundtrip_restores(self):
        t = T("f([x] g(x), a)")
        s = subterm_at(t, (1, 0))
        assert alpha_eq(graft(graft(t, (1, 0), T("h(b)")), (1, 0), s), t)


class TestAlphaEq:
    def test_renamed_binders(self):
        assert alpha_eq(T("[x] f(x)"), T("[y] f(y)"))

    def test_reflexive(self):
        t = T("f([x] g(x), a)")
        assert alpha_eq(t, t)

    def test_cycle_vs_unrolling(self):
        t = T("rec L. cons(a, L)")
        assert alpha_eq(t, T("cons(a, rec L. cons(a, L))"))

    def test_unfold_twice_still_equal(self):
        t = T("rec G. g(G)")
        assert alpha_eq(unfold(unfold(t)), t)

    def test_free_variables_by_name(self):
        assert not alpha_eq(T("[x] f(y)"), T("[x] f(z)"))

    def test_shadowing(self):
        assert alpha_eq(T("[x] [x] f(x)"), T("[u] [v] f(v)"))
        assert not alpha_eq(T("[x] [x] f(x)"), T("[u] [v] f(u)"))

    def test_rec_binding_through_abstraction(self):
        a = T("rec G. [x] g(x, G)")
        b = T("[y] g(y, rec G. [x] g(x, G))")
        assert alpha_eq(a, b)


class TestDistance:
    def test_meta_term_example(self):
        a = parse_metaterm("[x] Z(x, f(x))")
        b = parse_metaterm("[y] Z(y, f(z))")
        assert distance(a, b) == Fraction(1, 8)

    def test_equal_terms(self):
        t = T("f(a, b)")
        assert distance(t, t) == 0

    def test_first_difference_at_depth_one(self):
        assert distance(T("f(a, b)"), T("f(a, c)")) == Fraction(1, 2)

    def test_alpha_zero_iff(self):
        a, b = T("[x] f(x)"), T("[y] f(y)")
        assert distance(a, b) == 0 and alpha_eq(a, b)

    @given(st.integers(0, 5))
    def test_truncation_agreement_characterises_distance(self, d):
        t, u = T("g(g(g(g(g(a)))))"), T("g(g(g(g(g(b)))))")
        agrees = alpha_eq(truncate(t, d), truncate(u, d))
        assert agrees == (distance(t, u) <= Fraction(1, 2 ** d))

    def test_ultrametric_samples(self):
        terms = [T(s) for s in
                 ("a", "f(a)", "f(b)", "f(f(a))", "rec G. f(G)", "[x] f(x)")]
        for t in terms:
            for u in terms:
                for v in terms:
                    assert distance(t, u) <= max(distance(t, v), distance(v, u))


class TestTruncate:
    def test_unroll_three_levels(self):
        assert print_term(truncate(T("rec G. g(G)"), 3)) == "g(g(g(_|_)))"

    def test_depth_zero(self):
        assert truncate(T("f(a)"), 0) == hole()

    def test_finite_term_unchanged(self):
        t = T("f(a, b)")
        assert truncate(t, 5) == t


class TestPrefixSets:
    def test_listed_example(self):
        assert is_prefix_set({(), (1,), (1, 1)}, T("g(g(g(a)))"))

    def test_empty(self):
        assert is_prefix_set(set(), T("f(a)"))

    def test_missing_root(self):
        assert not is_prefix_set({(1,)}, T("f(a)"))

    def test_positions_must_exist(self):
        assert not is_prefix_set({(), (2,)}, T("f(a)"))

    def test_closure_helper(self):
        assert prefix_closure([(1, 1)]) == {(), (1,), (1, 1)}


def has_position(t, p):
    try:
        subterm_at(t, p)
        return True
    except PositionError:
        return False


def old_is_prefix_set(positions, t):
    """The former is_prefix_set: every position walked from the root."""
    ps = set(map(tuple, positions))
    for p in ps:
        if p and p[:-1] not in ps:
            return False
        if not has_position(t, p):
            return False
    return True


class TestPrefixSetAgreement:
    def test_agrees_with_root_walks_on_random_terms(self):
        rng = random.Random(31)
        verdicts = {True: 0, False: 0}
        cyclic = 0
        for _ in range(150):
            t = genrand.random_term(rng, genrand.random_system(rng), 4)
            cyclic += "rec" in print_term(t)
            known = sorted(positions_to_depth(t, 4))
            closed = genrand.random_prefix_set(rng, t, max_depth=4)
            candidates = [
                closed,
                closed - {()},  # root missing
                {p for p in closed if len(p) != 1},  # parents missing deeper
                {p for p in known if rng.random() < 0.5},
                closed | {(9,), (1, 9)},  # not positions of the term
                closed | {p + (7,) for p in known},
                set(),
            ]
            for ps in candidates:
                expected = old_is_prefix_set(ps, t)
                assert is_prefix_set(ps, t) == expected, (print_term(t), ps)
                verdicts[expected] += 1
        assert cyclic >= 20
        assert min(verdicts.values()) >= 150


CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"


def corpus_terms():
    """Rule sides of every corpus system, the fixpoint term and the
    benchmark's normalize inputs."""
    out = []
    for f in sorted(CORPUS.glob("*.crs")):
        for r in parse_system(f.read_text()).rules:
            out += [r.lhs, r.rhs]
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    out.append(parse_term(" ".join(
        ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#"))))
    out += [T("f(a, c)"), T("f(a)"), T("map([z] s(z), rec L. cons(zero, L))")]
    return out


def node_sample():
    """Every node of the corpus terms and of seeded random terms (cyclic
    ones included), with the resolved unrollings of their rec binders."""
    rng = random.Random(17)
    roots = corpus_terms()
    for _ in range(120):
        roots.append(genrand.random_term(rng, genrand.random_system(rng), 4))
    return [u for t in reversed(roots) for u in structural_nodes(t)]


def structural_nodes(t):
    """Every node of the rational representation, depth first, and after
    each rec binder its resolved unrolling."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        out.append(u)
        if isinstance(u, Rec):
            out.append(resolve(u))
            stack.append(u.body)
        else:
            stack.extend(c for _, c in children(u))
    return out


def dataclass_hash(t):
    """The hash a plain frozen dataclass computes: its compare fields' tuple."""
    return hash(tuple(getattr(t, f.name) for f in fields(t) if f.compare))


class TestNodes:
    @pytest.fixture(scope="class")
    def nodes(self):
        out = node_sample()
        kinds = {type(t) for t in out}
        assert kinds == {Var, Abs, Sym, MetaApp, Rec, RecVar}
        return out

    def test_hash_is_the_dataclass_hash(self, nodes):
        for t in nodes:
            assert hash(t) == dataclass_hash(t)

    def test_nodes_have_no_dict(self, nodes):
        for t in nodes:
            assert not hasattr(t, "__dict__")

    def test_replaced_tag_rehashes(self, nodes):
        for t in nodes:
            if isinstance(t, (Var, Abs, Sym)):
                tagged = replace(t, tag=("d", 3))
                assert hash(tagged) == dataclass_hash(tagged)
                assert tagged != t and tagged.tag == ("d", 3)
                assert replace(tagged, tag=None) == t
                assert hash(replace(tagged, tag=None)) == hash(t)

    def test_positional_patterns_bind_the_fields(self, nodes):
        for t in nodes:
            match t:
                case Var(x, tag):
                    assert (x, tag) == (t.name, t.tag)
                case Abs(x, body, tag):
                    assert (x, body, tag) == (t.var, t.body, t.tag)
                case Sym(f, args, tag):
                    assert (f, args, tag) == (t.fun, t.args, t.tag)
                case MetaApp(z, args):
                    assert (z, args) == (t.mv, t.args)
                case Rec(v, body):
                    assert (v, body) == (t.var, t.body)
                case RecVar(n):
                    assert n == t.name
                case _:
                    pytest.fail(f"unmatched node {t!r}")

    def test_equality_is_structural_and_copies_rehash(self, nodes):
        for t in nodes[:200]:
            twin = pickle.loads(pickle.dumps(t))
            assert twin == t and hash(twin) == hash(t) and twin is not t


class TestRecDiscipline:
    def test_unfold_non_cycle_raises(self):
        with pytest.raises(NotCycleRoot):
            unfold(T("f(a)"))

    def test_unguarded_cycle_rejected(self):
        with pytest.raises(TermError):
            check_guarded(Rec("X", RecVar("X")))
        with pytest.raises(TermError):
            check_guarded(Rec("X", Rec("Y", RecVar("X"))))

    def test_guard_through_abstraction_ok(self):
        check_guarded(Rec("G", Abs("x", Sym("g", (Var("x"), RecVar("G"))))))


def rebuilt(t):
    """The former strip_tags: rebuilds every node, tagged or not."""
    match t:
        case Var(x, tag):
            return Var(x) if tag is not None else t
        case Abs(x, body, tag):
            return Abs(x, rebuilt(body))
        case Sym(f, args, tag):
            return Sym(f, tuple(rebuilt(a) for a in args))
        case MetaApp(z, args):
            return MetaApp(z, tuple(rebuilt(a) for a in args))
        case Rec(v, body):
            return Rec(v, rebuilt(body))
        case _:
            return t


class TestStripTags:
    def test_untagged_term_comes_back_as_is(self):
        rng = random.Random(7)
        for _ in range(100):
            t = genrand.random_term(rng, genrand.random_system(rng), 4)
            assert strip_tags(t) is t

    def test_tagged_terms_strip_as_the_rebuild_did(self):
        rng = random.Random(8)
        tagged = 0
        for _ in range(200):
            t = genrand.random_term(rng, genrand.random_system(rng), 4)
            for i, p in enumerate(sorted(positions_to_depth(t, 3))):
                if rng.random() < 0.3:
                    t = set_tag_at(t, p, ("d", i))
            stripped = strip_tags(t)
            assert stripped == rebuilt(t)
            assert iter_tagged(stripped)[0] == []
            tagged += stripped != t
        assert tagged >= 100

    def test_untagged_siblings_are_shared(self):
        untagged = T("g(a, [x] h(x))")
        t = Sym("f", (Sym("a", (), tag=1), untagged))
        stripped = strip_tags(t)
        assert stripped == T("f(a, g(a, [x] h(x)))")
        assert stripped.args[1] is untagged


def tagged_by_definition(t):
    """Does a tag occur at or below the node, read off its structure."""
    match t:
        case Var(_, tag):
            return tag is not None
        case Abs(_, body, tag):
            return tag is not None or tagged_by_definition(body)
        case Sym(_, args, tag):
            return tag is not None or any(map(tagged_by_definition, args))
        case MetaApp(_, args):
            return any(map(tagged_by_definition, args))
        case Rec(_, body):
            return tagged_by_definition(body)
        case _:
            return False


def memo_iter_tagged(t):
    """The former iter_tagged: prunes on a per-call id(node) -> has-tags
    memo instead of the node's summary slot."""
    out = []
    complete = True
    on_path = set()
    tagged = {}

    def has_tags(u):
        hit = tagged.get(id(u))
        if hit is None:
            match u:
                case Var(_, tag) | Abs(_, _, tag) | Sym(_, _, tag) if tag is not None:
                    found = True
                case Abs(_, body, _) | Rec(_, body):
                    found = has_tags(body)
                case Sym(_, args, _) | MetaApp(_, args):
                    found = any(has_tags(a) for a in args)
                case _:
                    found = False
            hit = tagged[id(u)] = (u, found)
        return hit[1]

    def walk(u, p):
        nonlocal complete
        r = resolve(u)
        if not has_tags(r):
            return
        if isinstance(u, Rec):
            if id(u) in on_path:
                complete = False
                return
            on_path.add(id(u))
        tag = getattr(r, "tag", None)
        if tag is not None:
            out.append((p, tag))
        for i, c in children(r):
            walk(c, p + (i,))
        if isinstance(u, Rec):
            on_path.remove(id(u))

    walk(t, ())
    return out, complete


def tag_structurally(t, rng, share):
    """Tag about `share` of the Var/Abs/Sym nodes of the rational
    representation, rec bodies included, so that tags land inside cycles."""
    def go(u):
        tag = ("s", rng.randrange(1000)) if rng.random() < share else None
        match u:
            case Var(x, old):
                return Var(x, tag or old)
            case Abs(x, body, old):
                return Abs(x, go(body), tag or old)
            case Sym(f, args, old):
                return Sym(f, tuple(map(go, args)), tag or old)
            case MetaApp(z, args):
                return MetaApp(z, tuple(map(go, args)))
            case Rec(v, body):
                return Rec(v, go(body))
            case _:
                return u

    return go(t)


class TestTagSummary:
    @pytest.fixture(scope="class")
    def samples(self):
        """Seeded random terms (cyclic ones included) and corpus rule sides,
        untagged, tagged by set_tag_at, tagged inside their cycles, and
        both."""
        rng = random.Random(23)
        out = []
        roots = corpus_terms() + [
            genrand.random_term(rng, genrand.random_system(rng), 4)
            for _ in range(150)]
        for t in roots:
            out.append(t)
            by_position = t
            for i, p in enumerate(sorted(positions_to_depth(t, 4))):
                if rng.random() < 0.2:
                    try:
                        by_position = set_tag_at(by_position, p, ("p", i))
                    except TermError:  # a meta-variable node
                        pass
            out += [by_position, tag_structurally(t, rng, 0.15),
                    tag_structurally(by_position, rng, 0.1)]
        return out

    def test_samples_cover_the_cases(self, samples):
        incomplete = sum(not memo_iter_tagged(t)[1] for t in samples)
        tagged = sum(tagged_by_definition(t) for t in samples)
        assert incomplete >= 25
        assert 100 <= tagged <= len(samples) - 100

    def test_slot_is_the_recursive_definition(self, samples):
        for t in samples:
            for u in structural_nodes(t):
                assert u._tagged == tagged_by_definition(u), u

    def test_iter_tagged_agrees_with_the_memo_walk(self, samples):
        for t in samples:
            assert iter_tagged(t) == memo_iter_tagged(t), print_term(strip_tags(t))

    def test_replace_and_pickle_recompute_the_slot(self, samples):
        for t in samples[:200]:
            for u in structural_nodes(t):
                twin = pickle.loads(pickle.dumps(u))
                assert twin._tagged == tagged_by_definition(twin) == u._tagged
                if isinstance(u, (Var, Abs, Sym)):
                    assert replace(u, tag=("r", 0))._tagged
                    cleared = replace(u, tag=None)
                    assert cleared._tagged == tagged_by_definition(cleared)
                elif isinstance(u, Rec):
                    assert not replace(u, body=strip_tags(u.body))._tagged

    def test_strip_tags_returns_untagged_input_itself(self, samples):
        for t in samples:
            stripped = strip_tags(t)
            assert stripped == rebuilt(t) and not stripped._tagged
            for u in structural_nodes(t):
                if not tagged_by_definition(u):
                    assert strip_tags(u) is u


@settings(max_examples=60)
@given(st.recursive(
    st.sampled_from([Var("x"), Sym("a", ()), Sym("b", ())]),
    lambda kids: st.one_of(
        st.tuples(kids).map(lambda k: Sym("f", k)),
        st.tuples(kids, kids).map(lambda k: Sym("p", k)),
        kids.map(lambda k: Abs("x", k)),
    ),
    max_leaves=8))
def test_truncations_converge(t):
    # deep enough truncation reproduces any finite term
    assert alpha_eq(truncate(t, 50), t)
