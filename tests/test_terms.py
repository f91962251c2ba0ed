import contextlib
import gc
import io
import pathlib
import pickle
import random
import weakref
from collections.abc import MutableMapping
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icrs import (
    Abs, Rec, RecVar, Sym, Var, alpha_eq, distance, graft, is_prefix_set,
    parse_system, parse_term, positions_to_depth, print_term, resolve,
    subterm_at, truncate, unfold,
)
from icrs.cli import main
from icrs.errors import NotCycleRoot, PositionError, TermError
from icrs.syntax import parse_metaterm
from icrs import rewriting, systems, terms
from icrs.terms import (
    MetaApp, Term, _env_restrict, _unroll, check_guarded, children, env_lookup,
    free_recvars, free_vars, hole, iter_tagged, meta_vars, path_nodes,
    prefix_closure, rebuild_path, set_tag_at, strip_tags, subst_recvar,
)

import genrand


def fields(t):
    """The names of a node's (or node class's) fields, in constructor
    order."""
    return t.__match_args__


def replace(t, **changes):
    """The node with the given fields changed, built through its class."""
    return type(t)(*(changes.get(n, getattr(t, n)) for n in fields(t)))


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

    def test_deep_term_does_not_overflow(self):
        t = Sym("a", ())
        for _ in range(3000):
            t = Sym("g", (t,))
        got = positions_to_depth(t, 3000)
        assert len(got) == 3001
        assert got[(1,) * 3000] == "a" and got[(1,) * 2999] == "g"

    def test_agrees_with_recursive_walk_on_random_terms(self):
        def recursive(t, d):
            out = {}

            def walk(u, p):
                u = resolve(u)
                out[p] = terms.root_label(u)
                if len(p) < d:
                    for i, c in children(u):
                        walk(c, p + (i,))

            walk(t, ())
            return out

        rng = random.Random(12)
        for _ in range(150):
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, rng.randint(1, 5))
            for d in (0, 1, 3, 6):
                # the same entries in the same (pre-)order
                assert (list(positions_to_depth(t, d).items())
                        == list(recursive(t, d).items()))


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

    def test_deep_term_does_not_recurse(self):
        t = Sym("a")
        for _ in range(3000):
            t = Sym("g", (t,))
        assert truncate(t, 3001) is t
        cut = truncate(t, 2999)
        for _ in range(2999):
            assert cut.fun == "g"
            cut, = cut.args
        assert cut is hole()

    def test_agrees_with_the_recursive_route(self):
        rng = random.Random(21)
        roots = corpus_terms() + [
            genrand.random_term(rng, genrand.random_system(rng), 4)
            for _ in range(150)]
        roots += [tag_structurally(t, rng, 0.2) for t in roots[:60]]
        assert any(isinstance(t, Rec) for t in roots)
        for t in roots:
            for d in range(7):
                assert truncate(t, d) is recursive_truncate(t, d)


def recursive_truncate(t, d):
    """The recursive route that the explicit stack replaced."""
    if d == 0:
        return hole()
    u = resolve(t)
    match u:
        case Abs(x, body, tag):
            return Abs(x, recursive_truncate(body, d - 1), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(recursive_truncate(a, d - 1) for a in args), tag)
        case MetaApp(z, args):
            return MetaApp(z, tuple(recursive_truncate(a, d - 1) for a in args))
        case _:
            return u


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


class TestNodes:
    @pytest.fixture(scope="class")
    def nodes(self):
        out = node_sample()
        kinds = {type(t) for t in out}
        assert kinds == {Var, Abs, Sym, MetaApp, Rec, RecVar}
        return out

    def test_hash_is_identity(self, nodes):
        # a node built again from its fields, or pickled, is the node itself
        # and hashes alike; distinct nodes are unequal
        for t in nodes:
            assert type(t).__hash__ is object.__hash__
            twin = type(t)(*(getattr(t, n) for n in fields(t)))
            assert twin is t and twin == t and hash(twin) == hash(t)
        for t in nodes[:200]:
            assert pickle.loads(pickle.dumps(t)) is t
        rng = random.Random(3)
        for _ in range(2000):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert (a == b) is (a is b)

    def test_nodes_have_no_dict(self, nodes):
        for t in nodes:
            assert not hasattr(t, "__dict__")

    def test_nodes_reject_assignment_and_show_their_fields(self, nodes):
        for t in nodes:
            for n in fields(t) + ("_tagged", "not_a_field"):
                before = getattr(t, n, None)
                with pytest.raises(AttributeError):
                    setattr(t, n, None)
                with pytest.raises(AttributeError):
                    delattr(t, n)
                assert getattr(t, n, None) is before
        assert repr(Sym("f", (Var("x"),))) == (
            "Sym(fun='f', args=(Var(name='x', tag=None),), tag=None)")
        assert repr(Rec("S", RecVar("S"))) == "Rec(var='S', body=RecVar(name='S'))"

    def test_replaced_tag_returns_the_node(self, nodes):
        for t in nodes:
            if isinstance(t, (Var, Abs, Sym)) and t.tag is None:
                tagged = replace(t, tag=("d", 3))
                assert tagged is not t and tagged != t and tagged.tag == ("d", 3)
                assert replace(tagged, tag=None) is t

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
        # nodes are interned: an unpickled copy is the original node
        for t in nodes[:200]:
            twin = pickle.loads(pickle.dumps(t))
            assert twin == t and hash(twin) == hash(t) and twin is t


def structurally_equal(a, b):
    """Equal node classes and fields, tags included, compared field by
    field down both trees (an explicit stack), never by identity."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        for n in fields(a):
            x, y = getattr(a, n), getattr(b, n)
            if isinstance(x, Term):
                todo.append((x, y))
            elif n == "args":
                if len(x) != len(y):
                    return False
                todo.extend(zip(x, y))
            elif type(x) is not type(y) or x != y:
                return False
    return True


def rebuilt_nodes(t, rng):
    """Nodes of t built again by other routes: printed and parsed, pickled,
    tag replaced and restored, rec binders unrolled by substitution, and
    paths rebuilt over the subterm already there or another term's."""
    out = [pickle.loads(pickle.dumps(t))]
    if free_recvars(t):  # a rec body: no positions below a dangling RecVar
        return out
    if not (t._tagged or meta_vars(t)):
        out.append(parse_term(print_term(t)))
    if isinstance(t, (Var, Abs, Sym)):
        out += [replace(t, tag=("i", 1)), replace(replace(t, tag=("i", 1)), tag=t.tag)]
    if isinstance(t, Rec):
        out += [_unroll(t), subst_recvar(t.body, t.var, t)]
    positions = sorted(positions_to_depth(t, 3))
    for p in rng.sample(positions, min(3, len(positions))):
        nodes = path_nodes(t, p)
        out += rebuild_path(nodes, p, nodes[-1])
        out.append(graft(t, p, Sym("a")))
    return out


class TestInterning:
    @pytest.fixture(scope="class")
    def pool(self):
        rng = random.Random(5)
        out = node_sample()
        for t in list(out):
            out += rebuilt_nodes(t, rng)
        return out

    def test_identity_is_structural_equality(self, pool):
        # equal nodes hash alike, so only nodes of one hash can be equal
        buckets = {}
        for t in pool:
            buckets.setdefault(hash(t), {})[id(t)] = t
        for group in buckets.values():
            distinct = list(group.values())
            for i, a in enumerate(distinct):
                for b in distinct[i + 1:]:
                    assert not structurally_equal(a, b), (a, b)
        # the routes rebuilt most nodes as the very objects they had
        assert len(pool) - sum(map(len, buckets.values())) >= len(pool) // 2
        rng = random.Random(6)
        for _ in range(2000):
            a, b = rng.choice(pool), rng.choice(pool)
            assert (a is b) == structurally_equal(a, b)

    def test_rebuilt_routes_give_the_node_itself(self, pool):
        rng = random.Random(7)
        for t in pool[:3000]:
            assert pickle.loads(pickle.dumps(t)) is t
            if isinstance(t, (Var, Abs, Sym)):
                assert replace(replace(t, tag=("i", 2)), tag=t.tag) is t
            if isinstance(t, Rec):
                assert _unroll(t) is subst_recvar(t.body, t.var, t) is resolve(t)
            if not isinstance(t, Rec) and not free_recvars(t):
                for p in sorted(positions_to_depth(t, 2)):
                    nodes = path_nodes(t, p)
                    if all(not isinstance(subterm_at(t, p[:k]), Rec)
                           for k in range(len(p) + 1)):
                        assert rebuild_path(nodes, p, nodes[-1])[0] is t
        assert all(parse_term(print_term(u)) is u
                   for u in map(T, ("f([x] g(x), a)", "rec L. cons(a, L)",
                                    "[x] [y] p(x, rec S. g(y, S))")))

    def test_parse_shares_equal_subterms(self):
        t = T("p(f([x] g(x)), f([x] g(x)))")
        assert t.args[0] is t.args[1]
        assert T("f([x] g(x))") is t.args[0]


def intern_table_size():
    return sum(len(cls._table) for cls in (Var, Abs, Sym, MetaApp, Rec, RecVar))


class TestBoundedMemory:
    def test_dropped_terms_leave_the_intern_table(self):
        gc.collect()
        before = intern_table_size()
        deep = Var("fresh-leaf")
        for i in range(5000):
            deep = Abs(f"y{i}", Sym("deep", (deep,), tag=i))
        wide = Sym("wide", tuple(Sym("w", (Var(f"v{i}"),)) for i in range(2500)))
        assert intern_table_size() >= before + 10_000
        assert Abs("y4999", Sym("deep", deep.body.args, tag=4999)) is deep
        del deep, wide
        gc.collect()
        assert intern_table_size() == before

    def test_table_entries_are_weak(self):
        for cls in (Var, Abs, Sym, MetaApp, Rec, RecVar):
            for key, entry in list(cls._table.items()):
                assert isinstance(entry, weakref.ref) and entry.key == key

    def test_node_slots_are_fields_summaries_and_memos(self):
        assert Term.__slots__ == ("_tagged", "_free", "_free_rec", "_has_vars",
                                  "_matches", "_unrolled", "__weakref__")
        for cls in (Var, Abs, Sym, MetaApp, Rec, RecVar):
            assert cls.__slots__ == fields(cls)

    def test_term_and_rewriting_layers_keep_no_cache(self):
        """Summaries and memos live on the nodes: the term, system and
        rewriting layers have no cache, and no module keeps a mutable
        container but the instantiation plans and the pattern shapes, held
        weakly by rule side.  A system's index of its own rules is built
        with the system, and its validity is a flag on it."""
        weak = set()
        for module in (terms, systems, rewriting):
            for name, value in vars(module).items():
                if not name.startswith("__"):
                    assert not isinstance(value, (dict, set, list)), name
                    assert not hasattr(value, "cache_info"), name
                    if isinstance(value, MutableMapping):
                        assert isinstance(value, weakref.WeakKeyDictionary)
                        weak.add((module.__name__, name))
        assert weak == {("icrs.rewriting", "_plans"), ("icrs.systems", "_metas")}

    def test_rounds_leave_the_intern_tables_flat(self):
        """Eight in-process rounds, each a seeded suite and a fair fixpoint
        normalisation, leave the tables at their size after the first."""
        fixpoint = " ".join(
            ln for ln in (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
            if ln.strip() and not ln.lstrip().startswith("#"))
        sizes = []
        for k in range(8):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["suite", "--seed", str(k), "--instances", "10"]) == 0
                assert main(["normalize", str(CORPUS / "lambda_beta.crs"),
                             "--term", fixpoint, "--depth", "16"]) == 0
            gc.collect()
            sizes.append(intern_table_size())
        assert sizes == sizes[:1] * 8

    def test_a_rec_whose_unrolling_nothing_holds_leaves_the_table(self):
        gc.collect()
        before = intern_table_size()
        r = Rec("X", Sym("leaves", (Var("leaf-var"), RecVar("X"))))
        u = resolve(r)
        assert _unroll(r) is u and r._unrolled() is u
        del u
        # no cycle ties the unrolling to the binder: it is gone at once
        assert r._unrolled() is None
        assert resolve(r).args[1] is r
        del r
        assert intern_table_size() == before

    def test_a_memo_holding_an_ancestor_does_not_keep_it(self):
        """On a cycle the match at h(S) binds Z to the unrolling f(h(S)),
        whose table key holds h(S): the memo keeps the valuation weakly, so
        both leave the table once the term and its redexes are dropped."""
        system = parse_system("sym f/1 ; sym k/1 ;\nrule r: h(Z) -> k(Z) ;")
        gc.collect()
        before = intern_table_size()
        t = T("rec S. f(h(S))")
        redexes = rewriting.find_redexes(t, system, 4)
        assert [u.position for u in redexes] == [(1,), (1, 1, 1)]
        assert redexes[0].valuation["Z"].body is resolve(t)
        del t, redexes
        gc.collect()
        assert intern_table_size() == before


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


def free_by_definition(t):
    """The free variables and free rec variables of the node, and whether
    a variable node occurs in it, read off its structure."""
    match t:
        case Var(x, _):
            return {x}, set(), True
        case RecVar(n):
            return set(), {n}, False
        case Abs(x, body, _):
            free, rec, has = free_by_definition(body)
            return free - {x}, rec, has
        case Rec(v, body):
            free, rec, has = free_by_definition(body)
            return free, rec - {v}, has
        case Sym(_, args, _) | MetaApp(_, args):
            parts = [free_by_definition(a) for a in args]
            return (set().union(*(f for f, _, _ in parts)),
                    set().union(*(r for _, r, _ in parts)),
                    any(h for _, _, h in parts))


def meta_vars_by_definition(t):
    match t:
        case MetaApp(z, args):
            return {z}.union(*map(meta_vars_by_definition, args))
        case Abs(_, body) | Rec(_, body):
            return meta_vars_by_definition(body)
        case Sym(_, args):
            return set().union(*map(meta_vars_by_definition, args))
    return set()


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

    def test_summary_slots_are_the_recursive_definitions(self, samples):
        empty = free_vars(T("a"))
        meta = 0
        for t in samples:
            for u in structural_nodes(t):
                free, rec, has = free_by_definition(u)
                assert (free_vars(u), free_recvars(u), terms.has_vars(u)) == (
                    free, rec, has), u
                assert meta_vars(u) == meta_vars_by_definition(u)
                meta += bool(meta_vars(u))
                # closed nodes share one empty set; a binder not free shares
                # its body's set
                if not free:
                    assert free_vars(u) is empty
                if not rec:
                    assert free_recvars(u) is empty
                if isinstance(u, Abs) and u.var not in free_vars(u.body):
                    assert free_vars(u) is free_vars(u.body)
                if isinstance(u, Rec) and u.var not in free_recvars(u.body):
                    assert free_recvars(u) is free_recvars(u.body)
        assert meta >= 50

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


def tagged_positions(t, depth, cap=20_000):
    """(position, tag) of every tagged node at most `depth` deep, by walking
    the unfolding (None past `cap` visited nodes)."""
    out, todo, seen = set(), [((), t)], 0
    while todo:
        p, u = todo.pop()
        seen += 1
        if seen > cap:
            return None
        u = resolve(u)
        if getattr(u, "tag", None) is not None:
            out.add((p, u.tag))
        if len(p) < depth:
            todo.extend((p + (i,), c) for i, c in children(u))
    return out


def assert_iter_tagged_bounded(t):
    """iter_tagged against the tagged positions of the unfolding.  D bounds
    the depth of a shortest occurrence of each tag; past it, tags occur at
    every depth window of D if and only if there are infinitely many.
    Returns whether the check ran within the visit cap."""
    d = 2 * len(structural_nodes(t)) + 2
    within, twice = tagged_positions(t, d), tagged_positions(t, 2 * d)
    if twice is None:
        return False
    pairs, complete = iter_tagged(t)
    assert len(set(pairs)) == len(pairs)
    assert complete == (within == twice)
    if complete:
        assert set(pairs) == twice
    else:
        assert set(pairs) <= twice
        assert {tag for _, tag in pairs} == {tag for _, tag in twice}
    return True


class TestIterTaggedUnderInterning:
    a1 = Sym("a", (), tag=1)
    cycle = Rec("X", Sym("f", (a1, RecVar("X"))))

    def test_equal_cycles_in_sibling_positions(self):
        t = Sym("p", (self.cycle, Rec("X", Sym("f", (self.a1, RecVar("X"))))))
        assert t.args[0] is t.args[1]
        assert iter_tagged(t) == ([((1, 1), 1), ((2, 1), 1)], False)
        assert assert_iter_tagged_bounded(t)
        beside = Sym("p", (self.cycle, resolve(self.cycle)))
        assert iter_tagged(beside) == ([((1, 1), 1), ((2, 1), 1), ((2, 2, 1), 1)],
                                       False)
        assert assert_iter_tagged_bounded(beside)

    def test_equal_cycle_nested_below_itself(self):
        # the outer binder's unrolling is the inner cycle's, the same object
        outer = Rec("X", resolve(self.cycle))
        assert resolve(outer) is resolve(self.cycle)
        assert iter_tagged(outer) == ([((1,), 1), ((2, 1), 1)], False)
        # a cycle whose unrolling is the term it sits in
        loop = Rec("Y", Sym("g", (self.cycle, RecVar("Y"))))
        t = Sym("g", (self.cycle, loop))
        assert resolve(loop) is t
        assert iter_tagged(t) == ([((1, 1), 1), ((2, 1, 1), 1)], False)
        for u in (outer, loop, t):
            assert assert_iter_tagged_bounded(u)

    def test_agrees_with_bounded_enumeration(self):
        rng = random.Random(29)
        checked = incomplete = 0
        roots = corpus_terms() + [
            genrand.random_term(rng, genrand.random_system(rng), 4)
            for _ in range(150)]
        for t in roots:
            for u in (tag_structurally(t, rng, 0.15),
                      tag_structurally(strip_tags(t), rng, 0.05)):
                if assert_iter_tagged_bounded(u):
                    checked += 1
                    incomplete += not iter_tagged(u)[1]
        assert checked >= 300 and incomplete >= 40


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


# ---------------------------------------------------------------------------
# the former comparisons, each its own recursion: the reference route for
# the one breadth-first walk (terms.mismatch_depth)

def old_alpha_eq(t, u):
    if t is u:
        return True
    assumed = set()

    def go(a, b, env):
        a, b = resolve(a), resolve(b)
        env = _env_restrict(env, free_vars(a), free_vars(b))
        key = (a, b, env)
        if key in assumed:
            return True
        assumed.add(key)
        match a, b:
            case Var(x, _), Var(y, _):
                return env_lookup(env, x, y)
            case Abs(x, s, _), Abs(y, v, _):
                return go(s, v, env + ((x, y),))
            case Sym(f, xs, _), Sym(g, ys, _):
                return (
                    f == g
                    and len(xs) == len(ys)
                    and all(go(p, q, env) for p, q in zip(xs, ys))
                )
            case MetaApp(z, xs), MetaApp(w, ys):
                return (
                    z == w
                    and len(xs) == len(ys)
                    and all(go(p, q, env) for p, q in zip(xs, ys))
                )
            case _:
                return False

    return go(t, u, ())


def old_distance(t, u):
    """The truncation loop: the first depth whose truncations differ."""
    if old_alpha_eq(t, u):
        return Fraction(0)
    k = 0
    while old_alpha_eq(truncate(t, k + 1), truncate(u, k + 1)):
        k += 1
    return Fraction(1, 2 ** k)


@pytest.fixture(scope="module")
def comparison_pairs():
    """Sampled closed nodes, each beside itself, another node, itself with
    a constant or a user hole grafted in, and a truncation of itself."""
    rng = random.Random(23)
    closed = [t for t in node_sample() if not free_recvars(t)]
    pairs = []
    for t in rng.sample(closed, 400):
        p = rng.choice(sorted(positions_to_depth(t, 3)))
        pairs += [(t, t), (t, rng.choice(closed)), (t, graft(t, p, Sym("a"))),
                  (t, graft(t, p, hole())), (t, truncate(t, rng.randint(1, 4)))]
    return pairs


class TestOneComparisonWalk:
    def test_alpha_eq_and_distance_agree_with_the_former_loops(self, comparison_pairs):
        depths = set()
        for t, u in comparison_pairs:
            assert alpha_eq(t, u) == old_alpha_eq(t, u), (t, u)
            d = distance(t, u)
            assert d == old_distance(t, u), (t, u)
            depths.add(d)
        assert {Fraction(0), Fraction(1), Fraction(1, 8)} <= depths

    def test_holes_are_plain_symbols_by_default(self):
        snapshot = T("f(a, _|_)")
        assert alpha_eq(snapshot, T("f(a, _|_)"))
        assert not alpha_eq(snapshot, T("f(a, b)"))
        assert distance(snapshot, T("f(a, b)")) == Fraction(1, 2)
