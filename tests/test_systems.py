import gc
import itertools
import pathlib
import random

import pytest

from icrs import (
    RewriteSystem, alpha_eq, check_fully_extended, check_left_linear,
    check_orthogonal, check_pattern, check_rule, check_system, match,
    parse_system, parse_term,
)
from icrs import systems
from icrs.errors import ParseError, PreconditionViolated
from icrs.syntax import parse_metaterm
from icrs.systems import (
    Rule, Verdict, _overlap_instance, _rename_metavars, _Unifier, pattern_meta,
)
from icrs.terms import Abs, MetaApp, Rec, RecVar, Sym, Var, subterm_at

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"


class TestPattern:
    def test_fully_extended_pattern_passes(self):
        assert check_pattern(parse_metaterm("f(g([x] Z(x)))")).ok

    def test_non_variable_argument(self):
        v = check_pattern(parse_metaterm("f(Z(a))"))
        assert not v.ok and "non-variable" in v.detail

    def test_non_distinct_arguments(self):
        assert not check_pattern(parse_metaterm("f([x] [y] Z(x, x))")).ok


class TestRule:
    def test_valid_rule(self):
        r = Rule("r", parse_metaterm("f([x] Z(x), Z')"), parse_metaterm("Z(Z')"))
        assert check_rule(r).ok

    def test_metavariable_cycle_rejected(self):
        r = Rule("w", parse_metaterm("f(Z)"), parse_metaterm("rec W. Z(W)"))
        v = check_rule(r)
        assert not v.ok and "chain" in v.detail

    def test_cycle_through_abstraction_ok(self):
        r = Rule("w", parse_metaterm("f([x] [y] Z(x, y))"),
                 parse_metaterm("rec W. [x] Z(x, W)"))
        assert check_rule(r).ok

    def test_cycle_through_symbol_ok(self):
        r = Rule("w", parse_metaterm("f([x] Z(x))"), parse_metaterm("rec W. c(Z(W))"))
        assert check_rule(r).ok

    def test_rhs_metavars_must_occur_left(self):
        r = Rule("w", parse_metaterm("f(Z)"), parse_metaterm("g(W)"))
        assert not check_rule(r).ok

    def test_open_sides_rejected(self):
        r = Rule("w", parse_metaterm("f([x] Z(x))"), parse_metaterm("[y] Z(y)"))
        assert check_rule(r).ok
        # a genuinely free variable must be caught at rule level
        from icrs.terms import Sym, Var

        r2 = Rule("w2", Sym("f", (Var("x"),)), Sym("k", ()))
        assert not check_rule(r2).ok

    def test_lhs_must_be_finite(self):
        r = Rule("w", parse_metaterm("rec R. f(Z, R)"), parse_metaterm("Z"))
        assert not check_rule(r).ok

    def test_hash_is_taken_once_and_is_the_fields_hash(self):
        """The digest taken when a rule is built is the hash of its fields;
        equality still reads the fields, and no field can be assigned."""
        rules = [r for path in sorted(CORPUS.glob("*.crs"))
                 for r in parse_system(path.read_text()).rules]
        assert len(rules) >= 10
        for r in rules:
            assert hash(r) == hash((r.name, r.lhs, r.rhs))
            twin = Rule(r.name, r.lhs, r.rhs)
            assert twin == r and hash(twin) == hash(r)
            assert Rule(r.name + "'", r.lhs, r.rhs) != r
            with pytest.raises(AttributeError):
                r.name = "other"
            with pytest.raises(AttributeError):
                r.digest = 0


class TestLeftLinear:
    def test_map_system(self, map_system):
        assert check_left_linear(map_system).ok

    def test_duplicate_metavariable(self):
        system = parse_system("rule eq: eq(Z, Z) -> true ;")
        v = check_left_linear(system)
        assert not v.ok and "eq" in v.detail

    def test_empty_system(self):
        assert check_left_linear(RewriteSystem((), ())).ok


class TestFullyExtended:
    def test_passing_rule(self):
        system = parse_system("rule r: f(g([x] Z(x))) -> h([x] Z(x)) ;")
        assert check_fully_extended(system).ok

    def test_missing_scope_variable(self):
        system = parse_system("rule r: g([x] f(Z(x), Z')) -> Z' ;")
        v = check_fully_extended(system)
        assert not v.ok and "Z'" in v.detail

    def test_first_order_vacuous(self, spine_system):
        assert check_fully_extended(spine_system).ok


class TestOrthogonal:
    def test_map_system(self, map_system):
        assert check_orthogonal(map_system).ok

    def test_nested_overlap_found(self):
        system = parse_system("rule r1: f(g(Z)) -> a ; rule r2: g(b) -> c ;")
        v = check_orthogonal(system)
        assert not v.ok
        assert v.witness.position == (1,)

    def test_single_rule_constant(self):
        system = parse_system("rule r: a -> b ;")
        assert check_orthogonal(system).ok

    def test_self_overlap_below_root(self):
        system = parse_system("rule r: f(f(Z)) -> Z ;")
        assert not check_orthogonal(system).ok

    def test_root_overlap_of_distinct_rules(self):
        system = parse_system("rule r1: f(a) -> a ; rule r2: f(Z) -> b ;")
        assert not check_orthogonal(system).ok

    def test_requires_left_linear(self):
        system = parse_system("rule eq: eq(Z, Z) -> true ;")
        with pytest.raises(PreconditionViolated):
            check_orthogonal(system)

    @pytest.mark.parametrize("lhs", ["f(Z(a))", "f(Z(rec X. g(X)))"])
    def test_requires_patterns(self, lhs):
        system = parse_system(f"rule r: {lhs} -> a ; rule q: g(Z) -> Z ;")
        with pytest.raises(PreconditionViolated):
            check_orthogonal(system)

    def test_higher_order_projection_overlap(self):
        # the bound variable can be projected away, exposing the inner redex
        system = parse_system(
            "rule r1: f([x] Z(x)) -> Z(k) ; rule r2: f([x] g(Z(x))) -> k ;")
        assert not check_orthogonal(system).ok

    def test_verdict_invariant_under_rule_permutation(self):
        texts = [
            "rule r1: f(g(Z)) -> a ; rule r2: g(b) -> c ; rule r3: h(Z) -> Z ;",
            "rule r1: f(Z) -> a ; rule r2: g(b) -> c ; rule r3: h(Z) -> Z ;",
        ]
        for text in texts:
            base = parse_system(text)
            verdict = check_orthogonal(base).ok
            for perm in itertools.permutations(base.rules):
                system = RewriteSystem(tuple(perm), base.signature)
                assert check_orthogonal(system).ok == verdict

    def test_witness_is_replayable(self):
        system = parse_system("rule r1: f(g(Z)) -> a ; rule r2: g(b) -> c ;")
        v = check_orthogonal(system)
        w = v.witness
        assert w.instance is not None
        outer = system.rule(w.rule_outer)
        inner_name = w.rule_inner.removesuffix("#2") if w.rule_inner.endswith("#2") else w.rule_inner
        inner = system.rule(inner_name)
        assert match(outer, w.instance, ()) is not None
        assert match(inner, w.instance, w.position) is not None


def _nonmeta_positions(l):
    """The former non-meta position walk of check_orthogonal."""
    out = []

    def walk(t, p):
        match t:
            case MetaApp(_, _):
                return
            case Abs(_, body, _):
                out.append(p)
                walk(body, p + (0,))
            case Sym(_, args, _):
                out.append(p)
                for i, a in enumerate(args):
                    walk(a, p + (i + 1,))
            case _:
                out.append(p)

    walk(l, ())
    return out


def triple_loop_orthogonal(system):
    """The former check_orthogonal: renames the inner rule per pair and
    unifies at every non-meta position."""
    for i, r1 in enumerate(system.rules):
        for j, r2 in enumerate(system.rules):
            inner = Rule(r2.name, _rename_metavars(r2.lhs, "#2"),
                         _rename_metavars(r2.rhs, "#2"))
            for p in _nonmeta_positions(r1.lhs):
                if i == j and p == ():
                    continue
                uni = systems._Unifier()
                if uni.unify(subterm_at(r1.lhs, p), inner.lhs, ()):
                    witness = _overlap_instance(r1, inner, p, uni)
                    return Verdict(
                        "orthogonal", False,
                        f"rules {r1.name} and {r2.name} overlap at {'.'.join(map(str, p)) or '@'}",
                        witness=witness)
    return Verdict("orthogonal", True)


OVERLAPPING = [
    "rule r1: f(g(Z)) -> a ; rule r2: g(b) -> c ;",
    "rule r: f(f(Z)) -> Z ;",
    "rule r1: f(a) -> a ; rule r2: f(Z) -> b ;",
    "rule r1: f([x] Z(x)) -> Z(k) ; rule r2: f([x] g(Z(x))) -> k ;",
    "rule r1: f(g(Z)) -> a ; rule r2: g(b) -> c ; rule r3: h(Z) -> Z ;",
    "rule r1: f(Z) -> a ; rule r2: g(b) -> c ; rule r3: h(Z) -> Z ;",
    # overlaps several template rules below its root
    "rule ov: c2(dup(Z), swap(W, V)) -> k ; rule ow: c1(col([x] Z(x))) -> k ;",
]


def orthogonality_systems():
    """Every non-empty subset of the rule templates, alone and beside
    overlapping rules; the corpus systems; the overlapping systems above in
    every rule order; and rules whose lhs root is no symbol."""
    out = []
    extra = parse_system(OVERLAPPING[-1])
    for k in range(1, len(genrand.RULE_TEMPLATES) + 1):
        for subset in itertools.combinations(genrand.RULE_TEMPLATES, k):
            base = parse_system(genrand.CONSTRUCTORS + "\n" + "\n".join(
                src for _, src in subset))
            out.append(base)
            out.append(RewriteSystem(base.rules + extra.rules, base.signature))
            out.append(RewriteSystem(extra.rules[:1] + base.rules, base.signature))
    for f in sorted(CORPUS.glob("*.crs")):
        out.append(parse_system(f.read_text()))
    for text in OVERLAPPING:
        base = parse_system(text)
        out += [RewriteSystem(perm, base.signature)
                for perm in itertools.permutations(base.rules)]
    odd = (Rule("m", parse_metaterm("[x] f(Z(x))"), parse_metaterm("k")),
           Rule("z", parse_metaterm("Z"), parse_metaterm("Z")))
    for rules in ((odd[0],), (odd[1],), odd):
        out.append(RewriteSystem(rules + parse_system(OVERLAPPING[0]).rules, ()))
    return out


class TestOrthogonalAgreement:
    def test_agrees_with_the_triple_loop(self, monkeypatch):
        built = [0]

        class Counted(_Unifier):
            def __init__(self):
                built[0] += 1
                super().__init__()

        monkeypatch.setattr(systems, "_Unifier", Counted)
        found = unifiers_new = unifiers_old = 0
        for system in orthogonality_systems():
            built[0] = 0
            new = check_orthogonal(system)
            unifiers_new += built[0]
            built[0] = 0
            old = triple_loop_orthogonal(system)
            unifiers_old += built[0]
            assert (new.ok, new.detail, new.witness) == (old.ok, old.detail, old.witness)
            found += not old.ok
        assert found >= 400
        # the symbol prefilter leaves most pairs without a unifier
        assert unifiers_new * 10 < unifiers_old


class TestCheckSystem:
    def test_beta_system_all_pass(self, beta_system):
        assert check_system(beta_system).ok

    def test_spine_system_all_pass(self, spine_system):
        assert check_system(spine_system).ok

    def test_left_linearity_failure_reported(self):
        report = check_system(parse_system("rule eq: eq(Z, Z) -> true ;"))
        assert not report.ok
        assert any(v.check == "left-linear" and not v.ok for v in report.verdicts)

    def test_non_pattern_skips_orthogonality(self):
        report = check_system(parse_system("rule q: g(Z) -> Z ; rule r: f(Z(a)) -> a ;"))
        assert report.verdicts[0].detail == "r: Z applied to non-variable argument"
        assert report.verdicts[-1] == Verdict(
            "orthogonal", False, "skipped: lhs of r is not a pattern")

    def test_random_template_systems_pass(self):
        rng = random.Random(7)
        for _ in range(15):
            assert check_system(genrand.random_system(rng)).ok

    def test_checks_leave_no_cyclic_garbage(self):
        # the signature walk keeps an explicit stack, and the meta-variable
        # chain walk is dropped by its caller: no closure outlives a check
        texts = [p.read_text() for p in sorted(CORPUS.glob("*.crs"))]
        assert len(texts) >= 7
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for text in texts:
                assert check_system(parse_system(text)).ok
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []

    def test_arity_clash_names_the_symbol_met_first(self):
        # pre-order, leftmost first, the lhs before the rhs
        with pytest.raises(ParseError, match="symbol k used with arities 0 and 1"):
            parse_system("rule r: f(g(k), k(g)) -> k ;")
        with pytest.raises(ParseError, match="symbol h used with arities 2 and 1"):
            parse_system("rule r: f(h(a, b), h(a)) -> k(k) ;")


def test_rule_meta_pattern_positions(dup_system):
    meta = pattern_meta(dup_system.rule("r").lhs)
    # f([x]Z(x),Z'): metavariable subtrees are not in the pattern
    assert meta.positions == ((), (1,))
    assert meta.metavar("Z").position == (1, 0)
    assert meta.metavar("Z'").position == (2,)
    assert meta.metavar("Z").args == ("x",)
    assert meta.metavar("Z").scope == (((1,), "x"),)
    assert meta.abs_map == {(1,): "x"}
    assert meta.finite


def test_hole_symbol_reserved_in_rules():
    with pytest.raises(Exception):
        parse_system("rule bad: f(Z) -> _|_ ;")


# ---------------------------------------------------------------------------
# the former walks of the checks, each reading the lhs shape on its own: the
# reference route for pattern_meta

def old_is_finite(t):
    match t:
        case Rec(_, _) | RecVar(_):
            return False
        case Abs(_, body, _):
            return old_is_finite(body)
        case Sym(_, args, _) | MetaApp(_, args):
            return all(old_is_finite(a) for a in args)
        case _:
            return True


def old_check_pattern(l):
    if not old_is_finite(l):
        return Verdict("pattern", False, "left-hand side must be finite")

    def walk(t, scope):
        match t:
            case MetaApp(z, args):
                names = []
                for a in args:
                    if not isinstance(a, Var):
                        return f"{z} applied to non-variable argument"
                    if a.name not in scope:
                        return f"{z} applied to unbound variable {a.name}"
                    names.append(a.name)
                if len(set(names)) != len(names):
                    return f"{z} applied to non-distinct variables"
                return None
            case Abs(x, body, _):
                return walk(body, scope | {x})
            case Sym(_, args, _):
                for a in args:
                    bad = walk(a, scope)
                    if bad:
                        return bad
                return None
            case _:
                return None

    bad = walk(l, frozenset())
    if bad:
        return Verdict("pattern", False, bad, witness=l)
    return Verdict("pattern", True)


def old_metavar_occurrences(l):
    """meta-variable name -> [(position, arg names)] (raises on a
    non-variable argument)."""
    out = {}

    def walk(t, p):
        match t:
            case MetaApp(z, args):
                out.setdefault(z, []).append((p, tuple(a.name for a in args)))
            case Abs(_, body, _):
                walk(body, p + (0,))
            case Sym(_, args, _):
                for i, a in enumerate(args):
                    walk(a, p + (i + 1,))
            case _:
                pass

    walk(l, ())
    return out


def old_check_left_linear(system):
    for rule in system.rules:
        occs = old_metavar_occurrences(rule.lhs)
        for z, places in occs.items():
            if len(places) > 1:
                return Verdict("left-linear", False,
                               f"{rule.name}: {z} occurs {len(places)} times in lhs",
                               witness=(rule.name, z, tuple(p for p, _ in places)))
    return Verdict("left-linear", True)


def old_check_fully_extended(system):
    def walk(t, scope, rule):
        match t:
            case MetaApp(z, args):
                names = {a.name for a in args}
                missing = [x for x in scope if x not in names]
                if missing:
                    return f"{rule.name}: {z} omits in-scope variable {missing[0]}"
                return None
            case Abs(x, body, _):
                return walk(body, scope + (x,) if x not in scope else scope, rule)
            case Sym(_, args, _):
                for a in args:
                    bad = walk(a, scope, rule)
                    if bad:
                        return bad
                return None
            case _:
                return None

    for rule in system.rules:
        bad = walk(rule.lhs, (), rule)
        if bad:
            return Verdict("fully-extended", False, bad, witness=rule.name)
    return Verdict("fully-extended", True)


def old_rule_meta(lhs):
    """(sorted pattern positions, Z -> position, Z -> arg names, position
    -> binder name) as the former rule metadata walk built them."""
    metavar_pos, arg_names, abs_positions, pattern = {}, {}, {}, []

    def walk(t, p):
        match t:
            case MetaApp(z, args):
                metavar_pos[z] = p
                arg_names[z] = tuple(a.name for a in args)
            case Abs(x, body, _):
                pattern.append(p)
                abs_positions[p] = x
                walk(body, p + (0,))
            case Sym(_, args, _):
                pattern.append(p)
                for i, a in enumerate(args):
                    walk(a, p + (i + 1,))
            case Var(x, _):
                pattern.append(p)

    walk(lhs, ())
    return tuple(sorted(pattern)), metavar_pos, arg_names, abs_positions


MALFORMED_LHS = [
    "f(Z(a))", "f([x] Z(y))", "f(Z(rec X. g(X)))", "rec R. f(Z, R)",
    "f([x] [y] Z(x, x))", "f(Z, Z)", "Z", "[x] Z(x)", "g([x] f(Z(x), Z'))",
    "f([x] [x] Z(x))", "f(Z(Y))", "f([x] Z(x, a), W)", "f([x] Z(y, x))",
    "f([x] g(Z(x), [y] Z(y)))", "f(rec X. g(X), Z)",
]


def agreement_systems():
    """The orthogonality systems, seeded random systems, and each malformed
    lhs alone and beside a well-formed rule."""
    out = orthogonality_systems()
    rng = random.Random(11)
    out += [genrand.random_system(rng) for _ in range(40)]
    good = parse_system("rule q: g(Z) -> Z ;").rules
    for text in MALFORMED_LHS:
        rule = Rule("m", parse_metaterm(text), parse_metaterm("k"))
        out += [RewriteSystem((rule,), ()), RewriteSystem(good + (rule,), ())]
    return out


def agrees(new_route, old_route, arg):
    """The new route never raises; where the old one did not raise either,
    verdict, detail and witness are equal."""
    new = new_route(arg)
    try:
        old = old_route(arg)
    except AttributeError:  # the old walk read .name off a non-variable
        return False
    assert (new.ok, new.detail, new.witness) == (old.ok, old.detail, old.witness), arg
    return True


class TestPatternMetaAgreement:
    def test_checks_agree_with_the_former_walks(self):
        compared = 0
        for system in agreement_systems():
            compared += agrees(check_left_linear, old_check_left_linear, system)
            compared += agrees(check_fully_extended, old_check_fully_extended, system)
            for rule in system.rules:
                compared += agrees(check_pattern, old_check_pattern, rule.lhs)
        assert compared > 4000

    def test_record_agrees_with_the_former_walks(self):
        raised = 0
        for system in agreement_systems():
            for rule in system.rules:
                lhs = rule.lhs
                meta = pattern_meta(lhs)
                assert meta.finite == old_is_finite(lhs)
                if meta.finite:  # the old orthogonality walk listed rec nodes
                    assert list(meta.positions) == _nonmeta_positions(lhs)
                try:
                    occs = old_metavar_occurrences(lhs)
                    positions, metavar_pos, arg_names, abs_map = old_rule_meta(lhs)
                except AttributeError:
                    raised += 1
                    continue
                assert meta.positions == positions
                assert meta.abs_map == abs_map
                grouped = {}
                for occ in meta.metavars:
                    grouped.setdefault(occ.name, []).append((occ.position, occ.args))
                assert list(grouped.items()) == list(occs.items())
                for occ in meta.metavars:
                    # the binders above an occurrence, as the walk machine
                    # used to pick them out of every pattern abstraction
                    above = tuple(
                        (rho, x) for rho, x in sorted(abs_map.items(), key=lambda kv: len(kv[0]))
                        if rho == occ.position[:len(rho)] and len(rho) < len(occ.position))
                    assert occ.scope == above
                    if len(grouped[occ.name]) == 1:
                        assert meta.metavar(occ.name).position == metavar_pos[occ.name]
                        assert meta.metavar(occ.name).args == arg_names[occ.name]
        assert raised >= 4
