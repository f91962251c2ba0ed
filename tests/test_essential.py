import operator
import pathlib
import random

import pytest

from icrs import cli
from icrs import (
    DevSequence, Measure, PathSpace, ReductionDescriptor, alpha_eq,
    classify_redex, complete_development, dev_sequence_of_steps,
    emaciate_reduction, emaciate_step, epsilon_seq, epsilon_step,
    essential_skeleton, find_redexes, measure,
    measure_less, mirrors, parse_system, parse_term, path_prefix_set,
    print_term, redexes_from_positions, residuals, sequence_mirrors,
    sub_mirrors, zeta,
)
from icrs.errors import NotAPrefixSet, ResidualHitsPrefix
from icrs.oracle import brute_descendants
from icrs.rewriting import redex_at
from icrs.terms import positions_to_depth, prefix_closure

import genrand


def T(text):
    return parse_term(text)


@pytest.fixture()
def dup_stage(dup_system):
    s = T("f([x] g(x), a)")
    u = redexes_from_positions(s, dup_system, [()])
    return complete_development(s, u, dup_system)


@pytest.fixture()
def growth_seq(growth_system):
    s0 = T("g(f([x] g(g(x))))")
    return dev_sequence_of_steps(
        s0, [((1, 1, 0, 1), "ren"), ((1, 1, 0), "ren"), ((1,), "dup")],
        growth_system)


class TestPathPrefixSet:
    def test_listed_prefixes(self, dup_stage):
        pps = path_prefix_set({(), (1,), (1, 1)}, dup_stage)
        assert len(pps) == 7
        longest = max(pps.paths, key=len)
        assert longest.render().endswith("(s,1.0)")
        words = {p.word for p in pps.paths}
        assert words == {(), (1,), (1, 1)}

    def test_empty_prefix(self, dup_stage):
        assert len(path_prefix_set(set(), dup_stage)) == 0

    def test_root_only(self, dup_stage):
        pps = path_prefix_set({()}, dup_stage)
        # the three epsilon-chained nodes before the first numeric edge
        assert len(pps) == 3
        assert all(p.word == () for p in pps.paths)

    def test_prefix_closed(self, dup_stage):
        pps = path_prefix_set({(), (1,), (1, 1)}, dup_stage)
        paths = set(pps.paths)
        for p in pps.paths:
            for n in range(1, len(p.nodes)):
                assert p.prefix(n) in paths


class TestZeta:
    def test_plain_endpoint(self, dup_stage):
        pps = path_prefix_set({(), (1,), (1, 1)}, dup_stage)
        by_last = {p.nodes[-1].render(): p for p in pps.paths}
        assert zeta(by_last["(s,1.0)"]) == {(1, 0)}
        assert zeta(by_last["(s,1.0.1)"]) == {(1, 0, 1)}

    def test_redex_endpoint_gives_pattern(self, dup_stage):
        pps = path_prefix_set({(), (1,), (1, 1)}, dup_stage)
        root_path = min(pps.paths, key=len)
        assert zeta(root_path) == {(), (1,)}

    def test_rule_endpoint_empty(self, dup_stage):
        pps = path_prefix_set({(), (1,), (1, 1)}, dup_stage)
        rule_paths = [p for p in pps.paths
                      if type(p.nodes[-1]).__name__ == "RuleNode"]
        assert rule_paths
        for p in rule_paths:
            assert zeta(p) == frozenset()


class TestEpsilon:
    def test_essential_positions_of_duplication(self, dup_stage):
        got = epsilon_step({(), (1,), (1, 1)}, dup_stage)
        assert got == {(), (1,), (1, 0), (1, 0, 1)}

    def test_empty_prefix(self, dup_stage):
        assert epsilon_step(set(), dup_stage) == frozenset()

    def test_result_is_prefix_set(self, dup_stage):
        from icrs import is_prefix_set

        got = epsilon_step({(), (1,), (1, 1)}, dup_stage)
        assert is_prefix_set(got, dup_stage.source)

    def test_growth_narrative_prefix(self, growth_seq):
        seq = epsilon_seq({(), (1,)}, growth_seq)
        # positions of the context g(f([x]g(#))) at every stage
        assert seq[0] == {(), (1,), (1, 1), (1, 1, 0)}
        assert seq[1] == {(), (1,), (1, 1), (1, 1, 0)}
        assert seq[2] == {(), (1,), (1, 1), (1, 1, 0)}
        assert seq[3] == {(), (1,)}

    def test_length_zero(self, growth_system):
        t = T("g(h(a))")
        seq = epsilon_seq({(), (1,)}, DevSequence(t, ()))
        assert seq == ({(), (1,)},)

    def test_empty_stage_sets_descend_positionally(self, spine_system):
        t = T("g(b, g(b, b))")
        stages = tuple(complete_development(t, [], spine_system) for _ in range(2))
        seq = DevSequence(t, stages)
        p = prefix_closure([(2, 1)])
        out = epsilon_seq(p, seq)
        assert all(ps == p for ps in out)

    def test_not_a_prefix_set(self, dup_stage):
        with pytest.raises(NotAPrefixSet):
            epsilon_step({(9,)}, dup_stage)


class TestClassify:
    def test_essential_duplicator(self, growth_system, growth_seq):
        u = redex_at(growth_seq.initial, growth_system, (1,))
        assert classify_redex(u, growth_seq, {(), (1,)}) == "essential"

    def test_inessential_inner(self, growth_system, growth_seq):
        u = redex_at(growth_seq.initial, growth_system, (1, 1, 0, 1))
        assert classify_redex(u, growth_seq, {(), (1,)}) == "inessential"

    def test_empty_prefix_everything_inessential(self, growth_system, growth_seq):
        u = redex_at(growth_seq.initial, growth_system, (1,))
        assert classify_redex(u, growth_seq, set()) == "inessential"


class TestMeasure:
    def test_single_stage_cardinality(self, dup_system, dup_stage):
        seq = DevSequence(dup_stage.source, (dup_stage,))
        assert measure(seq, {(), (1,), (1, 1)}) == Measure((7,))

    def test_length_zero(self, growth_system):
        seq = DevSequence(T("g(h(a))"), ())
        assert measure(seq, {()}) == Measure(())

    def test_empty_stage_counts_positions(self, spine_system):
        t = T("g(b, b)")
        seq = DevSequence(t, (complete_development(t, [], spine_system),))
        p = prefix_closure([(1,), (2,)])
        assert measure(seq, p) == Measure((3,))

    def test_order_length_first(self):
        assert measure_less(Measure((9,)), Measure((0, 0)))
        assert measure_less(Measure((2, 0)), Measure((2, 1)))
        assert not measure_less(Measure((2, 1)), Measure((2, 1)))


class TestMirrors:
    def test_reflexive(self, growth_system):
        t = T("g(h(a))")
        ok, _ = mirrors(t, t, prefix_closure([(1,)]))
        assert ok

    def test_growth_pair(self):
        ok, _ = mirrors(T("g(h(g(h(g(a)))))"), T("g(h(h(h(h(a)))))"), {(), (1,)})
        assert ok

    def test_symbol_clash(self):
        ok, why = mirrors(T("g(g(g(g(g(a)))))"), T("g(h(h(h(h(a)))))"), {(), (1,)})
        assert not ok and "1" in why

    def test_path_prefix_sets_decide(self, spine_system):
        # contracting c -> c keeps every essential set and every symbol, so
        # only the path through the rule tells the sequences apart
        t = T("g(b, c)")
        looped = DevSequence(t, (complete_development(
            t, redexes_from_positions(t, spine_system, [(2,)]), spine_system),))
        idle = DevSequence(t, (complete_development(t, [], spine_system),))
        P = {(), (1,), (2,)}
        assert epsilon_seq(P, looped) == epsilon_seq(P, idle)
        assert sequence_mirrors(idle, looped, P) == (
            False, "path prefix sets differ at stage 1")
        assert sub_mirrors(looped, P, idle, P) == (
            False, "path prefix sets not included at stage 1")
        assert sub_mirrors(idle, P, looped, P) == (True, "")


class TestSkeleton:
    def test_growth_skeleton(self, growth_seq):
        skel = essential_skeleton(growth_seq, {(), (1,)})
        assert [len(list(st.redexes)) for st in skel.stages] == [0, 1, 1]
        assert print_term(skel.final) == "g(h(g(h(g(a)))))"
        ok, why = sequence_mirrors(skel, growth_seq, {(), (1,)})
        assert ok, why
        assert measure(skel, {(), (1,)}) == measure(growth_seq, {(), (1,)})

    def test_empty_prefix_empties_stages(self, growth_seq):
        skel = essential_skeleton(growth_seq, set())
        assert all(not list(st.redexes) for st in skel.stages)

    def test_already_essential_kept(self, spine_system):
        t = T("f(a, c)")
        seq = dev_sequence_of_steps(t, [((), "spine")], spine_system)
        p = prefix_closure([(1,)])
        skel = essential_skeleton(seq, p)
        assert [u.position for st in skel.stages for u in st.redexes] == [()]


class TestEmaciate:
    def test_narrative_essential_step(self, growth_system, growth_seq):
        P = {(), (1,)}
        u = redex_at(growth_seq.initial, growth_system, (1,))
        res = emaciate_step(growth_seq, u, P)
        assert print_term(res.sequence.initial) == "g(g(g(g(g(a)))))"
        assert print_term(res.sequence.final) == "g(h(g(h(g(a)))))"
        assert [sorted(v.position for v in st.redexes) for st in res.sequence.stages] \
            == [[], [(1,), (1, 1, 1)], []]
        assert measure_less(measure(res.sequence, P), measure(growth_seq, P))

    def test_narrative_inessential_step(self, growth_system, growth_seq):
        P = {(), (1,)}
        d1 = emaciate_step(growth_seq, redex_at(growth_seq.initial, growth_system, (1,)), P).sequence
        u = redex_at(d1.initial, growth_system, (1, 1, 1, 1))
        res = emaciate_step(d1, u, P)
        assert print_term(res.sequence.initial) == "g(g(g(g(h(a)))))"
        assert print_term(res.sequence.final) == "g(h(g(g(h(a)))))"
        assert measure(res.sequence, P) == measure(d1, P)
        assert epsilon_seq(P, res.sequence)[0] == epsilon_seq(P, d1)[0]
        ok, why = sequence_mirrors(res.sequence, d1, P)
        assert ok, why

    def test_narrative_final_step_empties(self, growth_system, growth_seq):
        P = {(), (1,)}
        d1 = emaciate_step(growth_seq, redex_at(growth_seq.initial, growth_system, (1,)), P).sequence
        d2 = emaciate_step(d1, redex_at(d1.initial, growth_system, (1, 1, 1, 1)), P).sequence
        res = emaciate_step(d2, redex_at(d2.initial, growth_system, (1,)), P)
        assert all(not list(st.redexes) for st in res.sequence.stages)
        assert print_term(res.sequence.final) == "g(h(g(g(h(a)))))"
        assert measure_less(measure(res.sequence, P), measure(d2, P))

    def test_root_residual_hits_prefix(self, growth_system, growth_seq):
        # the root redex always keeps a residual at the tracked root position
        u = redex_at(growth_seq.initial, growth_system, ())
        with pytest.raises(ResidualHitsPrefix):
            emaciate_step(growth_seq, u, {(), (1,)})


class TestEmaciateReduction:
    def test_empty_reduction_is_identity_projection(self, growth_seq):
        res = emaciate_reduction(growth_seq, ReductionDescriptor(), {(), (1,)})
        assert res.sequence is growth_seq or alpha_eq(res.sequence.final, growth_seq.final)

    def test_narrative_composite(self, growth_system, growth_seq):
        P = {(), (1,)}
        steps = (((1,), "dup"), ((1, 1, 1, 1), "ren"), ((1,), "ren"))
        res = emaciate_reduction(growth_seq, ReductionDescriptor(steps=steps), P)
        assert print_term(res.sequence.final) == "g(h(g(g(h(a)))))"
        assert all(not list(st.redexes) for st in res.sequence.stages)

    def test_periodic_inessential_stabilises(self, spine_system):
        t = T("f(a, c)")
        seq = dev_sequence_of_steps(t, [((), "spine")], spine_system)
        P = prefix_closure([()])
        skel = essential_skeleton(seq, P)
        desc = ReductionDescriptor(period=(((2,), "loop"),), limit=t, max_rounds=8)
        res = emaciate_reduction(seq, desc, P)
        assert len(res.sequence) == len(seq)
        assert measure(res.sequence, P) == measure(skel, P)
        ok, why = sequence_mirrors(res.sequence, skel, P)
        assert ok, why


class TestPositionLevelEssentiality:
    """Essential iff some descendant lies in the prefix set, for positions
    outside redex patterns and not bound-variable positions."""

    def _check_instance(self, system, term, us, prefix):
        dev = complete_development(term, us, system)
        if not prefix:
            return 0
        essential = epsilon_step(prefix, dev)
        space = PathSpace(term, us, system)
        from icrs.systems import pattern_meta

        pattern_positions = set()
        for u in us:
            for rel in pattern_meta(u.rule.lhs).positions:
                pattern_positions.add(u.position + rel)
        checked = 0
        for p in positions_to_depth(term, 3):
            if p in pattern_positions or space.bound_by(p) is not None:
                continue
            desc = brute_descendants(
                [p], [(s.redex.position, s.redex.rule) for s in dev.steps],
                source=term)
            hits = bool(desc & prefix)
            assert (p in essential) == hits, (p, desc, prefix)
            checked += 1
        return checked

    def test_examples_and_random(self):
        rng = random.Random(4242)
        total = 0
        while total < 60:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3)
            us = genrand.random_redex_set(rng, t, system, max_size=3)
            if not us:
                continue
            dev = complete_development(t, us, system)
            prefix = genrand.random_prefix_set(rng, dev.target, max_depth=2)
            total += self._check_instance(system, t, us, prefix)
        assert total >= 60


class TestSplitInvariance:
    """Splitting a development into two stages leaves the essential set of
    the source unchanged."""

    def test_random_splits(self):
        rng = random.Random(77)
        done = 0
        while done < 25:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3)
            us = genrand.random_redex_set(rng, t, system, max_size=3)
            if len(us) < 2:
                continue
            dev = complete_development(t, us, system)
            prefix = genrand.random_prefix_set(rng, dev.target, max_depth=2)
            if not prefix:
                continue
            one = epsilon_seq(prefix, DevSequence(t, (dev,)))[0]
            k = rng.randint(1, len(us) - 1)
            v1 = us[:k]
            dev1 = complete_development(t, v1, system)
            v2 = residuals(us[k:], dev1)
            dev2 = complete_development(dev1.target, v2, system)
            if not alpha_eq(dev2.target, dev.target):
                continue  # alpha-renamed targets do not share positions naming
            try:
                two = epsilon_seq(prefix, DevSequence(t, (dev1, dev2)))[0]
            except NotAPrefixSet:
                continue
            assert one == two
            done += 1


class TestResidualEssentiality:
    """Projecting over a non-prefix-hitting step: essential redexes keep an
    essential residual (unless contracted), inessential ones never gain one."""

    def test_random_instances(self):
        rng = random.Random(31337)
        done = 0
        while done < 25:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3)
            us = genrand.random_redex_set(rng, t, system, max_size=2)
            if not us:
                continue
            seq = DevSequence(t, (complete_development(t, us, system),))
            prefix = genrand.random_prefix_set(rng, seq.final, max_depth=2)
            if not prefix:
                continue
            candidates = find_redexes(t, system, 4)
            if not candidates:
                continue
            u = rng.choice(candidates)
            try:
                res = emaciate_step(seq, u, prefix)
            except ResidualHitsPrefix:
                continue
            skel = res.skeleton
            step_dev = complete_development(t, [u], system)
            before = epsilon_seq(prefix, seq)[0]
            after_seq = res.sequence
            after = epsilon_seq(prefix, after_seq)[0]
            for v in candidates:
                vres = residuals([v], step_dev)
                positions = {r.position for r in vres}
                if v.position in before and v.position != u.position:
                    assert positions & after, (v.position, positions, after)
                if v.position not in before:
                    assert not (positions & after)
            done += 1


def old_epsilon_seq(prefix, seq):
    """The per-stage route: epsilon_step chained backwards."""
    out = [frozenset(map(tuple, prefix))]
    for stage in reversed(seq.stages):
        out.append(epsilon_step(out[-1], stage))
    out.reverse()
    return tuple(out)


def old_path_sets(prefix, seq):
    """path_prefix_set enumerated again per stage from the chained sets."""
    sets = old_epsilon_seq(prefix, seq)
    return [path_prefix_set(sets[i + 1], st) for i, st in enumerate(seq.stages)]


def old_measure(seq, prefix):
    return Measure(tuple(len(pps) for pps in reversed(old_path_sets(prefix, seq))))


def old_mirrors(fits, e_seq, q_prefix, d_seq, p_prefix):
    """The verdict of sequence_mirrors (fits is ==) or sub_mirrors (<=)."""
    if len(e_seq) != len(d_seq) or not fits(frozenset(q_prefix), frozenset(p_prefix)):
        return False
    pd = old_epsilon_seq(p_prefix, d_seq)
    try:
        qe = old_epsilon_seq(q_prefix, e_seq)
    except NotAPrefixSet:
        return False
    terms_d = [d_seq.initial] + [st.target for st in d_seq.stages]
    terms_e = [e_seq.initial] + [st.target for st in e_seq.stages]
    for i in range(len(d_seq) + 1):
        if not fits(qe[i], pd[i]) or not mirrors(terms_e[i], terms_d[i], qe[i])[0]:
            return False
    return all(fits(frozenset(e.paths), frozenset(d.paths))
               for e, d in zip(old_path_sets(q_prefix, e_seq),
                               old_path_sets(p_prefix, d_seq)))


def random_instances(seed, count):
    """Seeded (system, development sequence, prefix set of its final term)."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        system = genrand.random_system(rng)
        seq = genrand.random_dev_sequence(rng, system)
        prefix = genrand.random_prefix_set(rng, seq.final, max_depth=2)
        yield rng, system, seq, prefix
        made += 1


class TestOneSweep:
    """epsilon_seq, measure, the mirroring checks and emaciate_step read one
    backward sweep; each agrees with the per-stage route it replaced."""

    def test_sets_and_measure(self):
        stages = 0
        for _, _, seq, prefix in random_instances(91, 60):
            assert epsilon_seq(prefix, seq) == old_epsilon_seq(prefix, seq)
            assert measure(seq, prefix) == old_measure(seq, prefix)
            stages += len(seq)
        assert stages >= 60

    def test_mirroring_verdicts(self):
        verdicts = set()
        for rng, _, seq, prefix in random_instances(92, 40):
            sub = prefix & genrand.random_prefix_set(rng, seq.final, max_depth=2)
            for e_seq in (seq, essential_skeleton(seq, prefix),
                          essential_skeleton(seq, sub)):
                got = sequence_mirrors(e_seq, seq, prefix)[0]
                assert got == old_mirrors(operator.eq, e_seq, prefix, seq, prefix)
                verdicts.add(got)
                got = sub_mirrors(e_seq, sub, seq, prefix)[0]
                assert got == old_mirrors(operator.le, e_seq, sub, seq, prefix)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_emaciate_step(self):
        done = refused = 0
        for rng, system, seq, prefix in random_instances(91, 150):
            candidates = find_redexes(seq.initial, system, 4)
            if not candidates:
                continue
            u = rng.choice(candidates)
            leftover = [u]
            for stage in essential_skeleton(seq, prefix).stages:
                leftover = residuals(leftover, stage)
            if any(v.position in prefix for v in leftover):
                with pytest.raises(ResidualHitsPrefix):
                    emaciate_step(seq, u, prefix)
                refused += 1
                continue
            res = emaciate_step(seq, u, prefix)
            sets = old_epsilon_seq(prefix, seq)
            assert res.essential_sets == sets
            kept = [[u.position for u in st.redexes if u.position in sets[i]]
                    for i, st in enumerate(seq.stages)]
            assert [[u.position for u in st.redexes]
                    for st in res.skeleton.stages] == kept
            assert measure(res.skeleton, prefix) == old_measure(res.skeleton, prefix)
            assert measure(res.sequence, prefix) == old_measure(res.sequence, prefix)
            done += 1
        assert done >= 60 and refused >= 5

    def test_cli_script_builds_one_space_per_stage_and_query(self, monkeypatch, capsys):
        built = []
        init = PathSpace.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PathSpace, "__init__", counting)
        corpus = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"
        for extra in ([], ["--json"]):
            built.clear()
            code = cli.main(["essential", str(corpus / "collapse_growth.crs"),
                             "--script", str(corpus / "collapse_growth.script")]
                            + extra)
            assert code == 0
            # three stages, swept once for the sets and once for the measure
            assert len(built) <= 6
        capsys.readouterr()
