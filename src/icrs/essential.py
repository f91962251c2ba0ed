"""Essentiality: which positions and redexes contribute to a chosen finite
part of a development's final term.

Given a complete development s =U=> t and a prefix set P of t, the paths of s
whose projection edge-word stays inside P form the path prefix set; reading
the positions those paths touch (pattern positions for redex endpoints) back
off gives the prefix set of s that feeds P.  Iterating through a finite
sequence of complete developments classifies every position and redex of the
initial term as essential or inessential for P, yields the tuple measure
ordered length-first then lexicographically, and drives the emaciated
projection: replace the sequence by its all-essential finite skeleton, then
project that skeleton over a step.  Projecting an essential step strictly
shrinks the measure; projecting an inessential one preserves the measure,
the essential positions and the mirrored part of the final term.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    FiniteJumpsViolated, NotAPrefixSet, PositionError, PreconditionViolated,
    ResidualHitsPrefix, TermError,
)
from .developments import (
    DevRecord, DevSequence, PathSpace, RuleNode,
    complete_development, has_finite_jumps, project_sequence,
)
from .rewriting import Redex, match, residuals
from .syntax import position_str
from .systems import rule_meta
from .terms import is_prefix_set, root_key, subterm_at


@dataclass(frozen=True)
class PathPrefixSet:
    paths: tuple
    anchor: frozenset  # the prefix set of the development target it came from

    def __len__(self):
        return len(self.paths)


def _space_of_stage(stage):
    return PathSpace(stage.source, stage.redexes, stage.system)


def _check_prefix_set(positions, term, what="prefix set"):
    ps = frozenset(tuple(p) for p in positions)
    if not is_prefix_set(ps, term):
        raise NotAPrefixSet(f"{what} is not a prefix set of the term")
    return ps


def path_prefix_set(prefix, stage_or_space, redexes=None, system=None):
    """All paths whose projection edge-word lies in the prefix set.

    Accepts a DevRecord stage, a PathSpace, or (term, redexes, system)
    explicitly.  A stage realised step by step is a complete development by
    construction, so only the other forms are checked for finite jumps.
    """
    realised = False
    if isinstance(stage_or_space, DevRecord):
        space = _space_of_stage(stage_or_space)
        tgt = stage_or_space.target
        realised = stage_or_space.finite
    elif isinstance(stage_or_space, PathSpace):
        space = stage_or_space
        tgt = None
    else:
        space = PathSpace(stage_or_space, redexes, system)
        tgt = None
    if not realised and not has_finite_jumps(space.term, space.redexes,
                                             space.system):
        raise FiniteJumpsViolated("the stage has no complete development")
    if tgt is not None:
        prefix = _check_prefix_set(prefix, tgt)
    else:
        prefix = frozenset(tuple(p) for p in prefix)
    if not prefix:
        return PathPrefixSet((), frozenset())
    enum = space.enumerate(word_filter=lambda w: w in prefix, collect_all=True)
    if enum.truncated:
        raise PreconditionViolated("path prefix set enumeration was cut short")
    kept = tuple(p for p in enum.maximal if p.word in prefix)
    return PathPrefixSet(kept, prefix)


def zeta(space, path):
    """Positions of the source term contributed by a finite path: its final
    term position, widened to the whole redex pattern at redex endpoints;
    nothing for rule-side endpoints."""
    last = path.nodes[-1]
    if isinstance(last, RuleNode):
        return frozenset()
    u = space.redex(last.position)
    if u is None:
        return frozenset([last.position])
    meta = rule_meta(u.rule)
    return frozenset(u.position + rel for rel in meta.pattern_positions)


def epsilon_step(prefix, stage):
    """Prefix set of the stage source feeding the given prefix set of the
    stage target (union of zeta over the path prefix set)."""
    space = _space_of_stage(stage)
    pps = path_prefix_set(prefix, stage)
    out = set()
    for path in pps.paths:
        out |= zeta(space, path)
    return frozenset(out)


def epsilon_seq(prefix, dev_seq):
    """(P_0, ..., P_n) with P_n the given prefix set and each earlier set the
    epsilon image through the corresponding stage."""
    prefix = _check_prefix_set(prefix, dev_seq.final)
    out = [prefix]
    for stage in reversed(dev_seq.stages):
        out.append(epsilon_step(out[-1], stage))
    out.reverse()
    return tuple(out)


def essential_positions(prefix, dev_seq):
    return epsilon_seq(prefix, dev_seq)[0]


def classify_redex(redex, dev_seq, prefix):
    """'essential' iff the redex position of the initial term feeds the
    prefix set of the final term."""
    if match(redex.rule, dev_seq.initial, redex.position) is None:
        raise PreconditionViolated(
            f"no {redex.rule.name} redex at {position_str(redex.position)} "
            "in the initial term")
    first = epsilon_seq(prefix, dev_seq)[0]
    return "essential" if redex.position in first else "inessential"


# ---------------------------------------------------------------------------
# measure

@dataclass(frozen=True)
class Measure:
    values: tuple  # (l_n, ..., l_1): stage cardinalities, last stage first

    def __len__(self):
        return len(self.values)

    def render(self):
        return "(" + ", ".join(map(str, self.values)) + ")"


def measure(dev_seq, prefix):
    """Per-stage path-prefix-set cardinalities, last stage first."""
    seq = epsilon_seq(prefix, dev_seq)
    ls = []
    for i, stage in enumerate(dev_seq.stages):
        pps = path_prefix_set(seq[i + 1], stage)
        ls.append(len(pps))
    return Measure(tuple(reversed(ls)))


def measure_less(a, b):
    """Strict order: first length-wise, then lexicographically."""
    va = a.values if isinstance(a, Measure) else tuple(a)
    vb = b.values if isinstance(b, Measure) else tuple(b)
    if len(va) != len(vb):
        return len(va) < len(vb)
    return va < vb


# ---------------------------------------------------------------------------
# mirroring

def mirrors(t, s, prefix):
    """Terms: every position of the prefix set exists in t and carries the
    same root symbol as in s."""
    for p in prefix:
        try:
            a = subterm_at(t, tuple(p))
            b = subterm_at(s, tuple(p))
        except (PositionError, TermError):
            return False, f"position {position_str(tuple(p))} missing"
        if root_key(a) != root_key(b):
            return False, (f"roots differ at {position_str(tuple(p))}: "
                           f"{root_key(a)} vs {root_key(b)}")
    return True, ""


def _mirrors_by(fits, e_seq, q_prefix, d_seq, p_prefix, missing, relation):
    """Mirroring of e_seq with Q against d_seq with P, the essential and
    path prefix sets compared by fits(of e_seq, of d_seq)."""
    if len(e_seq) != len(d_seq):
        return False, "lengths differ"
    if not fits(frozenset(map(tuple, q_prefix)), frozenset(map(tuple, p_prefix))):
        return False, "Q is not included in P"
    pd = epsilon_seq(p_prefix, d_seq)
    try:
        qe = epsilon_seq(q_prefix, e_seq)
    except NotAPrefixSet:
        return False, f"prefix set positions missing from the {missing} sequence"
    for i in range(len(d_seq) + 1):
        if not fits(qe[i], pd[i]):
            return False, f"essential sets {relation} at stage {i}"
        td = d_seq.stages[i - 1].target if i else d_seq.initial
        te = e_seq.stages[i - 1].target if i else e_seq.initial
        ok, why = mirrors(te, td, qe[i])
        if not ok:
            return False, f"stage {i}: {why}"
    for i in range(len(d_seq)):
        pps_d = path_prefix_set(pd[i + 1], d_seq.stages[i])
        pps_e = path_prefix_set(qe[i + 1], e_seq.stages[i])
        if not fits(frozenset(pps_e.paths), frozenset(pps_d.paths)):
            return False, f"path prefix sets {relation} at stage {i + 1}"
    return True, ""


def sequence_mirrors(e_seq, d_seq, prefix):
    """Development sequences: stage-wise equal essential sets, mirroring
    terms, and identical path prefix sets."""
    return _mirrors_by(operator.eq, e_seq, prefix, d_seq, prefix,
                       "mirroring", "differ")


def sub_mirrors(e_seq, q_prefix, d_seq, p_prefix):
    """Sub-mirroring for Q included in P: inclusions of essential sets, term
    mirroring on the smaller sets, and path-prefix-set inclusion."""
    return _mirrors_by(operator.le, e_seq, q_prefix, d_seq, p_prefix,
                       "sub-mirroring", "not included")


# ---------------------------------------------------------------------------
# skeletons and emaciated projections

def essential_skeleton(dev_seq, prefix, initial=None):
    """The finite, all-essential development sequence that mirrors the given
    one: stage by stage keep only the essential redexes, replayed on the
    mirroring term (by default the original initial term)."""
    prefix = _check_prefix_set(prefix, dev_seq.final)
    seq = epsilon_seq(prefix, dev_seq)
    system = dev_seq.system
    t0 = dev_seq.initial if initial is None else initial
    if initial is not None:
        ok, why = mirrors(initial, dev_seq.initial, seq[0])
        if not ok:
            raise PreconditionViolated(f"skeleton start does not mirror: {why}")
    new_stages = []
    cur = t0
    for i, stage in enumerate(dev_seq.stages):
        essential = seq[i]
        picked = []
        for u in _stage_redex_list(stage):
            if u.position in essential:
                v = match(u.rule, cur, u.position)
                if v is None:
                    raise PreconditionViolated(
                        "mirroring term lost an essential redex at "
                        + position_str(u.position))
                picked.append(Redex(u.position, u.rule, v))
        new_stage = complete_development(cur, picked, system)
        new_stages.append(new_stage)
        cur = new_stage.target
    return DevSequence(t0, tuple(new_stages))


def _stage_redex_list(stage):
    from .developments import AllRedexes

    if isinstance(stage.redexes, AllRedexes):
        raise PreconditionViolated(
            "skeletons need explicitly listed stage redex sets")
    return list(stage.redexes)


@dataclass(frozen=True)
class ProjectionResult:
    sequence: DevSequence
    essential_sets: tuple   # per-term essential position sets of the input
    skeleton: DevSequence

    @property
    def final(self):
        return self.sequence.final


def _residuals_through(dev_seq, redex):
    """Residuals of an initial-term redex through the whole sequence."""
    cur = [redex]
    for stage in dev_seq.stages:
        cur = residuals(cur, stage)
    return cur


def emaciate_step(dev_seq, redex, prefix):
    """Project the sequence over one contraction of its initial term.

    Defined when no residual of the redex survives to a position of the
    prefix set in the final term (checked on the skeleton); an essential
    redex strictly decreases the measure, an inessential one preserves the
    measure, the essential sets and mirroring.
    """
    prefix = _check_prefix_set(prefix, dev_seq.final)
    skel = essential_skeleton(dev_seq, prefix)
    leftover = _residuals_through(skel, redex)
    hits = [u for u in leftover if u.position in prefix]
    if hits:
        raise ResidualHitsPrefix(
            "residual at " + ", ".join(position_str(u.position) for u in hits))
    seq = epsilon_seq(prefix, dev_seq)
    projected = project_sequence(skel, redex, system=dev_seq.system)
    return ProjectionResult(projected, seq, skel)


@dataclass(frozen=True)
class ReductionDescriptor:
    """A reduction from the sequence's initial term: a finite list of
    (position, rule name) steps, optionally followed by a periodic tail with
    a declared limit term (the rational form of an omega reduction)."""
    steps: tuple = ()
    period: tuple = ()          # (position, rule name) steps, repeated
    limit: object = None        # Term reached at the omega limit
    max_rounds: int = 64


def emaciate_reduction(dev_seq, reduction, prefix, system=None):
    """Iterated emaciated projection along a reduction.

    For a finite reduction this is the fold of emaciate_step.  For a
    periodic tail, the measure must stabilise (projecting essential steps
    strictly decreases it); once a full period leaves the measure unchanged,
    every further step is inessential and the projection is the skeleton of
    the current sequence restarted at the declared limit term.
    """
    system = system or dev_seq.system
    prefix = _check_prefix_set(prefix, dev_seq.final)
    cur_seq = dev_seq
    cur_term = dev_seq.initial

    def apply_steps(seq, term, specs):
        for pos, rulename in specs:
            rule = system.rule(rulename) if isinstance(rulename, str) else rulename
            v = match(rule, term, tuple(pos))
            if v is None:
                raise PreconditionViolated(
                    f"reduction step is not a redex at {position_str(tuple(pos))}")
            u = Redex(tuple(pos), rule, v)
            result = emaciate_step(seq, u, prefix)
            seq = result.sequence
            term = complete_development(term, [u], system).target
        return seq, term

    cur_seq, cur_term = apply_steps(cur_seq, cur_term, reduction.steps)
    if not reduction.period:
        return ProjectionResult(cur_seq, epsilon_seq(prefix, cur_seq), cur_seq)
    if reduction.limit is None:
        raise PreconditionViolated("a periodic reduction needs a limit term")
    prev = measure(cur_seq, prefix)
    for _ in range(reduction.max_rounds):
        nxt_seq, nxt_term = apply_steps(cur_seq, cur_term, reduction.period)
        m = measure(nxt_seq, prefix)
        if m == prev:
            seq0 = epsilon_seq(prefix, nxt_seq)
            skel = essential_skeleton(nxt_seq, prefix, initial=reduction.limit)
            return ProjectionResult(skel, seq0, skel)
        cur_seq, cur_term, prev = nxt_seq, nxt_term, m
    raise PreconditionViolated(
        "measure did not stabilise within the round budget")
