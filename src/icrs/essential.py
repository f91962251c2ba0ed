"""Essentiality: which positions and redexes contribute to a chosen finite
part of a development's final term.

Given a complete development s =U=> t and a prefix set P of t, the paths of s
whose projection edge-word stays inside P form the path prefix set; reading
the positions those paths touch (pattern positions for redex endpoints) back
off gives the prefix set of s that feeds P.  One backward sweep through a
finite sequence of complete developments classifies every position and redex
of the initial term as essential or inessential for P, yields the tuple measure
ordered length-first then lexicographically, and drives the emaciated
projection: replace the sequence by its all-essential finite skeleton, then
project that skeleton over a step.  Projecting an essential step strictly
shrinks the measure; projecting an inessential one preserves the measure,
the essential positions and the mirrored part of the final term.
"""

from __future__ import annotations

import operator

from .errors import (
    NotAPrefixSet, PositionError, PreconditionViolated, ResidualHitsPrefix,
    TermError,
)
from .developments import (
    AllRedexes, DevSequence, PathSpace, RuleNode, complete_development,
    project_sequence,
)
from .records import Frozen
from .rewriting import Redex, match, residuals, step_redex
from .syntax import position_str
from .systems import pattern_meta
from .terms import is_prefix_set, root_key, subterm_at


class PathPrefixSet(Frozen):
    __slots__ = ("paths",
                 "anchor")  # the prefix set of the development target it came from

    def __init__(self, paths, anchor):
        set_paths, set_anchor = self._set
        set_paths(self, paths)
        set_anchor(self, anchor)

    def __len__(self):
        return len(self.paths)


def _check_prefix_set(positions, term, what="prefix set"):
    ps = frozenset(tuple(p) for p in positions)
    if not is_prefix_set(ps, term):
        raise NotAPrefixSet(f"{what} is not a prefix set of the term")
    return ps


def path_prefix_set(prefix, stage):
    """All paths of a development stage (a DevRecord) whose projection
    edge-word lies in the given prefix set of the stage target.  A DevRecord
    is a complete development by construction: realised step by step, or
    built by the walk machine after its finite jumps check."""
    prefix = _check_prefix_set(prefix, stage.target)
    if not prefix:
        return PathPrefixSet((), prefix)
    space = PathSpace(stage.source, stage.redexes, stage.system)
    enum = space.enumerate(prefix=prefix)
    if enum.truncated:
        raise PreconditionViolated("path prefix set enumeration was cut short")
    return PathPrefixSet(enum.maximal, prefix)


def zeta(path):
    """Positions of the source term contributed by a finite path: its final
    term position, widened to the whole redex pattern at redex endpoints;
    nothing for rule-side endpoints."""
    last = path.node
    if isinstance(last, RuleNode):
        return frozenset()
    u = last.redex
    if u is None:
        return frozenset([last.position])
    return frozenset(u.position + rel for rel in pattern_meta(u.rule.lhs).positions)


def _fed(paths):
    """Union of zeta over paths."""
    out = set()
    for path in paths:
        out |= zeta(path)
    return frozenset(out)


def _redex_paths(rel, step, system, table):
    """The paths of a step's development, at p, walked in the redex subterm
    alone with the redex at the empty position, whose edge words lie in
    `rel`, the positions of the prefix set at or below p taken relative to
    p; positions are relative to p.  The whole-term paths through p are the
    plain path down to p followed by one of these.  The table keeps the
    redex's path space by (redex node, rule), so its nodes are built once."""
    if () not in rel:
        return ()
    u = step.redex
    node = step.path[-1]
    space = table.get((node, u.rule))
    if space is None:
        space = table[node, u.rule] = PathSpace(
            node, (Redex((), u.rule, u.valuation),), system)
    enum = space.enumerate(prefix=rel)
    if enum.truncated:
        raise PreconditionViolated("path prefix set enumeration was cut short")
    return enum.maximal


def epsilon_step(prefix, stage):
    """Prefix set of the stage source feeding the given prefix set of the
    stage target (union of zeta over the path prefix set).

    A stage realised as one step, at p, changes the path space only below
    p: in an orthogonal system a position disjoint from the redex or above
    it keeps its subterm or its pattern (Huet & Levy, "Computations in
    orthogonal rewriting systems", 1991), so it is reached by one plain
    path and feeds only itself.  Such positions pass straight through, and
    paths are enumerated only from the redex node (`_redex_paths`)."""
    if stage.steps is None or len(stage.steps) != 1:
        return _fed(path_prefix_set(prefix, stage).paths)
    return local_epsilon_step(_check_prefix_set(prefix, stage.target),
                              stage.steps[0], stage.system, {})


def local_epsilon_step(prefix, step, system, table):
    """`epsilon_step` through the development of one step (a StepRecord)
    of the system, for a frozenset of positions that the caller built as a
    prefix set of the step's target: it is not checked again.  The
    needed-fair sweep passes its cut's prefix and epsilon images of it,
    which are prefix sets.

    `table`, a dict that may serve many steps of one system, keeps each
    redex-local image by (redex node, rule, relative prefix) and each
    redex's path space by (redex node, rule).  The image reads nothing
    else: the node is hash-consed and the valuation is its match.  A cut
    enumeration raises and is not kept."""
    p = step.redex.position
    n = len(p)
    out, rel = set(), set()
    for q in prefix:
        if q[:n] == p:
            rel.add(q[n:])
        else:
            out.add(q)
    if () in rel:
        key = (step.path[-1], step.redex.rule, frozenset(rel))
        image = table.get(key)
        if image is None:
            image = table[key] = _fed(_redex_paths(key[2], step, system, table))
        out.update(p + q for q in image)
    return frozenset(out)


class Sweep(Frozen):
    """The backward pass through a development sequence for a prefix set of
    its final term."""
    __slots__ = (
        "sets",       # (P_0, ..., P_n): P_n given, each earlier the epsilon image
        "path_sets")  # the path prefix set of every stage, first stage first

    def __init__(self, sets, path_sets):
        set_sets, set_path_sets = self._set
        set_sets(self, sets)
        set_path_sets(self, path_sets)

    @property
    def measure(self):
        """Per-stage path-prefix-set cardinalities, last stage first."""
        return Measure(tuple(len(pps) for pps in reversed(self.path_sets)))


def sweep(prefix, dev_seq):
    """One backward pass: stage i's path prefix set is taken from P_i+1, and
    P_i is the union of zeta over it."""
    sets = [_check_prefix_set(prefix, dev_seq.final)]
    path_sets = []
    for stage in reversed(dev_seq.stages):
        pps = path_prefix_set(sets[-1], stage)
        path_sets.append(pps)
        sets.append(_fed(pps.paths))
    sets.reverse()
    path_sets.reverse()
    return Sweep(tuple(sets), tuple(path_sets))


def epsilon_seq(prefix, dev_seq):
    """(P_0, ..., P_n) with P_n the given prefix set and each earlier set the
    epsilon image through the corresponding stage."""
    return sweep(prefix, dev_seq).sets


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

class Measure(Frozen):
    __slots__ = ("values",)  # (l_n, ..., l_1): stage cardinalities, last stage first

    def __init__(self, values):
        self._set[0](self, values)

    def __len__(self):
        return len(self.values)

    def render(self):
        return "(" + ", ".join(map(str, self.values)) + ")"


def measure(dev_seq, prefix):
    """Per-stage path-prefix-set cardinalities, last stage first."""
    return sweep(prefix, dev_seq).measure


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
    d = sweep(p_prefix, d_seq)
    try:
        e = sweep(q_prefix, e_seq)
    except NotAPrefixSet:
        return False, f"prefix set positions missing from the {missing} sequence"
    for i in range(len(d_seq) + 1):
        if not fits(e.sets[i], d.sets[i]):
            return False, f"essential sets {relation} at stage {i}"
        td = d_seq.stages[i - 1].target if i else d_seq.initial
        te = e_seq.stages[i - 1].target if i else e_seq.initial
        ok, why = mirrors(te, td, e.sets[i])
        if not ok:
            return False, f"stage {i}: {why}"
    for i in range(len(d_seq)):
        if not fits(frozenset(e.path_sets[i].paths),
                    frozenset(d.path_sets[i].paths)):
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
    return _skeleton(dev_seq, epsilon_seq(prefix, dev_seq), initial)


def _skeleton(dev_seq, seq, initial=None):
    """essential_skeleton from the sweep's essential sets `seq`."""
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
    if isinstance(stage.redexes, AllRedexes):
        raise PreconditionViolated(
            "skeletons need explicitly listed stage redex sets")
    return list(stage.redexes)


class ProjectionResult(Frozen):
    __slots__ = ("sequence",
                 "essential_sets",  # per-term essential position sets of the input
                 "skeleton")

    def __init__(self, sequence, essential_sets, skeleton):
        set_sequence, set_essential_sets, set_skeleton = self._set
        set_sequence(self, sequence)
        set_essential_sets(self, essential_sets)
        set_skeleton(self, skeleton)

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
    seq = epsilon_seq(prefix, dev_seq)
    skel = _skeleton(dev_seq, seq)
    leftover = _residuals_through(skel, redex)
    hits = [u for u in leftover if u.position in seq[-1]]
    if hits:
        raise ResidualHitsPrefix(
            "residual at " + ", ".join(position_str(u.position) for u in hits))
    projected = project_sequence(skel, redex, system=dev_seq.system)
    return ProjectionResult(projected, seq, skel)


class ReductionDescriptor(Frozen):
    """A reduction from the sequence's initial term: a finite list of
    (position, rule name) steps, optionally followed by a periodic tail with
    a declared limit term (the rational form of an omega reduction)."""
    __slots__ = ("steps",
                 "period",  # (position, rule name) steps, repeated
                 "limit",   # Term reached at the omega limit
                 "max_rounds")

    def __init__(self, steps=(), period=(), limit=None, max_rounds=64):
        set_steps, set_period, set_limit, set_max_rounds = self._set
        set_steps(self, steps)
        set_period(self, period)
        set_limit(self, limit)
        set_max_rounds(self, max_rounds)


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
        for pos, rule in specs:
            u = step_redex(term, system, pos, rule)
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
        swept = sweep(prefix, nxt_seq)
        m = swept.measure
        if m == prev:
            skel = _skeleton(nxt_seq, swept.sets, initial=reduction.limit)
            return ProjectionResult(skel, swept.sets, skel)
        cur_seq, cur_term, prev = nxt_seq, nxt_term, m
    raise PreconditionViolated(
        "measure did not stabilise within the round budget")
