"""The walk machine keeps only what a state's future reads: a closure is the
rule state at the meta-variable the walk returns into, and a term state's
environment holds the free variables of its value.  The untrimmed route it
replaced is written out here as the reference: every binder passed stays in
the environment ('ord' for an ordinary one), and every closure keeps the
whole environment of its redex.  Trimming must not change a verdict or a
target, and must not add labelled states."""

import random
import re

from icrs import ALL_REDEXES, alpha_eq, parse_system, parse_term, print_term
from icrs.developments import (
    _assoc_extend, _assoc_get, _Machine, _rel_descend_path, _RState, _TState,
)
from icrs.errors import BudgetExceeded, FiniteJumpsViolated
from icrs.oracle import develops_by_exhaustion
from icrs.systems import pattern_meta
from icrs.terms import Abs, Rec, RecVar, Sym, Var, resolve, root_label, subterm_at

from conftest import corpus_text
from test_path_trie import VIOLATIONS, instances


class UntrimmedMachine(_Machine):
    """The former environments: nothing is dropped on the way down."""

    def label(self, st):
        if (isinstance(st, _TState) and isinstance(st.value, Var)
                and _assoc_get(st.env, st.value.name) == "ord"):
            return root_label(st.value)
        return super().label(st)

    def _eps_successor(self, st):
        if isinstance(st, _TState):
            return super()._eps_successor(st)
        occ = pattern_meta(st.rule.lhs).metavar(st.value.mv)
        env = _assoc_extend(st.env, [
            (resolve(subterm_at(st.redex_value, rho)).var, (st, lhs_var))
            for rho, lhs_var in occ.scope])
        return _TState(resolve(subterm_at(st.redex_value, occ.position)),
                       _rel_descend_path(st.redex_rel, occ.position), env, st.nenv)

    def successors(self, st):
        out = super().successors(st)
        if isinstance(st, _RState):
            return out
        env = st.env
        if isinstance(st.value, Abs):
            env = _assoc_extend(env, [(st.value.var, "ord")])
        return [(i, _TState(n.value, n.rel, env, n.names)) for i, n in out]


def run(machine):
    """(verdict, target term, labelled states) of one machine."""
    try:
        _, graph = machine.walk()
    except FiniteJumpsViolated:
        return False, None, 0
    except BudgetExceeded:
        return BudgetExceeded, None, 0
    return True, machine.target(), len(graph)


def rec_blind(printed):
    """A printed term with its rec-binder numbers erased: merged states
    skip counter values, so only the numbers may differ."""
    return re.sub(r"\bT\d+\b", "T", printed)


def test_trimmed_environments_agree_with_the_untrimmed_route():
    violations = [(parse_term(term), ALL_REDEXES, parse_system(text))
                  for text, term in VIOLATIONS]
    trimmed_states = untrimmed_states = renumbered = refuted = 0
    cases = instances(1606, 200) + violations
    for t, redexes, system in cases:
        verdict, target, states = run(_Machine(t, redexes, system))
        ref_verdict, ref_target, ref_states = run(
            UntrimmedMachine(t, redexes, system, state_budget=20_000))
        assert ref_verdict is not BudgetExceeded
        assert verdict == ref_verdict, print_term(t)
        if verdict:
            assert alpha_eq(target, ref_target)
            printed, ref_printed = print_term(target), print_term(ref_target)
            assert rec_blind(printed) == rec_blind(ref_printed)
            renumbered += printed != ref_printed
        refuted += verdict is False
        trimmed_states += states
        untrimmed_states += ref_states
    assert refuted == len(VIOLATIONS)
    assert trimmed_states <= untrimmed_states
    assert renumbered <= len(cases) // 20


# ---------------------------------------------------------------------------
# seeded cyclic λ-terms against the exhaustion oracle

LAMBDA = parse_system(corpus_text("lambda_beta.crs"))


def lambda_body(rng, depth, bound):
    """A λ-term over app/abs whose leaves are bound variables or the rec
    variable S, biased towards beta redexes."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        name = rng.choice(bound + ["S"])
        return RecVar("S") if name == "S" else Var(name)
    if roll < 0.45:
        x = f"x{depth}"
        fun = Sym("abs", (Abs(x, lambda_body(rng, depth - 1, bound + [x])),))
        return Sym("app", (fun, lambda_body(rng, depth - 1, bound)))
    if roll < 0.7:
        return Sym("app", (lambda_body(rng, depth - 1, bound),
                           lambda_body(rng, depth - 1, bound)))
    y = f"y{depth}"
    return Sym("abs", (Abs(y, lambda_body(rng, depth - 1, bound + [y])),))


def cyclic_lambda_terms(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        body = lambda_body(rng, 3, [])
        if isinstance(body, Sym):  # guarded: S sits below a symbol
            out.append(Rec("S", body))
    return out


def test_cyclic_lambda_terms_agree_with_the_oracle():
    """Where the machine answers, it answers as the oracle does, and as the
    untrimmed route does where that answers within its budget; on most of
    the terms that route's closures nest deeper each turn of the cycle and
    it never answers.  Where a pattern-bound variable's closure chains to
    the previous activation's (`[y] ... app(S, y)`), the chain grows each
    turn and the trimmed machine runs out of states too; those terms are
    counted, never given a verdict."""
    answered, only_trimmed, undecided = 0, 0, []
    for k, t in enumerate(cyclic_lambda_terms(1607, 200)):
        verdict, target, _ = run(_Machine(t, ALL_REDEXES, LAMBDA, state_budget=2000))
        if verdict is BudgetExceeded:
            undecided.append(print_term(t))
            continue
        assert verdict == develops_by_exhaustion(t, ALL_REDEXES, LAMBDA), print_term(t)
        answered += 1
        if k % 2:  # the untrimmed route is slow to give up; half the terms
            continue
        ref_verdict, ref_target, _ = run(
            UntrimmedMachine(t, ALL_REDEXES, LAMBDA, state_budget=300))
        if ref_verdict is BudgetExceeded:
            only_trimmed += 1
            continue
        assert verdict == ref_verdict, print_term(t)
        assert target is None or alpha_eq(target, ref_target), print_term(t)
    assert answered >= 180
    assert only_trimmed >= 30
    assert len(undecided) <= 20, undecided
