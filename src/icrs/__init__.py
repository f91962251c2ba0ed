"""Higher-order rewriting engine over rational (finitely cyclic) terms:
complete developments through paths, prefix-set essentiality with measures
and emaciated projections, and normalising fair reduction strategies."""

from .terms import (
    HOLE, Abs, MetaApp, Position, Rec, RecVar, Sym, Term, Var,
    alpha_eq, distance, graft, is_prefix_set, positions_to_depth, resolve,
    subterm_at, truncate, unfold,
)
from .syntax import (
    parse_metaterm, parse_position, parse_system, parse_term, position_str,
    print_system, print_term,
)
from .systems import (
    CheckReport, RewriteSystem, Rule, Verdict,
    check_fully_extended, check_left_linear, check_orthogonal, check_pattern,
    check_rule, check_system, require_valid,
)
from .rewriting import (
    Redex, StepRecord, Substitute, Valuation,
    apply_substitute, apply_valuation, contract, descendants, find_redexes,
    match, residuals, substitute,
)
from .developments import (
    ALL_REDEXES, AllRedexes, DevRecord, DevSequence, Path, PathProjection,
    PathSpace, RuleNode, TermNode,
    complete_development, dev_sequence_of_steps, has_finite_jumps,
    project_dev_over_finite, project_sequence, redexes_from_positions,
    target_term,
)
from .essential import (
    Measure, PathPrefixSet, ProjectionResult, ReductionDescriptor,
    classify_redex, emaciate_reduction, emaciate_step,
    epsilon_seq, epsilon_step, essential_skeleton, measure, measure_less,
    mirrors, path_prefix_set, sequence_mirrors, sub_mirrors, zeta,
)
from .strategies import (
    FAIR, NEEDED_FAIR, OUTERMOST_FAIR, Approximant, StrategyKind, Trace,
    detect_rational_nf, fairness_audit, is_normal_form, needed_pilot,
    normalize, outermost_redexes, trace_of,
)
from . import errors, oracle

__all__ = [name for name in dir() if not name.startswith("_")]
