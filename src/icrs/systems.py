"""Rewrite rules, systems, and the static well-formedness checks.

A rule pairs a finite pattern left-hand side (symbol at the root, every
meta-variable applied to distinct bound variables) with a rational right-hand
side whose meta-variables all occur on the left.  The checks below gate the
development/essentiality/strategy machinery, which assumes an orthogonal and
fully-extended system throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    EngineError, ParseError, PreconditionViolated, SystemCheckFailed, TermError,
)
from .rewriting import Substitute, Valuation, apply_substitute, apply_valuation
from .terms import (
    HOLE, Abs, MetaApp, Rec, RecVar, Sym, Term, Var,
    children, env_lookup, free_vars, meta_vars, resolve, subterm_at,
)


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class RewriteSystem:
    rules: tuple
    signature: tuple  # sorted ((symbol, arity), ...)

    def arity(self, f):
        for g, n in self.signature:
            if g == f:
                return n
        raise KeyError(f)

    def rule(self, name):
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    @cached_property
    def _rules_by_root(self):
        """(symbol, arity) of the lhs root -> the rules that can match under
        that root, in system order; None -> the rules whose lhs root is no
        symbol (check_rule rejects them, an unchecked system may have them),
        which are candidates at every node."""
        def key(r):
            return (r.lhs.fun, len(r.lhs.args)) if isinstance(r.lhs, Sym) else None

        index = {None: tuple(r for r in self.rules if key(r) is None)}
        for k in {key(r) for r in self.rules}:
            index[k] = tuple(r for r in self.rules if key(r) in (k, None))
        return index

    def rules_for(self, node):
        """The rules that can match at the resolved node, in system order:
        those whose lhs root is the node's symbol with its arity, and those
        whose lhs root is no symbol."""
        index = self._rules_by_root
        if isinstance(node, Sym):
            return index.get((node.fun, len(node.args)), index[None])
        return index[None]


def infer_signature(rules, declared=None):
    sig = dict(declared or {})

    def walk(t):
        match t:
            case Sym(f, args, _):
                n = len(args)
                if f == HOLE:
                    raise TermError("the hole symbol is reserved")
                if sig.setdefault(f, n) != n:
                    raise ParseError(f"symbol {f} used with arities {sig[f]} and {n}")
                for a in args:
                    walk(a)
            case Abs(_, body, _) | Rec(_, body):
                walk(body)
            case MetaApp(_, args):
                for a in args:
                    walk(a)
            case _:
                pass

    for r in rules:
        walk(r.lhs)
        walk(r.rhs)
    return tuple(sorted(sig.items()))


@dataclass(frozen=True)
class Verdict:
    check: str
    ok: bool
    detail: str = ""
    witness: object = field(default=None, compare=False)

    def __bool__(self):
        return self.ok

    def render(self):
        status = "pass" if self.ok else "FAIL"
        msg = f"{self.check}: {status}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass(frozen=True)
class OverlapWitness:
    rule_outer: str
    rule_inner: str
    position: tuple
    instance: Term  # a term with an outer redex at the root and an inner one at position


@dataclass(frozen=True)
class CheckReport:
    verdicts: tuple

    @property
    def ok(self):
        return all(v.ok for v in self.verdicts)

    def summary(self):
        return "; ".join(v.render() for v in self.verdicts)

    def render(self):
        return "\n".join(v.render() for v in self.verdicts)


# ---------------------------------------------------------------------------
# individual checks

def _is_finite(t):
    match t:
        case Rec(_, _) | RecVar(_):
            return False
        case Abs(_, body, _):
            return _is_finite(body)
        case Sym(_, args, _) | MetaApp(_, args):
            return all(_is_finite(a) for a in args)
        case _:
            return True


def check_pattern(l):
    """Every meta-variable occurrence applied to pairwise-distinct bound
    variables; the meta-term itself finite."""
    if not _is_finite(l):
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


def _metavar_chain_cycle(rhs):
    """Find a cycle of directly nested meta-variable applications in the
    rational rhs graph: the finite-representation form of an infinite chain
    of meta-variables."""
    seen = set()

    def walk(t, meta_path):
        t = resolve(t)
        if isinstance(t, MetaApp):
            if t in meta_path:
                return t
            if t in seen:
                return None
            seen.add(t)
            for a in t.args:
                hit = walk(a, meta_path | {t})
                if hit is not None:
                    return hit
            return None
        if t in seen:
            return None
        seen.add(t)
        for _, c in children(t):
            hit = walk(c, frozenset())
            if hit is not None:
                return hit
        return None

    return walk(rhs, frozenset())


def check_rule(rule):
    pat = check_pattern(rule.lhs)
    if not pat.ok:
        return Verdict("rule", False, f"{rule.name}: {pat.detail}", witness=pat.witness)
    root = rule.lhs
    if not isinstance(root, Sym):
        return Verdict("rule", False, f"{rule.name}: lhs root must be a function symbol")
    extra = meta_vars(rule.rhs) - meta_vars(rule.lhs)
    if extra:
        return Verdict("rule", False,
                       f"{rule.name}: rhs meta-variables {sorted(extra)} not in lhs")
    for side, t in (("lhs", rule.lhs), ("rhs", rule.rhs)):
        fv = free_vars(t)
        if fv:
            return Verdict("rule", False,
                           f"{rule.name}: {side} has free variables {sorted(fv)}")
    hit = _metavar_chain_cycle(rule.rhs)
    if hit is not None:
        return Verdict("rule", False,
                       f"{rule.name}: rhs has an infinite chain of meta-variables",
                       witness=hit)
    return Verdict("rule", True)


def _metavar_occurrences(l):
    """meta-variable name -> (position, arg names) in a left-linear pattern."""
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


def check_left_linear(system):
    for rule in system.rules:
        occs = _metavar_occurrences(rule.lhs)
        for z, places in occs.items():
            if len(places) > 1:
                return Verdict("left-linear", False,
                               f"{rule.name}: {z} occurs {len(places)} times in lhs",
                               witness=(rule.name, z, tuple(p for p, _ in places)))
    return Verdict("left-linear", True)


def check_fully_extended(system):
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


# ---------------------------------------------------------------------------
# orthogonality via unification of left-linear patterns

def _rename_metavars(t, suffix):
    match t:
        case MetaApp(z, args):
            return MetaApp(z + suffix, tuple(_rename_metavars(a, suffix) for a in args))
        case Abs(x, body, tag):
            return Abs(x, _rename_metavars(body, suffix), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(_rename_metavars(a, suffix) for a in args), tag)
        case _:
            return t


def _nonmeta_positions(l):
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


class _Unifier:
    """Unification of two left-linear patterns up to a valuation.

    Because each meta-variable occurs exactly once over both sides, a flex
    node unifies against anything whose rigidly-free variables are covered by
    the flex arguments; there are no occurs-checks or flex-flex chains.
    Produces concrete witness substitutes so overlaps can be replayed.
    """

    def __init__(self):
        self.sigma = {}
        self._fresh = 0

    def _const(self):
        self._fresh += 1
        return Sym(f"w{self._fresh}", ())

    def unify(self, a, b, pairs):
        """pairs: tuple of (left-side name, right-side name) binder pairs."""
        match a, b:
            case MetaApp(_, _), _:
                return self._flex(a, b, pairs, flip=False)
            case _, MetaApp(_, _):
                return self._flex(b, a, pairs, flip=True)
            case Var(x, _), Var(y, _):
                return env_lookup(pairs, x, y)
            case Abs(x, s, _), Abs(y, t, _):
                return self.unify(s, t, pairs + ((x, y),))
            case Sym(f, xs, _), Sym(g, ys, _):
                return (f == g and len(xs) == len(ys)
                        and all(self.unify(s, t, pairs) for s, t in zip(xs, ys)))
            case _:
                return False

    def _flex(self, flex, other, pairs, flip):
        # the flex side's argument names, translated into the other side's world
        trans = {}
        for x, y in pairs:
            a, b = (x, y) if not flip else (y, x)
            trans[a] = b
        allowed = set()
        for arg in flex.args:
            if arg.name in trans:
                allowed.add(trans[arg.name])
        if not self._coverable(other, allowed, frozenset()):
            return False
        body = self._ground(other, {v: Var(k) for k, v in trans.items()
                                    if v in allowed})
        self.sigma[flex.mv] = Substitute(tuple(a.name for a in flex.args), body)
        return True

    def _coverable(self, t, allowed, local):
        """No rigidly-free variable of t escapes the allowed set."""
        match t:
            case Var(x, _):
                return x in local or x in allowed
            case Abs(x, body, _):
                return self._coverable(body, allowed, local | {x})
            case Sym(_, args, _):
                return all(self._coverable(a, allowed, local) for a in args)
            case MetaApp(_, _):
                return True  # its substitute may drop every argument
            case _:
                return False

    def _ground(self, t, rename):
        """Witness image of t: translate paired variables, instantiate the
        other side's meta-variables with fresh constants."""
        match t:
            case Var(x, tag):
                return rename.get(x, Var(x, tag))
            case Abs(x, body, tag):
                inner = dict(rename)
                inner.pop(x, None)
                return Abs(x, self._ground(body, inner), tag)
            case Sym(f, args, tag):
                return Sym(f, tuple(self._ground(a, rename) for a in args), tag)
            case MetaApp(z, args):
                if z not in self.sigma:
                    self.sigma[z] = Substitute(
                        tuple(a.name for a in args), self._const())
                sub = self.sigma[z]
                return apply_substitute(
                    sub, tuple(self._ground(a, rename) for a in args))
        raise TermError("pattern contains a rec node")


def check_orthogonal(system):
    """The first overlap in (outer rule, inner rule, position) order, or a
    pass.  Each rule's metavariables are renamed and its non-meta positions
    found once.  A position whose symbol or arity differs from the inner
    lhs root symbol is skipped without unifying, as unification would fail
    on that first comparison."""
    ll = check_left_linear(system)
    if not ll.ok:
        raise PreconditionViolated("orthogonality check requires a left-linear system")
    inners = [Rule(r.name, _rename_metavars(r.lhs, "#2"), r.rhs) for r in system.rules]
    for i, r1 in enumerate(system.rules):
        sites = [(p, subterm_at(r1.lhs, p)) for p in _nonmeta_positions(r1.lhs)]
        for j, inner in enumerate(inners):
            root = inner.lhs
            for p, node in sites:
                if i == j and p == ():
                    continue  # a rule trivially overlaps its own copy at the root
                if isinstance(root, Sym) and not (
                        isinstance(node, Sym) and node.fun == root.fun
                        and len(node.args) == len(root.args)):
                    continue
                uni = _Unifier()
                if uni.unify(node, root, ()):
                    witness = _overlap_instance(r1, inner, p, uni)
                    return Verdict(
                        "orthogonal", False,
                        f"rules {r1.name} and {inner.name} overlap at {'.'.join(map(str, p)) or '@'}",
                        witness=witness)
    return Verdict("orthogonal", True)


def _overlap_instance(r1, inner, p, uni):
    """Build a replayable overlap witness term from the collected bindings."""
    sigma = dict(uni.sigma)
    for z, places in _metavar_occurrences(r1.lhs).items():
        if z not in sigma:
            _, argnames = places[0]
            sigma[z] = Substitute(argnames, uni._const())
    for z, places in _metavar_occurrences(inner.lhs).items():
        if z not in sigma:
            _, argnames = places[0]
            sigma[z] = Substitute(argnames, uni._const())
    try:
        instance = apply_valuation(Valuation(sigma), r1.lhs)
    except EngineError:  # a witness is best-effort; the position is authoritative
        instance = None
    return OverlapWitness(r1.name, inner.name, p, instance)


def check_system(system):
    verdicts = []
    rule_verdicts = [check_rule(r) for r in system.rules]
    bad = next((v for v in rule_verdicts if not v.ok), None)
    verdicts.append(bad if bad is not None else Verdict("rule", True))
    ll = check_left_linear(system)
    verdicts.append(ll)
    verdicts.append(check_fully_extended(system))
    if ll.ok:
        verdicts.append(check_orthogonal(system))
    else:
        verdicts.append(Verdict("orthogonal", False, "skipped: not left-linear"))
    return CheckReport(tuple(verdicts))


@lru_cache(maxsize=None)
def _checked_ok(system):
    return check_system(system)


def require_valid(system):
    """Gate for development/essentiality/strategy operations."""
    report = _checked_ok(system)
    if not report.ok:
        raise SystemCheckFailed(report)
    return system


# ---------------------------------------------------------------------------
# rule metadata used by matching and the path machinery

@lru_cache(maxsize=None)
def rule_meta(rule):
    """Positions and binder layout of a rule's pattern."""
    metavar_pos = {}
    arg_names = {}
    abs_positions = {}
    pattern = []

    def walk(t, p, scope):
        match t:
            case MetaApp(z, args):
                metavar_pos[z] = p
                arg_names[z] = tuple(a.name for a in args)
            case Abs(x, body, _):
                pattern.append(p)
                abs_positions[p] = x
                walk(body, p + (0,), scope + (x,))
            case Sym(_, args, _):
                pattern.append(p)
                for i, a in enumerate(args):
                    walk(a, p + (i + 1,), scope)
            case Var(x, _):
                pattern.append(p)

    walk(rule.lhs, (), ())
    return RuleMeta(rule, tuple(sorted(pattern)),
                    tuple(sorted(metavar_pos.items())),
                    tuple(sorted(abs_positions.items())),
                    abs_positions, arg_names)


@dataclass(frozen=True)
class RuleMeta:
    rule: Rule
    pattern_positions: tuple      # non-meta positions of the lhs, relative
    metavar_positions: tuple      # ((Z, position), ...)
    abs_positions: tuple          # ((position, binder name), ...)
    abs_map: dict = field(compare=False)    # position -> binder name
    arg_names: dict = field(compare=False)  # Z -> its argument variable names

    def metavar_position(self, z):
        for name, p in self.metavar_positions:
            if name == z:
                return p
        raise KeyError(z)

    def metavar_args(self, z):
        """Argument variable names of Z's occurrence in the lhs, in order."""
        return self.arg_names[z]

    def max_depth(self):
        return max((len(p) for p in self.pattern_positions), default=0)
