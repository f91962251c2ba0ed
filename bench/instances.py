"""Seeded crosscheck instances, generated apart from the engine.

An instance is a system text, a term text and a redex set given by
positions.  The generator builds its own tree, so it knows where every
redex, pattern node and pattern-bound variable sits without asking the
engine.  Only the engine's parser sees the text.

Kept within the oracle's caps on purpose:
  * cycles are never nested and never under a binder (two nested cycles
    make the paths projection injectivity visits grow with the square of
    its length budget, one cycle only linearly);
  * redex sets whose residuals could pile up are dropped (residual_bound),
    since all_development_orders walks every order without sharing states,
    and so are terms whose redexes all together could, since
    develops_by_exhaustion tries them all;
  * terms of depth 3 and redex sets of 1 to 3 redexes above depth 5, as the
    engine's own randomized suites use.
"""

import random

from tree import fmt, has_rec, positions, resolve, size, subterm, sym

CONSTRUCTORS = "sym k/0 ; sym c1/1 ; sym c2/2 ;"

# rule name -> (rule text, root symbol, pattern positions relative to the
# redex, position of the pattern's abstraction or None)
RULES = {
    "dup": ("rule dup: dup(Z) -> c2(Z, Z) ;", "dup", ((),), None),
    "drop": ("rule drop: drop(Z) -> k ;", "drop", ((),), None),
    "swap": ("rule swap: swap(Z, W) -> c2(W, Z) ;", "swap", ((),), None),
    "col": ("rule col: col(Z) -> Z ;", "col", ((),), None),
    "uno": ("rule uno: uno(Z) -> c1(Z) ;", "uno", ((),), None),
    "hob": ("rule hob: hob([x] Z(x), W) -> Z(c1(Z(W))) ;", "hob",
            ((), (1,)), (1,)),
    "lam": ("rule lam: ap(lm([x] Z(x)), W) -> Z(W) ;", "ap",
            ((), (1,), (1, 1)), (1, 1)),
    "nest": ("rule nest: nest([x] Z(x)) -> Z(Z(k)) ;", "nest",
             ((), (1,)), (1,)),
}
ROOTS = {spec[1]: name for name, spec in RULES.items()}

TERM_DEPTH = 3
REDEX_DEPTH = 5      # redexes are drawn above this depth
MAX_REDEXES = 3
MAX_RESIDUALS = 5    # see residual_bound
MAX_ALL_RESIDUALS = 32  # the same bound over every redex above REDEX_DEPTH
MAX_CYCLE_REDEXES = 6   # redexes above REDEX_DEPTH in a term with a cycle
PROBE_DEPTH = 2      # probe positions for descendant tracking
ESSENTIAL_DEPTH = 3  # positions whose essentiality is checked


class Instance:
    """One crosscheck input.  Everything here is the generator's own
    knowledge; the workload hands only the texts and positions to the
    engine."""

    def __init__(self, rules, tree, redexes):
        self.tree = tree
        self.system_text = CONSTRUCTORS + "\n" + "\n".join(
            RULES[r][0] for r in rules)
        self.term_text = fmt(tree)
        self.redexes = redexes                  # chosen redex positions
        self.rec_free = not has_rec(tree)
        # every redex of a finite term, for the all-redexes comparison
        self.all_redexes = (redex_positions(tree, size(tree) + 1)
                            if self.rec_free else None)
        pattern, bound = pattern_and_bound(tree, redexes)
        self.probes = positions(tree, PROBE_DEPTH)
        self.probe_redexes = [p for p in redex_positions(tree, PROBE_DEPTH + 1)
                              if p not in redexes][:2]
        self.essential_probes = [p for p in positions(tree, ESSENTIAL_DEPTH)
                                 if p not in pattern and p not in bound]


class _Names:
    def __init__(self):
        self.n = 0

    def fresh(self, base):
        self.n += 1
        return f"{base}{self.n}"


def _term(rng, rules, depth, bound, allow_rec, names):
    """A closed term biased towards redexes.  `allow_rec` is cleared below
    a cycle and under binders, so cycles are never nested."""
    if depth <= 0:
        return _leaf(rng, bound)
    allow_rec = allow_rec and not bound

    def sub(b=bound, rec=allow_rec):
        return _term(rng, rules, depth - 1, b, rec, names)

    roll = rng.random()
    if roll < 0.5:
        name = rng.choice(rules)
        if name == "swap":
            return sym("swap", sub(), sub())
        if name in ("hob", "lam", "nest"):
            x = names.fresh("x")
            body = sub(bound + (x,), False)
            if name == "hob":
                return sym("hob", ("a", x, body), sub())
            if name == "lam":
                return sym("ap", sym("lm", ("a", x, body)), sub())
            return sym("nest", ("a", x, body))
        return sym(name, sub())
    if roll < 0.65:
        return sym("c2", sub(), sub())
    if roll < 0.75:
        return sym("c1", sub())
    if roll < 0.85 and allow_rec:
        v = names.fresh("R")
        return ("r", v, sym("c2", sub(rec=False), ("rv", v)))
    return _leaf(rng, bound)


def _leaf(rng, bound):
    if bound and rng.random() < 0.5:
        return ("v", rng.choice(bound))
    return sym("k")


def redex_positions(tree, depth_bound):
    """Positions above the bound whose node is a rule's root symbol.  The
    generator places rule symbols only in their rule's shape, so each one is
    a redex."""
    out = []
    for p in positions(tree, depth_bound - 1):
        node = resolve(subterm(tree, p))
        if node[0] == "s" and node[1] in ROOTS:
            out.append(p)
    return out


def pattern_and_bound(tree, redexes):
    """Pattern positions of the chosen redexes, and positions of variables
    bound by an abstraction of one of those patterns."""
    pattern = set()
    bound = set()
    for p in redexes:
        rule = ROOTS[resolve(subterm(tree, p))[1]]
        _, _, rel_pattern, rel_abs = RULES[rule]
        pattern.update(p + q for q in rel_pattern)
        if rel_abs is None:
            continue
        abs_pos = p + rel_abs
        binder = subterm(tree, abs_pos)
        name = binder[1]
        stack = [(binder[2], abs_pos + (0,))]
        while stack:
            node, q = stack.pop()
            node = resolve(node)
            if node[0] == "v" and node[1] == name:
                bound.add(q)
            elif node[0] == "a":
                stack.append((node[2], q + (0,)))
            elif node[0] == "s":
                stack.extend((a, q + (i + 1,)) for i, a in enumerate(node[2]))
    return pattern, bound


def _occurrences(body, name):
    if body[0] == "v":
        return int(body[1] == name)
    if body[0] == "a":
        return _occurrences(body[2], name)
    if body[0] == "s":
        return sum(_occurrences(a, name) for a in body[2])
    return 0


def _copy_factor(tree, p):
    """The most copies of one argument's material that contracting the
    redex at p can leave behind."""
    rule = ROOTS[resolve(subterm(tree, p))[1]]
    if rule == "dup":
        return 2
    if rule in ("drop", "swap", "col", "uno"):
        return 1
    binder = subterm(tree, p + RULES[rule][3])
    occ = _occurrences(binder[2], binder[1])
    if rule == "lam":
        return max(1, occ)          # Z(W): W once per occurrence of x
    if rule == "nest":
        return 1 + occ              # Z(Z(k))
    return max(1 + occ, occ * occ)  # hob: Z(c1(Z(W)))


def residual_bound(tree, chosen):
    """An upper bound on the residuals of the chosen redexes pending at once
    in any development order.  Substitution can move one chosen redex into
    an argument of any other, so each is counted as copied by all others."""
    factors = [_copy_factor(tree, p) for p in chosen]
    total = 0
    for i in range(len(chosen)):
        copies = 1
        for j, f in enumerate(factors):
            if j != i:
                copies *= f
        total += copies
    return total


def cycle_depth(t, depth=0):
    """Depth of the shallowest cycle binder, None without one."""
    if t[0] == "r":
        return depth
    kids = (t[2],) if t[0] == "a" else t[2] if t[0] == "s" else ()
    found = [cycle_depth(a, depth + 1) for a in kids]
    found = [d for d in found if d is not None]
    return min(found) if found else None


def generate(seed, count):
    """`count` instances, the same for the same seed.  The mix is fixed by
    the instance's index, not by the seed: every fourth term has a cycle,
    and the number of rules, of chosen redexes and the depth of the cycle
    follow fixed cycles, so seeds vary the instances but not the proportions
    of each kind.  (A cycle's depth sets how much of the term repeats, and
    with it most of the cost of the path oracles.)"""
    rng = random.Random(f"crosscheck:{seed}")
    out = []
    while len(out) < count:
        i = len(out)
        want_rec = i % 4 == 0
        n_rules = 2 + (i // 4) % 4
        n_redexes = 1 + i % 3
        rules = sorted(rng.sample(sorted(RULES), n_rules))
        tree = _term(rng, rules, TERM_DEPTH, (), want_rec, _Names())
        if cycle_depth(tree) != ((i // 12) % TERM_DEPTH if want_rec else None):
            continue
        candidates = redex_positions(tree, REDEX_DEPTH)
        if len(candidates) < n_redexes:
            continue
        # every redex a cycle repeats multiplies the paths the projection
        # oracle walks; a few such terms would set the tail of the round
        if want_rec and len(candidates) > MAX_CYCLE_REDEXES:
            continue
        chosen = sorted(rng.sample(candidates, n_redexes))
        # all_development_orders walks every order of the pending residuals
        # without sharing; beyond a few residuals it exceeds its state cap
        if residual_bound(tree, chosen) > MAX_RESIDUALS:
            continue
        # develops_by_exhaustion(ALL_REDEXES) tries every redex of the term,
        # so heavy duplication among all of them makes it exponential: the
        # few such terms took a tenth of a round and most of its spread
        if residual_bound(tree, redex_positions(tree, REDEX_DEPTH)) > MAX_ALL_RESIDUALS:
            continue
        out.append(Instance(rules, tree, chosen))
    return out
