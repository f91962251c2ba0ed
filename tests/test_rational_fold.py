"""The rational fold of `detect_rational_nf` over an explicit stack agrees
with the recursive fold it replaced, written out below as the reference:
on the snapshots of the four corpus normalisations and on seeded ones."""

import random

import pytest

from conftest import corpus_text, parse_system
from genrand import random_system, random_term
from icrs import parse_term, strategies
from icrs.strategies import FAIR, OUTERMOST_FAIR, min_redex_depth, normalize
from icrs.terms import Abs, Rec, RecVar, Sym, Var, alpha_eq, is_hole, resolve, truncate

# (system, term) of the four corpus inputs with infinite normal forms
CORPUS_RUNS = [
    ("spine_growth.crs", "f(a, c)"),
    ("outermost_pair.crs", "f(a)"),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
    ("lambda_beta.crs", " ".join(
        ln for ln in corpus_text("lambda_fixpoint.term").splitlines()
        if ln.strip() and not ln.lstrip().startswith("#"))),
]


def reference_fold(snapshot):
    """The recursive fold, as it stood before the explicit stack."""
    counter = [0]

    def close(t, depth, ancestors):
        t = resolve(t)
        if is_hole(t):
            return None
        for anc, anc_depth, var, used in ancestors:
            if alpha_eq(t, anc, holes=True):
                period = depth - anc_depth
                known = strategies._known_depth(t)
                if known is None or known >= max(period + 1, 2):
                    used[0] = True
                    return RecVar(var)
        counter[0] += 1
        var = f"S{counter[0]}"
        used = [False]
        anc_entry = (t, depth, var, used)
        match t:
            case Var(_, _):
                out = t
            case Abs(x, body, _):
                inner = close(body, depth + 1, ancestors + (anc_entry,))
                if inner is None:
                    return None
                out = Abs(x, inner)
            case Sym(f, args, _):
                new = []
                for a in args:
                    inner = close(a, depth + 1, ancestors + (anc_entry,))
                    if inner is None:
                        return None
                    new.append(inner)
                out = Sym(f, tuple(new))
            case _:
                return None
        if used[0]:
            out = Rec(var, out)
        return out

    return close(snapshot, 0, ())


def agree(snapshots):
    """Both folds of every snapshot: the very same node, or both None.
    Returns how many folded."""
    folded = 0
    for snap in snapshots:
        got = strategies._fold_rational(snap)
        assert got is reference_fold(snap), snap
        folded += got is not None
    return folded


def corpus_snapshots():
    """The snapshot `detect_rational_nf` folds at the end of each corpus
    run, and every term of the runs truncated at depths 1 to 8."""
    out = []
    for system_file, text in CORPUS_RUNS:
        system = parse_system(corpus_text(system_file))
        for kind in (FAIR, OUTERMOST_FAIR):
            for depth in (3, 6, 12):
                _, trace = normalize(parse_term(text), system, kind, depth, 4000)
                d = min_redex_depth(trace.final, system)
                if d:
                    out.append(truncate(trace.final, d))
                out += [truncate(t, k) for t in trace.terms[::3] for k in range(1, 9)]
    return out


def test_fold_agrees_on_the_corpus_runs():
    snapshots = corpus_snapshots()
    assert len(snapshots) > 1000
    assert agree(snapshots) > 500


@pytest.mark.parametrize("seed", range(4))
def test_fold_agrees_on_seeded_snapshots(seed):
    rng = random.Random(seed)
    snapshots = []
    for _ in range(60):
        system = random_system(rng)
        term = random_term(rng, system, rng.randint(2, 5))
        snapshots += [truncate(term, k) for k in range(1, 12)]
    # periodic streams and trees whose period and offset vary
    for _ in range(60):
        period = [rng.choice(["c1", "c2", "k"]) for _ in range(rng.randint(1, 4))]
        body = "S"
        for f in reversed(period):
            body = {"c1": f"c1({body})", "c2": f"c2(k, {body})",
                    "k": f"c2({body}, {body})"}[f]
        stem = "c1(" * rng.randint(0, 3)
        term = parse_term(stem + f"rec S. {body}" + ")" * stem.count("("))
        snapshots += [truncate(term, k) for k in range(1, 14)]
    # cycles through branching bodies, some under binders
    for _ in range(150):
        body = random_body(rng, rng.randint(2, 5))
        if "S" in body and body != "S":
            snapshots += [truncate(parse_term(f"rec S. {body}"), k) for k in range(2, 12)]
    assert agree(snapshots) > 100


def random_body(rng, depth, bound=()):
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return rng.choice(("k", "S", "S") + bound)
    if roll < 0.45:
        return f"c1({random_body(rng, depth - 1, bound)})"
    if roll < 0.8:
        return (f"c2({random_body(rng, depth - 1, bound)}, "
                f"{random_body(rng, depth - 1, bound)})")
    x = f"x{depth}"
    return f"l([{x}] {random_body(rng, depth - 1, bound + (x,))})"


@pytest.mark.parametrize("body", [
    "c2(c2(c2(S, S), c2(c2(k, S), S)), S)",
    "c2(l([x3] l([x2] l([x1] x1))), c2(l([x2] l([x1] x2)), S))"])
def test_fold_tries_the_outermost_ancestor_first(body):
    """Snapshots on which a node agrees with two open ancestors of its
    root, and folding onto the inner one would give another term."""
    assert agree([truncate(parse_term(f"rec S. {body}"), 7)]) == 1


def test_deep_chain_folds_without_recursion():
    """A 3000-deep chain of distinct symbols cut above its leaf has no
    fold; the same chain of one symbol folds onto its root."""
    chain = parse_term("".join(f"s{i}(" for i in range(3000)) + "a" + ")" * 3000)
    assert strategies._fold_rational(chain) is chain
    assert strategies._fold_rational(truncate(chain, 3000)) is None
    same = truncate(parse_term("rec S. g(S)"), 3000)
    assert strategies._fold_rational(same) is parse_term("rec S1. g(S1)")
