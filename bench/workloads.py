"""The three workloads: their inputs, their operations and the checks on
each operation's output.

An operation returns (seconds spent in the program, output).  A check takes
the output and returns a list of complaints; an empty list passes.  The
engine is always reached through its module attributes, so a traced run
sees the benchmark's own calls as well as the engine's internal ones.

Checks compare printed terms, positions and rule names.  They never compare
`Redex` or `Valuation` values: those carry binder names drawn from a
process-global counter, so equal redexes can compare unequal.
"""

import contextlib
import io
import json
import os
import random
import time

import instances
import tree

CORPUS = os.path.join("src", "icrs", "corpus")


def _fixpoint_term(root):
    with open(os.path.join(root, CORPUS, "lambda_fixpoint.term"), encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    return " ".join(lines)


# name -> (system file, term, known infinite normal form)
def corpus_inputs(root):
    return {
        "spine": ("spine_growth.crs", "f(a, c)", "rec S. g(b, S)"),
        "pair": ("outermost_pair.crs", "f(a)", "rec S. g(S)"),
        "map": ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))",
                "rec S. cons(s(zero), S)"),
        "fixpoint": ("lambda_beta.crs", _fixpoint_term(root),
                     "rec S. app(app(gc, bc), S)"),
    }


# Depth ladders.  All stay below the depths at which the rational normal form
# detection hits its fixed 64-level redex search (spine fails at 64; map and
# fixpoint already at 63), and start where a full period confirms the fold.
NORMALIZE_LADDER = {
    "spine": (4, 8, 16, 32, 48),
    "pair": (4, 8, 16, 32, 48, 63),
    "map": (4, 8, 16, 32),
    "fixpoint": (4, 8, 16),
}
NEEDED_LADDER = {
    "spine": (3, 4, 5, 6),
    "pair": (3, 4, 6, 8),
    "map": (3, 4, 6),
    "fixpoint": (1,),
}
FUEL = 4000


class Op:
    def __init__(self, label, run, check, key=None):
        self.label = label
        self.run = run
        self.check = check
        self.key = key  # operations with one key are checked against each other


# ---------------------------------------------------------------------------
# normalize / needed: the CLI in-process

def _cli_run(api, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = api.cli.main(argv)
            elapsed = time.perf_counter() - start
        return elapsed, {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    return run


def _payload(output):
    lines = output["stdout"].strip().splitlines()
    if output["exit"] != 0 or not lines:
        return None, [f"exit {output['exit']}: {output['stderr'].strip()[:200]}"]
    try:
        return json.loads(lines[-1]), []
    except ValueError:
        return None, ["output is not JSON"]


def check_normal_form(output, depth, known, strategy, loops=False):
    """Status, certified depth, approximant and rational normal form of one
    normalisation, against the benchmark's own truncation of the known
    normal form.  `loops`: the input has a looping redex that fair
    reduction must contract and the other strategies must leave alone."""
    payload, bad = _payload(output)
    if payload is None:
        return bad
    if payload.get("status") != "approximant":
        bad.append(f"status {payload.get('status')!r}")
    if payload.get("stable_depth") != depth:
        bad.append(f"stable depth {payload.get('stable_depth')!r} != {depth}")
    want = tree.truncate(known, depth)
    if payload.get("approximant") != want:
        bad.append(f"approximant {payload.get('approximant')!r} != {want!r}")
    nf = payload.get("rational_normal_form")
    if not isinstance(nf, str) or not tree.rec_equal(nf, known):
        bad.append(f"rational normal form {nf!r} != {tree.fmt(known)!r}")
    looped = "loop" in [s.get("rule") for s in payload.get("steps", ())]
    if strategy == "fair" and loops and not looped:
        bad.append("fair never contracted the looping redex")
    if strategy != "fair" and looped:
        bad.append(f"{strategy} contracted the looping redex")
    return bad


def contractions(output):
    payload, _ = _payload(output)
    return len(payload.get("steps", ())) if payload else 0


def _normalisation_ops(api, root, seed, ladder, strategies):
    ops = []
    for name, (system_file, term, known_text) in corpus_inputs(root).items():
        path = os.path.join(root, CORPUS, system_file)
        known = tree.parse(known_text)
        # the input must parse and its system must pass the static checks
        with open(path, encoding="utf-8") as fh:
            api.systems.require_valid(api.syntax.parse_system(fh.read()))
        api.syntax.parse_term(term)
        for depth in ladder[name]:
            for strategy in strategies:
                argv = ["normalize", path, "--term", term, "--strategy", strategy,
                        "--depth", str(depth), "--fuel", str(FUEL), "--json"]

                def check(output, depth=depth, known=known, strategy=strategy,
                          loops=name == "spine"):
                    return check_normal_form(output, depth, known, strategy, loops)

                ops.append(Op(f"{strategy} {name} depth {depth}",
                              _cli_run(api, argv), check, key=(name, depth)))
    random.Random(f"order:{seed}").shuffle(ops)
    return ops


def check_agreement(outputs):
    """Strategies run on one input and depth print the same approximant and
    rational normal form."""
    seen = set()
    for output in outputs:
        payload, _ = _payload(output)
        if payload is None:
            continue
        seen.add((payload.get("approximant"), payload.get("rational_normal_form")))
    return [] if len(seen) <= 1 else [f"strategies disagree: {sorted(seen)}"]


# ---------------------------------------------------------------------------
# crosscheck: library functions against the oracle

PHI_BUDGET = 40     # path length bound for the injectivity oracle
PREFIX_DEPTH = 2    # prefix sets of the development target reach this deep
PREFIX_KEEP = 0.6


def _crosscheck_op(api, inst, seed, index):
    system = api.syntax.parse_system(inst.system_text)
    api.systems.require_valid(system)
    term = api.syntax.parse_term(inst.term_text)
    dev_mod, oracle = api.developments, api.oracle
    us = dev_mod.redexes_from_positions(term, system, inst.redexes)
    probe_redexes = dev_mod.redexes_from_positions(term, system, inst.probe_redexes)
    explicit = (dev_mod.redexes_from_positions(term, system, inst.all_redexes)
                if inst.rec_free else None)
    everything = dev_mod.ALL_REDEXES

    def run():
        pr = api.syntax.print_term
        out = {}
        start = time.perf_counter()
        dev = dev_mod.complete_development(term, us, system)
        outcome = oracle.all_development_orders(
            term, us, system, probe_positions=inst.probes,
            probe_redexes=probe_redexes)
        out["steps"] = len(dev.steps)
        out["target"] = pr(dev.target)
        out["finals"] = [pr(t) for t in outcome.finals]
        out["descendant_sets"] = len(outcome.descendant_sets)
        out["residual_sets"] = len(outcome.residual_sets)
        out["finite_jumps"] = dev_mod.has_finite_jumps(term, us, system)
        out["exhaustion"] = oracle.develops_by_exhaustion(term, us, system)
        out["finite_jumps_all"] = dev_mod.has_finite_jumps(term, everything, system)
        out["exhaustion_all"] = oracle.develops_by_exhaustion(term, everything, system)
        out["target_term"] = pr(dev_mod.target_term(term, us, system))
        phi = oracle.phi_injectivity_check(term, us, system, budget=PHI_BUDGET)
        out["phi_ok"] = phi.ok
        if explicit is not None:
            out["all_target"] = pr(dev_mod.target_term(term, everything, system))
            stepwise = dev_mod.complete_development(term, explicit, system)
            out["all_stepwise"] = pr(stepwise.target)
            out["steps"] += len(stepwise.steps)
        elapsed = time.perf_counter() - start

        prefix = choose_prefix(out["target"], seed, index)
        start = time.perf_counter()
        essential = api.essential.epsilon_step(prefix, dev)
        specs = [(s.redex.position, s.redex.rule) for s in dev.steps]
        out["essential"] = sorted(p for p in inst.essential_probes if p in essential)
        out["reaches_prefix"] = sorted(
            p for p in inst.essential_probes
            if oracle.brute_descendants([p], specs, source=term) & prefix)
        elapsed += time.perf_counter() - start
        return elapsed, out

    return Op(f"crosscheck #{index} {inst.term_text}", run,
              lambda output: check_crosscheck(output, inst))


def choose_prefix(printed_target, seed, index):
    """A seeded prefix set of the development target, read off the printed
    target by the benchmark's own parser."""
    rng = random.Random(f"prefix:{seed}:{index}")
    target = tree.parse(printed_target)
    chosen = [p for p in tree.positions(target, PREFIX_DEPTH) if rng.random() < PREFIX_KEEP]
    return frozenset(p[:k] for p in chosen + [()] for k in range(len(p) + 1))


def check_crosscheck(out, inst):
    bad = []
    target = tree.parse(out["target"])
    if len(out["finals"]) != 1:
        bad.append(f"{len(out['finals'])} distinct final terms over the orders")
    elif not tree.alpha_eq(tree.parse(out["finals"][0]), target):
        bad.append(f"orders reach {out['finals'][0]}, engine {out['target']}")
    if out["descendant_sets"] != 1 or out["residual_sets"] != 1:
        bad.append("descendant or residual sets differ across orders")
    if out["finite_jumps"] != out["exhaustion"]:
        bad.append("finite jumps disagrees with exhaustive development (set)")
    if out["finite_jumps_all"] != out["exhaustion_all"]:
        bad.append("finite jumps disagrees with exhaustive development (all redexes)")
    if not tree.alpha_eq(tree.parse(out["target_term"]), target):
        bad.append(f"target_term {out['target_term']} != development {out['target']}")
    if not out["phi_ok"]:
        bad.append("two paths share a projection")
    if inst.rec_free and not tree.alpha_eq(tree.parse(out["all_target"]),
                                          tree.parse(out["all_stepwise"])):
        bad.append(f"all-redex target {out['all_target']} != stepwise {out['all_stepwise']}")
    if out["essential"] != out["reaches_prefix"]:
        bad.append(f"essential {out['essential']} != reaching the prefix {out['reaches_prefix']}")
    return bad


# ---------------------------------------------------------------------------

CROSSCHECK_INSTANCES = 800


class Workload:
    """build(api, root, seed) -> operations; contractions(output) -> trace
    steps of one output; group_check(outputs) -> complaints about outputs of
    operations sharing a key."""

    def __init__(self, build, contractions, group_check=None):
        self.build = build
        self.contractions = contractions
        self.group_check = group_check


def build_normalize(api, root, seed):
    return _normalisation_ops(api, root, seed, NORMALIZE_LADDER,
                              ("fair", "outermost-fair"))


def build_needed(api, root, seed):
    return _normalisation_ops(api, root, seed, NEEDED_LADDER, ("needed-fair",))


def build_crosscheck(api, root, seed):
    return [_crosscheck_op(api, inst, seed, i)
            for i, inst in enumerate(instances.generate(seed, CROSSCHECK_INSTANCES))]


WORKLOADS = {
    "normalize": Workload(build_normalize, contractions, check_agreement),
    "needed": Workload(build_needed, contractions),
    "crosscheck": Workload(build_crosscheck, lambda output: output["steps"]),
}
