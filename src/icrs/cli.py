"""Command-line front end.

    icrs check FILE
    icrs normalize FILE --term TERM [--strategy S] [--depth D] [--fuel N] [--emit ...]
    icrs develop FILE --term TERM (--redexes POS,POS | --all-redexes)
    icrs paths FILE --term TERM [--redexes POS,POS] [--budget N]
    icrs essential FILE --script SCRIPT --prefix POS,POS

A needed-fair pilot of normalize goes to D plus the largest lhs depth plus
one, and runs on N steps, or on 600 when N is smaller.

Exit codes: 0 ok, 1 check/validation failure, 2 parse error, 3 divergence
suspected, 4 budget exhausted (including terms too deep to traverse).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import _randgen, essential, oracle, strategies
from .errors import (
    BudgetExceeded, FiniteJumpsViolated, FuelExhausted, InfiniteResultError,
    ParseError, PreconditionViolated, SystemCheckFailed, TermError,
)
from .developments import (
    ALL_REDEXES, DevSequence, PathSpace, complete_development,
    redexes_from_positions,
)
from .rewriting import find_redexes
from .syntax import (
    parse_position, parse_script, parse_system, parse_term, position_str,
    print_term,
)
from .systems import check_system
from .terms import alpha_eq, positions_to_depth

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_DIVERGENCE = 3
EXIT_BUDGET = 4

def _load_system(path):
    with open(path, encoding="utf-8") as fh:
        return parse_system(fh.read())


def _positions_arg(text):
    if not text:
        return []
    return [parse_position(part) for part in text.split(",")]


def cmd_check(args, out):
    system = _load_system(args.file)
    report = check_system(system)
    if args.json:
        payload = {
            "ok": report.ok,
            "checks": [{"check": v.check, "ok": v.ok, "detail": v.detail}
                       for v in report.verdicts],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write(report.render() + "\n")
    return EXIT_OK if report.ok else EXIT_CHECK


def cmd_develop(args, out):
    system = _load_system(args.file)
    term = parse_term(args.term)
    if args.all_redexes:
        redexes = ALL_REDEXES
    else:
        redexes = redexes_from_positions(term, system, _positions_arg(args.redexes))
    try:
        dev = complete_development(term, redexes, system)
    except FiniteJumpsViolated as e:
        out.write(f"no complete development: {e}\n")
        if e.witness:
            out.write("cycle witness:\n")
            for st in e.witness[:12]:
                out.write(f"  {st.render()}\n")
        return EXIT_CHECK
    out.write(f"target: {print_term(dev.target)}\n")
    if dev.steps is not None and not args.all_redexes:
        probe = sorted(positions_to_depth(term, args.table_depth))
        dmap = dev.descendant_map(probe)
        out.write("descendants:\n")
        for p in probe:
            qs = ", ".join(position_str(q) for q in sorted(dmap[p])) or "-"
            out.write(f"  {position_str(p)} -> {qs}\n")
        rmap = dev.residual_map(list(dev.redexes))
        out.write("residuals:\n")
        for u, rs in rmap.items():
            qs = ", ".join(position_str(r.position) for r in rs) or "-"
            out.write(f"  {u.rule.name}@{position_str(u.position)} -> {qs}\n")
    return EXIT_OK


def cmd_paths(args, out):
    system = _load_system(args.file)
    term = parse_term(args.term)
    if args.all_redexes:
        redexes = ALL_REDEXES
    else:
        redexes = redexes_from_positions(term, system, _positions_arg(args.redexes))
    space = PathSpace(term, redexes, system)
    enum = space.enumerate(budget=args.budget)
    out.write(f"maximal paths: {len(enum.maximal)}\n")
    for path in sorted(enum.maximal, key=lambda p: p.render()):
        out.write(path.render() + "\n")
        out.write("  " + space.project(path).render() + "\n")
    for path in enum.truncated:
        out.write(path.render() + " ...(cut by budget)\n")
    return EXIT_BUDGET if enum.truncated else EXIT_OK


def cmd_normalize(args, out):
    system = _load_system(args.file)
    term = parse_term(args.term)
    kind = {
        "fair": strategies.FAIR,
        "outermost-fair": strategies.OUTERMOST_FAIR,
        "needed-fair": strategies.NEEDED_FAIR,
    }[args.strategy]
    approx, trace = strategies.normalize(term, system, kind, args.depth, args.fuel)
    code = {"divergence-suspected": EXIT_DIVERGENCE,
            "fuel-exhausted": EXIT_BUDGET}.get(approx.status, EXIT_OK)
    # a recurrence certifies a form whether or not the run is stable
    certified = approx.status != "divergence-suspected"
    if args.json:
        nf = strategies.detect_rational_nf(trace) if certified else None
        payload = {
            "status": approx.status,
            "approximant": print_term(approx.term),
            "stable_depth": approx.stable_depth,
            "certificate": approx.certificate,
            "steps": [{"rule": s.redex.rule.name,
                       "position": position_str(s.redex.position)}
                      for s in trace.steps],
            "rational_normal_form": print_term(nf) if nf is not None else None,
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return code
    # the rational form first: when it exceeds a budget, nothing is written
    rational = None
    if args.emit in ("rational", "all") and certified:
        nf = strategies.detect_rational_nf(trace)
        rational = print_term(nf) if nf is not None else "none detected"
    if args.emit in ("trace", "all"):
        for i, step in enumerate(trace.steps):
            out.write(f"step {i}: {step.redex.rule.name}@"
                      f"{position_str(step.redex.position)} -> "
                      f"{print_term(step.target, max_depth=args.depth + 4)}\n")
    out.write(f"status: {approx.status}\n")
    out.write(f"approximant: {print_term(approx.term)}\n")
    if approx.status in ("normal-form", "approximant"):
        out.write(f"stable depth: {approx.stable_depth} "
                  f"(all later steps deeper; certificate index {approx.certificate})\n")
    if rational is not None:
        out.write(f"rational normal form: {rational}\n")
    return code


def cmd_essential(args, out):
    system = _load_system(args.file)
    with open(args.script, encoding="utf-8") as fh:
        term, script_prefix, stage_positions = parse_script(fh.read())
    prefix = _positions_arg(args.prefix) if args.prefix else script_prefix
    cur = term
    stages = []
    for poss in stage_positions:
        redexes = redexes_from_positions(cur, system, poss)
        dev = complete_development(cur, redexes, system)
        stages.append(dev)
        cur = dev.target
    dev_seq = DevSequence(term, tuple(stages))
    swept = essential.sweep(prefix, dev_seq)
    seq, mu = swept.sets, swept.measure
    # redexes of the initial term, so each is classified by seq[0] alone
    redexes = find_redexes(term, system, max((len(p) for p in seq[0]), default=0) + 2)
    verdicts = ["essential" if u.position in seq[0] else "inessential"
                for u in redexes]
    if args.json:
        payload = {
            "final": print_term(dev_seq.final),
            "essential_positions": [sorted(position_str(p) for p in ps)
                                    for ps in seq],
            "measure": list(mu.values),
            "redexes": [{"rule": u.rule.name,
                         "position": position_str(u.position),
                         "classification": verdict}
                        for u, verdict in zip(redexes, verdicts)],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_OK
    out.write(f"final term: {print_term(dev_seq.final)}\n")
    for i, ps in enumerate(seq):
        rendered = ", ".join(position_str(p) for p in sorted(ps)) or "-"
        out.write(f"essential positions of stage term {i}: {{{rendered}}}\n")
    out.write(f"measure: {mu.render()}\n")
    for u, verdict in zip(redexes, verdicts):
        out.write(f"redex {u.rule.name}@{position_str(u.position)}: {verdict}\n")
    return EXIT_OK


def cmd_suite(args, out):
    """Seeded randomized oracle runs, serialized for CI."""
    rng = random.Random(args.seed)
    order_ok = 0
    fjp_instances = []
    phi_ok = 0
    done = 0
    while done < args.instances:
        system = _randgen.random_system(rng)
        term = _randgen.random_term(rng, system, 3)
        us = _randgen.random_redex_set(rng, term, system, max_size=3)
        if not us:
            continue
        outcome = oracle.all_development_orders(term, us, system)
        dev = complete_development(term, us, system)
        if len(outcome.finals) == 1 and alpha_eq(outcome.finals[0], dev.target):
            order_ok += 1
        fjp_instances.append((term, us, system))
        if oracle.phi_injectivity_check(term, us, system, budget=400).ok:
            phi_ok += 1
        done += 1
    fjp = oracle.fjp_witness_suite(fjp_instances)
    payload = {
        "seed": args.seed,
        "instances": args.instances,
        "development_order_agreement": order_ok,
        "finite_jumps_agreement": fjp.agreements,
        "phi_injectivity": phi_ok,
    }
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    ok = (order_ok == args.instances and fjp.ok and phi_ok == args.instances)
    return EXIT_OK if ok else EXIT_CHECK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="icrs",
        description="Higher-order rewriting on rational terms: developments, "
                    "essentiality, and normalising fair strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="static well-formedness checks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("develop", help="complete development of a redex set")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--redexes", default="")
    p.add_argument("--all-redexes", action="store_true")
    p.add_argument("--table-depth", type=int, default=3)
    p.set_defaults(fn=cmd_develop)

    p = sub.add_parser("paths", help="maximal paths and their projections")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--redexes", default="")
    p.add_argument("--all-redexes", action="store_true")
    p.add_argument("--budget", type=int, default=4000)
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("normalize", help="reduce with a fair strategy")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--strategy", default="outermost-fair",
                   choices=["fair", "outermost-fair", "needed-fair"])
    p.add_argument("--depth", type=int, default=4,
                   help="depth to certify the approximant to; a needed-fair "
                        "pilot goes to it plus the largest lhs depth plus one")
    p.add_argument("--fuel", type=int, default=400,
                   help="most steps of the run, and of each needed-fair "
                        f"pilot, which gets at least {strategies.PILOT_FUEL}")
    p.add_argument("--emit", default="approximant",
                   choices=["approximant", "trace", "rational", "all"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("essential", help="essentiality report for a scripted "
                                         "development sequence")
    p.add_argument("file")
    p.add_argument("--script", required=True)
    p.add_argument("--prefix", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_essential)

    p = sub.add_parser("suite", help="seeded randomized oracle agreement runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=25)
    p.set_defaults(fn=cmd_suite)

    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        return args.fn(args, out)
    except (ParseError, TermError) as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_PARSE
    except SystemCheckFailed as e:
        sys.stderr.write(f"{e}\n")
        return EXIT_CHECK
    except (FiniteJumpsViolated, PreconditionViolated, InfiniteResultError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CHECK
    except FuelExhausted as e:
        sys.stderr.write(f"fuel exhausted: {e}\n")
        return EXIT_BUDGET
    except BudgetExceeded as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return EXIT_BUDGET
    except RecursionError:
        sys.stderr.write("budget exceeded: term too deep to traverse "
                         "(recursion limit reached)\n")
        return EXIT_BUDGET
    except OSError as e:
        sys.stderr.write(f"{e}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
