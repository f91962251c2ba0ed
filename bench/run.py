"""Benchmark of the icrs engine, standard library only.

Run from the root of a checkout; the engine is imported from `src`, nothing
needs installing:

    python3 bench/run.py --workload normalize --seed 0 --seconds 30 --trace 0

One process, one thread.  Set-up (imports, corpus parsing, input
generation) is repeated and its median reported.  The workload's fixed list
of operations then runs in whole rounds until the time is spent; every
output of every round is checked.  Every time reported is calibrated: a
fixed computation of the benchmark's own code is timed between the
operations, and each time is scaled to the speed at which that computation
takes REF_NOMINAL_S, so that drift in the machine's speed cancels out.
With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1, rounds alternate between untraced and traced and
the line holds the per-layer metrics of the traced ones.  Details and spans
go to .bench_out/ at the checkout root.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
LAYERS = ("syntax", "terms", "systems", "rewriting", "developments",
          "essential", "strategies", "oracle", "cli")
SETUP_REPEATS = 9
REF_NOMINAL_S = 0.002  # the reference computation's time at the nominal speed
REF_EVERY_S = 0.05     # program time between two reference samples in a round

sys.path.insert(0, BENCH)
import tree  # noqa: E402

_REF_TEXT = ("[x] ap(lm([y] c2(y, x)), rec S. c2(k, c1(S)))",
             "rec S. app(app(gc, bc), S)", "rec S. cons(s(zero), S)")


def reference_sample():
    """Seconds taken by one fixed computation of the benchmark's own term
    code (parsing, truncation, positions, alpha-equivalence), which no
    change to the program can alter.  The machine's speed drifts by tens of
    percent between minutes; the program's times are divided by the
    reference times measured beside them, which drift alike.  The garbage
    collector is held off meanwhile: a collection would scan the program's
    heap, whose size a change to the program alters."""
    gc.disable()
    try:
        start = time.perf_counter()
        for text in _REF_TEXT:
            t = tree.parse(text)
            tree.truncate(t, 150)
            tree.positions(t, 10)
            tree.alpha_eq(t, t)
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factor(refs):
    """Scale from measured seconds to seconds at the nominal speed."""
    return REF_NOMINAL_S / statistics.fmean(refs)


def metric_specs():
    """(name, unit) of the end-to-end and the per-layer metrics, as
    BENCHMARK.json at the checkout root lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def load_engine():
    """Import the engine afresh from the checkout's `src`."""
    for name in [n for n in sys.modules if n == "icrs" or n.startswith("icrs.")]:
        del sys.modules[name]
    package = importlib.import_module("icrs")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"icrs imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"icrs.{name}") for name in LAYERS})


def engine_caches(api):
    """The engine's lru caches, cleared before each operation so that every
    operation starts as a fresh command-line process would."""
    found = {}
    for module in vars(api).values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def term_cache_entries(api):
    terms = api.terms
    return sum(value.cache_info().currsize for name, value in vars(terms).items()
               if not name.startswith("_") and hasattr(value, "cache_info")
               and getattr(value, "__module__", None) == terms.__name__)


class Round:
    def __init__(self):
        self.times = []
        self.failures = {}
        self.contractions = 0
        self.cache_entries = 0
        self.elapsed = 0.0
        self.refs = []

    @property
    def wall(self):
        """Measured seconds in the program."""
        return sum(self.times)

    @property
    def factor(self):
        return speed_factor(self.refs)


def run_round(workload, ops, api, caches, tracer=None):
    rnd = Round()
    started = time.perf_counter()
    outputs = []
    since_ref = REF_EVERY_S
    for index, op in enumerate(ops):
        if since_ref >= REF_EVERY_S:
            rnd.refs.append(reference_sample())
            since_ref = 0.0
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.op[0] = index
        start = time.perf_counter()
        try:
            elapsed, output = op.run()
        except Exception as exc:  # a crash of the program fails this operation only
            elapsed, output = time.perf_counter() - start, None
            rnd.failures[index] = [f"{type(exc).__name__}: {exc}"]
        rnd.times.append(elapsed)
        since_ref += elapsed
        outputs.append(output)
        rnd.cache_entries = max(rnd.cache_entries, term_cache_entries(api))
    rnd.refs.append(reference_sample())
    groups = {}
    for index, (op, output) in enumerate(zip(ops, outputs)):
        if index in rnd.failures:
            continue
        try:
            bad = op.check(output)
        except (ValueError, KeyError, TypeError) as exc:
            bad = [f"unreadable output: {exc}"]
        if bad:
            rnd.failures[index] = bad
            continue
        rnd.contractions += workload.contractions(output)
        if op.key is not None:
            groups.setdefault(op.key, []).append(index)
    if workload.group_check is not None:
        for members in groups.values():
            bad = workload.group_check([outputs[i] for i in members])
            for i in members if bad else ():
                rnd.failures[i] = bad
    rnd.elapsed = time.perf_counter() - started
    return rnd


def run_rounds(seconds, one_round, minimum=1):
    """Whole rounds until the next one would overrun the time."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        rounds.append(one_round(len(rounds)))
        longest = max(r.elapsed for r in rounds[-2:])
        if len(rounds) >= minimum and time.perf_counter() + longest > deadline:
            return rounds


def layer_metrics(snapshot, rnd, spans, untraced_wall):
    """Per-layer values of one traced round; times calibrated like the
    end-to-end ones."""
    values = {}
    for name, (calls, self_s, hits, size) in snapshot.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = self_s * rnd.factor * 1000.0
        values[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
        values[f"{name}.paths"] = size
    values["terms.cache_entries"] = rnd.cache_entries
    values["trace.spans"] = spans
    values["trace.overhead_ratio"] = rnd.wall * rnd.factor / untraced_wall
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    end_to_end, per_layer = metric_specs()
    if not os.path.isfile(os.path.join(SRC, "icrs", "__init__.py")):
        sys.stderr.write(f"no engine sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(workloads.WORKLOADS)}\n")
        return 2

    reference_sample()  # warm-up, not counted
    setups, setup_refs = [], [reference_sample()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        api = load_engine()
        ops = workload.build(api, ROOT, args.seed)
        setups.append(time.perf_counter() - start)
        setup_refs.append(reference_sample())
    caches = engine_caches(api)

    if args.trace:
        tracer = tracing.Tracer()
        plain_walls = []
        layer_rounds = []

        def one_round(k):
            if k % 2 == 0:
                rnd = run_round(workload, ops, api, caches)
                plain_walls.append(rnd.wall * rnd.factor)
                return rnd
            tracer.reset()
            tracer.keep_spans = k == 1
            tracer.install()
            try:
                rnd = run_round(workload, ops, api, caches, tracer)
            finally:
                tracer.uninstall()
                tracer.keep_spans = False
            layer_rounds.append(layer_metrics(
                tracer.snapshot(), rnd, len(tracer.spans),
                statistics.median(plain_walls)))
            return rnd

        rounds = run_rounds(args.seconds, one_round, minimum=2)
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rounds),
                          "unit": unit} for name, unit in per_layer}
    else:
        rounds = run_rounds(args.seconds, lambda k: run_round(workload, ops, api, caches))
        # each operation's median calibrated time over the rounds: every
        # round runs the same operations, so the percentiles below are taken
        # over operations and do not follow one slow sample
        times = [statistics.median(r.times[i] * r.factor for r in rounds)
                 for i in range(len(ops))]
        values = {
            "setup_s": statistics.median(setups) * speed_factor(setup_refs),
            "wall_cal_s": statistics.median(r.wall * r.factor for r in rounds),
            "op_p50_cal_ms": statistics.median(times) * 1000.0,
            "op_p90_cal_ms": (statistics.quantiles(times, n=10)[8] if len(times) > 1
                              else times[0]) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "contractions": rounds[0].contractions,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}

    attempted = len(ops) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)
    # every round runs the same operations: verdicts and counts must repeat
    correct = all(set(r.failures) == set(rounds[0].failures)
                  and r.contractions == rounds[0].contractions for r in rounds)
    for index, bad in sorted(rounds[0].failures.items())[:5]:
        sys.stderr.write(f"FAILED {ops[index].label}: {'; '.join(bad)[:400]}\n")

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations": len(ops), "rounds": len(rounds),
        "op_samples": sum(len(r.times) for r in rounds),
        "setup_s": setups, "setup_ref_ms": [t * 1000.0 for t in setup_refs],
        "round_wall_s": [r.wall for r in rounds],
        "round_factor": [r.factor for r in rounds],
        "round_ref_ms": [[round(t * 1000.0, 4) for t in r.refs] for r in rounds],
        "op_ms": [[round(t * 1000.0, 3) for t in r.times] for r in rounds],
        "op_labels": [op.label for op in ops],
        "failures": {ops[i].label: bad for i, bad in rounds[0].failures.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        detail["layers_per_round"] = layer_rounds
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**detail, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
