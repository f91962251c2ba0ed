"""No output depends on where nodes live in memory or on the string hash
seed.  Term nodes hash by identity, so sets and dicts of nodes, redexes and
machine states iterate in an order that follows object addresses.  Each
command below gives byte-identical output when run twice in one process,
with unrelated nodes built and dropped in between so that the second run
builds its nodes at other addresses, and once more in a fresh process
under another PYTHONHASHSEED.  The work done does not depend on the hash
seed either: the matcher runs and the nodes built are the same under
three seeds."""

import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from icrs.cli import main
from icrs.terms import Abs, Sym, Var

ROOT = pathlib.Path(__file__).parent.parent
CORPUS = ROOT / "src" / "icrs" / "corpus"


def fixpoint_text():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


INPUTS = {
    "spine": ("spine_growth.crs", "f(a, c)"),
    "pair": ("outermost_pair.crs", "f(a)"),
    "map": ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
    "fixpoint": ("lambda_beta.crs", fixpoint_text()),
}
STRATEGIES = ("fair", "outermost-fair", "needed-fair")


def commands():
    out = {}
    for name, (system, term) in INPUTS.items():
        for strategy in STRATEGIES:
            out[f"normalize-{name}-{strategy}"] = [
                "normalize", str(CORPUS / system), "--term", term,
                "--strategy", strategy, "--depth", "4", "--emit", "all"]
    out["develop-cyclic"] = [
        "develop", str(CORPUS / "lambda_beta.crs"), "--term",
        "rec S. app(abs([x] app(x, S)), abs([y] y))", "--all-redexes"]
    out["suite-0"] = ["suite", "--seed", "0", "--instances", "10"]
    return out


def run_all(argvs):
    """Exit code, stdout and stderr of each command, run in this process."""
    results = {}
    for label, argv in argvs.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results[label] = [code, out.getvalue(), err.getvalue()]
    return results


def churn():
    """Build unrelated nodes, keep every third alive and drop the rest, so
    that nodes built next are placed elsewhere; the kept ones are returned
    for the caller to hold.  The engine keeps no cache that would hold the
    first run's nodes alive."""
    built = [Abs(f"u{i}", Sym("churn", (Var(f"v{i}"),), tag=i)) for i in range(6000)]
    kept = built[::3]
    del built
    gc.collect()
    return kept


# run in a fresh interpreter: argvs as JSON on stdin, results as JSON out
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_determinism import run_all
json.dump(run_all(json.load(sys.stdin)), sys.stdout)
"""


@pytest.fixture(scope="module")
def first():
    return run_all(commands())


def test_commands_exit_cleanly(first):
    assert all(code == 0 for code, _, _ in first.values()), {
        label: (code, err) for label, (code, _, err) in first.items() if code}


def test_output_repeats_with_nodes_at_other_addresses(first):
    kept = churn()
    second = run_all(commands())
    del kept
    gc.collect()
    for label in first:
        assert second[label] == first[label], label


def test_output_repeats_under_another_hash_seed(first):
    seed = "7" if os.environ.get("PYTHONHASHSEED") != "7" else "8"
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(pathlib.Path(__file__).parent)],
        input=json.dumps(commands()), env=env, capture_output=True, text=True,
        timeout=600, check=True)
    third = json.loads(proc.stdout)
    for label in first:
        assert third[label] == first[label], label


# count the matcher runs and the nodes built while the commands run
COUNTING_CHILD = """
import contextlib, io, json, sys
from icrs import rewriting, terms
from icrs.cli import main

counts = {"matches": 0, "nodes": 0}
match_node = rewriting._match_node

def counting_match(rule, node):
    counts["matches"] += 1
    return match_node(rule, node)

def counting(fill):
    def counted(node, *fields):
        counts["nodes"] += 1
        fill(node, *fields)
    return staticmethod(counted)

rewriting._match_node = counting_match
for cls in (terms.Var, terms.Abs, terms.Sym, terms.MetaApp, terms.Rec, terms.RecVar):
    cls._fill = counting(cls._fill)
out = {}
for label, argv in json.load(sys.stdin).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    out[label] = [code, counts["matches"], counts["nodes"]]
    counts.update(matches=0, nodes=0)
json.dump(out, sys.stdout)
"""


def test_work_repeats_under_other_hash_seeds():
    system, term = INPUTS["fixpoint"]
    argvs = {"needed": ["normalize", str(CORPUS / system), "--term", term,
                        "--strategy", "needed-fair", "--depth", "16"],
             "suite": ["suite", "--seed", "1", "--instances", "10"]}
    runs = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", COUNTING_CHILD],
                              input=json.dumps(argvs), env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        runs.append(json.loads(proc.stdout))
    assert all(counts[1] > 0 and counts[2] > 0 for counts in runs[0].values())
    assert runs[1] == runs[0] and runs[2] == runs[0]
