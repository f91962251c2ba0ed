import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from icrs import alpha_eq, parse_term, strategies, truncate
from icrs.cli import main
from icrs.developments import PathSpace

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"


def run(*argv):
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def corpus(name):
    return str(CORPUS / name)


class TestCheck:
    def test_map_system_passes(self):
        code, out = run("check", corpus("map_streams.crs"))
        assert code == 0
        assert "orthogonal: pass" in out

    def test_left_linearity_failure(self, tmp_path):
        f = tmp_path / "bad.crs"
        f.write_text("rule eq: eq(Z, Z) -> k ;")
        code, out = run("check", str(f))
        assert code == 1
        assert "left-linear: FAIL" in out

    def test_beta_passes(self):
        code, _ = run("check", corpus("lambda_beta.crs"))
        assert code == 0

    def test_parse_error_exit(self, tmp_path):
        f = tmp_path / "broken.crs"
        f.write_text("rule r f(Z) -> k")
        code, _ = run("check", str(f))
        assert code == 2

    def test_reserved_hole_symbol_exits_parse(self, tmp_path, capsys):
        f = tmp_path / "hole.crs"
        f.write_text("rule r: f(_|_) -> a ;")
        code, out = run("check", str(f))
        err = capsys.readouterr().err
        assert code == 2
        assert err == "parse error: the hole symbol is reserved\n"
        assert "Traceback" not in out + err

    def test_json_reparses(self):
        code, out = run("check", corpus("spine_growth.crs"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {c["check"] for c in payload["checks"]} == {
            "rule", "left-linear", "fully-extended", "orthogonal"}

    def test_module_entry_point(self):
        # `python -m icrs` from a checkout, with nothing installed
        root = CORPUS.parent.parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "icrs", "check", "src/icrs/corpus/spine_growth.crs"],
            cwd=root, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=60)
        code, out = run("check", corpus("spine_growth.crs"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
        assert code == 0


MALFORMED = {
    "non-variable-argument": "rule r: f(Z(a)) -> a ;",
    "unbound-name-argument": "rule r: f([x] Z(y)) -> a ;",
    "rec-in-meta-arguments": "rule r: f(Z(rec X. g(X))) -> a ;",
    "root-not-a-symbol": "rule r: Z -> a ;",
    "not-left-linear": "rule r: f(Z, Z) -> a ;",
    "one-of-two-not-a-pattern": "rule q: g(X) -> X ;\nrule r: f(Z(a)) -> a ;",
}

# every subcommand that reads a system; SCRIPT stands for an essential script
SYSTEM_COMMANDS = {
    "check": ["check"],
    "check-json": ["check", "--json"],
    "normalize": ["normalize", "--term", "f(a)"],
    "develop-all": ["develop", "--term", "f(a)", "--all-redexes"],
    "develop-at-root": ["develop", "--term", "f(a)", "--redexes", "@"],
    "paths": ["paths", "--term", "f(a)"],
    "essential": ["essential", "--script", "SCRIPT"],
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("command", SYSTEM_COMMANDS.values(), ids=SYSTEM_COMMANDS.keys())
def test_malformed_system_is_reported(command, text, tmp_path, capsys):
    system = tmp_path / "bad.crs"
    system.write_text(text)
    script = tmp_path / "bad.script"
    script.write_text("term f(a) ;\nprefix @ ;\nstage { redexes @ }\n")
    args = [str(script) if a == "SCRIPT" else a for a in command[1:]]
    code, out = run(command[0], str(system), *args)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in out + err
    assert "FAIL" in out + err or json.loads(out)["ok"] is False


class TestDevelop:
    def test_duplicating_example(self):
        code, out = run("develop", corpus("nested_duplication.crs"),
                        "--term", "f([x] g(x), a)", "--redexes", "@")
        assert code == 0
        assert "target: g(g(g(a)))" in out

    def test_empty_redex_list(self):
        code, out = run("develop", corpus("nested_duplication.crs"),
                        "--term", "f([x] g(x), a)")
        assert code == 0
        assert "target: f([x] g(x), a)" in out

    def test_cyclic_lambda_term_develops(self):
        code, out = run("develop", corpus("lambda_beta.crs"), "--term",
                        "rec S. app(abs([x] app(x, S)), abs([y] y))", "--all-redexes")
        assert code == 0
        assert out == "target: rec T1. app(abs([y] y), T1)\n"

    def test_deep_chain_develops(self, capsys):
        # the target is built over an explicit stack (it overflowed at 494)
        code, out = run("develop", corpus("nested_duplication.crs"), "--term",
                        "g(" * 600 + "f([x] x, a)" + ")" * 600, "--all-redexes")
        assert code == 0, capsys.readouterr().err
        assert out == "target: " + "g(" * 601 + "a" + ")" * 601 + "\n"

    def test_collapse_tower_fails(self):
        code, out = run("develop", corpus("collapse_loop.crs"),
                        "--term", "rec F. f(F)", "--all-redexes")
        assert code == 1
        assert "no complete development" in out
        assert "cycle witness" in out


class TestPaths:
    def test_duplicating_example(self):
        code, out = run("paths", corpus("nested_duplication.crs"),
                        "--term", "f([x] g(x), a)", "--redexes", "@")
        assert code == 0
        assert "maximal paths: 1" in out
        assert "(s,@) -e-> (r,@,@) -e-> (s,1.0)" in out
        assert ". -e-> . -e-> g -1-> ." in out

    def test_budget_exit(self):
        code, out = run("paths", corpus("collapse_loop.crs"),
                        "--term", "rec F. f(F)", "--budget", "20")
        assert code == 4
        assert "cut by budget" in out


class TestNormalize:
    def test_spine_rational(self):
        code, out = run("normalize", corpus("spine_growth.crs"),
                        "--term", "f(a, c)", "--strategy", "fair",
                        "--depth", "4", "--emit", "rational")
        assert code == 0
        assert "rational normal form: rec" in out

    def test_growing_argument_truncation(self):
        code, out = run("normalize", corpus("outermost_pair.crs"),
                        "--term", "f(a)", "--depth", "3")
        assert code == 0
        assert "approximant: g(g(g(_|_)))" in out

    def test_already_normal(self):
        code, out = run("normalize", corpus("spine_growth.crs"),
                        "--term", "g(b, b)", "--depth", "3")
        assert code == 0
        assert "status: normal-form" in out

    def test_divergence_exit(self):
        code, out = run("normalize", corpus("spine_growth.crs"),
                        "--term", "c", "--depth", "3", "--fuel", "30")
        assert code == 3

    def test_fuel_exhausted_run_prints_its_certified_form(self):
        # the run's terms recur before it is stable, which certifies the
        # form in either mode; a run suspected to diverge prints none
        argv = ("normalize", corpus("spine_growth.crs"), "--term", "f(a, c)",
                "--depth", "4", "--fuel", "3")
        code, out = run(*argv, "--emit", "all")
        assert code == 4 and "status: fuel-exhausted" in out
        assert out.splitlines()[-1] == "rational normal form: rec S1. g(b, S1)"
        code, out = run(*argv, "--json")
        payload = json.loads(out)
        assert (code, payload["status"]) == (4, "fuel-exhausted")
        assert payload["rational_normal_form"] == "rec S1. g(b, S1)"
        diverging = ("normalize", corpus("spine_growth.crs"), "--term", "c",
                     "--depth", "3", "--fuel", "30")
        code, out = run(*diverging, "--emit", "all")
        assert code == 3 and "rational normal form" not in out
        code, out = run(*diverging, "--json")
        assert (code, json.loads(out)["rational_normal_form"]) == (3, None)

    def test_unguarded_cycle_exits_parse(self, capsys):
        code, out = run("normalize", corpus("spine_growth.crs"),
                        "--term", "rec X. X")
        err = capsys.readouterr().err
        assert code == 2
        assert err == "parse error: unguarded cycle through rec X\n"
        assert "Traceback" not in out + err

    def test_too_deep_term_exits_budget(self, tmp_path, capsys):
        # the rule-side walks in `systems` recurse: a 3000-deep right-hand
        # side is the floor, for `check` and for the check `normalize` makes
        f = tmp_path / "deep.crs"
        f.write_text("rule deep: h(Z) -> " + "g(" * 3000 + "Z" + ")" * 3000 + " ;")
        for argv in (["check", str(f)], ["normalize", str(f), "--term", "h(a)"]):
            code, out = run(*argv)
            err = capsys.readouterr().err
            assert code == 4
            assert err.startswith("budget exceeded: term too deep to traverse")
            assert "Traceback" not in out + err

    @pytest.mark.parametrize("emit", [["--emit", "all"], ["--json"]])
    def test_deep_cycle_normalizes(self, capsys, emit):
        # unrolling, matching, truncating and printing the 3000-deep cycle
        # walk explicit stacks
        body = "g(" * 3000 + "X" + ")" * 3000
        code, out = run("normalize", corpus("spine_growth.crs"), "--term",
                        "rec X. " + body, "--depth", "2000", *emit)
        assert code == 0, capsys.readouterr().err
        if emit == ["--json"]:
            payload = json.loads(out)
            assert payload["status"] == "normal-form"
            assert payload["rational_normal_form"] == "rec X. " + body
        else:
            assert out.splitlines()[0] == "status: normal-form"
            assert "rational normal form: rec X. " + body in out.splitlines()

    def test_deep_chain_certifies_nothing(self, capsys):
        # the chain parses, scans and truncates 2000 deep; the run makes no
        # step, so it proves no rational form (the normal form is g^3000(b))
        deep = "g(" * 3000 + "a" + ")" * 3000
        code, out = run("normalize", corpus("spine_growth.crs"), "--term", deep,
                        "--depth", "2000", "--emit", "all")
        assert code == 0, capsys.readouterr().err
        assert out.splitlines()[-1] == "rational normal form: none detected"

    def test_short_chain_certifies_nothing(self, capsys):
        # the redex lies below the certified depth, and no run term recurs
        code, out = run("normalize", corpus("spine_growth.crs"), "--term",
                        "g(g(g(g(g(g(a))))))", "--depth", "2", "--emit", "all")
        assert code == 0, capsys.readouterr().err
        assert out.splitlines()[-1] == "rational normal form: none detected"

    @pytest.mark.parametrize("strategy", ["fair", "outermost-fair"])
    def test_counting_stream_certifies_nothing(self, tmp_path, capsys, strategy):
        # the stream 0, 1, 2, ... is not rational: no prefix is a period
        f = tmp_path / "from.crs"
        f.write_text("rule from: from(X) -> cons(X, from(s(X))) ;")
        code, out = run("normalize", str(f), "--term", "from(zero)",
                        "--strategy", strategy, "--depth", "4", "--emit", "all")
        assert code == 0, capsys.readouterr().err
        assert out.splitlines()[-1] == "rational normal form: none detected"

    def test_deep_chain_without_a_fold(self, capsys):
        # the run makes no step, and the normal-form test is breadth-first,
        # so 3000 distinct symbols do not recurse (it used to exit 4)
        deep = "".join(f"s{i}(" for i in range(1, 3001)) + "a" + ")" * 3000
        code, out = run("normalize", corpus("spine_growth.crs"), "--term", deep,
                        "--depth", "2000", "--emit", "all")
        assert code == 0, capsys.readouterr().err
        assert out.splitlines()[-1] == "rational normal form: none detected"

    @pytest.mark.parametrize("emit", ["rational", "all"])
    def test_late_budget_exit_writes_nothing(self, monkeypatch, capsys, emit):
        # the rational form is found before any line is written, as with --json
        def too_deep(trace):
            raise RecursionError

        monkeypatch.setattr(strategies, "detect_rational_nf", too_deep)
        code, out = run("normalize", corpus("spine_growth.crs"), "--term",
                        "f(a, c)", "--strategy", "fair", "--emit", emit)
        assert code == 4
        assert out == ""
        assert capsys.readouterr().err.startswith("budget exceeded: term too deep")

    def test_deep_chain_truncates(self):
        # truncation walks an explicit stack: the approximant 2000 deep is
        # built without recursion
        deep = "g(" * 3000 + "a" + ")" * 3000
        code, out = run("normalize", corpus("spine_growth.crs"), "--term", deep,
                        "--depth", "2000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "status: approximant"
        assert lines[1] == "approximant: " + "g(" * 2000 + "_|_" + ")" * 2000

    def test_deep_chain_normalizes(self):
        deep = "g(" * 3000 + "b" + ")" * 3000
        code, out = run("normalize", corpus("spine_growth.crs"), "--term", deep,
                        "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "normal-form"
        assert payload["rational_normal_form"] == deep

    def test_json_roundtrip(self):
        code, out = run("normalize", corpus("spine_growth.crs"),
                        "--term", "f(a, c)", "--depth", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "approximant"
        assert alpha_eq(parse_term(payload["rational_normal_form"]),
                        parse_term("rec S. g(b, S)"))
        assert all("rule" in s and "position" in s for s in payload["steps"])

    @pytest.mark.parametrize("system, term, depth, nf", [
        ("spine_growth.crs", "f(a, c)", 64, "rec S. g(b, S)"),
        ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))", 63,
         "rec S. cons(s(zero), S)"),
    ])
    def test_rational_form_past_depth_64(self, system, term, depth, nf):
        # the shallowest redex of the final term lies below depth 64
        code, out = run("normalize", corpus(system), "--term", term,
                        "--strategy", "fair", "--depth", str(depth),
                        "--emit", "rational", "--json")
        assert code == 0
        payload = json.loads(out)
        assert alpha_eq(parse_term(payload["rational_normal_form"]),
                        parse_term(nf))

    def test_fair_spine_at_depth_300(self, capsys):
        # equal nodes are one object, so no equality test walks the deep
        # approximant (structural equality overflowed at 300)
        self.check_fair_spine(300, capsys)

    def test_fair_spine_at_depth_384(self, capsys):
        # the rational form is found without recursion (the former fold
        # overflowed at 384)
        self.check_fair_spine(384, capsys)

    def test_fair_spine_at_depth_500(self):
        # free variables are read off the node, and the certificate search
        # is breadth-first: neither recurses (free variables and the former
        # fold overflowed).
        # A fresh process, so that no earlier run has filled a cache
        proc = subprocess.run(
            [sys.executable, "-m", "icrs", "normalize",
             "src/icrs/corpus/spine_growth.crs", "--term", "f(a, c)",
             "--strategy", "fair", "--depth", "500", "--fuel", "4000", "--json"],
            cwd=pathlib.Path(__file__).parent.parent,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["status"] == "approximant"
        assert alpha_eq(parse_term(payload["rational_normal_form"]),
                        parse_term("rec S. g(b, S)"))

    def test_needed_fair_fixpoint_at_depth_96(self, capsys):
        # the pilot runs on --fuel: on a fixed 600 steps it did not stabilise
        lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
        term = " ".join(ln.strip() for ln in lines
                        if ln.strip() and not ln.lstrip().startswith("#"))
        code, out = run("normalize", corpus("lambda_beta.crs"), "--term", term,
                        "--strategy", "needed-fair", "--depth", "96",
                        "--fuel", "4000", "--json")
        assert code == 0, capsys.readouterr().err
        payload = json.loads(out)
        nf = parse_term("rec S. app(app(gc, bc), S)")
        assert payload["status"] == "approximant"
        assert alpha_eq(parse_term(payload["approximant"]), truncate(nf, 96))
        assert alpha_eq(parse_term(payload["rational_normal_form"]), nf)

    @pytest.mark.parametrize("depth", [2, 5, 10])
    def test_needed_fair_spine_pilot_depth(self, monkeypatch, depth):
        # the spine's lhs depth is 0, so its pilots go to depth + 1, one
        # less than the depth + 2 the command line once gave them; the run
        # is the same
        pilot = strategies.needed_pilot
        goals = []

        def counting(term, system, depth_goal, fuel):
            out = pilot(term, system, depth_goal, fuel)
            goals.append(out.cut[1])
            return out

        def deeper(term, system, depth_goal, fuel):
            return pilot(term, system, depth_goal + 1, fuel)

        argv = ("normalize", corpus("spine_growth.crs"), "--term", "f(a, c)",
                "--strategy", "needed-fair", "--depth", str(depth), "--json")
        monkeypatch.setattr(strategies, "needed_pilot", counting)
        code, out = run(*argv)
        assert code == 0
        assert goals and set(goals) == {depth + 1}
        monkeypatch.setattr(strategies, "needed_pilot", deeper)
        assert run(*argv) == (code, out)

    @staticmethod
    def check_fair_spine(depth, capsys):
        code, out = run("normalize", corpus("spine_growth.crs"), "--term",
                        "f(a, c)", "--strategy", "fair", "--depth", str(depth),
                        "--fuel", "4000", "--json")
        assert code == 0, capsys.readouterr().err
        payload = json.loads(out)
        assert payload["status"] == "approximant"
        assert alpha_eq(parse_term(payload["rational_normal_form"]),
                        parse_term("rec S. g(b, S)"))


class TestEssential:
    def test_scripted_narrative(self):
        code, out = run("essential", corpus("collapse_growth.crs"),
                        "--script", corpus("collapse_growth.script"))
        assert code == 0
        assert "final term: g(h(h(h(h(a)))))" in out
        assert "essential positions of stage term 0: {@, 1, 1.1, 1.1.0}" in out
        assert "measure: (4, 5, 4)" in out
        assert "redex dup@1: essential" in out
        assert "redex ren@1.1.0: essential" in out
        assert "redex ren@1.1.0.1: inessential" in out

    def test_prefix_override_empty_means_all_inessential(self, tmp_path):
        script = tmp_path / "s.script"
        script.write_text("term g(f([x] g(g(x)))) ;\nprefix @ ;\n"
                          "stage { redexes 1 }\n")
        code, out = run("essential", corpus("collapse_growth.crs"),
                        "--script", str(script))
        assert code == 0
        assert "redex dup@1: inessential" in out
        assert "redex ren@@: essential" in out

    def test_json(self):
        code, out = run("essential", corpus("collapse_growth.crs"),
                        "--script", corpus("collapse_growth.script"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["measure"] == [4, 5, 4]
        assert payload["final"] == "g(h(h(h(h(a)))))"
        assert [(r["rule"], r["position"], r["classification"])
                for r in payload["redexes"]] == [
            ("ren", "@", "essential"), ("dup", "1", "essential"),
            ("ren", "1.1.0", "essential"), ("ren", "1.1.0.1", "inessential")]


    def test_one_sweep(self, monkeypatch):
        # one PathSpace per stage of the three-stage script
        built = []
        init = PathSpace.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PathSpace, "__init__", counting)
        for extra in ((), ("--json",)):
            built.clear()
            code, _ = run("essential", corpus("collapse_growth.crs"),
                          "--script", corpus("collapse_growth.script"), *extra)
            assert code == 0
            assert len(built) == 3


class TestSuite:
    def test_seeded_run_is_reproducible(self):
        code1, out1 = run("suite", "--seed", "11", "--instances", "5")
        code2, out2 = run("suite", "--seed", "11", "--instances", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["development_order_agreement"] == 5
        assert payload["finite_jumps_agreement"] == 5
        assert payload["phi_injectivity"] == 5
