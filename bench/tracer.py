"""Per-layer tracing from outside the program.

The layers are the modules of the engine.  Each traced public function or
method is replaced, at every module binding that holds it and on its class,
by a wrapper; nothing inside the program changes.  Three kinds of wrapper:

  span   records (name, start, end, parent span, operation id) and self time
  timed  self time and calls, no span record (too hot to record each call)
  count  calls only; its time stays in the caller's self time

Self time is a call's duration minus the time of traced calls made inside
it, so self times of all layers add up to the traced wall time.  Spans are
kept in memory and written out once, by the caller, at the end of the run.
"""

import sys
import time

# metric prefix, wrapper kind, targets as (module, function or Class.method)
TARGETS = [
    ("cli.main", "span", [("cli", "main")]),
    ("syntax.parse", "span", [("syntax", "parse_term"), ("syntax", "parse_system")]),
    ("syntax.print_term", "span", [("syntax", "print_term")]),
    ("terms.child_at", "count", [("terms", "child_at")]),
    ("terms.alpha_eq", "span", [("terms", "alpha_eq")]),
    ("rewriting.match", "timed", [("rewriting", "match")]),
    ("rewriting.find_redexes", "span", [("rewriting", "find_redexes")]),
    ("rewriting.contract", "span", [("rewriting", "contract")]),
    ("rewriting.descendant_map", "span", [("rewriting", "StepRecord.descendant_map")]),
    ("developments.extensions", "count", [("developments", "PathSpace.extensions")]),
    ("developments.enumerate", "span", [("developments", "PathSpace.enumerate")]),
    ("developments.has_finite_jumps", "span", [("developments", "has_finite_jumps")]),
    ("developments.target_term", "span", [("developments", "target_term")]),
    ("developments.complete_development", "span",
     [("developments", "complete_development")]),
    ("developments.dev_sequence_of_steps", "span",
     [("developments", "dev_sequence_of_steps")]),
    ("essential.path_prefix_set", "span", [("essential", "path_prefix_set")]),
    ("essential.epsilon_seq", "span", [("essential", "epsilon_seq")]),
    ("strategies.normalize", "span", [("strategies", "normalize")]),
    ("strategies.observe_term", "span",
     [("strategies", "FairnessTracker.observe_term")]),
    ("strategies.observe_step", "span",
     [("strategies", "FairnessTracker.observe_step")]),
    ("strategies.select", "span", [("strategies", "FairnessTracker.select")]),
    ("strategies.satisfies", "count", [("strategies", "_Predicate.satisfies")]),
    ("strategies.needed_pilot", "span", [("strategies", "needed_pilot")]),
    ("strategies.essential_start_positions", "span",
     [("strategies", "Pilot.essential_start_positions")]),
    ("strategies.detect_rational_nf", "span", [("strategies", "detect_rational_nf")]),
    ("oracle.phi_injectivity_check", "span", [("oracle", "phi_injectivity_check")]),
    ("oracle.all_development_orders", "span", [("oracle", "all_development_orders")]),
    ("oracle.develops_by_exhaustion", "span", [("oracle", "develops_by_exhaustion")]),
    ("oracle.brute_descendants", "span", [("oracle", "brute_descendants")]),
]

# work sizes read off results: paths returned or enumerated
SIZES = {
    "essential.path_prefix_set": lambda r: len(r.paths),
    "oracle.phi_injectivity_check": lambda r: r.instances,
}


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.hits = [0] * n
        self.sizes = [0] * n
        self.stack = []
        self.spans = []
        self.keep_spans = False
        self.op = [0]
        self._patches = []

    # -- wrappers ------------------------------------------------------------
    def _span(self, fn, idx, size):
        calls, self_s, sizes = self.calls, self.self_s, self.sizes
        stack, spans, op, clock = self.stack, self.spans, self.op, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, -1]
            if self.keep_spans:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[idx] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if frame[1] >= 0:
                    spans[frame[1]] = (idx, start, end, parent, op[0])
            if size is not None:
                sizes[idx] += size(result)
            return result

        return wrapper

    def _timed(self, fn, idx):
        calls, self_s, hits = self.calls, self.self_s, self.hits
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[idx] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if result is not None:
                hits[idx] += 1
            return result

        return wrapper

    def _count(self, fn, idx):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------
    def install(self):
        """Wrap every target at every binding in the loaded engine modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "icrs" or name.startswith("icrs."))]
        for idx, (name, mode, targets) in enumerate(TARGETS):
            for module_name, qual in targets:
                module = sys.modules[f"icrs.{module_name}"]
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[meth]
                    self._set(owner, meth, self._wrap(original, idx, mode, name))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(original, idx, mode, name)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapper)

    def _wrap(self, fn, idx, mode, name):
        if mode == "span":
            return self._span(fn, idx, SIZES.get(name))
        if mode == "timed":
            return self._timed(fn, idx)
        return self._count(fn, idx)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def snapshot(self):
        """Totals so far, per metric prefix."""
        return {name: (self.calls[i], self.self_s[i], self.hits[i], self.sizes[i])
                for i, name in enumerate(self.names)}

    def reset(self):
        n = len(self.names)
        self.calls[:] = [0] * n
        self.self_s[:] = [0.0] * n
        self.hits[:] = [0] * n
        self.sizes[:] = [0] * n
