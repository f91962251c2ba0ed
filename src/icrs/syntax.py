"""Concrete syntax for terms, rules and systems.

Term grammar (shared by files, the CLI and test fixtures):

    term  := '[' name ']' term          abstraction, name lowercase
           | 'rec' NAME '.' term        rational cycle binder, NAME uppercase
           | ident '(' term,* ')'       symbol (lowercase) or meta (uppercase)
           | ident                      variable / nullary symbol / 0-ary meta
           | '_|_'                      hole (printed truncations only)

A bare lowercase identifier is a variable when bound by an enclosing [x],
otherwise a nullary symbol.  A bare uppercase identifier is a rec variable
when bound by an enclosing rec, otherwise a 0-ary meta-variable (rule sides
only).  Positions print dot-separated, the root as '@'.

System files hold `sym f/2 ;` declarations and `rule name: lhs -> rhs ;`
statements; '#' starts a line comment.  Development-sequence scripts hold a
`term`, an optional `prefix` and `stage { redexes ... }` blocks.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .systems import RewriteSystem, Rule, infer_signature
from .terms import (
    HOLE, Abs, MetaApp, Rec, RecVar, Sym, Var, check_guarded, position_str,
    truncate,
)

_TOKEN = re.compile(
    r"\s+|#[^\n]*"
    r"|(?P<arrow>->)"
    r"|(?P<hole>_\|_)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<num>\d+)"
    r"|(?P<punct>[()\[\],.;:/{}@])"
)


def tokenize(text):
    out = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"stray character {text[pos]!r}", line, col)
        chunk = m.group(0)
        kind = m.lastgroup
        if kind is not None:
            out.append((kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    out.append(("eof", "", line, col))
    return out


class _Tokens:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, value):
        kind, chunk, line, col = self.next()
        if chunk != value:
            raise ParseError(f"expected {value!r}, found {chunk!r}", line, col)
        return chunk

    def error(self, message):
        _, chunk, line, col = self.peek()
        raise ParseError(f"{message} (at {chunk!r})", line, col)


def _parse_term(ts, bound, recs, allow_meta):
    """Recursive descent run on an explicit stack, so that a deep term
    parses.  A frame is a node still waiting for a child: an abstraction or
    rec binder for its body, or a symbol for its next argument, with the
    binders in scope there: a (class, binder) pair or a [name, line,
    column, arguments so far, bound, recs] list."""
    frames = []
    while True:
        kind, chunk, line, col = ts.peek()
        if chunk == "[":
            ts.next()
            _, name, l2, c2 = ts.next()
            if not name or not name[0].islower():
                raise ParseError("abstraction binder must be lowercase", l2, c2)
            ts.expect("]")
            bound = bound | {name}
            frames.append((Abs, name))
            continue
        if chunk == "rec":
            ts.next()
            _, name, l2, c2 = ts.next()
            if not name or not name[0].isupper():
                raise ParseError("rec binder must be uppercase", l2, c2)
            ts.expect(".")
            recs = recs | {name}
            frames.append((Rec, name))
            continue
        if kind == "hole":
            ts.next()
            t = Sym(HOLE, ())
        else:
            if kind != "name":
                ts.error("expected a term")
            ts.next()
            if ts.peek()[1] == "(":
                ts.next()
                if ts.peek()[1] != ")":
                    frames.append([chunk, line, col, [], bound, recs])
                    continue
                ts.expect(")")
                t = _named(chunk, (), line, col, bound, recs, allow_meta)
            else:
                t = _named(chunk, None, line, col, bound, recs, allow_meta)
        while frames:
            frame = frames[-1]
            if frame.__class__ is tuple:
                frames.pop()
                t = frame[0](frame[1], t)
                continue
            frame[3].append(t)
            if ts.peek()[1] == ",":
                ts.next()
                bound, recs = frame[4], frame[5]
                break
            ts.expect(")")
            frames.pop()
            name, line, col, args, in_bound, in_recs = frame
            t = _named(name, tuple(args), line, col, in_bound, in_recs,
                       allow_meta)
        else:
            return t


def _named(name, args, line, col, bound, recs, allow_meta):
    """The node a name stands for, with its arguments (None when it has no
    argument list)."""
    upper = name[0].isupper()
    if args is None:
        if upper:
            if name in recs:
                return RecVar(name)
            if not allow_meta:
                raise ParseError(f"meta-variable {name} not allowed here", line, col)
            return MetaApp(name, ())
        if name in bound:
            return Var(name)
        return Sym(name, ())
    if upper:
        if name in recs:
            raise ParseError(f"rec variable {name} cannot take arguments", line, col)
        if not allow_meta:
            raise ParseError(f"meta-variable {name} not allowed here", line, col)
        return MetaApp(name, args)
    return Sym(name, args)


def parse_term(text, allow_meta=False):
    ts = _Tokens(text)
    t = _parse_term(ts, frozenset(), frozenset(), allow_meta)
    if ts.peek()[0] != "eof":
        ts.error("trailing input after term")
    return check_guarded(t)


def parse_metaterm(text):
    return parse_term(text, allow_meta=True)


def parse_position(text):
    text = text.strip()
    if text in ("@", ""):
        return ()
    try:
        return tuple(int(part) for part in text.split("."))
    except ValueError:
        raise ParseError(f"bad position {text!r}") from None


def parse_system(text):
    """Parse `sym f/2 ;` and `rule name: lhs -> rhs ;` statements."""
    ts = _Tokens(text)
    rules = []
    declared = {}
    while ts.peek()[0] != "eof":
        kind, chunk, line, col = ts.peek()
        if chunk == "sym":
            ts.next()
            _, name, _, _ = ts.next()
            ts.expect("/")
            k, num, l2, c2 = ts.next()
            if k != "num":
                raise ParseError("expected an arity", l2, c2)
            declared[name] = int(num)
            ts.expect(";")
        elif chunk == "rule":
            ts.next()
            _, name, _, _ = ts.next()
            ts.expect(":")
            lhs = _parse_term(ts, frozenset(), frozenset(), True)
            ts.expect("->")
            rhs = _parse_term(ts, frozenset(), frozenset(), True)
            ts.expect(";")
            rules.append(Rule(name, check_guarded(lhs), check_guarded(rhs)))
        else:
            ts.error("expected 'sym' or 'rule'")
    signature = infer_signature(rules, declared)
    return RewriteSystem(tuple(rules), signature)


def parse_script(text):
    """Development-sequence scripts:

        term f(a, b) ;
        prefix @, 1 ;          # optional, can be given on the command line
        stage { redexes @, 1.0 }
        stage { redexes 2 }

    Returns (term, prefix positions, one position list per stage)."""
    ts = _Tokens(text)
    term = None
    prefix = []
    stages = []
    while ts.peek()[0] != "eof":
        chunk = ts.peek()[1]
        if chunk == "term":
            ts.next()
            term = _parse_term(ts, frozenset(), frozenset(), False)
            ts.expect(";")
        elif chunk == "prefix":
            ts.next()
            prefix.extend(_script_positions(ts))
            ts.expect(";")
        elif chunk == "stage":
            ts.next()
            ts.expect("{")
            ts.expect("redexes")
            stages.append(_script_positions(ts))
            ts.expect("}")
        else:
            ts.error("expected 'term', 'prefix' or 'stage'")
    if term is None:
        raise ParseError("script declares no term")
    return term, prefix, stages


def _script_positions(ts):
    out = []

    def one():
        kind, chunk, line, col = ts.next()
        if chunk == "@":
            return ()
        if kind != "num":
            raise ParseError("expected a position", line, col)
        steps = [int(chunk)]
        while ts.peek()[1] == ".":
            ts.next()
            k, c, l2, c2 = ts.next()
            if k != "num":
                raise ParseError("expected a position step", l2, c2)
            steps.append(int(c))
        return tuple(steps)

    out.append(one())
    while ts.peek()[1] == ",":
        ts.next()
        out.append(one())
    return out


# ---------------------------------------------------------------------------
# printing

def print_term(t, max_depth=None):
    """Render a term.  Rational structure prints with its rec binders; pass
    max_depth to force a truncated rendering of the unfolding instead.  The
    walk keeps its pending nodes and separators on a stack, so a deep term
    prints."""
    if max_depth is not None:
        t = truncate(t, max_depth)
    out = []
    todo = [t]
    while todo:
        u = todo.pop()
        match u:
            case str():
                out.append(u)
            case Var(x, _) | RecVar(x):
                out.append(x)
            case Abs(x, body, _):
                out.append(f"[{x}] ")
                todo.append(body)
            case Sym(f, args, _) | MetaApp(f, args):
                out.append(f)
                if args:
                    out.append("(")
                    todo.append(")")
                    todo.append(args[-1])
                    for a in reversed(args[:-1]):
                        todo.append(", ")
                        todo.append(a)
            case Rec(v, body):
                out.append(f"rec {v}. ")
                todo.append(body)
            case _:
                raise TypeError(f"not a term: {u!r}")
    return "".join(out)


def print_rule(rule):
    return f"rule {rule.name}: {print_term(rule.lhs)} -> {print_term(rule.rhs)} ;"


def print_system(system):
    lines = [f"sym {f}/{n} ;" for f, n in system.signature]
    lines += [print_rule(r) for r in system.rules]
    return "\n".join(lines)
