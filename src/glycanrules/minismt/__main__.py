"""SMT-LIB2 stdin/stdout protocol front end for the bundled solver.

Reads commands, answers on stdout.  It supports the commands the session
layer sends: set-option, set-logic, set-info, declare-datatypes (enumerations
only), declare-fun (zero-ary), assert, check-sat, get-value and exit.
Assertions only accumulate; there is no push, pop or reset.  Besides those,
`(get-info :all-statistics)` reports the engine's work counters
(`Engine.statistics`), and get-info of any other key gets the solver's name.
Every other command answers `(error "unsupported command ...")`.

An assertion goes to `Engine.assert_term` as parsed, with no copy: the
engine expands a `let` where it meets one and lowers every term through its
one term-to-literal table, `Engine.lowered`.  One process serves one session
on stdin/stdout.
"""

from __future__ import annotations

import sys

# `expand_lets` stays importable from here, where perfbench/spans.py patches
# it and the tests import it; the engine calls its own
from .engine import Engine, SolverError, expand_lets  # noqa: F401
from .sexpr import Reader, SexprError


class Session:
    def __init__(self, out):
        self.engine = Engine()
        self.out = out
        self.print_success = False
        self.timeout_ms = None
        self.done = False

    def reply(self, text: str):
        self.out.write(text + "\n")
        self.out.flush()

    def success(self):
        if self.print_success:
            self.reply("success")

    def error(self, message: str):
        self.reply(f'(error "{message}")')

    def handle(self, form):
        if not isinstance(form, tuple) or not form:
            self.error("malformed command")
            return
        head = form[0]
        try:
            if head == "set-option":
                self._set_option(form)
                self.success()
            elif head == "set-logic":
                self.success()
            elif head == "set-info":
                self._set_info(form)
                self.success()
            elif head == "declare-datatypes":
                self._declare_datatypes(form)
                self.success()
            elif head == "declare-fun":
                name, args, sort = form[1], form[2], form[3]
                if args != ():
                    raise SolverError("only zero-ary declarations supported")
                self.engine.declare_fun(name, sort)
                self.success()
            elif head == "assert":
                self.engine.assert_term(form[1])
                self.success()
            elif head == "check-sat":
                self.reply(self.engine.check_sat(self.timeout_ms))
            elif head == "get-value":
                pairs = self.engine.get_values(list(form[1]))
                body = " ".join(f"({n} {v})" for n, v in pairs)
                self.reply(f"({body})")
            elif head == "exit":
                self.success()
                self.done = True
            elif head == "get-info" and form[1] == ":all-statistics":
                stats = self.engine.statistics()
                self.reply("(" + " ".join(f"{k} {v}" for k, v in stats) + ")")
            elif head == "get-info":
                self.reply(f'({form[1]} "glycanrules-minismt")')
            else:
                self.error(f"unsupported command {head}")
        except (SolverError, SexprError, IndexError, KeyError, TypeError) as exc:
            self.error(str(exc).replace('"', "'"))

    def _set_option(self, form):
        key = form[1]
        if key == ":print-success":
            self.print_success = form[2] == "true"
        elif key == ":timeout":
            # the reader turns numerals into ints
            if not isinstance(form[2], int) or form[2] < 0:
                raise SolverError(f":timeout takes a numeral, not {form[2]}")
            self.timeout_ms = form[2]
        # other options are accepted and ignored

    def _set_info(self, form):
        if len(form) >= 3 and form[1] == ":order-cluster":
            self.engine.declare_cluster(form[2])

    def _declare_datatypes(self, form):
        # (declare-datatypes ((Name 0)) (((c1) (c2) ...)))
        sort_decls, ctor_lists = form[1], form[2]
        if len(sort_decls) != len(ctor_lists):
            raise SolverError(
                f"declare-datatypes names {len(sort_decls)} sorts but gives"
                f" {len(ctor_lists)} constructor lists"
            )
        for (name, arity), ctors in zip(sort_decls, ctor_lists):
            if arity != 0:
                raise SolverError("parametric datatypes unsupported")
            members = []
            for ctor in ctors:
                if len(ctor) != 1:
                    raise SolverError("only enumeration constructors supported")
                members.append(ctor[0])
            self.engine.declare_enum(name, members)


def serve(inp, out) -> int:
    """Answer the commands read from `inp` on `out` until exit or end of input."""
    session = Session(out)
    reader = Reader()
    for line in inp:
        try:
            forms = reader.feed(line)
        except SexprError as exc:
            session.error(str(exc))
            continue
        for form in forms:
            session.handle(form)
            if session.done:
                return 0
    return 0


def main() -> int:
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
