"""SMT-LIB2 session layer: lowering, solver subprocess management, models.

The session speaks SMT-LIB2 v2.6 text over a solver's pipes: one
`(check-sat)` per query, models fetched with `(get-value ...)` over explicit
variable lists.  Assertions only accumulate; a caller that needs one taken
back opens a new session.  Identical formulas produce byte-identical text
(deterministic name allocation, and every formula written as plain terms),
which makes query transcripts replayable.

Each session starts one solver process.  The default solver is the bundled
one, started as `python -S -c LOADER`: the client compiles `minismt` once per
process and sends the marshalled code down the child's stdin, so the child
skips `site`, compiles nothing and reads nothing of `glycanrules` from disk;
it leads a process group of its own.  Set GLYCANRULES_SOLVER to substitute
any SMT-LIB2 solver binary such as z3.  Each launch writes its stderr to a
temporary file, and launch and protocol errors quote its tail.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import marshal
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .formula import (
    BOOL,
    And,
    BoolRef,
    EnumEq,
    EnumSort,
    FALSE,
    Forall,
    Formula,
    Iff,
    Implies,
    IntCmp,
    IntSort,
    Not,
    Or,
    TRUE,
    Var,
    conj,
    domain_size,
    domain_values,
    substitute,
)
from .minismt.sexpr import Reader, SexprError


class BackendError(RuntimeError):
    pass


class SolverLaunchError(BackendError):
    """The solver did not start, or failed the opening handshake; the latter
    quotes the ProtocolError, with the solver's stderr tail."""


class ProtocolError(BackendError):
    def __init__(self, message, transcript_tail="", stderr_tail=""):
        if stderr_tail:
            message += "\n--- solver stderr tail ---\n" + stderr_tail
        if transcript_tail:
            message += "\n--- transcript tail ---\n" + transcript_tail
        super().__init__(message)


# the logic every session declares
LOGIC = "UFDTLIA"


@dataclass
class SolverConfig:
    executable: str = ""
    extra_args: tuple = ()
    timeout_ms: int = 600_000
    dump_dir: Optional[str] = None
    expand_quantifier_threshold: int = 4096

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")

    def command(self) -> list[str]:
        if self.executable:
            return [self.executable, *self.extra_args]
        return [sys.executable, "-S", "-c", LOADER]


def default_solver_config(**overrides) -> SolverConfig:
    """A `SolverConfig(**overrides)` with the solver filled in.

    The executable is the one passed, else GLYCANRULES_SOLVER, else the
    bundled solver.  An external one takes the `extra_args` passed, else
    GLYCANRULES_SOLVER_ARGS, else `-in -smt2` if it is z3.
    """
    cfg = SolverConfig(**overrides)
    if not cfg.executable:
        cfg.executable = os.environ.get("GLYCANRULES_SOLVER", "")
    if cfg.executable and "extra_args" not in overrides:
        args = os.environ.get("GLYCANRULES_SOLVER_ARGS")
        if args is not None:
            cfg.extra_args = tuple(args.split())
        elif "z3" in pathlib.Path(cfg.executable).name:
            cfg.extra_args = ("-in", "-smt2")
    return cfg


def _sort_text(sort) -> str:
    if sort == BOOL:
        return "Bool"
    if isinstance(sort, IntSort):
        return "Int"
    if isinstance(sort, EnumSort):
        return sort.name
    raise BackendError(f"unknown sort {sort!r}")


class _Emitter:
    """Deterministic text for one formula, written as plain terms.

    A node reached twice is written twice; the solver gives equal term
    structure one literal, so the text shares nothing itself.  After `emit`,
    the keys of `free` are the free variables the text names, in the order
    they first occur; variables a `forall` binds are left out.
    """

    def __init__(self):
        self.free: dict[Var, None] = {}
        self._bound: frozenset = frozenset()

    def emit(self, f: Formula) -> str:
        self.free = {}
        return self._text(f)

    def _name(self, v) -> str:
        """The text of an operand, recording a variable no enclosing `forall`
        binds as free.  An EnumEq right side may be a member name, an IntCmp
        side a constant."""
        if not isinstance(v, Var):
            return str(v)
        if v not in self._bound:
            self.free[v] = None
        return v.name

    def _text(self, f: Formula) -> str:
        if f is TRUE:
            return "true"
        if f is FALSE:
            return "false"
        if isinstance(f, BoolRef):
            return self._name(f.var)
        if isinstance(f, EnumEq):
            return f"(= {self._name(f.left)} {self._name(f.right)})"
        if isinstance(f, IntCmp):
            return f"({f.op} {self._name(f.lhs)} {self._name(f.rhs)})"
        if isinstance(f, Not):
            return f"(not {self._text(f.arg)})"
        if isinstance(f, And):
            return "(and " + " ".join(self._text(a) for a in f.args) + ")"
        if isinstance(f, Or):
            return "(or " + " ".join(self._text(a) for a in f.args) + ")"
        if isinstance(f, Implies):
            return f"(=> {self._text(f.left)} {self._text(f.right)})"
        if isinstance(f, Iff):
            return f"(= {self._text(f.left)} {self._text(f.right)})"
        if isinstance(f, Forall):
            binders = " ".join(f"({v.name} {_sort_text(v.sort)})" for v in f.vars)
            guard_parts = []
            for v in f.vars:
                if isinstance(v.sort, IntSort):
                    guard_parts.append(f"(<= {v.sort.lo} {v.name})")
                    guard_parts.append(f"(<= {v.name} {v.sort.hi})")
            if not guard_parts:
                guard = "true"
            elif len(guard_parts) == 1:
                guard = guard_parts[0]
            else:
                guard = "(and " + " ".join(guard_parts) + ")"
            outer = self._bound
            self._bound = outer | set(f.vars)
            body = self._text(f.body)
            self._bound = outer
            return f"(forall ({binders}) (=> {guard} {body}))"
        raise BackendError(f"cannot emit node {f!r}")


class Model:
    def __init__(self, assignment: dict):
        self.assignment = assignment

    def value(self, var: Var):
        return self.assignment[var.name]


# commands a ProtocolError quotes; without a dump directory only these are kept
TRANSCRIPT_TAIL = 8
# bytes of the solver's stderr a launch or protocol error quotes
STDERR_TAIL = 2048
# the bundled solver's modules, each after the ones it imports
SOLVER_MODULES = ("sat", "sexpr", "engine", "__main__")
# the bundled solver's program: reads the length-prefixed blob `_solver_code`
# makes, registers the packages and modules, runs them in order, then `main`
LOADER = """import sys,marshal
for n in 'glycanrules','glycanrules.minismt':sys.modules[n]=type(sys)(n)
i=sys.stdin.buffer
for n,c in marshal.loads(i.read(int(i.readline()))):
 m=sys.modules[n]=type(sys)(n);m.__package__='glycanrules.minismt';exec(c,vars(m))
sys.exit(m.main())"""
# seconds a solver stopped with SIGTERM gets to exit before it is killed
TERMINATE_GRACE_S = 1.0


class Session:
    """One solver session over the pipes of a process of its own. Callers
    serialize; not thread-safe."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.declared: set[str] = set()
        self.declared_sorts: dict[str, tuple] = {}
        self.commands: deque[str] = deque(
            maxlen=None if config.dump_dir else TRANSCRIPT_TAIL
        )
        self.check_count = 0
        self._emitter = _Emitter()
        self.stderr = tempfile.TemporaryFile()
        try:
            self.proc = _launch(config, self.stderr)
        except BaseException:
            self.stderr.close()
            raise
        try:
            self._send("(set-option :print-success true)", expect="success")
            self._send("(set-option :produce-models true)", expect="success")
            self._send(f"(set-option :timeout {config.timeout_ms})", expect="success")
            self._send(f"(set-logic {LOGIC})", expect="success")
        except BaseException as exc:
            self._kill()
            self._release()
            if isinstance(exc, ProtocolError):
                raise SolverLaunchError(
                    f"solver {config.command()!r} did not start: {exc}"
                ) from exc
            raise

    # ----- plumbing -----

    def _tail(self) -> str:
        return "\n".join(list(self.commands)[-TRANSCRIPT_TAIL:])

    def _stderr_tail(self) -> str:
        """The last STDERR_TAIL bytes the solver wrote to its stderr."""
        try:
            fd = self.stderr.fileno()
            size = os.fstat(fd).st_size
            # pread leaves the offset alone, which the child shares
            data = os.pread(fd, STDERR_TAIL, max(0, size - STDERR_TAIL))
        except (OSError, ValueError):
            return ""
        return data.decode("utf-8", "replace").strip()

    def _fail(self, message: str, transcript_tail: Optional[str] = None):
        tail = self._tail() if transcript_tail is None else transcript_tail
        return ProtocolError(message, tail, self._stderr_tail())

    def _write(self, line: str):
        if self.proc.stdin.closed:
            raise self._fail("solver stdin closed")
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise self._fail("solver exited unexpectedly") from exc

    def _send(self, line: str, expect: Optional[str] = None):
        self.commands.append(line)
        self._write(line)
        if expect is not None:
            reply = self._read_line()
            if reply != expect:
                if reply.startswith("(error"):
                    raise self._fail(reply)
                raise self._fail(f"expected {expect!r}, solver said {reply!r}")

    def _read_line(self) -> str:
        line = self.proc.stdout.readline()
        if line == "":
            raise self._fail("solver closed its output")
        return line.strip()

    def _read_form(self):
        reader = Reader()
        while True:
            line = self.proc.stdout.readline()
            if line == "":
                raise self._fail("solver closed its output mid-form")
            # a bare atom is a whole reply that no further line completes
            if "(" not in line and line.strip() and not reader.buffer.strip():
                raise self._fail(f"bad get-value reply {line.strip()!r}")
            try:
                forms = reader.feed(line)
            except SexprError as exc:
                raise self._fail(f"bad solver output: {exc}", line) from exc
            if forms:
                return forms[0]

    # ----- declarations -----

    def declare_var(self, var: Var):
        if var.name in self.declared:
            return
        if isinstance(var.sort, EnumSort):
            self._ensure_sort(var.sort)
        self.declared.add(var.name)
        self._send(
            f"(declare-fun {var.name} () {_sort_text(var.sort)})", expect="success"
        )
        if isinstance(var.sort, IntSort):
            self._send(
                f"(assert (and (<= {var.sort.lo} {var.name})"
                f" (<= {var.name} {var.sort.hi})))",
                expect="success",
            )

    def _ensure_sort(self, sort: EnumSort):
        known = self.declared_sorts.get(sort.name)
        if known is not None:
            if known != sort.members:
                raise BackendError(
                    f"sort {sort.name} redeclared with different members"
                )
            return
        self.declared_sorts[sort.name] = sort.members
        ctors = " ".join(f"({m})" for m in sort.members)
        self._send(
            f"(declare-datatypes (({sort.name} 0)) (({ctors})))", expect="success"
        )

    # ----- assertions and queries -----

    def assert_formula(self, f: Formula):
        f = self._maybe_expand(f)
        if f is TRUE:
            return
        text = self._emitter.emit(f)
        for var in self._emitter.free:
            self.declare_var(var)
        self._send(f"(assert {text})", expect="success")

    def _maybe_expand(self, f: Formula) -> Formula:
        if not isinstance(f, Forall):
            return f
        if domain_size(f.vars) > self.config.expand_quantifier_threshold:
            return f
        instances: list[Formula] = []
        _expand(f.body, f.vars, 0, instances)
        return conj(instances)

    def check_sat(self, label: Optional[str] = None) -> str:
        self.check_count += 1
        self.commands.append("(check-sat)")
        self._write("(check-sat)")
        reply = self._read_line()
        if reply not in ("sat", "unsat", "unknown"):
            raise self._fail(f"unexpected check-sat answer {reply!r}")
        self.commands[-1] = f"(check-sat) ; result: {reply}"
        if self.config.dump_dir and label:
            self._dump_transcript(label)
        return reply

    def _dump_transcript(self, label: str):
        path = pathlib.Path(self.config.dump_dir)
        path.mkdir(parents=True, exist_ok=True)
        body = []
        for cmd in self.commands:
            if " ; result: " in cmd:
                stripped, result = cmd.split(" ; result: ")
                body.append(stripped)
                body.append(f"; expect {result}")
            else:
                body.append(cmd)
        (path / f"{label}.smt2").write_text("\n".join(body) + "\n")

    def get_model(self, vars: list[Var]) -> Model:
        assignment = {}
        chunk = 200
        ordered = []
        seen = set()
        for v in vars:
            if v.name not in seen:
                seen.add(v.name)
                ordered.append(v)
                # unconstrained variables still need a value
                self.declare_var(v)
        for i in range(0, len(ordered), chunk):
            group = ordered[i : i + chunk]
            names = " ".join(v.name for v in group)
            self.commands.append(f"(get-value ({names}))")
            self._write(f"(get-value ({names}))")
            form = self._read_form()
            if not isinstance(form, tuple):
                raise self._fail(f"bad get-value reply {form!r}")
            by_name = {v.name: v for v in group}
            for pair in form:
                name, raw = pair[0], pair[1]
                var = by_name.get(name)
                if var is None:
                    continue
                assignment[name] = _decode_value(var, raw)
        missing = [v.name for v in ordered if v.name not in assignment]
        if missing:
            raise self._fail(f"model misses {missing[:5]}")
        return Model(assignment)

    def close(self):
        try:
            if self.proc.poll() is None:
                self._send("(exit)", expect=None)
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
        except Exception:
            self._kill()
        finally:
            self._release()

    def _terminate(self):
        """Stop a solver that may be mid-query, without the `(exit)`
        handshake: SIGTERM, then a kill once TERMINATE_GRACE_S has passed."""
        try:
            self.proc.terminate()
            self.proc.wait(timeout=TERMINATE_GRACE_S)
        except Exception:
            self._kill()
        finally:
            self._release()

    def _kill(self):
        self.proc.kill()
        self.proc.wait()

    def _release(self):
        """Close the client's ends of the pipes, and the stderr file."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()
        self.stderr.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._terminate()


def _launch(config: SolverConfig, stderr):
    """Start the solver with piped stdin/stdout and stderr to `stderr`.

    The bundled solver starts a process group of its own, which `terminate`
    and `kill` signal whole, and first reads its code from stdin.
    """
    command = config.command()
    code = None if config.executable else _solver_code()
    group = code is not None and hasattr(os, "killpg")
    try:
        proc = (_GroupPopen if group else subprocess.Popen)(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            start_new_session=group,
        )
    except OSError as exc:
        raise SolverLaunchError(f"cannot launch solver {command!r}: {exc}") from exc
    if code is not None:
        # a child that died first is reported, with its stderr, by the handshake
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.buffer.write(code)
            proc.stdin.buffer.flush()
    return proc


@functools.cache
def _solver_code() -> bytes:
    """SOLVER_MODULES compiled as an import would compile them, marshalled
    with a length line for LOADER; built once per process, on first use.

    The code objects keep their source paths, so tracebacks name the files.
    """
    codes = []
    for module in SOLVER_MODULES:
        name = f"glycanrules.minismt.{module}"
        codes.append((name, importlib.util.find_spec(name).loader.get_code(name)))
    blob = marshal.dumps(codes)
    return b"%d\n" % len(blob) + blob


class _GroupPopen(subprocess.Popen):
    """A solver leading its own process group; `terminate` and `kill`
    signal the whole group, and a group already gone is no error."""

    def send_signal(self, sig):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.pid, sig)


def _expand(body: Formula, vars: tuple, i: int, out: list):
    """Append the instances of `body` over `vars[i:]` to `out`.

    Binds one variable per level, so the instances below a level share its
    partly folded body, and stops a branch once it folds to a constant: TRUE
    is dropped, FALSE makes the conjunction FALSE.  Instances come out in
    `domain_product` order and, for a body without shared subterms, emit the
    same text as substituting each point at once; with shared subterms a
    folded double negation can share more nodes.  Module-level: a recursive
    closure is a reference cycle that keeps each expansion alive until the
    next full collection.
    """
    var = vars[i]
    for value in domain_values(var.sort):
        part = substitute(body, {var: value})
        if part is TRUE:
            continue
        if part is FALSE or i + 1 == len(vars):
            out.append(part)
        else:
            _expand(part, vars, i + 1, out)


def _decode_value(var: Var, raw):
    if var.sort == BOOL:
        if raw in ("true", "false"):
            return raw == "true"
        raise ProtocolError(f"bad boolean value {raw!r} for {var.name}")
    if isinstance(var.sort, IntSort):
        if isinstance(raw, int):
            return raw
        if isinstance(raw, tuple) and len(raw) == 2 and raw[0] == "-":
            return -raw[1]
        raise ProtocolError(f"bad integer value {raw!r} for {var.name}")
    if isinstance(raw, str) and raw in var.sort.members:
        return raw
    # some solvers qualify constructors, e.g. (as Member Sort)
    if isinstance(raw, tuple) and len(raw) == 3 and raw[0] == "as":
        if raw[1] in var.sort.members:
            return raw[1]
    raise ProtocolError(f"bad enum value {raw!r} for {var.name}")
