"""The one solver session of a synthesis, the solver's stderr in errors, and
the solver's end when `synth` gets a SIGTERM."""

import contextlib
import importlib.util
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from glycanrules import backend
from glycanrules.backend import (
    ProtocolError,
    Session,
    SolverConfig,
    SolverLaunchError,
)
from glycanrules.driver import Budgets, Limits, SYNTHESIZED, SynthesisJob, synthesize
from glycanrules.formula import IntSort, VarRegistry, int_lt
from glycanrules.grammar import parse_dataset

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def int_vars():
    reg = VarRegistry()
    return reg.make("x", IntSort(0, 3)), reg.make("y", IntSort(0, 3))


def group_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def tiny_job(**solver):
    data = parse_dataset("sugar A 1; sugar B 0; mol A(B)")
    return SynthesisJob(data, Budgets(rules=1, depth=2),
                        limits=Limits(max_iterations=50, wall_clock_s=60),
                        solver=SolverConfig(**solver))


def test_session_closes_cleanly():
    with Session(SolverConfig()) as session:
        assert session.check_sat() == "sat"
        proc = session.proc
        assert proc.args == [sys.executable, "-S", "-c", backend.LOADER]
    assert proc.returncode == 0
    assert group_gone(proc.pid)


def test_session_is_gone_when_the_client_raises():
    x, y = int_vars()
    with pytest.raises(RuntimeError, match="client failure"):
        with Session(SolverConfig()) as session:
            proc = session.proc
            session.assert_formula(int_lt(x, y))
            assert session.check_sat() == "sat"
            raise RuntimeError("client failure")
    assert proc.poll() is not None
    assert group_gone(proc.pid)


def test_bundled_solver_reads_no_package_from_disk(monkeypatch, tmp_path):
    # a child that imported `glycanrules` from its cwd or PYTHONPATH would
    # fail on this package
    (tmp_path / "glycanrules").mkdir()
    (tmp_path / "glycanrules" / "__init__.py").write_text(
        "raise ImportError('not the client package')\n"
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    x, y = int_vars()
    with Session(SolverConfig()) as session:
        session.assert_formula(int_lt(x, y))
        assert session.check_sat() == "sat"
        session.assert_formula(int_lt(y, x))
        assert session.check_sat() == "unsat"


def test_second_session_does_not_compile_the_solver(monkeypatch):
    loader = type(importlib.util.find_spec("glycanrules.minismt.engine").loader)
    get_code = loader.get_code
    compiled = []

    def counting(self, name):
        if name.startswith("glycanrules."):
            compiled.append(name)
        return get_code(self, name)

    monkeypatch.setattr(loader, "get_code", counting)
    backend._solver_code.cache_clear()
    for _ in range(2):
        with Session(SolverConfig()) as session:
            assert session.check_sat() == "sat"
    assert compiled == [f"glycanrules.minismt.{m}" for m in backend.SOLVER_MODULES]


def test_synthesize_launches_one_solver(monkeypatch):
    launched = []
    launch = backend._launch

    def counting(config, stderr):
        launched.append(launch(config, stderr))
        return launched[-1]

    monkeypatch.setattr(backend, "_launch", counting)
    # takes a counterexample before it succeeds
    data = parse_dataset("sugar A 1; sugar B 0; mol A(A(B))")
    out = synthesize(SynthesisJob(data, Budgets(rules=2, depth=2)))
    assert out.status == SYNTHESIZED and out.counterexamples
    assert len(launched) == 1 and launched[0].returncode == 0


def test_synthesize_ignores_a_bogus_pythonpath(monkeypatch, tmp_path):
    # the bundled solver child gets its code from the client, not the path
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "no-such-dir"))
    out = synthesize(tiny_job())
    assert out.status == SYNTHESIZED


def test_launch_error_quotes_solver_stderr():
    # the marker is built at run time: the error also quotes the command
    crash = ("import sys; sys.stderr.write('MARKER' + '-launch\\n');"
             " sys.stderr.flush(); sys.exit(3)")
    cfg = SolverConfig(executable=sys.executable, extra_args=("-c", crash))
    with pytest.raises(SolverLaunchError, match="MARKER-launch"):
        Session(cfg)


def test_protocol_error_quotes_solver_stderr():
    # answers success until the first check-sat, then crashes with a marker
    crash = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.startswith('(check-sat'):\n"
        "        sys.stderr.write('x' * 5000 + 'MARKER' + '-crash\\n')\n"
        "        sys.exit(3)\n"
        "    print('success', flush=True)\n"
    )
    cfg = SolverConfig(executable=sys.executable, extra_args=("-c", crash))
    with Session(cfg) as s:
        with pytest.raises(ProtocolError) as err:
            s.check_sat()
    message = str(err.value)
    assert "MARKER-crash" in message
    # only the last STDERR_TAIL bytes of the stderr are quoted
    assert "x" * 1000 in message and "x" * 2100 not in message
    assert message.rstrip().endswith("(check-sat)")


def test_bare_atom_for_a_model_is_a_protocol_error():
    # answers success, sat, then `unsupported` to get-value; the sleep bounds
    # the wait of a client that keeps reading for the rest of a form
    fake = (
        "import sys, time\n"
        "for line in sys.stdin:\n"
        "    if line.startswith('(check-sat'):\n"
        "        print('sat', flush=True)\n"
        "    elif line.startswith('(get-value'):\n"
        "        print('unsupported', flush=True)\n"
        "        time.sleep(10)\n"
        "        break\n"
        "    else:\n"
        "        print('success', flush=True)\n"
    )
    cfg = SolverConfig(executable=sys.executable, extra_args=("-c", fake))
    x, _ = int_vars()
    started = time.monotonic()
    with pytest.raises(ProtocolError, match="bad get-value reply 'unsupported'"):
        with Session(cfg) as s:
            assert s.check_sat() == "sat"
            s.get_model([x])
    assert time.monotonic() - started < 5


# Runs `synth` with 11-pigeons-in-10-holes conjoined to the synthesis query,
# far beyond the bundled solver, and prints the solver's process group as the
# first query starts.
BUSY_SYNTH = """
import sys
from glycanrules import backend, driver
from glycanrules.cli import main
from glycanrules.formula import BOOL, VarRegistry, bool_ref, conj, disj, not_

reg = VarRegistry()
x = [[reg.make(f"php_{i}_{j}", BOOL) for j in range(10)] for i in range(11)]
parts = [disj([bool_ref(v) for v in row]) for row in x]
for j in range(10):
    for a in range(11):
        for b in range(a + 1, 11):
            parts.append(not_(conj([bool_ref(x[a][j]), bool_ref(x[b][j])])))
pigeons = conj(parts)
correctness = driver.rule_template_correctness
driver.rule_template_correctness = (
    lambda ctx, templates: conj([correctness(ctx, templates), pigeons])
)
check_sat = backend.Session.check_sat

def announce(self, label=None):
    print("busy", self.proc.pid, flush=True)
    return check_sat(self, label)

backend.Session.check_sat = announce
sys.exit(main(sys.argv[1:]))
"""


def test_sigterm_stops_the_solver(tmp_path):
    data = tmp_path / "d.gly"
    data.write_text("sugar A 1; sugar B 0; mol A(B)")
    proc = subprocess.Popen(
        [sys.executable, "-c", BUSY_SYNTH, "synth", str(data),
         "--rules", "1", "--depth", "2", "--report", str(tmp_path / "r.txt")],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    pgid = None
    try:
        line = proc.stdout.readline().split()
        assert line[:1] == ["busy"]
        # the bundled solver leads its own process group
        pgid = int(line[1])
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        signalled = time.monotonic()
        code = proc.wait(timeout=10)
        # a busy solver is stopped at once, not awaited
        assert time.monotonic() - signalled < 2
        deadline = time.monotonic() + 2
        while not group_gone(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert group_gone(pgid)
        assert code == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if pgid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
