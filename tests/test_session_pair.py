"""The session pair of one synthesis, the solver's stderr in errors, and the
solver's end when `synth` gets a SIGTERM."""

import contextlib
import os
import pathlib
import select
import signal
import subprocess
import sys
import time

import pytest

from glycanrules.backend import (
    PACKAGE_ROOT,
    ProtocolError,
    Session,
    SolverConfig,
    SolverLaunchError,
)
from glycanrules.driver import Budgets, Limits, SYNTHESIZED, SynthesisJob, synthesize
from glycanrules.formula import IntSort, VarRegistry, int_eq, int_le, int_lt
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


def test_bundled_pair_is_one_launch_with_a_forked_session():
    with Session.pair(SolverConfig()) as (first, second):
        assert isinstance(first.proc, subprocess.Popen)
        assert not isinstance(second.proc, subprocess.Popen)
        assert second.proc.owner is first.proc
        assert first.proc.args[:3] == [sys.executable, "-S", "-m"]
        assert "--internal-fork" in first.proc.args


def test_external_solver_gets_one_process_per_session(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", PACKAGE_ROOT)
    cfg = SolverConfig(executable=sys.executable,
                       extra_args=("-m", "glycanrules.minismt"))
    with Session.pair(cfg) as (first, second):
        assert isinstance(first.proc, subprocess.Popen)
        assert isinstance(second.proc, subprocess.Popen)
        assert first.proc.pid != second.proc.pid
        assert "--internal-fork" not in second.proc.args
    assert first.proc.returncode == 0 and second.proc.returncode == 0


def test_pair_sessions_are_independent():
    x, y = int_vars()

    def run_first(s):
        s.assert_formula(int_lt(x, y))
        answers = [s.check_sat()]
        s.push()
        s.assert_formula(int_eq(y, 0))
        answers.append(s.check_sat())
        s.pop()
        answers.append(s.check_sat())
        return answers, s.get_model([x, y]).assignment

    def run_second(s):
        s.assert_formula(int_lt(y, x))
        s.assert_formula(int_le(3, x))
        answers = [s.check_sat()]
        return answers, s.get_model([x, y]).assignment

    with Session(SolverConfig()) as lone:
        alone_first = run_first(lone)
    with Session(SolverConfig()) as lone:
        alone_second = run_second(lone)
    with Session.pair(SolverConfig()) as (first, second):
        # interleaved: each assert lands between the other's queries
        got_second = run_second(second)
        got_first = run_first(first)
        assert run_second(second)[0] == ["sat"]
    assert got_first == alone_first
    assert got_second == alone_second
    assert alone_first[0] == ["sat", "unsat", "sat"]


def test_pair_closes_cleanly():
    with Session.pair(SolverConfig()) as (first, second):
        assert first.check_sat() == "sat" and second.check_sat() == "sat"
        owner = first.proc
        forked_out = os.dup(second.proc.stdout.fileno())
    try:
        assert owner.returncode == 0
        assert select.select([forked_out], [], [], 10)[0]
        assert os.read(forked_out, 4096) == b""
    finally:
        os.close(forked_out)
    assert group_gone(owner.pid)


def test_pair_is_gone_when_the_client_raises():
    x, y = int_vars()
    with pytest.raises(RuntimeError, match="client failure"):
        with Session.pair(SolverConfig()) as (first, second):
            owner = first.proc
            second.assert_formula(int_lt(x, y))
            assert second.check_sat() == "sat"
            raise RuntimeError("client failure")
    assert owner.poll() is not None
    assert group_gone(owner.pid)


def test_synthesize_ignores_a_bogus_pythonpath(monkeypatch, tmp_path):
    # the solver child imports the client's own package root first
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "no-such-dir"))
    out = synthesize(tiny_job())
    assert out.status == SYNTHESIZED


def test_pair_transcripts_match_lone_sessions(monkeypatch, tmp_path):
    paired = tmp_path / "paired"
    lone = tmp_path / "lone"
    assert synthesize(tiny_job(dump_dir=str(paired))).status == SYNTHESIZED
    # without fork the pair falls back to two lone sessions
    monkeypatch.delattr(os, "fork")
    assert synthesize(tiny_job(dump_dir=str(lone))).status == SYNTHESIZED
    names = sorted(p.name for p in paired.iterdir())
    assert names and names == sorted(p.name for p in lone.iterdir())
    for name in names:
        assert (paired / name).read_bytes() == (lone / name).read_bytes()


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
