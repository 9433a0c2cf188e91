"""glycanrules benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload datasets --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  One process runs the workload's jobs
one after another (a closed loop with one client); each `synthesize` call
starts its own two solver children.  The job list repeats while `--seconds`
allows, and at least one whole pass runs.  Every verdict is checked outside the
timed region.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, timed in CPU seconds of this process and its solver
children; wall times are printed on the lines before it.  With `--trace 1`
each round is one untraced and one traced pass, and the JSON object holds the
per-layer metrics, including those the solver children report and the tracing
overhead.  The lines before it
give every job's verdict and time, the input fingerprint and each metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("datasets", "tiny-stream", "tall-templates")
SETUP_PROBES = 6  # extra set-ups, each in a fresh interpreter

# per-layer metrics of a traced run, with units (see README.md)
LAYER_METRICS = {
    "backend.spawn_s": "s", "backend.close_s": "s", "backend.sessions": "count",
    "backend.expand_s": "s", "backend.expand_instances": "count",
    "backend.emit_s": "s", "backend.emit_bytes": "bytes",
    "backend.assert_wait_s": "s", "backend.check_sat_s": "s",
    "backend.get_model_s": "s", "backend.queries": "count",
    "minismt.start_s": "s", "minismt.parse_s": "s", "minismt.let_expand_s": "s",
    "minismt.lower_s": "s", "minismt.cluster_s": "s",
    "minismt.cluster_clauses": "count", "minismt.search_s": "s",
    "minismt.conflicts": "count", "minismt.learned": "count",
    "minismt.clauses": "count", "minismt.vars": "count",
    "minismt.mbqi_s": "s", "minismt.mbqi_rounds": "count",
    "encoder.templates_s": "s", "encoder.produce_s": "s",
    "encoder.negative_s": "s", "encoder.decode_s": "s",
    "formula.substitute_s": "s", "formula.nodes_asserted": "count",
    "driver.iterations": "count", "driver.synth_query_s": "s",
    "driver.cex_query_s": "s", "driver.useful_cex_ratio": "ratio",
    "producer.verify_s": "s", "producer.verify_calls": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_environment():
    """Use the checkout's sources and the bundled solver, here and in every
    solver child."""
    src = ROOT / "src"
    if not (src / "glycanrules").is_dir() or not (ROOT / "datasets").is_dir():
        raise SystemExit(f"perfbench: no glycanrules sources and datasets under {ROOT}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    os.environ.pop("GLYCANRULES_SOLVER", None)
    os.environ.pop("GLYCANRULES_SOLVER_ARGS", None)


def set_up(workload: str, seed: int):
    """Import glycanrules, parse the data sets and generate the jobs."""
    started = time.perf_counter()
    import workloads

    jobs = workloads.build(workload, seed, ROOT)
    return jobs, time.perf_counter() - started


def setup_seconds(args, first: float) -> float:
    """Median set-up time over this process and SETUP_PROBES fresh ones."""
    times = [first]
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def preflight(cfg):
    """Open and close one solver session; on failure show the child's stderr."""
    from glycanrules.backend import BackendError, Session

    try:
        with Session(cfg):
            pass
    except BackendError as exc:
        try:
            probe = subprocess.run(cfg.command(), input="(exit)\n", capture_output=True,
                                   text=True, timeout=60)
            stderr = probe.stderr[-4000:]
        except (OSError, subprocess.TimeoutExpired) as err:
            stderr = str(err)
        raise SystemExit(f"perfbench: solver {cfg.command()} failed: {exc}\n"
                         f"--- solver stderr ---\n{stderr}") from exc


class Checker:
    """Verdict checks, run after a pass; brute-force verdicts are cached."""

    def __init__(self):
        self._expected = {}

    def expected(self, b) -> str:
        if b.expected is not None:
            return b.expected
        if b.name not in self._expected:
            from glycanrules.driver import brute_force_synth

            self._expected[b.name] = brute_force_synth(b.job).status
        return self._expected[b.name]

    def failures(self, jobs, outcomes) -> list[str]:
        from glycanrules.driver import SYNTHESIZED
        from glycanrules.producer import verify

        found = []
        for b, out in zip(jobs, outcomes):
            if isinstance(out, Exception):
                found.append(f"{b.name}: raised {out!r}")
                continue
            want = self.expected(b)
            if out.status != want:
                found.append(f"{b.name}: {out.status}, expected {want}")
            elif out.status == SYNTHESIZED:
                report = verify(out.rules, b.job.dataset, b.job.closure_config())
                if not report.passed or report.extras:
                    found.append(f"{b.name}: rule set fails the oracle")
        return found


def cpu_seconds() -> float:
    """User and system CPU time of this process and of its reaped children.

    `Session.close` waits for its solver child, so a job's two children are
    counted by the time `synthesize` returns.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(b, cfg, trace=None):
    """One `synthesize` call; returns its wall time, CPU time and outcome."""
    from glycanrules.driver import synthesize

    job = dataclasses.replace(b.job, solver=cfg)
    os.environ["PERFBENCH_JOB"] = b.name
    if trace is not None:
        trace.begin_job()
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        outcome = synthesize(job)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, the run goes on
        traceback.print_exc()
        outcome = exc
    return time.perf_counter() - t0, cpu_seconds() - c0, outcome


def run_pass(jobs, cfg, trace=None):
    """One pass in job order; returns its wall time and the outcomes."""
    started = time.perf_counter()
    outcomes = [run_job(b, cfg, trace)[2] for b in jobs]
    return time.perf_counter() - started, outcomes


def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile of one pass's jobs with ten or more beyond it.

    Below 20 jobs no percentile at or above the median has ten jobs beyond
    it, and the slowest job (p100) is reported instead.
    """
    if n_jobs < 20:
        return 100
    return math.floor(100 * (n_jobs - 10) / n_jobs)


def percentile(values, pct: int) -> float:
    """Nearest-rank pct-th percentile: the smallest value with pct% of the
    values at or below it."""
    x = sorted(values)
    return x[math.ceil(pct / 100 * len(x)) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def job_table(jobs, walls, cpus, outcomes):
    print("| job | verdict | iterations | runs | median wall s | median CPU s |")
    print("| --- | --- | --- | --- | --- | --- |")
    for b, w, c, out in zip(jobs, walls, cpus, outcomes):
        status = out.status if not isinstance(out, Exception) else type(out).__name__
        iters = getattr(out, "iterations", "-")
        print(f"| {b.name} | {status} | {iters} | {len(w)} | "
              f"{statistics.median(w):.3f} | {statistics.median(c):.3f} |")


def measure(args, jobs, cfg, checker):
    """Untraced jobs in a loop; returns the end-to-end metrics and failures.

    The jobs run in order, over and over: the first pass always completes,
    and after it the loop stops before the first job whose last run would
    end past `--seconds`.  Each job's times are medians over its runs.  The
    verdicts are checked afterwards, once the peak RSS of the timed jobs has
    been read, so neither the checks' time nor their memory is measured.
    """
    walls, cpus, outcomes = ([[] for _ in jobs] for _ in range(3))
    started, done = time.perf_counter(), 0
    while True:
        i = done % len(jobs)
        if done >= len(jobs) and time.perf_counter() - started + walls[i][-1] > args.seconds:
            break
        wall, cpu, outcome = run_job(jobs[i], cfg)
        walls[i].append(wall)
        cpus[i].append(cpu)
        outcomes[i].append(outcome)
        done += 1
    rss = peak_rss_mb()
    failures = [msg for b, outs in zip(jobs, outcomes) for out in outs
                for msg in checker.failures([b], [out])]
    job_table(jobs, walls, cpus, [outs[-1] for outs in outcomes])
    job_wall = [statistics.median(w) for w in walls]
    job_cpu = [statistics.median(c) for c in cpus]
    pct = tail_percentile(len(jobs))
    print(f"{done} jobs run, {len(jobs)} distinct, each run "
          f"{min(map(len, walls))} to {max(map(len, walls))} times; the tail is "
          f"the nearest-rank p{pct} of the {len(jobs)} per-job medians")
    print(f"wall_s {sum(job_wall):.6g} s")
    print(f"job_p50_s {statistics.median(job_wall):.6g} s")
    print(f"job_tail_s {percentile(job_wall, pct):.6g} s")
    metrics = {
        "pass_cpu_s": (sum(job_cpu), "s"),
        "job_p50_cpu_s": (statistics.median(job_cpu), "s"),
        "job_tail_cpu_s": (percentile(job_cpu, pct), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, done, failures


def collect_layers(trace, trace_dir: pathlib.Path, outcomes) -> dict:
    """Merge the client's and the solver children's spans and counters."""
    seconds = dict(trace.tracer.seconds)
    counts = dict(trace.tracer.counts)
    children = sorted(trace_dir.glob("*.json"))
    if len(children) != counts.get("backend.sessions", 0):
        raise RuntimeError(f"{len(children)} solver traces for "
                           f"{counts.get('backend.sessions', 0)} sessions")
    for path in children:
        child = json.loads(path.read_text())
        for k, v in child["seconds"].items():
            seconds[k] = seconds.get(k, 0.0) + v
        for k, v in child["counts"].items():
            counts[k] = counts.get(k, 0) + v
    done = [o for o in outcomes if not isinstance(o, Exception)]
    found = sum(len(o.counterexamples) for o in done)
    unique = found - sum(o.duplicate_counterexamples for o in done)
    counts["driver.iterations"] = sum(o.iterations for o in done)
    counts["driver.useful_cex_ratio"] = unique / found if found else 1.0
    seconds["backend.check_sat_s"] = (seconds.get("driver.synth_query_s", 0.0)
                                      + seconds.get("driver.cex_query_s", 0.0))
    return {"seconds": seconds, "counts": counts}


def measure_traced(args, jobs, plain_cfg, traced_cfg, checker):
    """Rounds of one untraced and one traced pass; returns per-layer metrics."""
    from spans import ClientTrace

    plain_walls, traced_walls, rounds, failures, attempted = [], [], [], [], 0
    started = time.perf_counter()
    while True:
        wall, outcomes = run_pass(jobs, plain_cfg)
        plain_walls.append(wall)
        failures += checker.failures(jobs, outcomes)

        trace_dir = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench_trace-", dir=ROOT))
        os.environ["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        trace = ClientTrace()
        trace.install()
        try:
            traced_wall, outcomes = run_pass(jobs, traced_cfg, trace)
            rounds.append(collect_layers(trace, trace_dir, outcomes))
        finally:
            trace.restore()
            del os.environ["PERFBENCH_TRACE_DIR"]
            shutil.rmtree(trace_dir)
        traced_walls.append(traced_wall)
        failures += checker.failures(jobs, outcomes)
        attempted += 2 * len(jobs)
        if time.perf_counter() - started + wall + traced_wall > args.seconds:
            break

    first = rounds[0]["counts"]
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            value = statistics.median(r["seconds"].get(name, 0.0) for r in rounds)
        else:
            value = first.get(name, 0)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    print(f"rounds {len(rounds)}; traced wall_s {statistics.median(traced_walls):.4f}"
          f" s, untraced wall_s {statistics.median(plain_walls):.4f} s")
    return metrics, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    jobs, first_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    import workloads
    from glycanrules.backend import SolverConfig, default_solver_config

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"inputs_sha256 {workloads.fingerprint(jobs)}")
    plain_cfg = default_solver_config()
    preflight(plain_cfg)
    checker = Checker()
    if args.trace:
        traced_cfg = SolverConfig(executable=sys.executable,
                                  extra_args=(str(BENCH / "launcher.py"),))
        preflight(traced_cfg)
        metrics, attempted, failures = measure_traced(
            args, jobs, plain_cfg, traced_cfg, checker)
    else:
        metrics, attempted, failures = measure(args, jobs, plain_cfg, checker)
        metrics["setup_s"] = (setup_seconds(args, first_setup), "s")
        print(f"fail_ratio {len(failures) / attempted:.4f} ratio "
              f"({len(failures)} of {attempted} jobs)")
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
