"""Command-line front end: synth / verify / enum.

Exit codes: 0 success (Synthesized / verification passed), 2 budget failure
(NoRulesInBudget / verification failed), 3 inconclusive, 1 usage, I/O, or
solver errors, 143 on SIGTERM, once the solver is stopped.  Reports are
written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import sys
import tempfile

from .backend import BackendError, default_solver_config
from .core import ModelError, RuleSet
from .driver import (
    Budgets,
    INCONCLUSIVE,
    Limits,
    NO_RULES,
    SYNTHESIZED,
    SynthesisJob,
    outcome_report,
    synthesize,
)
from .encoder import Variants
from .grammar import (
    ParseError,
    molecule_to_dot,
    parse_dataset,
    parse_rules,
    rule_to_dot,
    serialize_molecule,
    serialize_rules,
)
from .producer import (
    ClosureBudgetExceeded,
    ClosureConfig,
    RepeatConfig,
    closure,
    seed_molecules,
    verify,
)


def _write_atomic(path: str, text: str):
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_dataset(path: str):
    return parse_dataset(pathlib.Path(path).read_text())


def _load_rules(path: str, alphabet):
    return parse_rules(pathlib.Path(path).read_text(), alphabet)


def _variants(args) -> Variants:
    repeat = tuple(args.repeats) if args.repeats else None
    return Variants(
        fast_slow=args.fast_slow,
        hard_ends=args.hard_ends,
        repeat=repeat,
    )


def _solver_config(args):
    return default_solver_config(
        executable=args.solver or "",
        timeout_ms=args.timeout,
        dump_dir=args.dump_smt or None,
    )


def _emit_dot(outdir: str, rules: RuleSet, data):
    path = pathlib.Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    for i, mol in enumerate(data.molecules):
        _write_atomic(str(path / f"molecule_{i}.dot"), molecule_to_dot(mol, f"molecule_{i}"))
    for i, rule in enumerate(rules):
        _write_atomic(str(path / f"rule_{i}.dot"), rule_to_dot(rule, f"rule_{i}"))


def run_synth(args) -> int:
    data = _load_dataset(args.input)
    budgets = Budgets(
        rules=args.rules,
        depth=args.depth,
        height=args.height,
        compartments=args.compartments,
    )
    job = SynthesisJob(
        dataset=data,
        budgets=budgets,
        variants=_variants(args),
        solver=_solver_config(args),
        limits=Limits(max_iterations=args.max_iters, wall_clock_s=args.wall_clock),
    )
    outcome = synthesize(job)
    for warning in outcome.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = outcome_report(outcome, job)
    if args.report:
        _write_atomic(args.report, report)
    else:
        sys.stdout.write(report)
    if outcome.status == SYNTHESIZED and args.rules_out:
        _write_atomic(args.rules_out, serialize_rules(outcome.rules))
    if outcome.status == SYNTHESIZED and args.dot:
        _emit_dot(args.dot, outcome.rules, data)
    return {SYNTHESIZED: 0, NO_RULES: 2, INCONCLUSIVE: 3}[outcome.status]


def run_verify(args) -> int:
    data = _load_dataset(args.dataset)
    rules = _load_rules(args.rules_file, data.alphabet)
    height = args.height if args.height is not None else data.max_height
    repeat = RepeatConfig(*args.repeats) if args.repeats else None
    cfg = ClosureConfig(
        height_bound=height, repeat=repeat, fast_slow=args.fast_slow
    )
    report = verify(RuleSet(tuple(rules)), data, cfg)
    sys.stdout.write(report.to_text())
    if args.report:
        _write_atomic(args.report, report.to_kv())
    return 0 if report.passed else 2


def run_enum(args) -> int:
    data = _load_dataset(args.dataset)
    rules = _load_rules(args.rules_file, data.alphabet) if args.rules_file else []
    height = args.height if args.height is not None else data.max_height
    cfg = ClosureConfig(height_bound=height, fast_slow=args.fast_slow)
    result = closure(seed_molecules(data.alphabet), RuleSet(tuple(rules)), cfg)
    for mol in result.sorted_molecules():
        print(serialize_molecule(mol))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glycanrules",
        description="Infer tree-production rules from observed molecule sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def closure_flags(p):
        p.add_argument("--height", type=int, default=None,
                       help="closure bound: the height up to which the oracle "
                            "grows producible molecules (default: tallest "
                            "observation)")
        p.add_argument("--fast-slow", action="store_true")

    def verdict_flags(p):
        closure_flags(p)
        p.add_argument("--repeats", nargs=2, type=int, metavar=("D0", "R0"),
                       help="accept stacked repetitions up to depth D0, count R0")
        p.add_argument("--report", default=None, help="write the report here")

    synth = sub.add_parser("synth", help="synthesize production rules")
    synth.add_argument("input", help="dataset file")
    synth.add_argument("--rules", type=int, required=True, help="rule count budget")
    synth.add_argument("--depth", type=int, required=True, help="rule depth budget")
    synth.add_argument("--compartments", type=int, default=1,
                       help="compartment budget: the stages a rule may be "
                            "placed in")
    verdict_flags(synth)
    synth.add_argument("--hard-ends", action="store_true")
    synth.add_argument("--solver", default=None, help="SMT solver executable")
    synth.add_argument("--timeout", type=int, default=600_000,
                       help="per-query solver timeout in milliseconds")
    synth.add_argument("--max-iters", type=int, default=1000)
    synth.add_argument("--wall-clock", type=float, default=600.0,
                       help="overall time limit in seconds")
    synth.add_argument("--dot", default=None, help="directory for DOT renderings")
    synth.add_argument("--dump-smt", default=None,
                       help="directory for solver query transcripts")
    synth.add_argument("--rules-out", default=None,
                       help="write synthesized rules to this file")
    synth.set_defaults(func=run_synth)

    ver = sub.add_parser("verify", help="verify a rule file against a dataset")
    ver.add_argument("rules_file")
    ver.add_argument("dataset")
    verdict_flags(ver)
    ver.set_defaults(func=run_verify)

    enum = sub.add_parser("enum", help="enumerate the producible closure")
    enum.add_argument("rules_file", nargs="?", default=None,
                      help="rule file (omit for seeds only)")
    enum.add_argument("dataset", help="dataset file (alphabet source)")
    closure_flags(enum)
    enum.set_defaults(func=run_enum)
    return parser


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a budget failure here
        if exc.code != 2:
            raise
        return 1
    # the bundled solver leads a process group of its own, which a SIGTERM to
    # the client's group misses: unwind instead, so the sessions end it
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return args.func(args)
    except (ParseError, ModelError, ValueError, OSError,
            BackendError, ClosureBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
