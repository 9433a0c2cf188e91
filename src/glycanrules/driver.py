"""Synthesis orchestration: the candidate/counterexample loop, an exhaustive
brute-force reference synthesizer, and report emission.

The loop runs one solver session.  It holds the template-correctness
constraints, the produce-encodings of every observed molecule, and the
accumulated rejections.  Each candidate rule set it proposes goes to the
forward oracle, whose `first_extra` returns a counterexample with its
derivation, and the rejection is built from that derivation.  A returned
rule set is accepted only after the oracle's `verify` passes it,
independently of the encoder.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

from .backend import Session, SolverConfig, default_solver_config
from .core import Dataset, Molecule, Rule, RuleSet, TreeNode, tree_positions
from .encoder import (
    ConcreteMoleculeSide,
    EncodingContext,
    Variants,
    decode_rules,
    encode_produce,
    make_rule_templates,
    negative_constraint,
    rule_template_correctness,
    symmetry_break,
)
# unused here: perfbench/spans.py patches these three names on this module
from .encoder import (  # noqa: F401
    decode_molecule, make_molecule_template, mol_template_correctness,
)
from .formula import conj
from .grammar import serialize_molecule, serialize_rule
from .producer import (
    ClosureBudgetExceeded,
    ClosureConfig,
    RepeatConfig,
    VerificationReport,
    first_extra,
    is_rooted_prefix,
    verify,
)

SYNTHESIZED = "Synthesized"
NO_RULES = "NoRulesInBudget"
INCONCLUSIVE = "Inconclusive"


@dataclass
class Budgets:
    rules: int
    depth: int
    width: Optional[int] = None  # defaults to the alphabet's maximum arity
    height: Optional[int] = None  # defaults to the tallest observed molecule
    compartments: int = 1


@dataclass
class Limits:
    max_iterations: int = 1000
    wall_clock_s: float = 600.0


@dataclass
class SynthesisJob:
    dataset: Dataset
    budgets: Budgets
    variants: Variants = field(default_factory=Variants)
    solver: Optional[SolverConfig] = None
    limits: Limits = field(default_factory=Limits)
    # not fields: every counterexample is rejected by its universal plus its
    # derivation instance, and symmetry breaking is always on;
    # perfbench/workloads.py hashes both values into its job fingerprint
    mode = "quantified"
    symmetry = True

    def resolved_width(self) -> int:
        w = self.budgets.width
        max_arity = self.dataset.alphabet.max_arity
        if w is None:
            return max_arity
        if w < max_arity:
            raise ValueError(f"width {w} below the maximum arity {max_arity}")
        return w

    def resolved_height(self) -> int:
        h = self.budgets.height
        tallest = self.dataset.max_height
        if h is None:
            return tallest
        if h < tallest:
            raise ValueError(f"height {h} below the tallest observed molecule")
        return h

    def closure_config(self) -> ClosureConfig:
        repeat = None
        if self.variants.repeat is not None:
            repeat = RepeatConfig(*self.variants.repeat)
        return ClosureConfig(
            height_bound=self.resolved_height(),
            repeat=repeat,
            fast_slow=self.variants.fast_slow,
        )


@dataclass
class IterationRecord:
    index: int
    rules: RuleSet
    counterexample: Optional[Molecule]
    synth_seconds: float
    oracle_seconds: float  # the oracle's counterexample search


@dataclass
class SynthesisOutcome:
    status: str
    rules: Optional[RuleSet] = None
    iterations: int = 0
    counterexamples: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    verification: Optional[VerificationReport] = None
    warnings: list = field(default_factory=list)
    duplicate_counterexamples: int = 0
    last_candidate: Optional[RuleSet] = None  # set on Inconclusive outcomes


def synthesize(job: SynthesisJob) -> SynthesisOutcome:
    data = job.dataset
    n = job.budgets.rules
    d = job.budgets.depth
    k = job.budgets.compartments
    if k < 1:
        raise ValueError("need at least one compartment")
    if n < 0:
        raise ValueError(f"rules budget {n} is negative")
    limits = job.limits
    if limits.max_iterations < 1:
        raise ValueError(f"iteration limit {limits.max_iterations} is below 1")
    # `not >` also refuses nan, which would turn the limit off
    if not limits.wall_clock_s > 0:
        raise ValueError(f"wall clock limit {limits.wall_clock_s} is not positive")
    w = job.resolved_width()
    variants = Variants(
        compartments=k,
        fast_slow=job.variants.fast_slow,
        hard_ends=job.variants.hard_ends,
        repeat=job.variants.repeat,
    )
    started = time.monotonic()
    deadline = started + limits.wall_clock_s
    cfg = job.solver or default_solver_config()
    outcome = SynthesisOutcome(status=INCONCLUSIVE)

    ctx = EncodingContext(data.alphabet, n, variants)
    templates = make_rule_templates(ctx, d, w, n) if n > 0 else []
    tcons = rule_template_correctness(ctx, templates)
    if n > 1:
        tcons = conj([tcons, symmetry_break(templates)])

    template_vars = [v for t in templates for v in t.all_vars()]
    observed_keys = {serialize_molecule(m) for m in data.molecules}
    seen_counterexamples: set[str] = set()
    closure_cfg = job.closure_config()
    # set when the counterexample search or the oracle gate hit the closure's
    # cap, which verifying the same candidate would hit again
    closure_aborted = False
    # (synth_s, 0.0) of a last query that answered unsat or unknown, so that
    # `per_iteration` times every query
    unanswered_query = []

    with Session(cfg) as synth:
        synth.assert_formula(tcons)
        for mol in data.molecules:
            side = ConcreteMoleculeSide(ctx, mol)
            pf, _ = encode_produce(ctx, side, templates)
            synth.assert_formula(pf)

        for iteration in range(1, limits.max_iterations + 1):
            if time.monotonic() > deadline:
                outcome.warnings.append("wall clock limit reached")
                break
            outcome.iterations = iteration

            t0 = time.monotonic()
            label = f"query_{iteration}_synth" if cfg.dump_dir else None
            res = synth.check_sat(label)
            synth_secs = time.monotonic() - t0
            if res != "sat":
                unanswered_query = [(synth_secs, 0.0)]
                if res == "unsat":
                    outcome.status = NO_RULES
                else:
                    outcome.warnings.append("synthesis query returned unknown")
                break
            model = synth.get_model(template_vars)
            rules = decode_rules(ctx, model, templates) if n > 0 else RuleSet((), k)

            t1 = time.monotonic()
            found = None
            try:
                found = first_extra(rules, data, closure_cfg)
            except ClosureBudgetExceeded as exc:
                outcome.warnings.append(f"counterexample search aborted: {exc}")
                closure_aborted = True
            counterexample, steps = found or (None, None)
            outcome.trace.append(IterationRecord(
                iteration, rules, counterexample, synth_secs, time.monotonic() - t1
            ))
            if closure_aborted:
                break
            if found is None:
                report = _gated_verify(job, rules, outcome)
                outcome.verification = report
                if report is not None and report.passed:
                    outcome.status = SYNTHESIZED
                    outcome.rules = rules
                closure_aborted = report is None
                break

            outcome.counterexamples.append(counterexample)
            key = serialize_molecule(counterexample)
            if key in seen_counterexamples:
                outcome.duplicate_counterexamples += 1
            seen_counterexamples.add(key)

            fast_escape = variants.fast_slow and key not in observed_keys and any(
                is_rooted_prefix(counterexample, obs) for obs in data.molecules
            )
            nc = negative_constraint(
                ctx, templates, counterexample, steps, rules, fast_escape
            )
            if nc.helper is not None:
                synth.assert_formula(nc.helper)
            synth.assert_formula(nc.universal)
            synth.assert_formula(nc.instance)
        else:
            outcome.warnings.append("iteration limit reached")

    if outcome.status == INCONCLUSIVE and outcome.trace:
        # hand back the last candidate and how it fares, so the user can
        # decide whether to relax the budgets
        outcome.last_candidate = outcome.trace[-1].rules
        if outcome.verification is None and not closure_aborted:
            try:
                outcome.verification = verify(
                    outcome.last_candidate, data, job.closure_config()
                )
            except ClosureBudgetExceeded as exc:
                outcome.warnings.append(f"last-candidate verification aborted: {exc}")
    outcome.timings["total_s"] = time.monotonic() - started
    outcome.timings["per_iteration"] = [
        (r.synth_seconds, r.oracle_seconds) for r in outcome.trace
    ] + unanswered_query
    return outcome


def _gated_verify(job, rules: RuleSet, outcome) -> Optional[VerificationReport]:
    try:
        report = verify(rules, job.dataset, job.closure_config())
    except ClosureBudgetExceeded as exc:
        outcome.warnings.append(f"oracle verification aborted: {exc}")
        return None
    if not report.passed:
        outcome.warnings.append(
            "encoder accepted a rule set the oracle rejects; "
            "returning Inconclusive"
        )
    return report


# --------------------------------------------------------------------------
# brute-force reference synthesizer
# --------------------------------------------------------------------------


class BudgetTooLarge(RuntimeError):
    pass


def enumerate_trees(alphabet, height: int, width: int):
    """Every arity-respecting tree of height <= `height` (width is implicit
    in the arities)."""
    memo: dict[int, list] = {}

    def rec(limit: int):
        if limit in memo:
            return memo[limit]
        out = []
        for m in alphabet:
            if limit == 0:
                out.append(TreeNode(m.name, (None,) * m.arity))
                continue
            child_options = [rec(limit - 1) + [None] for _ in range(m.arity)]
            for combo in itertools.product(*child_options):
                out.append(TreeNode(m.name, tuple(combo)))
        memo[limit] = out
        return out

    return rec(height)


def enumerate_rules(alphabet, depth: int, width: int, compartments: int,
                    variants: Variants, cap: int = 1_000_000) -> list[Rule]:
    """Every concrete rule expressible within the template budget."""
    rules = []
    for tree in enumerate_trees(alphabet, depth, width):
        positions = [
            p for p, _ in sorted(tree_positions(tree)) if 0 < len(p) < depth
        ]
        for expand in positions:
            hard_options = [frozenset()]
            if variants.hard_ends:
                empty_slots = _empty_slots(tree, alphabet)
                hard_options = [
                    frozenset(combo)
                    for r in range(len(empty_slots) + 1)
                    for combo in itertools.combinations(empty_slots, r)
                ]
            for hard in hard_options:
                for comp in range(1, compartments + 1):
                    speeds = (False, True) if variants.fast_slow else (False,)
                    for fast in speeds:
                        rules.append(Rule(tree, expand, hard, comp, fast))
                        if len(rules) > cap:
                            raise BudgetTooLarge(
                                f"more than {cap} candidate rules"
                            )
    return rules


def _empty_slots(tree: TreeNode, alphabet):
    out = []
    for path, node in sorted(tree_positions(tree)):
        for slot in range(1, alphabet.arity(node.label) + 1):
            if node.child(slot) is None:
                out.append((path, slot))
    return out


def brute_force_synth(job: SynthesisJob, max_sets: int = 2_000_000
                      ) -> SynthesisOutcome:
    """Ground truth at tiny scale: enumerate every rule set within the budget
    and oracle-verify each until one passes."""
    data = job.dataset
    n = job.budgets.rules
    k = job.budgets.compartments
    w = job.resolved_width()
    cfg = job.closure_config()
    outcome = SynthesisOutcome(status=NO_RULES)
    if n == 0:
        report = verify(RuleSet((), k), data, cfg)
        if report.passed:
            return SynthesisOutcome(
                status=SYNTHESIZED, rules=RuleSet((), k), verification=report
            )
        return outcome
    candidates = enumerate_rules(
        data.alphabet, job.budgets.depth, w, k, job.variants
    )
    checked = 0
    for size in range(1, n + 1):
        for combo in itertools.combinations(candidates, size):
            checked += 1
            if checked > max_sets:
                raise BudgetTooLarge(f"more than {max_sets} rule sets")
            rs = RuleSet(tuple(combo), k)
            try:
                report = verify(rs, data, cfg)
            except ClosureBudgetExceeded:
                continue
            if report.passed:
                return SynthesisOutcome(
                    status=SYNTHESIZED, rules=rs, verification=report,
                    iterations=checked,
                )
    outcome.iterations = checked
    return outcome


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------


def outcome_report(outcome: SynthesisOutcome, job: SynthesisJob) -> str:
    lines = [f"status: {outcome.status}"]
    lines.append(f"iterations: {outcome.iterations}")
    lines.append(f"wall_seconds: {outcome.timings.get('total_s', 0.0):.3f}")
    b = job.budgets
    lines.append(
        f"budgets: rules={b.rules} depth={b.depth} width={job.resolved_width()}"
        f" height={job.resolved_height()} compartments={b.compartments}"
    )
    if outcome.rules is not None:
        lines.append(f"compartments: {outcome.rules.compartment_count}")
        lines.append("rules:")
        for r in outcome.rules:
            lines.append(f"  {serialize_rule(r)}")
    elif outcome.last_candidate is not None:
        lines.append("last candidate (not accepted):")
        for r in outcome.last_candidate:
            lines.append(f"  {serialize_rule(r)}")
    if outcome.verification is not None:
        lines.append("verification:")
        for ln in outcome.verification.to_text().strip().splitlines():
            lines.append(f"  {ln}")
    if outcome.counterexamples:
        lines.append("counterexamples:")
        for m in outcome.counterexamples:
            lines.append(f"  {serialize_molecule(m)}")
    if outcome.duplicate_counterexamples:
        lines.append(f"duplicate_counterexamples: {outcome.duplicate_counterexamples}")
    for w in outcome.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"
