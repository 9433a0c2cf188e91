"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers after the assertions hold.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import pathlib
import random
import statistics
import subprocess
import sys
import time

import pytest

from glycanrules.backend import Session, SolverConfig
from glycanrules.cli import main as cli_main
from glycanrules.core import Dataset, Molecule, MonomerAlphabet, RuleSet
from glycanrules.driver import (
    Budgets,
    INCONCLUSIVE,
    Limits,
    NO_RULES,
    SYNTHESIZED,
    SynthesisJob,
    brute_force_synth,
    enumerate_rules,
    enumerate_trees,
    synthesize,
)
from glycanrules.encoder import (
    ConcreteMoleculeSide,
    ConcreteRuleSide,
    EncodingContext,
    Variants,
    encode_produce,
    make_rule_templates,
    rule_template_correctness,
    symmetry_break,
)
from glycanrules.formula import BOOL, bool_ref, disj, implies
from glycanrules.grammar import parse_dataset, serialize_molecule
from glycanrules.producer import (
    ClosureConfig,
    closure,
    is_rooted_prefix,
    seed_molecules,
    verify,
)

DATASETS = pathlib.Path(__file__).resolve().parent.parent / "datasets"


def report(line: str):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# criterion 1: motivating-example synthesis
# ---------------------------------------------------------------------------


def test_criterion_1_motivating_synthesis(motivating):
    job = SynthesisJob(
        motivating,
        Budgets(rules=7, depth=3, compartments=1),
        limits=Limits(max_iterations=60, wall_clock_s=120),
    )
    started = time.monotonic()
    outcome = synthesize(job)
    elapsed = time.monotonic() - started
    assert outcome.status == SYNTHESIZED
    assert outcome.iterations <= 30, f"{outcome.iterations} iterations"
    assert elapsed <= 60.0, f"{elapsed:.1f}s"
    check = verify(outcome.rules, motivating, ClosureConfig(height_bound=4))
    assert check.passed
    report(
        "criterion 1 PASS - Synthesized in "
        f"{outcome.iterations} iterations, {elapsed:.2f}s, oracle verified at h=4"
    )


# ---------------------------------------------------------------------------
# criterion 2: budget-failure reproduction
# ---------------------------------------------------------------------------


def test_criterion_2_budget_failure(motivating):
    job = SynthesisJob(
        motivating,
        Budgets(rules=6, depth=2, compartments=2),
        limits=Limits(max_iterations=500, wall_clock_s=120),
    )
    started = time.monotonic()
    outcome = synthesize(job)
    elapsed = time.monotonic() - started
    assert outcome.status == NO_RULES
    assert elapsed <= 60.0, f"{elapsed:.1f}s"
    report(
        "criterion 2 PASS - NoRulesInBudget after "
        f"{outcome.iterations} iterations, {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# criterion 3: encoder <-> oracle equivalence
# ---------------------------------------------------------------------------

ALPHABETS_C3 = [
    MonomerAlphabet([("A", 1)]),
    MonomerAlphabet([("A", 1), ("B", 0)]),
    MonomerAlphabet([("A", 2), ("B", 0)]),
    MonomerAlphabet([("A", 1), ("B", 1)]),
    MonomerAlphabet([("A", 2), ("B", 1), ("C", 0)]),
]


def test_criterion_3_encoder_oracle_equivalence():
    rng = random.Random(20240)
    started = time.monotonic()
    instances = 0
    pairs = 0
    batch_size = 20
    while instances < 500:
        alphabet = ALPHABETS_C3[instances % len(ALPHABETS_C3)]
        candidates = enumerate_rules(alphabet, 2, alphabet.max_arity, 1, Variants())
        # one session per batch: contexts sharing it must agree on the rule
        # count so the shared RuleId sort matches.  Each pair's production
        # variables are fresh and the rule sides concrete, so pairs share no
        # variable: the positives hold together iff each holds, and no
        # negative holds iff none of their guards can be switched on
        n_rules = min(rng.randint(1, 3), len(candidates))
        universe = None
        guards = []  # (guard, molecule, rules) of the batch's negatives
        with Session(SolverConfig()) as session:
            for inst in range(batch_size):
                rules = rng.sample(candidates, n_rules)
                rs = RuleSet(tuple(rules))
                reach = closure(seed_molecules(alphabet), rs, ClosureConfig(3))
                members = reach.sorted_molecules()
                positives = members[: min(len(members), 8)]
                if universe is None:
                    universe = [
                        Molecule(t) for t in enumerate_trees(alphabet, 3, alphabet.max_arity)
                    ]
                negatives = []
                for mol in universe:
                    if len(negatives) >= 6:
                        break
                    if mol not in reach:
                        negatives.append(mol)
                ctx = EncodingContext(
                    alphabet, len(rules), namespace=f"i{instances}_"
                )
                sides = [ConcreteRuleSide(ctx, r) for r in rules]
                for mol in positives + negatives:
                    f, _ = encode_produce(
                        ctx, ConcreteMoleculeSide(ctx, mol), sides
                    )
                    if mol in reach:
                        session.assert_formula(f)
                        assert session.check_sat() == "sat", (
                            f"{serialize_molecule(mol)} not producible under "
                            f"{[str(r) for r in rules]}"
                        )
                    else:
                        guard = ctx.registry.make("negative", BOOL)
                        session.assert_formula(implies(bool_ref(guard), f))
                        guards.append((guard, mol, rules))
                    pairs += 1
                instances += 1
            session.assert_formula(disj([bool_ref(g) for g, _, _ in guards]))
            got = session.check_sat()
            if got == "sat":
                model = session.get_model([g for g, _, _ in guards])
                got = [
                    f"{serialize_molecule(mol)} under {[str(r) for r in rules]}"
                    for g, mol, rules in guards if model.value(g)
                ]
            assert got == "unsat", f"negatives producible: {got}"
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0, f"{elapsed:.1f}s"
    report(
        f"criterion 3 PASS - {instances} instances, {pairs} (molecule, rule set) "
        f"pairs agreed 100%, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 4: soundness on synthesizable jobs
# ---------------------------------------------------------------------------

ALPHABETS_C4 = [
    MonomerAlphabet([("A", 1), ("B", 0)]),
    MonomerAlphabet([("A", 1), ("B", 1)]),
    MonomerAlphabet([("A", 2), ("B", 0)]),
]


def _sample_synthesizable_job(rng) -> SynthesisJob:
    while True:
        alphabet = rng.choice(ALPHABETS_C4)
        candidates = enumerate_rules(alphabet, 2, alphabet.max_arity, 1, Variants())
        rules = rng.sample(candidates, rng.randint(1, 2))
        try:
            reach = closure(
                seed_molecules(alphabet),
                RuleSet(tuple(rules)),
                ClosureConfig(3, max_molecules=60),
            )
        except Exception:
            continue
        molecules = [m for m in reach.sorted_molecules() if m.height >= 1]
        if not molecules or len(molecules) > 10:
            continue
        data = Dataset(alphabet, tuple(molecules))
        return SynthesisJob(
            data,
            Budgets(rules=len(rules), depth=2),
            limits=Limits(max_iterations=120, wall_clock_s=60),
        )


def test_criterion_4_soundness_on_synthesizable_jobs():
    rng = random.Random(777)
    started = time.monotonic()
    synthesized = 0
    for _ in range(100):
        job = _sample_synthesizable_job(rng)
        outcome = synthesize(job)
        assert outcome.status == SYNTHESIZED, (
            f"expected Synthesized, got {outcome.status} on "
            f"{[serialize_molecule(m) for m in job.dataset.molecules]}"
        )
        check = verify(outcome.rules, job.dataset, job.closure_config())
        assert check.passed and not check.extras
        synthesized += 1
    elapsed = time.monotonic() - started
    report(
        f"criterion 4 PASS - {synthesized}/100 synthesizable jobs verified with "
        f"zero extras, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 5: completeness at tiny scale
# ---------------------------------------------------------------------------


def _sample_tiny_job(rng) -> SynthesisJob:
    arity_b = rng.randint(0, 1)
    alphabet = MonomerAlphabet([("A", 1), ("B", arity_b)])
    universe = [Molecule(t) for t in enumerate_trees(alphabet, 2, 1)]
    chosen = {}
    for mol in rng.sample(universe, rng.randint(1, 3)):
        chosen.setdefault(serialize_molecule(mol), mol)
    data = Dataset(alphabet, tuple(chosen.values()))
    return SynthesisJob(
        data,
        Budgets(rules=rng.randint(1, 2), depth=2),
        limits=Limits(max_iterations=150, wall_clock_s=60),
    )


def test_criterion_5_completeness_tiny_scale():
    rng = random.Random(4242)
    started = time.monotonic()
    inconclusive = 0
    compared = 0
    for _ in range(200):
        job = _sample_tiny_job(rng)
        got = synthesize(job)
        if got.status == INCONCLUSIVE:
            inconclusive += 1
            continue
        expected = brute_force_synth(job)
        assert got.status == expected.status, (
            f"{got.status} vs {expected.status} on "
            f"{[serialize_molecule(m) for m in job.dataset.molecules]} "
            f"n={job.budgets.rules}"
        )
        compared += 1
    elapsed = time.monotonic() - started
    assert inconclusive < 0.05 * 200, f"{inconclusive} inconclusive runs"
    report(
        f"criterion 5 PASS - {compared} tiny jobs agreed 100% with brute force "
        f"({inconclusive} inconclusive), {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 6: counterexample validity
# ---------------------------------------------------------------------------


def test_criterion_6_counterexample_validity(motivating):
    jobs = [
        SynthesisJob(motivating, Budgets(rules=7, depth=3),
                     limits=Limits(max_iterations=60, wall_clock_s=120)),
        SynthesisJob(motivating, Budgets(rules=6, depth=2, compartments=2),
                     limits=Limits(max_iterations=200, wall_clock_s=120)),
    ]
    total = 0
    first_iteration_extras = 0
    multi_iteration_runs = 0
    for job in jobs:
        outcome = synthesize(job)
        if outcome.iterations > 1:
            multi_iteration_runs += 1
            assert outcome.counterexamples, "no extra found despite iterating"
            first_iteration_extras += 1
        for record in outcome.trace:
            if record.counterexample is None:
                continue
            found = record.counterexample
            reach = closure(
                seed_molecules(motivating.alphabet),
                record.rules,
                ClosureConfig(job.resolved_height()),
            )
            assert found in reach, serialize_molecule(found)
            assert not any(
                is_rooted_prefix(found, m) for m in motivating.molecules
            ), serialize_molecule(found)
            total += 1
    assert multi_iteration_runs == first_iteration_extras
    report(
        f"criterion 6 PASS - {total} decoded counterexamples all oracle-producible "
        "and outside the observed prefix closure; first-iteration extras reproduced"
    )


# ---------------------------------------------------------------------------
# criterion 7: variant properties
# ---------------------------------------------------------------------------


def test_criterion_7a_compartments():
    data = parse_dataset((DATASETS / "compartments_pair.gly").read_text())
    started = time.monotonic()
    with_k2 = synthesize(
        SynthesisJob(data, Budgets(rules=3, depth=2, compartments=2),
                     limits=Limits(max_iterations=200, wall_clock_s=110))
    )
    without = synthesize(
        SynthesisJob(data, Budgets(rules=3, depth=2, compartments=1),
                     limits=Limits(max_iterations=200, wall_clock_s=110))
    )
    elapsed = time.monotonic() - started
    assert with_k2.status == SYNTHESIZED
    assert with_k2.verification.passed
    assert without.status == NO_RULES
    assert elapsed <= 120.0
    report(
        f"criterion 7a PASS - compartments: k=2 Synthesized / k=1 NoRulesInBudget "
        f"at fixed (n=3, d=2), {elapsed:.1f}s"
    )


def test_criterion_7b_repeats():
    data = parse_dataset((DATASETS / "repeats_chain.gly").read_text())
    started = time.monotonic()
    with_repeats = synthesize(
        SynthesisJob(data, Budgets(rules=5, depth=3),
                     variants=Variants(repeat=(1, 5)),
                     limits=Limits(max_iterations=40, wall_clock_s=110))
    )
    without = synthesize(
        SynthesisJob(data, Budgets(rules=5, depth=3),
                     limits=Limits(max_iterations=25, wall_clock_s=110))
    )
    elapsed = time.monotonic() - started
    assert with_repeats.status == SYNTHESIZED
    assert with_repeats.verification.passed
    assert without.status in (NO_RULES, INCONCLUSIVE)
    assert elapsed <= 240.0  # two runs, each within the per-run budget
    report(
        f"criterion 7b PASS - repeats: Synthesized with --repeats 1 5, "
        f"{without.status} without, {elapsed:.1f}s"
    )


def test_criterion_7c_hard_ends():
    data = parse_dataset((DATASETS / "hardends_gate.gly").read_text())
    started = time.monotonic()
    with_he = synthesize(
        SynthesisJob(data, Budgets(rules=2, depth=2),
                     variants=Variants(hard_ends=True),
                     limits=Limits(max_iterations=300, wall_clock_s=110))
    )
    without = synthesize(
        SynthesisJob(data, Budgets(rules=2, depth=2),
                     limits=Limits(max_iterations=300, wall_clock_s=110))
    )
    elapsed = time.monotonic() - started
    assert with_he.status == SYNTHESIZED
    assert with_he.verification.passed
    assert without.status == NO_RULES
    assert elapsed <= 120.0
    report(
        f"criterion 7c PASS - hard ends: Synthesized with --hard-ends, "
        f"NoRulesInBudget without, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 8: symmetry-breaking neutrality
# ---------------------------------------------------------------------------


def test_criterion_8_symmetry_neutrality():
    rng = random.Random(555)
    started = time.monotonic()
    with_times = []
    without_times = []
    for trial in range(50):
        alphabet = rng.choice(ALPHABETS_C4)
        universe = [
            Molecule(t) for t in enumerate_trees(alphabet, 2, alphabet.max_arity)
        ]
        chosen = {}
        for mol in rng.sample(universe, rng.randint(1, 2)):
            chosen.setdefault(serialize_molecule(mol), mol)
        molecules = tuple(chosen.values())
        n = rng.randint(2, 3)
        statuses = {}
        for use_symmetry in (False, True):
            ctx = EncodingContext(alphabet, n, namespace=f"s{trial}_{int(use_symmetry)}_")
            templates = make_rule_templates(ctx, 2, alphabet.max_arity or 1, n)
            forms = [rule_template_correctness(ctx, templates)]
            if use_symmetry:
                forms.append(symmetry_break(templates))
            for mol in molecules:
                f, prod = encode_produce(
                    ctx, ConcreteMoleculeSide(ctx, mol), templates
                )
                forms.append(f)
            t0 = time.monotonic()
            with Session(SolverConfig()) as s:
                for f in forms:
                    s.assert_formula(f)
                statuses[use_symmetry] = s.check_sat()
            (with_times if use_symmetry else without_times).append(
                time.monotonic() - t0
            )
        assert statuses[True] == statuses[False], f"trial {trial}"
    med_with = statistics.median(with_times)
    med_without = statistics.median(without_times)
    elapsed = time.monotonic() - started
    report(
        "criterion 8 PASS - 50 jobs: identical sat status with/without symmetry "
        f"breaking; median solve {med_with:.3f}s with vs {med_without:.3f}s "
        f"without (soft target, logged), {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 9: protocol determinism and replay
# ---------------------------------------------------------------------------


def _run_with_dump(dump_dir, dataset_dir):
    code = cli_main(
        [
            "synth", str(dataset_dir / "hardends_gate.gly"),
            "--rules", "2", "--depth", "2", "--hard-ends",
            "--report", str(dump_dir / "report.txt"),
            "--dump-smt", str(dump_dir / "smt"),
        ]
    )
    assert code == 0
    return {
        p.name: p.read_text() for p in sorted((dump_dir / "smt").glob("*.smt2"))
    }


def test_criterion_9_protocol_determinism(tmp_path, dataset_dir):
    first = _run_with_dump(tmp_path / "run1", dataset_dir)
    second = _run_with_dump(tmp_path / "run2", dataset_dir)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"transcript {name} differs"
    replayed = 0
    for name, text in first.items():
        expected = [
            line.split("; expect ", 1)[1]
            for line in text.splitlines()
            if line.startswith("; expect ")
        ]
        script = "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("; expect")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "glycanrules.minismt"],
            input=script + "\n(exit)\n",
            capture_output=True,
            text=True,
            timeout=300,
        )
        answers = [
            ln for ln in proc.stdout.splitlines() if ln in ("sat", "unsat", "unknown")
        ]
        assert answers == expected, f"replay of {name} diverged"
        replayed += 1
    report(
        f"criterion 9 PASS - byte-identical transcripts across reruns; "
        f"{replayed} transcripts replayed with matching verdict sequences"
    )
