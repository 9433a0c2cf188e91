import dataclasses
import random

import pytest

from glycanrules import driver, producer
from glycanrules.backend import Session
from glycanrules.core import Molecule, MonomerAlphabet, Rule, RuleSet
from glycanrules.driver import (
    Budgets,
    BudgetTooLarge,
    INCONCLUSIVE,
    Limits,
    NO_RULES,
    SYNTHESIZED,
    SynthesisJob,
    brute_force_synth,
    enumerate_rules,
    enumerate_trees,
    outcome_report,
    synthesize,
)
from glycanrules.encoder import Variants
from glycanrules.grammar import (
    parse_dataset, parse_rules, serialize_molecule, serialize_rule,
)
from glycanrules.producer import (
    ClosureConfig,
    closure,
    is_rooted_prefix,
    seed_molecules,
)

CHAIN = MonomerAlphabet([("A", 1), ("B", 1), ("C", 0)])


def dataset(text):
    return parse_dataset(text)


def test_enumerate_trees_counts():
    tiny = MonomerAlphabet([("A", 1)])
    # heights 0..2 over one unary monomer: A, A(A), A(A(A))
    assert len(enumerate_trees(tiny, 2, 1)) == 3
    two = MonomerAlphabet([("A", 1), ("B", 0)])
    # height <= 1: A, B, A(A), A(B)
    assert len(enumerate_trees(two, 1, 1)) == 4


def test_enumerate_rules_respects_budget_and_cap():
    rules = enumerate_rules(CHAIN, 2, 1, 1, Variants())
    assert all(0 < r.expand_depth < 2 for r in rules)
    assert all(r.compartment == 1 and not r.fast for r in rules)
    with pytest.raises(BudgetTooLarge):
        enumerate_rules(CHAIN, 2, 1, 1, Variants(), cap=3)
    staged = enumerate_rules(CHAIN, 2, 1, 2, Variants())
    assert len(staged) == 2 * len(rules)


def test_brute_force_empty_budget():
    data = dataset("sugar A 1; mol A")
    job = SynthesisJob(data, Budgets(rules=0, depth=2))
    out = brute_force_synth(job)
    assert out.status == SYNTHESIZED
    assert len(out.rules) == 0

    data2 = dataset("sugar A 1; mol A(A)")
    out2 = brute_force_synth(SynthesisJob(data2, Budgets(rules=0, depth=2)))
    assert out2.status == NO_RULES


def test_brute_force_finds_single_rule():
    data = dataset("sugar A 1; sugar B 0; mol A(B)")
    out = brute_force_synth(SynthesisJob(data, Budgets(rules=1, depth=2)))
    assert out.status == SYNTHESIZED
    assert serialize_rule(out.rules.rules[0]) == "A(*B)"


def test_synthesize_agrees_on_singleton_dataset():
    # degenerate seed-only data: the height bound is 0, so every extension is
    # invisible and any rule set passes; the expected status comes from the
    # brute-force oracle rather than intuition
    data = dataset("sugar A 1; mol A")
    job = SynthesisJob(data, Budgets(rules=1, depth=2),
                       limits=Limits(max_iterations=50, wall_clock_s=60))
    expected = brute_force_synth(job).status
    got = synthesize(job).status
    assert got == expected


def test_synthesize_tiny_chain():
    data = dataset("sugar A 1; sugar B 0; mol A(B)")
    job = SynthesisJob(data, Budgets(rules=1, depth=2),
                       limits=Limits(max_iterations=50, wall_clock_s=60))
    out = synthesize(job)
    assert out.status == SYNTHESIZED
    assert out.verification is not None and out.verification.passed
    assert serialize_rule(out.rules.rules[0]) == "A(*B)"


def random_tiny_job(rng) -> SynthesisJob:
    arity_b = rng.randint(0, 1)
    alphabet = MonomerAlphabet([("A", 1), ("B", arity_b)])
    universe = enumerate_trees(alphabet, 2, 1)
    molecules = []
    seen = set()
    for tree in rng.sample(universe, rng.randint(1, 3)):
        mol = Molecule(tree)
        key = serialize_molecule(mol)
        if key not in seen:
            seen.add(key)
            molecules.append(mol)
    from glycanrules.core import Dataset

    data = Dataset(alphabet, tuple(molecules))
    return SynthesisJob(
        data,
        Budgets(rules=rng.randint(1, 2), depth=2),
        limits=Limits(max_iterations=80, wall_clock_s=60),
    )


@pytest.mark.parametrize("seed", range(12))
def test_brute_force_agreement_smoke(seed):
    rng = random.Random(900 + seed)
    job = random_tiny_job(rng)
    reference = brute_force_synth(job)
    got = synthesize(job)
    assert got.status == reference.status, serialize_all(job)
    if got.status == SYNTHESIZED:
        assert got.verification.passed


def serialize_all(job):
    return [serialize_molecule(m) for m in job.dataset.molecules]


def test_outcome_report_contents(motivating):
    job = SynthesisJob(
        motivating,
        Budgets(rules=7, depth=3),
        limits=Limits(max_iterations=40, wall_clock_s=90),
    )
    out = synthesize(job)
    assert out.status == SYNTHESIZED
    text = outcome_report(out, job)
    assert "status: Synthesized" in text
    assert "rules:" in text and "verification:" in text
    assert out.timings["total_s"] > 0
    assert len(out.timings["per_iteration"]) == out.iterations


def test_trace_counterexamples_are_valid(motivating):
    """Criterion-6 style bookkeeping on a real trace."""
    job = SynthesisJob(
        motivating,
        Budgets(rules=6, depth=2, compartments=2),
        limits=Limits(max_iterations=60, wall_clock_s=90),
    )
    out = synthesize(job)
    assert out.status == NO_RULES
    assert out.trace, "expected at least one iteration"
    for record in out.trace:
        if record.counterexample is None:
            continue
        found = record.counterexample
        reach = closure(
            seed_molecules(motivating.alphabet), record.rules, ClosureConfig(4)
        )
        assert found in reach
        assert not any(
            is_rooted_prefix(found, m) for m in motivating.molecules
        )


UNKNOWN = "synthesis query returned unknown"


@pytest.mark.parametrize("budgets, limits, status, warning", [
    # refuted by the first query
    (Budgets(rules=2, depth=3), Limits(40, 90), NO_RULES, None),
    # refuted after three counterexamples
    (Budgets(rules=6, depth=2, compartments=2), Limits(40, 90), NO_RULES, None),
    (Budgets(rules=7, depth=3), Limits(1, 90), INCONCLUSIVE, "iteration limit reached"),
    # a limit of 0 is refused; opening the session alone takes longer than 1 µs
    (Budgets(rules=7, depth=3), Limits(40, 1e-6), INCONCLUSIVE,
     "wall clock limit reached"),
    (Budgets(rules=7, depth=3), Limits(40, 90), INCONCLUSIVE, UNKNOWN),
], ids=["refuted-at-once", "refuted-later", "iteration-limit", "wall-clock", "unknown"])
def test_per_iteration_times_every_query(motivating, monkeypatch, budgets, limits,
                                         status, warning):
    if warning == UNKNOWN:
        monkeypatch.setattr(Session, "check_sat", lambda self, label=None: "unknown")
    out = synthesize(SynthesisJob(motivating, budgets, limits=limits))
    assert out.status == status
    per_query = out.timings["per_iteration"]
    assert len(per_query) == out.iterations
    assert per_query[:len(out.trace)] == [
        (r.synth_seconds, r.oracle_seconds) for r in out.trace
    ]
    # a last query that answers unsat or unknown proposes no candidate
    no_candidate = status == NO_RULES or warning == UNKNOWN
    assert len(out.trace) == out.iterations - no_candidate
    if no_candidate:
        assert per_query[-1][1] == 0.0
    assert out.warnings == ([warning] if warning else [])


def test_budget_validation():
    data = dataset("sugar A 2; sugar B 0; mol A(B, _)")
    with pytest.raises(ValueError):
        SynthesisJob(data, Budgets(rules=1, depth=2, height=0)).resolved_height()


def test_search_past_the_closure_budget_is_inconclusive(monkeypatch):
    closure_config = SynthesisJob.closure_config
    monkeypatch.setattr(
        SynthesisJob, "closure_config",
        lambda job: dataclasses.replace(closure_config(job), max_molecules=2),
    )
    data = dataset("sugar A 1; sugar B 0; mol A(A(B))")
    out = synthesize(SynthesisJob(data, Budgets(rules=2, depth=2)))
    assert out.status == INCONCLUSIVE and out.iterations == 1
    assert out.counterexamples == []
    assert any(
        w.startswith("counterexample search aborted") and "exceeded 2 molecules" in w
        for w in out.warnings
    ), out.warnings


def test_closure_at_its_cap_runs_once(monkeypatch):
    closure_config = SynthesisJob.closure_config
    monkeypatch.setattr(
        SynthesisJob, "closure_config",
        lambda job: dataclasses.replace(closure_config(job), max_molecules=2),
    )
    derive = producer._derive
    calls = []

    def counting(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(producer, "_derive", counting)
    data = dataset("sugar A 1; sugar B 0; mol A(A(B))")
    out = synthesize(SynthesisJob(data, Budgets(rules=2, depth=2)))
    assert out.status == INCONCLUSIVE and out.last_candidate is not None
    # the last candidate is not verified again against the same cap
    assert len(calls) == 1
    aborted = [w for w in out.warnings if "aborted" in w]
    assert len(aborted) == 1, out.warnings
    assert aborted[0].startswith("counterexample search aborted")


def test_candidate_the_oracle_gate_rejects_is_verified_once(monkeypatch):
    # every candidate is `over`, which also produces A(A(A)); with no
    # counterexample search, it reaches the gate
    data = dataset("sugar A 1; sugar B 0; mol A(A(B))")
    over = RuleSet(tuple(parse_rules("A(*A(A)); A(*A(B))", data.alphabet)))
    monkeypatch.setattr(driver, "decode_rules", lambda *args: over)
    monkeypatch.setattr(driver, "first_extra", lambda *args: None)
    verify = driver.verify
    calls = []

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(driver, "verify", counting)
    out = synthesize(SynthesisJob(data, Budgets(rules=2, depth=2)))
    assert out.status == INCONCLUSIVE and out.last_candidate == over
    assert len(calls) == 1
    assert out.verification is not None and not out.verification.passed
    assert any(w.startswith("encoder accepted") for w in out.warnings), out.warnings


def test_gate_at_the_closure_cap_verifies_once(monkeypatch):
    closure_config = SynthesisJob.closure_config
    monkeypatch.setattr(
        SynthesisJob, "closure_config",
        lambda job: dataclasses.replace(closure_config(job), max_molecules=2),
    )
    monkeypatch.setattr(driver, "first_extra", lambda *args: None)
    verify = driver.verify
    calls = []

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(driver, "verify", counting)
    data = dataset("sugar A 1; sugar B 0; mol A(A(B))")
    out = synthesize(SynthesisJob(data, Budgets(rules=2, depth=2)))
    assert out.status == INCONCLUSIVE and out.verification is None
    assert len(calls) == 1
    aborted = [w for w in out.warnings if "aborted" in w]
    assert len(aborted) == 1 and aborted[0].startswith("oracle verification aborted")
