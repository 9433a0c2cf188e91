"""End-to-end behavior of the three variant toggles at synthesis level.

The compartment/repeat/hard-end datasets are also exercised by the acceptance
module; this file adds the fast/slow contrast pair (found by oracle search
over two-rule sets) and the edge semantics around it.
"""

import random

import pytest

from glycanrules import driver
from glycanrules.core import Dataset, Molecule, MonomerAlphabet, Rule, RuleSet
from glycanrules.driver import (
    Budgets,
    Limits,
    NO_RULES,
    SYNTHESIZED,
    SynthesisJob,
    brute_force_synth,
    enumerate_trees,
    synthesize,
)
from glycanrules.encoder import Variants
from glycanrules.grammar import parse_dataset, parse_rule
from glycanrules.producer import ClosureConfig, RepeatConfig, verify


@pytest.fixture(scope="module")
def fastslow_data(dataset_dir):
    return parse_dataset((dataset_dir / "fastslow_pair.gly").read_text())


def test_fastslow_pair_hand_rules_verify(fastslow_data):
    data = fastslow_data
    fast = parse_rule("A(*A(A, A), B) @fast", data.alphabet)
    slow = parse_rule("A(*A(_, B), _)", data.alphabet)
    rs = RuleSet((fast, slow))
    assert verify(rs, data, ClosureConfig(3, fast_slow=True)).passed
    # the same trees without the speed split overproduce
    plain = RuleSet(
        tuple(Rule(r.root, r.expand_path, r.hard_ends, 1, False) for r in rs)
    )
    assert not verify(plain, data, ClosureConfig(3)).passed


def test_fastslow_synthesis_contrast(fastslow_data):
    with_variant = synthesize(
        SynthesisJob(fastslow_data, Budgets(rules=2, depth=2),
                     variants=Variants(fast_slow=True),
                     limits=Limits(max_iterations=400, wall_clock_s=180))
    )
    assert with_variant.status == SYNTHESIZED
    assert with_variant.verification.passed
    assert any(r.fast for r in with_variant.rules)
    without = synthesize(
        SynthesisJob(fastslow_data, Budgets(rules=2, depth=2),
                     limits=Limits(max_iterations=400, wall_clock_s=180))
    )
    assert without.status == NO_RULES


def test_fastslow_prefix_rule_in_verification(motivating, motivating_rules):
    """With the variant on, a lingering strict prefix no fast rule extends is
    rejected; making every rule fast restores acceptance."""
    data = motivating
    slow_rules = RuleSet(tuple(motivating_rules))
    report = verify(slow_rules, data, ClosureConfig(4, fast_slow=True))
    assert not report.passed  # intermediates linger: nothing fast extends them
    all_fast = RuleSet(
        tuple(Rule(r.root, r.expand_path, r.hard_ends, 1, True) for r in motivating_rules)
    )
    report = verify(all_fast, data, ClosureConfig(4, fast_slow=True))
    assert report.passed


@pytest.mark.parametrize("text", [
    "sugar A 1; sugar B 1; mol B(A(B)); mol A; mol A(B)",
    "sugar A 2; sugar B 0; mol A(A(A, B), A(A, _))",
    # rejecting the stuck prefix A(A) outright leaves no rule set
    "sugar A 1; sugar B 0; mol A(A(A(A(_)))); mol B",
], ids=["unary", "binary", "escape-needed"])
def test_fast_escape_agrees_with_brute_force(text, monkeypatch):
    """A counterexample that is a stuck rooted prefix of an observed molecule
    is rejected only unless some fast rule extends it; on these data sets
    that escape fires, and the loop still reaches the exhaustive verdict."""
    escapes = []
    negative_constraint = driver.negative_constraint

    def counting(*args, **kwargs):
        nc = negative_constraint(*args, **kwargs)
        escapes.append(nc.helper is not None)  # set only under fast_escape
        return nc

    monkeypatch.setattr(driver, "negative_constraint", counting)
    job = SynthesisJob(parse_dataset(text), Budgets(rules=2, depth=2),
                       variants=Variants(fast_slow=True))
    outcome = synthesize(job)
    assert any(escapes)
    assert outcome.status == brute_force_synth(job).status == SYNTHESIZED
    assert outcome.verification.passed


def test_fastslow_two_compartments_agree_with_brute_force():
    """Fast/slow in two compartments matches stage-exactly: a slow step is
    blocked only by a fast rule of its own compartment.  On tiny jobs the
    loop reaches the exhaustive verdict."""
    rng = random.Random(5300)
    statuses = set()
    for _ in range(20):
        alphabet = MonomerAlphabet([("A", 1), ("B", rng.randint(0, 1))])
        universe = [Molecule(t) for t in enumerate_trees(alphabet, 2, 1)]
        data = Dataset(alphabet, tuple(rng.sample(universe, rng.randint(1, 3))))
        job = SynthesisJob(
            data, Budgets(rules=rng.randint(1, 2), depth=2, compartments=2),
            variants=Variants(fast_slow=True),
            limits=Limits(max_iterations=200, wall_clock_s=60),
        )
        got = synthesize(job)
        assert got.status == brute_force_synth(job).status, data.molecules
        if got.status == SYNTHESIZED:
            assert got.verification.passed
        statuses.add(got.status)
    assert statuses == {SYNTHESIZED, NO_RULES}


def test_variants_off_by_default():
    v = Variants()
    assert not v.fast_slow and not v.hard_ends and v.repeat is None


def test_repeat_zero_is_rejected(dataset_dir):
    data = parse_dataset((dataset_dir / "repeats_chain.gly").read_text())
    rules = [
        parse_rule("A(*B)", data.alphabet),
        parse_rule("A(B(*B))", data.alphabet),
        parse_rule("B(B(*B))", data.alphabet),
        parse_rule("A(B(*C))", data.alphabet),
        parse_rule("B(B(*C))", data.alphabet),
    ]
    rs = RuleSet(tuple(rules))
    assert not verify(rs, data, ClosureConfig(6)).passed
    assert verify(rs, data, ClosureConfig(6, repeat=RepeatConfig(1, 5))).passed
    # a zero would silently verify without the variant
    for d0, r0 in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match="at least 1"):
            RepeatConfig(d0, r0)
