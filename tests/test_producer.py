import random

import pytest

from glycanrules.core import Dataset, Molecule, MonomerAlphabet, Rule, RuleSet
from glycanrules.driver import enumerate_rules, enumerate_trees
from glycanrules.encoder import (
    ConcreteMoleculeSide,
    ConcreteRuleSide,
    EncodingContext,
    Variants,
    derivation_binding,
    encode_produce,
)
from glycanrules.formula import TRUE, substitute
from glycanrules.grammar import (
    parse_molecule,
    parse_rule,
    serialize_molecule,
)
from glycanrules.producer import (
    ClosureBudgetExceeded,
    ClosureConfig,
    RepeatConfig,
    apply,
    applications,
    closure,
    first_extra,
    repeat_explains,
    seed_molecules,
    verify,
)

AB = MonomerAlphabet([("A", 2), ("B", 1)])


def test_apply_basic_extension():
    rule = parse_rule("A(*A, B)", AB)
    start = parse_molecule("A(_, A(_, B))", AB)
    grown = apply(start, (2,), 1, rule)
    assert grown is not None
    assert serialize_molecule(grown) == "A(_, A(A, B))"
    # the input molecule is untouched
    assert serialize_molecule(start) == "A(_, A(_, B))"
    assert grown.node_count == start.node_count + 1


def test_apply_rejects_root_mismatch():
    rule = parse_rule("A(*A, B)", AB)
    start = parse_molecule("A(_, A(_, B))", AB)
    assert apply(start, (), 1, rule) is None  # root has no sibling B


def test_apply_rejects_occupied_slot():
    rule = parse_rule("A(*A, B)", AB)
    start = parse_molecule("A(_, A(A, B))", AB)
    assert apply(start, (2,), 1, rule) is None


def test_apply_wrong_slot_index():
    rule = parse_rule("A(*A, B)", AB)  # expands slot 1 only
    start = parse_molecule("A(A, A(_, B))", AB)
    assert apply(start, (1,), 2, rule) is None


def test_apply_respects_hard_ends():
    alpha = MonomerAlphabet([("A", 2), ("B", 0), ("C", 0)])
    rule = parse_rule("A(*B, !)", alpha)
    free = parse_molecule("A", alpha)
    taken = parse_molecule("A(_, C)", alpha)
    assert apply(free, (), 1, rule) is not None
    assert apply(taken, (), 1, rule) is None


def test_apply_adds_expand_subtree_size():
    alpha = MonomerAlphabet([("A", 1), ("B", 1), ("C", 0)])
    rule = parse_rule("A(*B(C))", alpha)
    start = parse_molecule("A", alpha)
    grown = apply(start, (), 1, rule)
    assert grown.node_count == start.node_count + 2


def test_closure_with_no_rules_is_seeds(motivating):
    cfg = ClosureConfig(height_bound=4)
    result = closure(seed_molecules(motivating.alphabet), RuleSet(()), cfg)
    assert sorted(result.molecules) == ["A", "B", "C", "D"]


def test_closure_produces_observed_molecules(motivating, motivating_rules):
    cfg = ClosureConfig(height_bound=4)
    rs = RuleSet(tuple(motivating_rules))
    seed = [parse_molecule("A", motivating.alphabet)]
    result = closure(seed, rs, cfg)
    for m in motivating.molecules:
        assert m in result
    # every enumerated molecule is a rooted prefix of an observed one
    from glycanrules.core import is_rooted_prefix

    for mol in result.sorted_molecules():
        assert any(is_rooted_prefix(mol, m) for m in motivating.molecules)


def test_closure_records_derivation_steps(motivating, motivating_rules):
    # the recorded first-derivation witnesses walk back to the seed
    cfg = ClosureConfig(height_bound=4)
    rs = RuleSet(tuple(motivating_rules))
    result = closure([parse_molecule("A", motivating.alphabet)], rs, cfg)
    from glycanrules.producer import derivation_trail

    target = motivating.molecules[2]
    trail = derivation_trail(result.witnesses, target)
    assert trail[0] == "A"
    assert len(trail) >= 4  # at least three applications for the last molecule


def test_closure_first_iteration_rules_overproduce(motivating, first_iteration_rules):
    cfg = ClosureConfig(height_bound=3)
    rs = RuleSet(tuple(first_iteration_rules))
    result = closure([parse_molecule("A", motivating.alphabet)], rs, cfg)
    from glycanrules.core import is_rooted_prefix

    extras = [
        mol
        for mol in result.sorted_molecules()
        if mol.height >= 1
        and not any(is_rooted_prefix(mol, m) for m in motivating.molecules)
    ]
    assert extras  # e.g. an A(B, _)-shaped molecule


def test_verify_motivating_rules_pass(motivating, motivating_rules):
    report = verify(
        RuleSet(tuple(motivating_rules)), motivating, ClosureConfig(height_bound=4)
    )
    assert report.passed, report.to_text()
    assert len(report.covered) == 3


def test_verify_first_iteration_rules_fail(motivating, first_iteration_rules):
    report = verify(
        RuleSet(tuple(first_iteration_rules)), motivating, ClosureConfig(height_bound=4)
    )
    assert not report.passed
    assert report.extras


def test_verify_empty_ruleset_covers_nothing(motivating):
    report = verify(RuleSet(()), motivating, ClosureConfig(height_bound=4))
    assert not report.passed
    assert report.covered == []
    assert not report.extras  # seeds alone are not extras


def test_verify_rejects_small_height_bound(motivating, motivating_rules):
    with pytest.raises(ValueError):
        verify(RuleSet(tuple(motivating_rules)), motivating, ClosureConfig(height_bound=2))


def test_closure_budget_signal():
    alpha = MonomerAlphabet([("A", 1)])
    runaway = parse_rule("A(*A)", alpha)
    cfg = ClosureConfig(height_bound=50, max_molecules=10)
    with pytest.raises(ClosureBudgetExceeded):
        closure(seed_molecules(alpha), RuleSet((runaway,)), cfg)


def test_closure_height_pruning_flagged():
    alpha = MonomerAlphabet([("A", 1)])
    runaway = parse_rule("A(*A)", alpha)
    cfg = ClosureConfig(height_bound=3)
    result = closure(seed_molecules(alpha), RuleSet((runaway,)), cfg)
    assert result.pruned
    assert len(result) == 4  # chains of height 0..3


def test_closure_monotone_in_rules_even_with_hard_ends():
    alpha = MonomerAlphabet([("A", 2), ("B", 0), ("C", 0)])
    r1 = parse_rule("A(!, *C)", alpha)
    r2 = parse_rule("A(*B, _)", alpha)
    cfg = ClosureConfig(height_bound=2)
    small = closure(seed_molecules(alpha), RuleSet((r1,)), cfg)
    big = closure(seed_molecules(alpha), RuleSet((r1, r2)), cfg)
    assert set(small.molecules) <= set(big.molecules)


def test_closure_not_monotone_under_fast_slow():
    # adding a fast rule removes a slow derivation: the documented two-rule case
    alpha = MonomerAlphabet([("A", 1), ("B", 0), ("C", 0)])
    slow = parse_rule("A(*C)", alpha)
    fast = parse_rule("A(*B) @fast", alpha)
    cfg = ClosureConfig(height_bound=2, fast_slow=True)
    alone = closure(seed_molecules(alpha), RuleSet((slow,)), cfg)
    both = closure(seed_molecules(alpha), RuleSet((slow, fast)), cfg)
    assert "A(C)" in alone.molecules
    assert "A(C)" not in both.molecules  # the fast rule dominates bare A
    assert "A(B)" in both.molecules


def test_closure_order_insensitive(motivating, motivating_rules):
    # randomized application order must not change the produced set
    cfg = ClosureConfig(height_bound=4)
    rs = RuleSet(tuple(motivating_rules))
    baseline = set(closure(seed_molecules(motivating.alphabet), rs, cfg).molecules)
    rng = random.Random(11)
    for _ in range(3):
        rules = list(motivating_rules)
        rng.shuffle(rules)
        shuffled = set(
            closure(seed_molecules(motivating.alphabet), RuleSet(tuple(rules)), cfg).molecules
        )
        assert shuffled == baseline


def test_compartment_staging_blocks_early_rules(dataset_dir):
    from glycanrules.grammar import parse_dataset, parse_rules

    data = parse_dataset((dataset_dir / "compartments_pair.gly").read_text())
    staged = [
        parse_rule("P(*S(X))", data.alphabet),
        parse_rule("X(*W)", data.alphabet),
        parse_rule("Q(*S(X)) @comp=2", data.alphabet),
    ]
    rs = RuleSet(tuple(staged))
    report = verify(rs, data, ClosureConfig(height_bound=3))
    assert report.passed, report.to_text()

    # the same rules in a single compartment overproduce
    flat = [Rule(r.root, r.expand_path, r.hard_ends, 1, r.fast) for r in staged]
    report1 = verify(RuleSet(tuple(flat)), data, ClosureConfig(height_bound=3))
    assert not report1.passed
    extras = {serialize_molecule(m) for m in report1.extras}
    assert "Q(S(X(W)))" in extras


def test_repeat_explains_chain():
    alpha = MonomerAlphabet([("A", 1), ("B", 1)])
    observed = parse_molecule("A(B)", alpha)
    extra = parse_molecule("A(B(B))", alpha)
    cfg = RepeatConfig(max_depth=1, max_repeats=2)
    assert repeat_explains(extra, observed, cfg)
    # one repetition suffices, two are allowed
    assert repeat_explains(extra, observed, RepeatConfig(1, 1))
    # molecule differing outside the repeated region is not explained
    alpha2 = MonomerAlphabet([("A", 2), ("B", 1), ("C", 0)])
    observed2 = parse_molecule("A(B, C)", alpha2)
    wrong = parse_molecule("A(B(B), _)", alpha2)
    assert not repeat_explains(wrong, observed2, cfg)


def test_repeat_explains_longer_chains():
    alpha = MonomerAlphabet([("A", 1), ("B", 1), ("C", 0)])
    observed = parse_molecule("A(B(C))", alpha)
    extra2 = parse_molecule("A(B(B(C)))", alpha)
    extra3 = parse_molecule("A(B(B(B(C))))", alpha)
    assert repeat_explains(extra2, observed, RepeatConfig(1, 3))
    assert repeat_explains(extra3, observed, RepeatConfig(1, 3))
    assert not repeat_explains(extra3, observed, RepeatConfig(1, 1))


def test_verify_with_repeats_downgrades(dataset_dir):
    from glycanrules.grammar import parse_dataset

    data = parse_dataset((dataset_dir / "repeats_chain.gly").read_text())
    rules = [
        parse_rule("A(*B)", data.alphabet),
        parse_rule("A(B(*B))", data.alphabet),
        parse_rule("B(B(*B))", data.alphabet),
        parse_rule("A(B(*C))", data.alphabet),
        parse_rule("B(B(*C))", data.alphabet),
    ]
    rs = RuleSet(tuple(rules))
    plain = verify(rs, data, ClosureConfig(height_bound=6))
    assert not plain.passed  # over-long bare chains are visible extras
    with_repeats = verify(
        rs, data, ClosureConfig(height_bound=6, repeat=RepeatConfig(1, 5))
    )
    assert with_repeats.passed, with_repeats.to_text()
    assert with_repeats.repeat_downgraded


def test_verify_hardends_gate(dataset_dir):
    from glycanrules.grammar import parse_dataset

    data = parse_dataset((dataset_dir / "hardends_gate.gly").read_text())
    gated = RuleSet(
        (parse_rule("A(*B, !)", data.alphabet), parse_rule("A(!, *C)", data.alphabet))
    )
    assert verify(gated, data, ClosureConfig(height_bound=1)).passed
    plain = RuleSet(
        (parse_rule("A(*B, _)", data.alphabet), parse_rule("A(_, *C)", data.alphabet))
    )
    report = verify(plain, data, ClosureConfig(height_bound=1))
    assert not report.passed
    assert {serialize_molecule(m) for m in report.extras} == {"A(B, C)"}


# ---------------------------------------------------------------------------
# first_extra: the counterexample search
# ---------------------------------------------------------------------------

SEARCH_ALPHABETS = [
    MonomerAlphabet([("A", 1), ("B", 0)]),
    MonomerAlphabet([("A", 2), ("B", 0)]),
    MonomerAlphabet([("A", 1), ("B", 1)]),
    MonomerAlphabet([("A", 2), ("B", 1), ("C", 0)]),
]
# (variants, compartment budget)
SEARCH_VARIANTS = [
    (Variants(), 1),
    (Variants(), 2),
    (Variants(fast_slow=True), 1),
    (Variants(fast_slow=True), 2),
    (Variants(hard_ends=True), 1),
    (Variants(repeat=(1, 2)), 1),
]


def search_config(variants: Variants, height: int) -> ClosureConfig:
    repeat = RepeatConfig(*variants.repeat) if variants.repeat else None
    return ClosureConfig(height, repeat=repeat, fast_slow=variants.fast_slow)


def witness_folds(alphabet, rs: RuleSet, mol, steps, variants: Variants,
                  compartments: int = 1) -> bool:
    """The derivation's binding satisfies the concrete/concrete encoding."""
    ctx = EncodingContext(alphabet, len(rs), variants, compartments=compartments)
    sides = [ConcreteRuleSide(ctx, r) for r in rs]
    body, prod = encode_produce(ctx, ConcreteMoleculeSide(ctx, mol), sides)
    return substitute(body, derivation_binding(prod, rs, steps)) is TRUE


@pytest.mark.parametrize("seed", range(6))
def test_first_extra_agrees_with_verify(seed):
    rng = random.Random(6100 + seed)
    found_some = 0
    for _ in range(25):
        alphabet = rng.choice(SEARCH_ALPHABETS)
        variants, k = rng.choice(SEARCH_VARIANTS)
        universe = [
            Molecule(t) for t in enumerate_trees(alphabet, 2, alphabet.max_arity)
        ]
        data = Dataset(alphabet, tuple(rng.sample(universe, rng.randint(1, 3))))
        candidates = enumerate_rules(alphabet, 2, alphabet.max_arity, k, variants)
        rs = RuleSet(tuple(rng.sample(candidates, rng.randint(1, 3))))
        cfg = search_config(variants, data.max_height + 1)
        report = verify(rs, data, cfg)
        found = first_extra(rs, data, cfg)
        if found is None:
            assert not report.extras, report.to_text()
            continue
        mol, steps = found
        assert mol in report.extras
        if rs.compartment_count == 1:
            assert mol == report.extras[0]
        assert witness_folds(alphabet, rs, mol, steps, variants, k)
        found_some += 1
    assert found_some


def test_first_extra_finds_a_prefix_no_fast_rule_extends():
    alpha = MonomerAlphabet([("A", 1), ("B", 0)])
    data = Dataset(alpha, (parse_molecule("A(A(B))", alpha),))
    rs = RuleSet((parse_rule("A(*A)", alpha),))  # slow
    mol, steps = first_extra(rs, data, ClosureConfig(2, fast_slow=True))
    assert serialize_molecule(mol) == "A(A)"
    assert witness_folds(alpha, rs, mol, steps, Variants(fast_slow=True))
    # without fast/slow a prefix is never an extra
    mol, steps = first_extra(rs, data, ClosureConfig(2))
    assert serialize_molecule(mol) == "A(A(A))" and len(steps) == 2
    assert witness_folds(alpha, rs, mol, steps, Variants())


def test_first_extra_skips_what_a_repeat_explains():
    alpha = MonomerAlphabet([("A", 1), ("B", 0), ("C", 0)])
    data = Dataset(alpha, (parse_molecule("A(B)", alpha),))
    rs = RuleSet(tuple(
        parse_rule(text, alpha) for text in ("A(*B)", "A(*A(B))", "A(*A(C))")
    ))
    repeats = ClosureConfig(2, repeat=RepeatConfig(1, 1))
    mol, steps = first_extra(rs, data, repeats)
    assert serialize_molecule(mol) == "A(A(C))"
    downgraded = verify(rs, data, repeats).repeat_downgraded
    assert [serialize_molecule(m) for m in downgraded] == ["A(A(B))"]
    assert witness_folds(alpha, rs, mol, steps, Variants(repeat=(1, 1)))
    mol, _ = first_extra(rs, data, ClosureConfig(2))
    assert serialize_molecule(mol) == "A(A(B))"


def test_first_extra_is_none_on_a_passing_rule_set(motivating, motivating_rules):
    rs = RuleSet(tuple(motivating_rules))
    assert first_extra(rs, motivating, ClosureConfig(4)) is None


def test_first_extra_raises_past_the_budget():
    alpha = MonomerAlphabet([("A", 1), ("B", 0)])
    data = Dataset(alpha, (parse_molecule("A(A(B))", alpha),))
    rs = RuleSet((parse_rule("A(*A)", alpha),))
    with pytest.raises(ClosureBudgetExceeded):
        first_extra(rs, data, ClosureConfig(2, max_molecules=2))
