import random
import re

import pytest

from glycanrules.backend import Session, SolverConfig, _Emitter
from glycanrules.core import MonomerAlphabet, Rule, RuleSet, node_at
from glycanrules.driver import enumerate_rules, enumerate_trees
from glycanrules.encoder import (
    ConcreteMoleculeSide,
    ConcreteRuleSide,
    EncodingContext,
    K_ABSENT,
    K_EXPAND,
    K_MATCH,
    K_MATCH_ANS,
    RuleTemplate,
    Variants,
    decode_molecule,
    decode_rules,
    encode_produce,
    make_molecule_template,
    make_rule_templates,
    mol_template_correctness,
    negative_constraint,
    rule_template_correctness,
    symmetry_break,
    template_rule_applicable,
)
from glycanrules.formula import (
    bool_ref,
    conj,
    enum_is,
    int_eq,
    not_,
)
from glycanrules.grammar import parse_molecule, parse_rule, serialize_molecule, serialize_rule
from glycanrules.producer import (
    ClosureConfig,
    closure,
    is_rooted_prefix,
    seed_molecules,
)

AB2 = MonomerAlphabet([("A", 2), ("B", 1), ("C", 0)])


def pin_rule(ctx, t: RuleTemplate, rule: Rule):
    """Equalities forcing template `t` to denote exactly `rule`."""
    parts = []
    hard_paths = {parent + (slot,) for parent, slot in rule.hard_ends}
    for p in t.paths:
        node = node_at(rule.root, p)
        if node is None:
            parts.append(enum_is(t.situation[p], K_ABSENT))
        else:
            sit = {
                "match": K_MATCH,
                "matchans": K_MATCH_ANS,
                "expand": K_EXPAND,
            }[rule.situation(p)]
            parts.append(enum_is(t.situation[p], sit))
            parts.append(enum_is(t.sugar[p], ctx.sugar_member(node.label)))
        if p != () and p in t.hard_end:
            he = bool_ref(t.hard_end[p])
            parts.append(he if p in hard_paths else not_(he))
    parts.append(int_eq(t.compartment, rule.compartment))
    if t.fast is not None:
        parts.append(bool_ref(t.fast) if rule.fast else not_(bool_ref(t.fast)))
    return conj(parts)


def test_template_node_counts():
    ctx = EncodingContext(AB2, 1)
    (t,) = make_rule_templates(ctx, 2, 1, 1)
    assert len(t.paths) == 3  # unary chain of depth 2
    ctx = EncodingContext(AB2, 7)
    templates = make_rule_templates(ctx, 3, 2, 7)
    assert len(templates) == 7
    assert all(len(t.paths) == 15 for t in templates)
    # (w^(d+1)-1)/(w-1) for w>1
    assert len(templates[0].paths) == (2 ** 4 - 1) // (2 - 1)


def test_template_vars_are_distinct():
    ctx = EncodingContext(AB2, 3)
    templates = make_rule_templates(ctx, 2, 2, 3)
    seen = set()
    for t in templates:
        for v in t.all_vars():
            assert v.name not in seen
            seen.add(v.name)


def solve(formulas, read=(), config=None):
    with Session(config or SolverConfig()) as s:
        for f in formulas:
            s.assert_formula(f)
        res = s.check_sat()
        model = s.get_model(list(read)) if res == "sat" and read else None
    return res, model


def check_produce(ctx, mol, sides) -> str:
    """check-sat of "the rule sides produce `mol`", in a session of its own."""
    f, _ = encode_produce(ctx, ConcreteMoleculeSide(ctx, mol), sides)
    with Session(SolverConfig()) as s:
        s.assert_formula(f)
        return s.check_sat()


def test_correctness_rejects_bad_assignments():
    ctx = EncodingContext(AB2, 1)
    (t,) = make_rule_templates(ctx, 2, 2, 1)
    tcons = rule_template_correctness(ctx, [t])
    # root Match with an Expand child violates situation propagation
    res, _ = solve(
        [tcons, enum_is(t.situation[()], K_MATCH), enum_is(t.situation[(1,)], K_EXPAND)]
    )
    assert res == "unsat"
    # a leaf-labeled arity-0 sugar forces absent children
    res, model = solve(
        [tcons, enum_is(t.sugar[()], ctx.sugar_member("C")),
         enum_is(t.situation[()], K_MATCH_ANS)],
    )
    assert res == "unsat"  # root C has no slots for the required expand child


def test_random_rules_roundtrip_through_templates():
    rng = random.Random(31)
    candidates = enumerate_rules(AB2, 2, 2, 1, Variants())
    sample = rng.sample(candidates, 60)
    ctx = EncodingContext(AB2, 1)
    (t,) = make_rule_templates(ctx, 2, 2, 1)
    tcons = rule_template_correctness(ctx, [t])
    for rule in sample:
        res, model = solve([tcons, pin_rule(ctx, t, rule)], t.all_vars())
        assert res == "sat", serialize_rule(rule)
        assert decode_rules(ctx, model, [t]).rules[0] == rule


def test_every_correctness_model_decodes():
    ctx = EncodingContext(AB2, 2)
    templates = make_rule_templates(ctx, 2, 2, 2)
    tcons = rule_template_correctness(ctx, templates)
    res, model = solve([tcons], [v for t in templates for v in t.all_vars()])
    assert res == "sat"
    rs = decode_rules(ctx, model, templates)
    assert len(rs) == 2  # decoding validates all invariants internally


def test_molecule_template_basics():
    ctx = EncodingContext(AB2, 0)
    mt = make_molecule_template(ctx, 2, 2)
    observed = [parse_molecule("A(B, _)", AB2)]
    mcons = mol_template_correctness(ctx, mt, observed)
    res, model = solve([mcons], [mt.sugar[p] for p in mt.paths])
    assert res == "sat"
    decoded = decode_molecule(ctx, model, mt)
    # the decoded molecule is a genuine non-prefix of the observation
    assert not is_rooted_prefix(decoded, observed[0])
    # pinning the template to the observation itself is contradictory
    pins = [
        enum_is(mt.sugar[()], ctx.sugar_member("A")),
        enum_is(mt.sugar[(1,)], ctx.sugar_member("B")),
        enum_is(mt.sugar[(2,)], "SugNone"),
        enum_is(mt.sugar[(1, 1)], "SugNone"),
    ]
    res, _ = solve([mcons] + pins)
    assert res == "unsat"
    # and pinning it to a strict rooted prefix is contradictory too
    pins[1] = enum_is(mt.sugar[(1,)], "SugNone")
    res, _ = solve([mcons] + pins)
    assert res == "unsat"


def sample_rule_sets(rng, alphabet, depth, count, how_many):
    candidates = enumerate_rules(alphabet, depth, alphabet.max_arity, 1, Variants())
    sets = []
    for _ in range(how_many):
        k = rng.randint(1, count)
        sets.append(rng.sample(candidates, k))
    return sets


def enumeration_molecules(alphabet, height):
    return [parse_molecule(serialize_and_back(t), alphabet) for t in
            enumerate_trees(alphabet, height, alphabet.max_arity)]


def serialize_and_back(tree):
    from glycanrules.core import Molecule

    return serialize_molecule(Molecule(tree))


@pytest.mark.parametrize("seed", range(5))
def test_encoder_oracle_agreement_smoke(seed):
    """Small-scale version of the exhaustive acceptance criterion."""
    rng = random.Random(400 + seed)
    alphabet = MonomerAlphabet([("A", 2), ("B", 1)]) if seed % 2 else AB2
    rules = sample_rule_sets(rng, alphabet, 2, 3, 1)[0]
    rs = RuleSet(tuple(rules))
    reach = closure(seed_molecules(alphabet), rs, ClosureConfig(3))
    positives = reach.sorted_molecules()[:12]
    universe = enumeration_molecules(alphabet, 2)
    rng.shuffle(universe)
    negatives = [m for m in universe if m not in reach][:8]
    ctx = EncodingContext(alphabet, len(rules))
    sides = [ConcreteRuleSide(ctx, r) for r in rules]
    for mol, expected in [(m, "sat") for m in positives] + [
        (m, "unsat") for m in negatives
    ]:
        assert check_produce(ctx, mol, sides) == expected, (
            f"{serialize_molecule(mol)} vs {[serialize_rule(r) for r in rules]}"
        )


def test_negative_constraint_blocks_witnessed_rules(motivating, first_iteration_rules):
    data = motivating
    ctx = EncodingContext(data.alphabet, len(first_iteration_rules))
    templates = make_rule_templates(ctx, 3, 2, len(first_iteration_rules))
    tcons = rule_template_correctness(ctx, templates)
    pins = conj(
        [pin_rule(ctx, t, r) for t, r in zip(templates, first_iteration_rules)]
    )
    bad = parse_molecule("A(B, _)", data.alphabet)  # produced by those rules
    nc = negative_constraint(ctx, templates, bad, None)
    res, _ = solve([tcons, pins, nc.universal])
    assert res == "unsat"
    # but the rejection keeps rule sets that cannot produce the molecule
    good = [parse_rule(t, data.alphabet) for t in
            ["A(*C(D), _)", "A(_, *B(C))", "B(C(*D))", "A(_, *D)", "A(*C(B), B)",
             "C(B(*C))"]]
    ctx2 = EncodingContext(data.alphabet, len(good))
    templates2 = make_rule_templates(ctx2, 3, 2, len(good))
    tcons2 = rule_template_correctness(ctx2, templates2)
    pins2 = conj([pin_rule(ctx2, t, r) for t, r in zip(templates2, good)])
    nc2 = negative_constraint(ctx2, templates2, bad, None)
    res, _ = solve([tcons2, pins2, nc2.universal])
    assert res == "sat"


def test_symmetry_break_preserves_satisfiability(motivating):
    """sat/unsat of the synthesis constraints is unchanged by the ordering."""
    rng = random.Random(77)
    data = motivating
    for trial in range(6):
        n = rng.randint(2, 3)
        ctx = EncodingContext(data.alphabet, n)
        templates = make_rule_templates(ctx, 2, 2, n)
        base = [rule_template_correctness(ctx, templates)]
        for mol in rng.sample(list(data.molecules), 1):
            f, prod = encode_produce(ctx, ConcreteMoleculeSide(ctx, mol), templates)
            base.append(f)
        plain, _ = solve(base)
        broken, _ = solve(base + [symmetry_break(templates)])
        assert plain == broken


def test_symmetry_break_collapses_permutations():
    chain = MonomerAlphabet([("A", 1), ("B", 1), ("C", 0)])
    ctx = EncodingContext(chain, 2)
    templates = make_rule_templates(ctx, 2, 1, 2)
    r1 = parse_rule("A(*B)", chain)
    r2 = parse_rule("B(*C)", chain)
    sb = symmetry_break(templates)
    ordered = conj([pin_rule(ctx, templates[0], r1), pin_rule(ctx, templates[1], r2)])
    swapped = conj([pin_rule(ctx, templates[0], r2), pin_rule(ctx, templates[1], r1)])
    res_a, _ = solve([sb, ordered])
    res_b, _ = solve([sb, swapped])
    assert {res_a, res_b} == {"sat", "unsat"}  # exactly one order survives
    # equal templates always satisfy the non-strict order
    res_eq, _ = solve(
        [sb, pin_rule(ctx, templates[0], r1), pin_rule(ctx, templates[1], r1)]
    )
    assert res_eq == "sat"


def test_compartment_constraints_entailed_at_k1(dataset_dir):
    """k=1 encodings accept exactly what the unstaged oracle accepts."""
    from glycanrules.grammar import parse_dataset

    data = parse_dataset((dataset_dir / "compartments_pair.gly").read_text())
    staged = [
        parse_rule("P(*S(X))", data.alphabet),
        parse_rule("X(*W)", data.alphabet),
        parse_rule("Q(*S(X)) @comp=2", data.alphabet),
    ]
    flat = [Rule(r.root, r.expand_path, r.hard_ends, 1, r.fast) for r in staged]
    bad = parse_molecule("Q(S(X(W)))", data.alphabet)
    # flat: producible; staged: not
    ctx1 = EncodingContext(data.alphabet, 3)
    assert check_produce(ctx1, bad, [ConcreteRuleSide(ctx1, r) for r in flat]) == "sat"
    ctx2 = EncodingContext(data.alphabet, 3, Variants(compartments=2))
    sides2 = [ConcreteRuleSide(ctx2, r) for r in staged]
    assert check_produce(ctx2, bad, sides2) == "unsat"


def test_hard_end_encoding_matches_oracle():
    alphabet = MonomerAlphabet([("A", 2), ("B", 0), ("C", 0)])
    gated = [
        parse_rule("A(*B, !)", alphabet),
        parse_rule("A(!, *C)", alphabet),
    ]
    ctx = EncodingContext(alphabet, 2, Variants(hard_ends=True))
    sides = [ConcreteRuleSide(ctx, r) for r in gated]
    cases = {
        "A(B, _)": "sat",
        "A(_, C)": "sat",
        "A(B, C)": "unsat",  # mutually exclusive hard ends
    }
    for text, expected in cases.items():
        mol = parse_molecule(text, alphabet)
        assert check_produce(ctx, mol, sides) == expected, text


def test_fast_dominance_encoding_matches_oracle():
    alphabet = MonomerAlphabet([("A", 1), ("B", 0), ("C", 0)])
    slow = parse_rule("A(*C)", alphabet)
    fast = parse_rule("A(*B) @fast", alphabet)
    ctx = EncodingContext(alphabet, 2, Variants(fast_slow=True))
    sides = [ConcreteRuleSide(ctx, r) for r in (slow, fast)]
    blocked = parse_molecule("A(C)", alphabet)
    allowed = parse_molecule("A(B)", alphabet)
    for mol, expected in ((blocked, "unsat"), (allowed, "sat")):
        assert check_produce(ctx, mol, sides) == expected, serialize_molecule(mol)
    # with the variant off the same molecule is producible
    ctx0 = EncodingContext(alphabet, 2)
    plain = [Rule(r.root, r.expand_path, r.hard_ends, 1, False) for r in (slow, fast)]
    f, prod = encode_produce(
        ctx0, ConcreteMoleculeSide(ctx0, blocked),
        [ConcreteRuleSide(ctx0, r) for r in plain],
    )
    res, _ = solve([f])
    assert res == "sat"


def test_all_rules_fast_dominance_vacuous():
    alphabet = MonomerAlphabet([("A", 2), ("B", 0), ("C", 0)])
    rules = [
        parse_rule("A(*B, _) @fast", alphabet),
        parse_rule("A(_, *C) @fast", alphabet),
    ]
    ctx = EncodingContext(alphabet, 2, Variants(fast_slow=True))
    sides = [ConcreteRuleSide(ctx, r) for r in rules]
    both = parse_molecule("A(B, C)", alphabet)
    f, prod = encode_produce(ctx, ConcreteMoleculeSide(ctx, both), sides)
    res, _ = solve([f])
    assert res == "sat"


def test_repeat_rejection_matches_examples():
    alphabet = MonomerAlphabet([("A", 1), ("B", 1)])
    observed = [parse_molecule("A(B)", alphabet)]
    ctx = EncodingContext(alphabet, 0, Variants(repeat=(1, 2)))
    mt = make_molecule_template(ctx, 3, 1)
    mcons = mol_template_correctness(ctx, mt, observed)
    # A(B(B)) is no longer a valid counterexample
    pins = [
        enum_is(mt.sugar[()], ctx.sugar_member("A")),
        enum_is(mt.sugar[(1,)], ctx.sugar_member("B")),
        enum_is(mt.sugar[(1, 1)], ctx.sugar_member("B")),
        enum_is(mt.sugar[(1, 1, 1)], "SugNone"),
    ]
    res, _ = solve([mcons] + pins)
    assert res == "unsat"
    # without the variant it is one
    ctx0 = EncodingContext(alphabet, 0)
    mt0 = make_molecule_template(ctx0, 3, 1)
    mcons0 = mol_template_correctness(ctx0, mt0, observed)
    pins0 = [
        enum_is(mt0.sugar[()], ctx0.sugar_member("A")),
        enum_is(mt0.sugar[(1,)], ctx0.sugar_member("B")),
        enum_is(mt0.sugar[(1, 1)], ctx0.sugar_member("B")),
        enum_is(mt0.sugar[(1, 1, 1)], "SugNone"),
    ]
    res, _ = solve([mcons0] + pins0)
    assert res == "sat"


def test_repeat_config_must_fit_template():
    alphabet = MonomerAlphabet([("A", 1), ("B", 1)])
    ctx = EncodingContext(alphabet, 0, Variants(repeat=(2, 3)))
    mt = make_molecule_template(ctx, 3, 1)
    with pytest.raises(ValueError):
        mol_template_correctness(ctx, mt, [parse_molecule("A(B)", alphabet)])


def test_template_rule_applicable_static():
    alphabet = MonomerAlphabet([("A", 2), ("B", 0), ("C", 0)])
    ctx = EncodingContext(alphabet, 1, Variants(fast_slow=True))
    (t,) = make_rule_templates(ctx, 2, 2, 1)
    tcons = rule_template_correctness(ctx, [t])
    rule = parse_rule("A(*B, _)", alphabet)
    applicable_to = parse_molecule("A(_, C)", alphabet)
    not_applicable = parse_molecule("A(B, C)", alphabet)
    pins = pin_rule(ctx, t, rule)
    res, _ = solve([tcons, pins, template_rule_applicable(ctx, t, applicable_to)])
    assert res == "sat"
    res, _ = solve([tcons, pins, template_rule_applicable(ctx, t, not_applicable)])
    assert res == "unsat"


@pytest.mark.parametrize("variants", [
    Variants(), Variants(compartments=2), Variants(fast_slow=True),
    Variants(hard_ends=True),
], ids=["plain", "k2", "fast_slow", "hard_ends"])
def test_every_production_variable_occurs_in_its_encoding(variants):
    """No production variable is bound in a universal that nothing reads."""
    molecules = [
        "A", "B", "C", "B(C)", "A(_, B)", "A(B, C)", "B(B(C))", "A(B(C), _)",
        "A(B(C), C)", "B(A(C, C))", "B(B(B(C)))", "A(A(B, C), _)",
    ]
    ctx = EncodingContext(AB2, 2, variants)
    templates = make_rule_templates(ctx, 3, 2, 2)
    for text in molecules:
        mol = parse_molecule(text, AB2)
        f, prod = encode_produce(ctx, ConcreteMoleculeSide(ctx, mol), templates)
        names = set(re.findall(r"[^\s()]+", _Emitter().emit(f)))
        unread = [v.name for v in prod.all_vars() if v.name not in names]
        assert not unread, (text, unread)


def test_encode_produce_with_no_rules():
    ctx = EncodingContext(AB2, 0)
    single = parse_molecule("A", AB2)
    f, _ = encode_produce(ctx, ConcreteMoleculeSide(ctx, single), [])
    res, _ = solve([f])
    assert res == "sat"  # seeds need no rules
    grown = parse_molecule("A(B, _)", AB2)
    f, _ = encode_produce(ctx, ConcreteMoleculeSide(ctx, grown), [])
    res, _ = solve([f])
    assert res == "unsat"
