import random

import pytest

from glycanrules.core import (
    ArityError,
    Dataset,
    DuplicateMoleculeError,
    ModelError,
    Molecule,
    MonomerAlphabet,
    Rule,
    RuleSet,
    TreeNode,
    UnknownMonomerError,
    is_rooted_prefix,
    match_embedded,
    tree_height,
)
from glycanrules.grammar import (
    ParseError,
    parse_dataset,
    parse_molecule,
    parse_rule,
    parse_rules,
    serialize_molecule,
    serialize_rule,
)

ALPHABET = MonomerAlphabet([("A", 2), ("B", 1), ("C", 1), ("D", 0)])


def mol(text):
    return parse_molecule(text, ALPHABET)


def test_parse_tiny_dataset():
    data = parse_dataset("sugar A 2; sugar D 0; mol A(D,_)")
    assert data.alphabet.names == ("A", "D")
    assert data.alphabet.arity("A") == 2
    m = data.molecules[0]
    assert m.root.label == "A"
    assert m.root.child(1).label == "D"
    assert m.root.child(2) is None


def test_parse_motivating_dataset(motivating):
    assert motivating.alphabet.names == ("A", "B", "C", "D")
    assert [m.height for m in motivating.molecules] == [2, 4, 3]


def test_unknown_monomer_is_an_error():
    with pytest.raises(UnknownMonomerError):
        parse_dataset("sugar A 1; mol A(B)")


def test_wrong_slot_count_is_an_error():
    with pytest.raises(ArityError):
        parse_dataset("sugar A 2; mol A(_)")


def test_duplicate_molecule_is_an_error():
    with pytest.raises(DuplicateMoleculeError):
        parse_dataset("sugar A 1; mol A; mol A")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_dataset("sugar A 1\nmol A((")
    assert err.value.line == 2


@pytest.mark.parametrize("parse, text, col", [
    (parse_dataset, "sugar A \u0661; mol A", 9),  # Arabic-Indic one
    (parse_dataset, "sugar A \u00b2", 9),  # superscript two
    (lambda text: parse_rule(text, ALPHABET), "B(C(*D)) @comp=\u00b2", 16),
], ids=["arabic-indic-arity", "superscript-arity", "superscript-compartment"])
def test_numerals_are_ascii_digits(parse, text, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_molecule_roundtrip(motivating):
    for m in motivating.molecules:
        assert parse_molecule(serialize_molecule(m), motivating.alphabet) == m


def test_serialize_single_node():
    assert serialize_molecule(mol("D")) == "D"
    assert serialize_molecule(mol("A")) == "A"  # bare leaf omits slots


def test_serialize_rule_examples():
    r = parse_rule("A(*A, B)", ALPHABET)
    assert serialize_rule(r) == "A(*A, B)"
    assert r.expand_path == (1,)
    assert r.situation(()) == "matchans"
    assert r.situation((1,)) == "expand"
    assert r.situation((2,)) == "match"

    hard = parse_rule("A(*A, !)", ALPHABET)
    assert serialize_rule(hard) == "A(*A, !)"
    assert hard.hard_ends == frozenset({((), 2)})


def test_rule_attributes_roundtrip():
    r = parse_rule("B(C(*D)) @comp=2 @fast", ALPHABET)
    assert r.compartment == 2 and r.fast
    assert serialize_rule(r) == "B(C(*D)) @comp=2 @fast"
    assert r.expand_path == (1, 1)


def test_rule_needs_expand_marker():
    with pytest.raises(ParseError):
        parse_rule("A(B, _)", ALPHABET)
    with pytest.raises(ParseError):
        parse_rule("*A(B, _)", ALPHABET)  # expand root cannot be the rule root


def test_rules_file_roundtrip(motivating, motivating_rules):
    text = "\n".join(serialize_rule(r) for r in motivating_rules)
    again = parse_rules(text, motivating.alphabet)
    assert again == motivating_rules


def test_match_embedded_reflexive(motivating):
    for m in motivating.molecules:
        for path, _ in m.positions():
            assert match_embedded(m.root, path, m.root, path)


def test_match_embedded_asymmetry():
    single = mol("A")
    bigger = mol("A(_, B)")
    assert match_embedded(single.root, (), bigger.root, ())
    assert not match_embedded(bigger.root, (), single.root, ())


def test_rooted_prefix_examples(motivating):
    m1, m2, m3 = motivating.molecules
    assert is_rooted_prefix(mol("A"), m1)
    assert is_rooted_prefix(mol("A(C(D), _)"), m1)
    undesired = mol("A(C(B), D)")
    for m in motivating.molecules:
        assert not is_rooted_prefix(undesired, m)


def test_prefix_antisymmetry_is_equality(motivating):
    rng = random.Random(7)
    mols = list(motivating.molecules) + [mol("A"), mol("A(C(D), _)"), mol("D")]
    for a in mols:
        for b in mols:
            both = is_rooted_prefix(a, b) and is_rooted_prefix(b, a)
            assert both == (a == b)


def test_match_embedded_transitive(motivating):
    chain = [mol("A"), mol("A(C, _)"), mol("A(C(D), _)"), motivating.molecules[0]]
    for i in range(len(chain) - 1):
        assert is_rooted_prefix(chain[i], chain[i + 1])
    assert is_rooted_prefix(chain[0], chain[-1])


def test_heights_and_depth():
    assert mol("D").height == 0
    assert tree_height(mol("A(C(D), D)").root) == 2
    m = mol("A(C(D), D)")
    for path, _ in m.positions():
        assert len(path) <= m.height


def test_constructor_rejects_bad_arity():
    with pytest.raises(ArityError):
        Dataset(ALPHABET, (Molecule(TreeNode("A", (None,))),))


def test_rule_invariants():
    with pytest.raises(ModelError):
        Rule(TreeNode("A", (None, None)), ())
    tree = TreeNode("A", (TreeNode("D"), None))
    with pytest.raises(ModelError):
        Rule(tree, (1,), hard_ends=frozenset({((), 1)}))  # occupied slot
    # a rule set no longer has a count to exceed: it takes its rules' stages
    assert RuleSet((Rule(tree, (1,), compartment=3),)).compartment_count == 3


def test_rule_set_derives_its_compartment_count():
    tree = TreeNode("A", (TreeNode("D"), None))
    staged = Rule(tree, (1,), compartment=2)
    assert RuleSet((staged,)).compartment_count == 2
    assert RuleSet((Rule(tree, (1,)), staged)).compartment_count == 2
    assert RuleSet(()).compartment_count == 1


def test_random_value_roundtrips():
    from glycanrules.driver import enumerate_rules, enumerate_trees
    from glycanrules.encoder import Variants

    rng = random.Random(123)
    trees = enumerate_trees(ALPHABET, 2, 2)
    for tree in rng.sample(trees, 80):
        m = Molecule(tree)
        assert parse_molecule(serialize_molecule(m), ALPHABET) == m
    rules = enumerate_rules(ALPHABET, 2, 2, 2, Variants(hard_ends=True), cap=500_000)
    for rule in rng.sample(rules, 120):
        assert parse_rule(serialize_rule(rule), ALPHABET) == rule


def test_rule_tree_embeds_after_application(motivating):
    # embedding of a whole rule tree inside an application result
    alpha = MonomerAlphabet([("A", 2), ("B", 1)])
    rule = parse_rule("A(*A, B)", alpha)
    grown = parse_molecule("A(_, A(A, B))", alpha)
    assert match_embedded(rule.root, (), grown.root, (2,))
