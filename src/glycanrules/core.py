"""Tree data model: monomer alphabets, molecules, production rules, rule sets.

Molecules and rules are immutable labeled trees with 1-based indexed child
slots (slot identity is significant: a child at slot 1 is not interchangeable
with one at slot 2).  Node identity is positional: a node is addressed by the
tuple of slot indices on the path from the root, so ``()`` is the root and
``(2, 1)`` is the first child of the root's second child.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

Path = tuple[int, ...]


class ModelError(ValueError):
    """Structural invariant violation in a molecule, rule, or dataset."""


class UnknownMonomerError(ModelError):
    pass


class ArityError(ModelError):
    pass


class DuplicateMoleculeError(ModelError):
    pass


@dataclass(frozen=True)
class Monomer:
    name: str
    arity: int

    def __post_init__(self):
        if not self.name:
            raise ModelError("monomer name must be non-empty")
        if self.arity < 0:
            raise ModelError(f"negative arity for monomer {self.name!r}")


class MonomerAlphabet:
    """Ordered collection of monomers with unique names."""

    def __init__(self, entries):
        self.entries: tuple[Monomer, ...] = tuple(
            e if isinstance(e, Monomer) else Monomer(*e) for e in entries
        )
        self._by_name = {}
        for m in self.entries:
            if m.name in self._by_name:
                raise ModelError(f"duplicate monomer name {m.name!r}")
            self._by_name[m.name] = m

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Monomer]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomerAlphabet) and self.entries == other.entries

    def arity(self, name: str) -> int:
        try:
            return self._by_name[name].arity
        except KeyError:
            raise UnknownMonomerError(f"unknown monomer {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.entries)

    @property
    def max_arity(self) -> int:
        return max((m.arity for m in self.entries), default=0)


@dataclass(frozen=True)
class TreeNode:
    """One labeled node; ``children`` has exactly arity(label) slots, None = empty."""

    label: str
    children: tuple[Optional["TreeNode"], ...] = ()

    def child(self, slot: int) -> Optional["TreeNode"]:
        """1-based slot access; out-of-range slots read as empty."""
        if 1 <= slot <= len(self.children):
            return self.children[slot - 1]
        return None

    def with_child(self, slot: int, node: Optional["TreeNode"]) -> "TreeNode":
        kids = list(self.children)
        kids[slot - 1] = node
        return TreeNode(self.label, tuple(kids))


def node_at(root: TreeNode, path: Path) -> Optional[TreeNode]:
    node: Optional[TreeNode] = root
    for slot in path:
        if node is None:
            return None
        node = node.child(slot)
    return node


def tree_positions(root: TreeNode) -> Iterator[tuple[Path, TreeNode]]:
    """Preorder traversal of present nodes as (path, node) pairs."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for slot in range(len(node.children), 0, -1):
            kid = node.children[slot - 1]
            if kid is not None:
                stack.append((path + (slot,), kid))


def index_paths(width: int, depth: int) -> Iterator[Path]:
    """Every path of `depth` slot indices in 1..`width`, in lexicographic order."""
    return itertools.product(range(1, width + 1), repeat=depth)


def tree_height(root: TreeNode) -> int:
    kids = [k for k in root.children if k is not None]
    if not kids:
        return 0
    return 1 + max(tree_height(k) for k in kids)


def tree_size(root: TreeNode) -> int:
    return sum(1 for _ in tree_positions(root))


def graft(root: TreeNode, path: Path, slot: int, piece: TreeNode) -> TreeNode:
    """Return a new tree with `piece` attached at the given empty slot."""
    if not path:
        if root.child(slot) is not None:
            raise ModelError(f"slot {slot} at {path} already occupied")
        return root.with_child(slot, piece)
    head = path[0]
    kid = root.child(head)
    if kid is None:
        raise ModelError(f"no node at path {path}")
    return root.with_child(head, graft(kid, path[1:], slot, piece))


def check_arities(root: TreeNode, alphabet: MonomerAlphabet, what: str = "node") -> None:
    for path, node in tree_positions(root):
        arity = alphabet.arity(node.label)
        if len(node.children) != arity:
            raise ArityError(
                f"{what} {node.label!r} at {path} has {len(node.children)} slots, "
                f"declared arity is {arity}"
            )


@dataclass(frozen=True)
class Molecule:
    root: TreeNode

    @property
    def height(self) -> int:
        return tree_height(self.root)

    @property
    def node_count(self) -> int:
        return tree_size(self.root)

    def node_at(self, path: Path) -> Optional[TreeNode]:
        return node_at(self.root, path)

    def positions(self) -> Iterator[tuple[Path, TreeNode]]:
        return tree_positions(self.root)


def match_embedded(tree: TreeNode, at: Path, other: TreeNode, other_at: Path) -> bool:
    """True iff the subtree of `tree` at `at` is embedded in `other` at `other_at`.

    Labels must agree pointwise and every present child slot in the first tree
    must be present (recursively matching) in the second; the second tree may
    have extra children anywhere.
    """
    a = node_at(tree, at)
    b = node_at(other, other_at)
    if a is None or b is None:
        return False
    return _embedded(a, b)


def _embedded(a: TreeNode, b: TreeNode) -> bool:
    if a.label != b.label:
        return False
    for slot in range(1, len(a.children) + 1):
        kid = a.child(slot)
        if kid is None:
            continue
        other_kid = b.child(slot)
        if other_kid is None or not _embedded(kid, other_kid):
            return False
    return True


def is_rooted_prefix(m: Molecule, m2: Molecule) -> bool:
    """Positivity test: m is an acceptable intermediate of m2."""
    return _embedded(m.root, m2.root)


SITUATION_MATCH = "match"
SITUATION_MATCH_ANS = "matchans"
SITUATION_EXPAND = "expand"


@dataclass(frozen=True)
class Rule:
    """A production rule: a tree whose expand part hangs at ``expand_path``.

    The nodes strictly on the root→expand path (excluding the expand root) are
    the ancestor pattern; the expand root and its descendants are added on
    application; everything else present is side pattern.  ``hard_ends`` lists
    (path, slot) pairs of empty slots that must also be empty in the molecule
    at application time.
    """

    root: TreeNode
    expand_path: Path
    hard_ends: frozenset = frozenset()
    compartment: int = 1
    fast: bool = False

    def __post_init__(self):
        if not self.expand_path:
            raise ModelError("expand root cannot be the rule root")
        if node_at(self.root, self.expand_path) is None:
            raise ModelError(f"no node at expand path {self.expand_path}")
        if self.compartment < 1:
            raise ModelError("compartment indices start at 1")
        for path, slot in self.hard_ends:
            node = node_at(self.root, path)
            if node is None:
                raise ModelError(f"hard end on absent node {path}")
            if node.child(slot) is not None:
                raise ModelError(f"hard end on occupied slot {slot} of {path}")

    @property
    def expand_depth(self) -> int:
        return len(self.expand_path)

    @property
    def expand_slot(self) -> int:
        return self.expand_path[-1]

    def expand_node(self) -> TreeNode:
        node = node_at(self.root, self.expand_path)
        assert node is not None
        return node

    def situation(self, path: Path) -> str:
        if path == self.expand_path[: len(path)] and len(path) < len(self.expand_path):
            return SITUATION_MATCH_ANS
        if path[: len(self.expand_path)] == self.expand_path:
            return SITUATION_EXPAND
        return SITUATION_MATCH


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]

    @property
    def compartment_count(self) -> int:
        """The stages the rules occupy: stages past the highest apply none."""
        return max((r.compartment for r in self.rules), default=1)

    def in_compartment(self, c: int) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.compartment == c)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)


@dataclass(frozen=True)
class Dataset:
    alphabet: MonomerAlphabet
    molecules: tuple[Molecule, ...]

    def __post_init__(self):
        if not self.molecules:
            raise ModelError("dataset needs at least one molecule")
        seen = set()
        for mol in self.molecules:
            check_arities(mol.root, self.alphabet, "molecule node")
            if mol in seen:
                raise DuplicateMoleculeError(
                    f"molecule declared twice: {mol.root.label}..."
                )
            seen.add(mol)

    @property
    def max_height(self) -> int:
        return max(m.height for m in self.molecules)


def validate_rule(rule: Rule, alphabet: MonomerAlphabet) -> None:
    check_arities(rule.root, alphabet, "rule node")
    for path, slot in rule.hard_ends:
        node = node_at(rule.root, path)
        assert node is not None
        if slot < 1 or slot > alphabet.arity(node.label):
            raise ArityError(
                f"hard end slot {slot} out of range for {node.label!r} at {path}"
            )
