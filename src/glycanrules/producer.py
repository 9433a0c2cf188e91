"""Concrete forward semantics: rule application, closure enumeration, verification.

This module is the ground-truth oracle for everything the constraint encoder
claims.  `closure` enumerates the producible set with a worklist ordered by
node count (minimal derivations first) and deduplicates via canonical
serialization; `verify` checks a rule set against an observed dataset, and
`first_extra` runs the same worklist only until the first molecule `verify`
would reject, the synthesis loop's counterexample.

Calls are pure; a closure is reproducible for fixed inputs.  (Parallel fan-out
of `apply` calls would be contractually required to return the identical
single-threaded fixed point; the implementation is single-threaded.)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .core import (
    Dataset,
    Molecule,
    MonomerAlphabet,
    Path,
    Rule,
    RuleSet,
    TreeNode,
    graft,
    index_paths,
    is_rooted_prefix,
    match_embedded,
    node_at,
)
from .grammar import serialize_molecule, serialize_rule


class ClosureBudgetExceeded(RuntimeError):
    """The closure grew past the configured molecule cap (runaway rule set)."""


@dataclass(frozen=True)
class RepeatConfig:
    max_depth: int  # d0: deepest repeating pattern considered
    max_repeats: int  # r0: most stacked repetitions considered

    def __post_init__(self):
        # a zero would turn the variant off without a word
        if self.max_depth < 1 or self.max_repeats < 1:
            raise ValueError(
                f"repeat depth and count must be at least 1, got "
                f"{self.max_depth} and {self.max_repeats}"
            )


@dataclass(frozen=True)
class ClosureConfig:
    height_bound: int
    repeat: Optional[RepeatConfig] = None
    fast_slow: bool = False
    max_molecules: int = 100_000

    def __post_init__(self):
        if self.height_bound < 0:
            raise ValueError(f"height {self.height_bound} is negative")


def apply(m: Molecule, path: Path, slot: int, rule: Rule) -> Optional[Molecule]:
    """Apply `rule` at the node addressed by `path`, filling child `slot`.

    Returns the extended molecule, or None when the slot is occupied, the slot
    index differs from the rule's expand slot, the pattern does not embed, or a
    hard-ended slot of the matched region is already occupied.  The input is
    never modified.
    """
    node = node_at(m.root, path)
    if node is None or slot > len(node.children) or node.child(slot) is not None:
        return None
    if slot != rule.expand_slot:
        return None
    depth_e = rule.expand_depth
    # The rule root aligns depth_e levels above the newly attached node.
    new_path = path + (slot,)
    if len(new_path) < depth_e:
        return None
    anchor = new_path[: len(new_path) - depth_e]
    piece = rule.expand_node()
    extended = Molecule(graft(m.root, path, slot, piece))
    if not match_embedded(rule.root, (), extended.root, anchor):
        return None
    for hpath, hslot in rule.hard_ends:
        spot = node_at(m.root, anchor + hpath)
        if spot is not None and spot.child(hslot) is not None:
            return None
    return extended


def applications(m: Molecule, rules) -> Iterator[tuple[Molecule, Rule, Path, int]]:
    """All successful single-step applications of `rules` anywhere on `m`."""
    for path, node in sorted(m.positions()):
        for slot in range(1, len(node.children) + 1):
            if node.children[slot - 1] is not None:
                continue
            for rule in rules:
                result = apply(m, path, slot, rule)
                if result is not None:
                    yield result, rule, path, slot


def is_applicable_anywhere(m: Molecule, rule: Rule) -> bool:
    for _ in applications(m, (rule,)):
        return True
    return False


@dataclass
class DerivationStep:
    parent: str  # canonical serialization of the predecessor
    rule: Rule
    path: Path
    slot: int
    compartment: int


@dataclass
class ClosureResult:
    molecules: dict  # canonical string -> Molecule, final stage
    witnesses: dict  # canonical -> DerivationStep for first derivations
    pruned: bool = False  # some extension exceeded the height bound

    def __contains__(self, m: Molecule) -> bool:
        return serialize_molecule(m) in self.molecules

    def __len__(self) -> int:
        return len(self.molecules)

    def sorted_molecules(self) -> list:
        return [
            mol
            for _, mol in sorted(
                self.molecules.items(), key=lambda kv: (kv[1].node_count, kv[0])
            )
        ]


def seed_molecules(alphabet: MonomerAlphabet) -> list[Molecule]:
    return [Molecule(TreeNode(m.name, (None,) * m.arity)) for m in alphabet]


def closure(seeds, rs: RuleSet, cfg: ClosureConfig) -> ClosureResult:
    """Fixed point of `apply` staged compartment by compartment.

    Molecules whose extension would exceed the height bound are dropped and
    flagged.  Under fast/slow semantics a slow rule extends a molecule only
    when no fast rule of the same compartment applies anywhere on it.
    """
    result = ClosureResult({}, {})
    for _ in _derive(seeds, rs, cfg, result):
        pass
    return result


def _derive(seeds, rs: RuleSet, cfg: ClosureConfig, result: ClosureResult
            ) -> Iterator[str]:
    """The worklist behind `closure`: fills `result` and yields each
    molecule's key when it first leaves the worklist.

    Within a compartment the worklist pops smallest first (node count, then
    key), so with one compartment the keys come in `sorted_molecules` order.
    Raises ClosureBudgetExceeded past `cfg.max_molecules`.
    """
    seen, witnesses = result.molecules, result.witnesses
    for mol in seeds:
        if mol.height <= cfg.height_bound:
            seen[serialize_molecule(mol)] = mol
        else:
            result.pruned = True
    for comp in range(1, rs.compartment_count + 1):
        rules = rs.in_compartment(comp)
        fast = [r for r in rules if r.fast]
        # (size, key, first visit): later stages revisit what earlier ones found
        heap = [(mol.node_count, key, comp == 1) for key, mol in seen.items()]
        heapq.heapify(heap)
        while heap:
            _, key, first = heapq.heappop(heap)
            if first:
                yield key
            mol = seen[key]
            active = rules
            if cfg.fast_slow and any(is_applicable_anywhere(mol, r) for r in fast):
                active = fast
            for grown, rule, path, slot in applications(mol, active):
                if grown.height > cfg.height_bound:
                    result.pruned = True
                    continue
                gkey = serialize_molecule(grown)
                if gkey in seen:
                    continue
                if len(seen) >= cfg.max_molecules:
                    raise ClosureBudgetExceeded(
                        f"closure exceeded {cfg.max_molecules} molecules"
                    )
                seen[gkey] = grown
                witnesses[gkey] = DerivationStep(key, rule, path, slot, comp)
                heapq.heappush(heap, (grown.node_count, gkey, True))


def _exact_pos(
    a: Optional[TreeNode], pa: Path, b: Optional[TreeNode], stop: Optional[Path]
) -> bool:
    """Structural equality of two subtrees; traversal of the first argument
    stops (succeeds) at the absolute position `stop` in its tree."""
    if stop is not None and pa == stop:
        return True
    if a is None or b is None:
        return a is None and b is None
    if a.label != b.label:
        return False
    slots = max(len(a.children), len(b.children))
    for i in range(1, slots + 1):
        if not _exact_pos(a.child(i), pa + (i,), b.child(i), stop):
            return False
    return True


def _max_slots(m: Molecule) -> int:
    return max((len(node.children) for _, node in m.positions()), default=0)


def _equal_outside(a: Optional[TreeNode], b: Optional[TreeNode], anchor: Path) -> bool:
    """Presence and labels agree at every position not at or below `anchor`."""
    if anchor == ():
        return True  # the subtree below the anchor is exempt
    if a is None or b is None:
        return a is None and b is None
    if a.label != b.label:
        return False
    slots = max(len(a.children), len(b.children))
    for i in range(1, slots + 1):
        if anchor[0] == i:
            if not _equal_outside(a.child(i), b.child(i), anchor[1:]):
                return False
        else:
            if not _exact_pos(a.child(i), (), b.child(i), None):
                return False
    return True


def repeat_explains(extra: Molecule, observed: Molecule, cfg: RepeatConfig) -> bool:
    """True iff `extra` equals `observed` with r <= max_repeats stacked copies
    of a pattern of depth <= max_depth inserted at some node of `observed`."""
    width = _max_slots(extra)
    for anchor_path, m_node in sorted(observed.positions()):
        if extra.node_at(anchor_path) is None:
            continue
        if not _equal_outside(extra.root, observed.root, anchor_path):
            continue
        for depth in range(1, cfg.max_depth + 1):
            for ipath in index_paths(width, depth):
                for reps in range(1, cfg.max_repeats + 1):
                    head_paths = [
                        anchor_path + ipath * i for i in range(reps + 1)
                    ]
                    heads = [extra.node_at(p) for p in head_paths]
                    if any(h is None for h in heads):
                        break  # deeper repetitions cannot exist either
                    if not all(
                        _exact_pos(
                            heads[i], head_paths[i], heads[i + 1], head_paths[i + 1]
                        )
                        for i in range(reps)
                    ):
                        continue
                    if _exact_pos(m_node, anchor_path, heads[-1], None):
                        return True
    return False


@dataclass
class VerificationReport:
    covered: list
    missing: list
    extras: list
    closure_size: int
    witnesses: dict = field(default_factory=dict)
    pruned: bool = False
    repeat_downgraded: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.missing and not self.extras

    def to_text(self) -> str:
        lines = [f"verification: {'PASS' if self.passed else 'FAIL'}"]
        lines.append(f"closure size: {self.closure_size}")
        lines.append(f"covered {len(self.covered)} molecule(s)")
        for mol in self.missing:
            lines.append(f"missing: {serialize_molecule(mol)}")
        for mol in self.extras:
            lines.append(f"extra: {serialize_molecule(mol)}")
            trail = derivation_trail(self.witnesses, mol)
            if trail:
                lines.append("  derived via: " + " -> ".join(trail))
        for mol in self.repeat_downgraded:
            lines.append(f"accepted repeat: {serialize_molecule(mol)}")
        if self.pruned:
            lines.append("note: closure truncated at the height bound")
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        pairs = [
            ("pass", str(self.passed).lower()),
            ("closure_size", str(self.closure_size)),
            ("covered", str(len(self.covered))),
            ("missing", str(len(self.missing))),
            ("extras", str(len(self.extras))),
            ("pruned", str(self.pruned).lower()),
        ]
        lines = [f"{k}={v}" for k, v in pairs]
        lines.extend(f"extra={serialize_molecule(m)}" for m in self.extras)
        lines.extend(f"missing={serialize_molecule(m)}" for m in self.missing)
        return "\n".join(lines) + "\n"


def derivation_steps(witnesses: dict, key: str) -> list:
    """The `DerivationStep`s that build molecule `key`, from its seed on."""
    steps = []
    while key in witnesses:
        steps.append(witnesses[key])
        key = steps[-1].parent
    steps.reverse()
    return steps


def derivation_trail(witnesses: dict, mol: Molecule) -> list:
    key = serialize_molecule(mol)
    steps = derivation_steps(witnesses, key)
    seed = steps[0].parent if steps else key
    return [seed] + [
        f"[{serialize_rule(s.rule)} @ {s.path or 'root'}]" for s in steps
    ]


_EXTRA = "extra"
_REPEAT = "repeat"


def _judge(rs: RuleSet, data: Dataset, cfg: ClosureConfig):
    """`judge(mol, key)` tells what `verify` makes of producible `mol`:
    `_EXTRA`, `_REPEAT` when a repeat explains it, or None."""
    observed = {serialize_molecule(m) for m in data.molecules}
    fast = [r for r in rs if r.fast]

    def judge(mol: Molecule, key: str) -> Optional[str]:
        if mol.height == 0 or key in observed:
            return None  # bare seeds are raw material, not outputs
        if any(is_rooted_prefix(mol, obs) for obs in data.molecules):
            if cfg.fast_slow and not any(
                is_applicable_anywhere(mol, r) for r in fast
            ):
                return _EXTRA
            return None
        if cfg.repeat is not None and any(
            repeat_explains(mol, obs, cfg.repeat) for obs in data.molecules
        ):
            return _REPEAT
        return _EXTRA

    return judge


def verify(rs: RuleSet, data: Dataset, cfg: ClosureConfig) -> VerificationReport:
    """Oracle check: every observed molecule must be producible and no
    producible molecule within the height bound may fall outside the
    rooted-prefix closure of the observations (height-0 seeds exempt).

    With a repeat config, an extra is downgraded to acceptable when it equals
    an observed molecule up to stacked repetitions.  Under fast/slow, strict
    rooted prefixes not in the observed set must be extendable by a fast rule.
    """
    if cfg.height_bound < data.max_height:
        raise ValueError("height bound below the tallest observed molecule")
    result = closure(seed_molecules(data.alphabet), rs, cfg)
    observed = {serialize_molecule(m): m for m in data.molecules}
    covered = [m for k, m in observed.items() if k in result.molecules]
    missing = [m for k, m in observed.items() if k not in result.molecules]
    judge = _judge(rs, data, cfg)
    extras = []
    downgraded = []
    for mol in result.sorted_molecules():
        verdict = judge(mol, serialize_molecule(mol))
        if verdict == _EXTRA:
            extras.append(mol)
        elif verdict == _REPEAT:
            downgraded.append(mol)
    return VerificationReport(
        covered,
        missing,
        extras,
        len(result),
        result.witnesses,
        result.pruned,
        downgraded,
    )


def first_extra(rs: RuleSet, data: Dataset, cfg: ClosureConfig
                ) -> Optional[tuple[Molecule, list]]:
    """The first molecule the closure's worklist reaches that `verify` would
    list as an extra, with the `DerivationStep`s that build it; None when
    `verify` would list none.  With one compartment it is the first extra
    `verify` lists.  Raises ClosureBudgetExceeded as `closure` does.
    """
    result = ClosureResult({}, {})
    judge = _judge(rs, data, cfg)
    for key in _derive(seed_molecules(data.alphabet), rs, cfg, result):
        mol = result.molecules[key]
        if judge(mol, key) == _EXTRA:
            return mol, derivation_steps(result.witnesses, key)
    return None
