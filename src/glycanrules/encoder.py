"""Constraint construction: templates, produce-encodings, variants, decoding.

Terminology used throughout: a *rule side* or *molecule side* is either a
symbolic template (full tree of choice variables) or a concrete value wrapped
to expose the same interface, so the same constraint builders serve the
synthesis query (concrete molecules vs. rule templates), the counterexample
query (molecule template vs. concrete rules), and the concrete/concrete
equivalence checks.

Node situations inside a rule tree: `KMatchAns` on the path from the root to
the parent of the expansion root, `KExpand` on the added part, `KMatch` for
side pattern, `KAbsent` for unused template positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    ModelError,
    Molecule,
    MonomerAlphabet,
    Path,
    Rule,
    RuleSet,
    TreeNode,
    node_at,
)
from .formula import (
    BOOL,
    EnumSort,
    FALSE,
    Formula,
    IntSort,
    TRUE,
    Var,
    VarRegistry,
    bool_ref,
    conj,
    disj,
    enum_is,
    exactly_one,
    forall,
    iff,
    implies,
    int_eq,
    int_le,
    int_lt,
    not_,
    substitute,
)

K_EXPAND = "KExpand"
K_ABSENT = "KAbsent"
K_MATCH_ANS = "KMatchAns"
K_MATCH = "KMatch"
SITUATIONS = (K_EXPAND, K_ABSENT, K_MATCH_ANS, K_MATCH)
NONE_SUGAR = "SugNone"


class DecodeError(RuntimeError):
    """A solver model violated template correctness (an encoder bug)."""


@dataclass
class Variants:
    compartments: int = 1
    fast_slow: bool = False
    hard_ends: bool = False
    repeat: Optional[tuple[int, int]] = None  # (d0, r0)


class EncodingContext:
    """Sorts and the variable registry shared by one synthesis job."""

    def __init__(self, alphabet: MonomerAlphabet, n_rules: int,
                 variants: Optional[Variants] = None, namespace: str = ""):
        self.alphabet = alphabet
        self.variants = variants or Variants()
        self.registry = VarRegistry(namespace)
        # sort names are shared across contexts: sessions deduplicate sort
        # declarations by name, so contexts sharing one session must agree on
        # the alphabet and rule count (variable names carry the namespace)
        members = (NONE_SUGAR,) + tuple(f"Sug_{m.name}" for m in alphabet)
        self.sugar_sort = EnumSort("Sugar", members)
        self.situation_sort = EnumSort("Situation", SITUATIONS)
        self.n_rules = n_rules
        self.prod_counter = 0
        if n_rules > 0:
            self.rule_sort = EnumSort(
                "RuleId", tuple(f"R{i}" for i in range(n_rules))
            )
        else:
            self.rule_sort = None

    def sugar_member(self, name: str) -> str:
        return f"Sug_{name}"

    def sugar_name(self, member: str) -> Optional[str]:
        if member == NONE_SUGAR:
            return None
        return member[4:]


def full_tree_paths(depth: int, width: int) -> list[Path]:
    """All positions of the full tree, preorder, deterministic."""
    out: list[Path] = []

    def rec(path: Path):
        out.append(path)
        if len(path) < depth:
            for slot in range(1, width + 1):
                rec(path + (slot,))

    rec(())
    return out


# --------------------------------------------------------------------------
# rule sides
# --------------------------------------------------------------------------


class RuleTemplate:
    """Full tree of depth `depth`/width `width` of choice variables."""

    def __init__(self, ctx: EncodingContext, index: int, depth: int, width: int):
        self.index = index
        self.depth = depth
        self.width = width
        self.paths = full_tree_paths(depth, width)
        reg = ctx.registry
        tag = f"t{index}"
        self.sugar = {
            p: reg.make(f"{tag}_nu_{_ptag(p)}", ctx.sugar_sort) for p in self.paths
        }
        self.situation = {
            p: reg.make(f"{tag}_kappa_{_ptag(p)}", ctx.situation_sort)
            for p in self.paths
        }
        k = ctx.variants.compartments
        self.compartment = reg.make(f"{tag}_comp", IntSort(1, k))
        self.fast = (
            reg.make(f"{tag}_fast", BOOL) if ctx.variants.fast_slow else None
        )
        if ctx.variants.hard_ends:
            self.hard_end = {
                p: reg.make(f"{tag}_he_{_ptag(p)}", BOOL)
                for p in self.paths
                if p != ()
            }
        else:
            self.hard_end = {}

    # --- the generic rule-side interface ---

    def exists(self, path: Path) -> bool:
        return len(path) <= self.depth and all(1 <= s <= self.width for s in path)

    def child_slots(self, path: Path) -> int:
        return self.width if len(path) < self.depth else 0

    def label_op(self, path: Path):
        return self.sugar[path]

    def kappa_is(self, path: Path, member: str) -> Formula:
        return enum_is(self.situation[path], member)

    def hard_end_f(self, path: Path) -> Formula:
        var = self.hard_end.get(path)
        return bool_ref(var) if var is not None else FALSE

    def compartment_op(self):
        return self.compartment

    def fast_f(self) -> Formula:
        return bool_ref(self.fast) if self.fast is not None else FALSE

    def ell_range(self):
        return range(1, self.depth)

    def all_vars(self) -> list[Var]:
        out: list[Var] = []
        for p in self.paths:
            out.append(self.situation[p])
            out.append(self.sugar[p])
        out.append(self.compartment)
        if self.fast is not None:
            out.append(self.fast)
        for p in self.paths:
            if p in self.hard_end:
                out.append(self.hard_end[p])
        return out


class ConcreteRuleSide:
    """A concrete Rule wrapped as a rule side; every choice folds."""

    def __init__(self, ctx: EncodingContext, rule: Rule):
        self.ctx = ctx
        self.rule = rule
        self._hard_paths = {parent + (slot,) for parent, slot in rule.hard_ends}

    def exists(self, path: Path) -> bool:
        if node_at(self.rule.root, path) is not None:
            return True
        return path in self._hard_paths

    def child_slots(self, path: Path) -> int:
        node = node_at(self.rule.root, path)
        slots = len(node.children) if node is not None else 0
        for hp in self._hard_paths:
            if hp[:-1] == path:
                slots = max(slots, hp[-1])
        return slots

    def _node(self, path: Path):
        return node_at(self.rule.root, path)

    def label_op(self, path: Path):
        node = self._node(path)
        if node is None:
            return NONE_SUGAR
        return self.ctx.sugar_member(node.label)

    def kappa_is(self, path: Path, member: str) -> Formula:
        if self._node(path) is None:
            actual = K_ABSENT
        else:
            situation = self.rule.situation(path)
            actual = {
                "match": K_MATCH,
                "matchans": K_MATCH_ANS,
                "expand": K_EXPAND,
            }[situation]
        return TRUE if actual == member else FALSE

    def hard_end_f(self, path: Path) -> Formula:
        return TRUE if path in self._hard_paths else FALSE

    def compartment_op(self):
        return self.rule.compartment

    def fast_f(self) -> Formula:
        return TRUE if self.rule.fast else FALSE

    def ell_range(self):
        return (self.rule.expand_depth,)


RuleSide = Union[RuleTemplate, ConcreteRuleSide]


# --------------------------------------------------------------------------
# molecule sides
# --------------------------------------------------------------------------


class MoleculeTemplate:
    def __init__(self, ctx: EncodingContext, height: int, width: int):
        self.height = height
        self.width = width
        self.paths = full_tree_paths(height, width)
        reg = ctx.registry
        self.sugar = {
            p: reg.make(f"m_nu_{_ptag(p)}", ctx.sugar_sort) for p in self.paths
        }
        self._presence = {
            p: not_(enum_is(self.sugar[p], NONE_SUGAR)) for p in self.paths
        }
        self.symbolic = True

    def exists(self, path: Path) -> bool:
        return len(path) <= self.height and all(1 <= s <= self.width for s in path)

    def presence(self, path: Path) -> Formula:
        return self._presence[path]

    def label_op(self, path: Path):
        return self.sugar[path]

    def slots(self, path: Path) -> int:
        return self.width if len(path) < self.height else 0

    def positions(self) -> list[Path]:
        return self.paths


class ConcreteMoleculeSide:
    def __init__(self, ctx: EncodingContext, molecule: Molecule):
        self.ctx = ctx
        self.molecule = molecule
        self.paths = [p for p, _ in sorted(molecule.positions())]
        self.symbolic = False

    def exists(self, path: Path) -> bool:
        return self.molecule.node_at(path) is not None

    def presence(self, path: Path) -> Formula:
        return TRUE if self.exists(path) else FALSE

    def label_op(self, path: Path):
        node = self.molecule.node_at(path)
        return self.ctx.sugar_member(node.label)

    def slots(self, path: Path) -> int:
        node = self.molecule.node_at(path)
        return len(node.children) if node is not None else 0

    def positions(self) -> list[Path]:
        return self.paths


MoleculeSide = Union[MoleculeTemplate, ConcreteMoleculeSide]


def _ptag(path: Path) -> str:
    return "r" if not path else "".join(str(s) for s in path)


def _label_eq(a, b) -> Formula:
    return enum_is(a, b)


# --------------------------------------------------------------------------
# production variables
# --------------------------------------------------------------------------


class ProductionVars:
    """Fresh per encode_produce call: cuts, rule choice, timestamp (and the
    owning compartment when more than one exists) for every structural
    position of the molecule side."""

    def __init__(self, ctx: EncodingContext, mol: MoleculeSide):
        tag = f"p{ctx.prod_counter}"
        ctx.prod_counter += 1
        reg = ctx.registry
        paths = mol.positions()
        n = len(paths)
        self.paths = paths
        self.cuts = {p: reg.make(f"{tag}_cuts_{_ptag(p)}", BOOL) for p in paths}
        if ctx.rule_sort is not None:
            self.rmatch = {
                p: reg.make(f"{tag}_rm_{_ptag(p)}", ctx.rule_sort) for p in paths
            }
        else:
            self.rmatch = {}
        self.tau = {p: reg.make(f"{tag}_tau_{_ptag(p)}", IntSort(0, n)) for p in paths}
        k = ctx.variants.compartments
        if k > 1:
            self.comp = {
                p: reg.make(f"{tag}_comp_{_ptag(p)}", IntSort(1, k)) for p in paths
            }
        else:
            self.comp = {}

    def all_vars(self) -> list[Var]:
        out = []
        for p in self.paths:
            out.append(self.cuts[p])
            if self.rmatch:
                out.append(self.rmatch[p])
            out.append(self.tau[p])
            if self.comp:
                out.append(self.comp[p])
        return out


# --------------------------------------------------------------------------
# MatchTree / MatchCut / EncodeP / EncodeProduce
# --------------------------------------------------------------------------


class ProduceEncoder:
    def __init__(self, ctx: EncodingContext, mol: MoleculeSide, rules: list,
                 prod: ProductionVars):
        self.ctx = ctx
        self.mol = mol
        self.rules = rules
        self.prod = prod
        self.k = ctx.variants.compartments

    # -- time-order side conditions --

    def _before(self, path: Path, mark, rule: RuleSide,
                stage_exact: bool = False) -> Formula:
        """Node at `path` was present when the piece stamped `mark` landed.

        The positive (matching) occurrences use the linearized form, which is
        complete up to reordering of independent steps; negative occurrences
        (dominance) need the exact stage-consistent disjunction.
        """
        if self.k > 1 and stage_exact:
            comp = self.prod.comp[path]
            return disj(
                [
                    int_lt(comp, rule.compartment_op()),
                    conj(
                        [
                            int_eq(comp, rule.compartment_op()),
                            int_lt(self.prod.tau[path], mark),
                        ]
                    ),
                ]
            )
        parts = [int_lt(self.prod.tau[path], mark)]
        if self.k > 1:
            parts.append(int_le(self.prod.comp[path], rule.compartment_op()))
        return conj(parts)

    def _same_step(self, path: Path, mark, rule: RuleSide) -> Formula:
        """Node at `path` belongs to the piece stamped `mark`.

        Timestamps are shared exactly across a piece; together with pairwise
        distinct cut timestamps (under the non-monotonic variants) this pins
        every node to the step that added it, which the hard-end and
        dominance conditions rely on.
        """
        parts = [int_eq(self.prod.tau[path], mark)]
        if self.k > 1:
            parts.append(int_eq(self.prod.comp[path], rule.compartment_op()))
        return conj(parts)

    def _empty_at(self, path: Path, mark, rule: RuleSide) -> Formula:
        """The position is unoccupied at the stage-consistent time `mark`."""
        if not self.mol.exists(path):
            return TRUE
        later = not_(int_lt(self.prod.tau[path], mark))
        if self.k > 1:
            comp = self.prod.comp[path]
            later = disj(
                [
                    int_lt(rule.compartment_op(), comp),
                    conj([int_eq(comp, rule.compartment_op()), later]),
                ]
            )
        if self.mol.symbolic:
            return implies(self.mol.presence(path), later)
        return later

    # -- MatchTree --

    def match_tree(self, mpath: Path, rule: RuleSide, rpath: Path, mark,
                   is_expand: bool, stage_exact: bool = False) -> Formula:
        if not rule.exists(rpath):
            return TRUE
        if not self.mol.exists(mpath):
            return rule.kappa_is(rpath, K_ABSENT)
        if is_expand:
            tcons = self._same_step(mpath, mark, rule)
        else:
            tcons = self._before(mpath, mark, rule, stage_exact)
        core = implies(
            not_(rule.kappa_is(rpath, K_ABSENT)),
            conj([tcons, _label_eq(rule.label_op(rpath), self.mol.label_op(mpath))]),
        )
        parts = [core]
        hard = rule.hard_end_f(rpath)
        if hard is not FALSE:
            parts.append(implies(hard, self._empty_at(mpath, mark, rule)))
        # the union of both sides' slots: a rule child hanging beyond the
        # molecule's structure must be flagged absent
        slots = max(self.mol.slots(mpath), rule.child_slots(rpath))
        for j in range(1, slots + 1):
            parts.append(
                self.match_tree(
                    mpath + (j,), rule, rpath + (j,), mark, is_expand, stage_exact
                )
            )
        inner = conj(parts)
        if self.mol.symbolic:
            pres = self.mol.presence(mpath)
            return conj(
                [implies(pres, inner), implies(not_(pres), rule.kappa_is(rpath, K_ABSENT))]
            )
        return inner

    # -- MatchCut --

    def match_cut(self, mpath: Path, rule: RuleSide, rpath: Path,
                  parent_not_absent: Formula) -> Formula:
        if not self.mol.exists(mpath):
            return TRUE
        cuts = bool_ref(self.prod.cuts[mpath])
        if not rule.exists(rpath):
            inner = implies(parent_not_absent, cuts)
        else:
            absent = rule.kappa_is(rpath, K_ABSENT)
            parts = [implies(parent_not_absent, iff(absent, cuts))]
            for j in range(1, self.mol.slots(mpath) + 1):
                parts.append(
                    self.match_cut(mpath + (j,), rule, rpath + (j,), not_(absent))
                )
            inner = conj(parts)
        if self.mol.symbolic:
            return implies(self.mol.presence(mpath), inner)
        return inner

    # -- EncodeP --

    def encode_p(self, vpath: Path, rule: RuleSide, ell: int,
                 with_expand: bool = True, attach_override=None,
                 stage_exact: bool = False) -> Formula:
        """Rule applied with its expansion root landing at `vpath`, the rule
        root aligned `ell` levels up.  `with_expand=False` gives the
        applicability-only variant used for fast/slow dominance (the expansion
        content and cut pattern are not analyzed); `attach_override` supplies
        an alternative timestamp for it."""
        if len(vpath) < ell:
            return FALSE
        mark = attach_override if attach_override is not None else self.prod.tau[vpath]
        parts = []
        rpos: Path = ()
        for i in range(ell, 0, -1):
            apath = vpath[: len(vpath) - i]
            parts.append(rule.kappa_is(rpos, K_MATCH_ANS))
            parts.append(_label_eq(rule.label_op(rpos), self.mol.label_op(apath)))
            parts.append(self._before(apath, mark, rule, stage_exact))
            next_slot = vpath[len(vpath) - i]
            slots = max(self.mol.slots(apath), rule.child_slots(rpos))
            for j in range(1, slots + 1):
                if j == next_slot:
                    continue
                parts.append(
                    self.match_tree(
                        apath + (j,), rule, rpos + (j,), mark, False, stage_exact
                    )
                )
            rpos = rpos + (next_slot,)
            if not rule.exists(rpos):
                return FALSE
        parts.append(rule.kappa_is(rpos, K_EXPAND))
        if with_expand:
            parts.append(self.match_tree(vpath, rule, rpos, mark, True))
            parts.append(self.match_cut(vpath, rule, rpos, FALSE))
            if self.ctx.variants.fast_slow:
                parts.append(self._dominance_guard(vpath, rule, mark))
        return conj(parts)

    # -- fast/slow dominance --

    def _dominance_guard(self, vpath: Path, rule: RuleSide, mark) -> Formula:
        """A slow application is legal only when no fast rule of the same
        compartment could extend the molecule state at time `mark`."""
        blockers = []
        for other in self.rules:
            fast = other.fast_f()
            if fast is FALSE:
                continue
            sites = []
            for p in self.mol.positions():
                for slot in range(1, self.mol.slots(p) + 1):
                    site = p + (slot,)
                    for ell in other.ell_range():
                        pattern = self.encode_p(
                            site, other, ell, with_expand=False,
                            attach_override=mark, stage_exact=True,
                        )
                        if pattern is FALSE:
                            continue
                        cond = [pattern, self._empty_at(site, mark, rule)]
                        if self.mol.symbolic:
                            cond.append(self.mol.presence(p))
                        if self.k > 1:
                            cond.append(
                                int_eq(other.compartment_op(), rule.compartment_op())
                            )
                        sites.append(conj(cond))
            blockers.append(implies(fast, not_(disj(sites))))
        if not blockers:
            return TRUE
        return implies(not_(rule.fast_f()), conj(blockers))

    # -- EncodeProduce --

    def encode(self) -> Formula:
        mol, prod = self.mol, self.prod
        parts = []
        root = ()
        parts.append(int_eq(prod.tau[root], 0))
        parts.append(not_(bool_ref(prod.cuts[root])))
        if prod.comp:
            parts.append(int_eq(prod.comp[root], 1))
        for j in range(1, mol.slots(root) + 1):
            child = (j,)
            if not mol.exists(child):
                continue
            cut = bool_ref(prod.cuts[child])
            if mol.symbolic:
                parts.append(implies(mol.presence(child), cut))
            elif mol.exists(child):
                parts.append(cut)
        if not self.rules:
            # nothing can ever be added: no present child of the root
            for j in range(1, mol.slots(root) + 1):
                child = (j,)
                if mol.exists(child):
                    if mol.symbolic:
                        parts.append(not_(mol.presence(child)))
                    else:
                        parts.append(FALSE)
            return conj(parts)
        if self.ctx.variants.hard_ends or self.ctx.variants.fast_slow:
            # distinct pieces land at distinct times: the non-monotonic side
            # conditions are only exact against a strict interleaving
            positions = [p for p in mol.positions() if p != root]
            for i, u in enumerate(positions):
                for v in positions[i + 1 :]:
                    guard = [bool_ref(prod.cuts[u]), bool_ref(prod.cuts[v])]
                    if mol.symbolic:
                        guard.extend([mol.presence(u), mol.presence(v)])
                    parts.append(
                        implies(
                            conj(guard),
                            not_(int_eq(prod.tau[u], prod.tau[v])),
                        )
                    )
        for vpath in mol.positions():
            if vpath == root:
                continue
            for t_idx, rule in enumerate(self.rules):
                body = disj(
                    [self.encode_p(vpath, rule, ell) for ell in rule.ell_range()]
                )
                guard = [
                    enum_is(self.prod.rmatch[vpath], f"R{t_idx}"),
                    bool_ref(prod.cuts[vpath]),
                ]
                if mol.symbolic:
                    guard.append(mol.presence(vpath))
                parts.append(implies(conj(guard), body))
        return conj(parts)


def encode_produce(ctx: EncodingContext, mol: MoleculeSide, rules: list,
                   prod: Optional[ProductionVars] = None
                   ) -> tuple[Formula, ProductionVars]:
    if prod is None:
        prod = ProductionVars(ctx, mol)
    encoder = ProduceEncoder(ctx, mol, rules, prod)
    return encoder.encode(), prod


# --------------------------------------------------------------------------
# template factories and correctness conditions
# --------------------------------------------------------------------------


def make_rule_templates(ctx: EncodingContext, depth: int, width: int, count: int
                        ) -> list[RuleTemplate]:
    if depth < 2 and count > 0:
        raise ValueError("rule depth must be at least 2")
    return [RuleTemplate(ctx, i, depth, width) for i in range(count)]


def make_molecule_template(ctx: EncodingContext, height: int, width: int
                           ) -> MoleculeTemplate:
    return MoleculeTemplate(ctx, height, width)


def rule_template_correctness(ctx: EncodingContext, templates: list[RuleTemplate]
                              ) -> Formula:
    alphabet = ctx.alphabet
    parts = []
    for t in templates:
        kappa, nu = t.situation, t.sugar
        for p in t.paths:
            absent = enum_is(kappa[p], K_ABSENT)
            # 1. present nodes carry a sugar
            parts.append(implies(not_(absent), not_(enum_is(nu[p], NONE_SUGAR))))
            internal = len(p) < t.depth
            if internal:
                for m in alphabet:
                    # 2. slots beyond the label's arity are absent
                    for i in range(m.arity + 1, t.width + 1):
                        parts.append(
                            implies(
                                enum_is(nu[p], ctx.sugar_member(m.name)),
                                enum_is(kappa[p + (i,)], K_ABSENT),
                            )
                        )
                for i in range(1, t.width + 1):
                    child = kappa[p + (i,)]
                    # 3. present child forces present parent
                    parts.append(
                        implies(not_(enum_is(child, K_ABSENT)), not_(absent))
                    )
                    # 4./5. situations propagate downward
                    parts.append(
                        implies(
                            enum_is(kappa[p], K_EXPAND),
                            disj([enum_is(child, K_EXPAND), enum_is(child, K_ABSENT)]),
                        )
                    )
                    parts.append(
                        implies(
                            enum_is(kappa[p], K_MATCH),
                            disj([enum_is(child, K_MATCH), enum_is(child, K_ABSENT)]),
                        )
                    )
            # 6. an ancestor-path node passes to exactly one child
            options = []
            if internal:
                options = [
                    disj(
                        [
                            enum_is(kappa[p + (i,)], K_MATCH_ANS),
                            enum_is(kappa[p + (i,)], K_EXPAND),
                        ]
                    )
                    for i in range(1, t.width + 1)
                ]
            parts.append(implies(enum_is(kappa[p], K_MATCH_ANS), exactly_one(options)))
            if not internal and p:
                # the expansion root must sit strictly above the leaves so an
                # application can always be anchored (depth in [1, d))
                parts.append(
                    implies(
                        enum_is(kappa[p[:-1]], K_MATCH_ANS),
                        not_(enum_is(kappa[p], K_EXPAND)),
                    )
                )
            if ctx.variants.hard_ends and p != ():
                he = t.hard_end[p]
                parent_absent = enum_is(kappa[p[:-1]], K_ABSENT)
                parts.append(
                    implies(bool_ref(he), conj([absent, not_(parent_absent)]))
                )
        # anchor: the root starts the ancestor path, and something is added
        parts.append(enum_is(kappa[()], K_MATCH_ANS))
        parts.append(disj([enum_is(kappa[p], K_EXPAND) for p in t.paths]))
    return conj(parts)


def _neq(ctx: EncodingContext, mt: MoleculeTemplate, path: Path,
         node: Optional[TreeNode]) -> Formula:
    """The template differs from the observed subtree: a co-present label
    mismatch, or a template node where the molecule has none."""
    if not mt.exists(path):
        return FALSE  # template cannot reach deeper than its height
    nu = mt.sugar[path]
    if node is None:
        return not_(enum_is(nu, NONE_SUGAR))
    mismatch = conj(
        [
            not_(enum_is(nu, NONE_SUGAR)),
            not_(enum_is(nu, ctx.sugar_member(node.label))),
        ]
    )
    branches = [mismatch]
    for i in range(1, mt.slots(path) + 1):
        child = node.child(i) if i <= len(node.children) else None
        branches.append(_neq(ctx, mt, path + (i,), child))
    return disj(branches)


def mol_template_correctness(ctx: EncodingContext, mt: MoleculeTemplate,
                             observed: list[Molecule]) -> Formula:
    parts = []
    for p in mt.paths:
        if len(p) < mt.height:
            for i in range(1, mt.width + 1):
                # 1. present children force present parents
                parts.append(
                    implies(mt.presence(p + (i,)), mt.presence(p))
                )
            for m in ctx.alphabet:
                # 2. slots beyond the arity stay empty
                for i in range(m.arity + 1, mt.width + 1):
                    parts.append(
                        implies(
                            enum_is(mt.sugar[p], ctx.sugar_member(m.name)),
                            enum_is(mt.sugar[p + (i,)], NONE_SUGAR),
                        )
                    )
    # the counterexample is a real produced molecule, not a bare seed
    parts.append(mt.presence(()))
    parts.append(
        disj(
            [
                mt.presence((i,))
                for i in range(1, mt.width + 1)
                if mt.exists((i,))
            ]
        )
    )
    # 3. it differs from every observed molecule (prefixes do not count)
    for m in observed:
        parts.append(_neq(ctx, mt, (), m.root))
    if ctx.variants.repeat is not None:
        parts.append(repeat_rejection(ctx, mt, observed))
    return conj(parts)


# --------------------------------------------------------------------------
# repeats variant
# --------------------------------------------------------------------------


def _exact_template_vs_tree(ctx, mt, tpath: Path, node: Optional[TreeNode],
                            limit: int) -> list[Formula]:
    """Template subtree at `tpath` equals the concrete subtree `node`."""
    parts = []
    if not mt.exists(tpath):
        return [FALSE] if node is not None else []
    if node is None:
        parts.append(enum_is(mt.sugar[tpath], NONE_SUGAR))
        # all deeper template positions are absent via parent-presence
        return parts
    parts.append(enum_is(mt.sugar[tpath], ctx.sugar_member(node.label)))
    for i in range(1, max(mt.slots(tpath), len(node.children)) + 1):
        child = node.child(i)
        parts.extend(_exact_template_vs_tree(ctx, mt, tpath + (i,), child, limit))
    return parts


def _exact_template_pair(ctx, mt, a: Path, b: Path, stop: Path) -> list[Formula]:
    """Template subtree at `a` equals the one at `b`; traversal of the first
    stops at the absolute position `stop`."""
    if a == stop:
        return []
    a_in = mt.exists(a)
    b_in = mt.exists(b)
    if not a_in and not b_in:
        return []
    if not a_in:
        return [enum_is(mt.sugar[b], NONE_SUGAR)]
    if not b_in:
        return [enum_is(mt.sugar[a], NONE_SUGAR)]
    parts = [enum_is(mt.sugar[a], mt.sugar[b])]
    for i in range(1, mt.width + 1):
        parts.extend(_exact_template_pair(ctx, mt, a + (i,), b + (i,), stop))
    return parts


def _outside_equality(ctx, mt, anchor: Path, mol: Molecule) -> list[Formula]:
    parts = []
    for p in mt.paths:
        if p[: len(anchor)] == anchor:
            continue  # at or below the anchor: exempt
        node = mol.node_at(p)
        if node is None:
            parts.append(enum_is(mt.sugar[p], NONE_SUGAR))
        else:
            parts.append(enum_is(mt.sugar[p], ctx.sugar_member(node.label)))
    return parts


def repeat_rejection(ctx: EncodingContext, mt: MoleculeTemplate,
                     observed: list[Molecule]) -> Formula:
    """Molecules equal to an observation with stacked repetitions inserted are
    not counterexamples."""
    d0, r0 = ctx.variants.repeat
    if d0 * r0 > mt.height:
        raise ValueError("repeat pattern cannot fit the molecule template")
    parts = []
    for mol in observed:
        for anchor, _ in sorted(mol.positions()):
            if not mt.exists(anchor):
                continue
            for depth in range(1, d0 + 1):
                for ipath in _index_paths(mt.width, depth):
                    for reps in range(1, r0 + 1):
                        heads = [anchor + ipath * i for i in range(reps + 1)]
                        if not mt.exists(heads[-1]):
                            break
                        match = []
                        match.extend(_outside_equality(ctx, mt, anchor, mol))
                        for i in range(reps):
                            match.extend(
                                _exact_template_pair(
                                    ctx, mt, heads[i], heads[i + 1], heads[i + 1]
                                )
                            )
                        match.extend(
                            _exact_template_vs_tree(
                                ctx, mt, heads[-1], mol.node_at(anchor), mt.height
                            )
                        )
                        parts.append(not_(conj(match)))
    return conj(parts)


def _index_paths(width: int, depth: int):
    if depth == 0:
        yield ()
        return
    for head in range(1, width + 1):
        for rest in _index_paths(width, depth - 1):
            yield (head,) + rest


# --------------------------------------------------------------------------
# fast/slow: applicability of a template rule to a concrete molecule
# --------------------------------------------------------------------------


def template_rule_applicable(ctx: EncodingContext, t: RuleTemplate,
                             mol: Molecule) -> Formula:
    """Some empty slot of `mol` admits an application of template `t`
    (static: the molecule is a finished value, no timestamps involved)."""
    sites = []
    for p, node in sorted(mol.positions()):
        for slot in range(1, len(node.children) + 1):
            if node.children[slot - 1] is not None:
                continue
            site = p + (slot,)
            for ell in t.ell_range():
                if len(site) < ell:
                    continue
                parts = []
                rpos: Path = ()
                ok = True
                for i in range(ell, 0, -1):
                    apath = site[: len(site) - i]
                    anode = mol.node_at(apath)
                    parts.append(t.kappa_is(rpos, K_MATCH_ANS))
                    parts.append(
                        _label_eq(t.label_op(rpos), ctx.sugar_member(anode.label))
                    )
                    next_slot = site[len(site) - i]
                    for j in range(1, len(anode.children) + 1):
                        if j == next_slot:
                            continue
                        parts.extend(
                            _static_match(ctx, t, rpos + (j,), mol, apath + (j,))
                        )
                    rpos = rpos + (next_slot,)
                    if not t.exists(rpos):
                        ok = False
                        break
                if not ok:
                    continue
                parts.append(t.kappa_is(rpos, K_EXPAND))
                sites.append(conj(parts))
    return disj(sites)


def _static_match(ctx, t: RuleTemplate, rpath: Path, mol: Molecule,
                  mpath: Path) -> list[Formula]:
    if not t.exists(rpath):
        return []
    node = mol.node_at(mpath)
    if node is None:
        # an absent molecule slot satisfies any hard end
        return [t.kappa_is(rpath, K_ABSENT)]
    out = [
        implies(
            not_(t.kappa_is(rpath, K_ABSENT)),
            _label_eq(t.label_op(rpath), ctx.sugar_member(node.label)),
        )
    ]
    if ctx.variants.hard_ends:
        out.append(not_(t.hard_end_f(rpath)))  # occupied position: no hard end
    for i in range(1, max(len(node.children), t.child_slots(rpath)) + 1):
        out.extend(_static_match(ctx, t, rpath + (i,), mol, mpath + (i,)))
    return out


# --------------------------------------------------------------------------
# symmetry breaking
# --------------------------------------------------------------------------


def _template_vector(t: RuleTemplate) -> list:
    vec = []
    for p in t.paths:
        vec.append(t.situation[p])
        vec.append(t.sugar[p])
    vec.append(t.compartment)
    if t.fast is not None:
        vec.append(t.fast)
    for p in t.paths:
        if p in t.hard_end:
            vec.append(t.hard_end[p])
    return vec


def _var_lt(a: Var, b: Var) -> Formula:
    if isinstance(a.sort, EnumSort):
        members = a.sort.members
        options = []
        for i, m in enumerate(members[:-1]):
            later = disj([enum_is(b, mm) for mm in members[i + 1 :]])
            options.append(conj([enum_is(a, m), later]))
        return disj(options)
    if isinstance(a.sort, IntSort):
        return int_lt(a, b)
    return conj([not_(bool_ref(a)), bool_ref(b)])


def _var_eq(a: Var, b: Var) -> Formula:
    if isinstance(a.sort, EnumSort):
        return enum_is(a, b)
    if isinstance(a.sort, IntSort):
        return int_eq(a, b)
    return iff(bool_ref(a), bool_ref(b))


def symmetry_break(templates: list[RuleTemplate]) -> Formula:
    """Lexicographic non-strict order over adjacent template variable
    vectors, so permutations of one rule set admit exactly one model."""
    parts = []
    for a, b in zip(templates, templates[1:]):
        va, vb = _template_vector(a), _template_vector(b)
        tail: Formula = TRUE
        for x, y in zip(reversed(va), reversed(vb)):
            tail = disj([_var_lt(x, y), conj([_var_eq(x, y), tail])])
        parts.append(tail)
    return conj(parts)


# --------------------------------------------------------------------------
# decoding models
# --------------------------------------------------------------------------


def decode_rules(ctx: EncodingContext, model, templates: list[RuleTemplate]
                 ) -> RuleSet:
    rules = []
    for t in templates:
        rules.append(_decode_rule(ctx, model, t))
    return RuleSet(tuple(rules), compartment_count=ctx.variants.compartments)


def _decode_rule(ctx: EncodingContext, model, t: RuleTemplate) -> Rule:
    kappa = {p: model.value(t.situation[p]) for p in t.paths}
    nu = {p: model.value(t.sugar[p]) for p in t.paths}
    if kappa[()] == K_ABSENT:
        raise DecodeError("rule template decoded to an absent root")

    def build(path: Path) -> TreeNode:
        label = ctx.sugar_name(nu[path])
        if label is None:
            raise DecodeError(f"present node {path} without a sugar")
        arity = ctx.alphabet.arity(label)
        kids = []
        for i in range(1, arity + 1):
            child = path + (i,)
            if t.exists(child) and kappa[child] != K_ABSENT:
                kids.append(build(child))
            else:
                kids.append(None)
        for i in range(arity + 1, t.width + 1):
            child = path + (i,)
            if t.exists(child) and kappa[child] != K_ABSENT:
                raise DecodeError(f"child beyond arity at {child}")
        return TreeNode(label, tuple(kids))

    root = build(())
    expand_path: Optional[Path] = None
    pos: Path = ()
    while True:
        if kappa[pos] == K_EXPAND:
            expand_path = pos
            break
        if kappa[pos] != K_MATCH_ANS:
            raise DecodeError(f"broken ancestor path at {pos}: {kappa[pos]}")
        nxt = None
        for i in range(1, t.width + 1):
            child = pos + (i,)
            if t.exists(child) and kappa[child] in (K_MATCH_ANS, K_EXPAND):
                if nxt is not None:
                    raise DecodeError(f"two ancestor-path children under {pos}")
                nxt = child
        if nxt is None:
            raise DecodeError(f"ancestor path dead-ends at {pos}")
        pos = nxt
    hard_ends = set()
    for p in t.paths:
        if p and p in t.hard_end and model.value(t.hard_end[p]):
            if kappa[p] != K_ABSENT or kappa[p[:-1]] == K_ABSENT:
                raise DecodeError(f"hard end on invalid position {p}")
            hard_ends.add((p[:-1], p[-1]))
    compartment = model.value(t.compartment)
    fast = bool(model.value(t.fast)) if t.fast is not None else False
    try:
        rule = Rule(root, expand_path, frozenset(hard_ends), compartment, fast)
        from .core import validate_rule

        validate_rule(rule, ctx.alphabet)
    except ModelError as exc:
        raise DecodeError(str(exc)) from exc
    return rule


def decode_molecule(ctx: EncodingContext, model, mt: MoleculeTemplate) -> Molecule:
    nu = {p: model.value(mt.sugar[p]) for p in mt.paths}

    def build(path: Path) -> TreeNode:
        label = ctx.sugar_name(nu[path])
        if label is None:
            raise DecodeError(f"present molecule node {path} without a sugar")
        arity = ctx.alphabet.arity(label)
        kids = []
        for i in range(1, arity + 1):
            child = path + (i,)
            if mt.exists(child) and ctx.sugar_name(nu[child]) is not None:
                kids.append(build(child))
            else:
                kids.append(None)
        for i in range(arity + 1, mt.width + 1):
            child = path + (i,)
            if mt.exists(child) and ctx.sugar_name(nu[child]) is not None:
                raise DecodeError(f"molecule child beyond arity at {child}")
        return TreeNode(label, tuple(kids))

    if ctx.sugar_name(nu[()]) is None:
        raise DecodeError("decoded molecule has an absent root")
    return Molecule(build(()))


# --------------------------------------------------------------------------
# negative constraints for rejected counterexamples
# --------------------------------------------------------------------------


@dataclass
class NegativeConstraint:
    """What to assert after rejecting counterexample `molecule`."""

    universal: Formula
    instance: Formula
    helper: Optional[Formula] = None


def negative_constraint(ctx: EncodingContext, templates: list[RuleTemplate],
                        molecule: Molecule, witness: Optional[dict],
                        fast_escape: bool = False) -> NegativeConstraint:
    """Build `forall prod-vars. not EncodeProduce(molecule, templates)` plus
    the eager instantiation at the counterexample's witness values.

    With `fast_escape` (the fast/slow prefix adjustment) the rejection is
    conditional: either some fast rule can extend the molecule, or it must be
    unproducible.  The condition is threaded through an auxiliary Boolean so
    the universal stays in a directly assertable position.
    """
    mol_side = ConcreteMoleculeSide(ctx, molecule)
    rule_sides = list(templates)
    body, prod = encode_produce(ctx, mol_side, rule_sides)
    quantified = forall(prod.all_vars(), not_(body))
    instance = TRUE
    if witness is not None:
        binding = _witness_binding(prod, witness)
        instance = not_(substitute(body, binding))
    helper = None
    if fast_escape:
        escape = disj(
            [
                conj([t.fast_f(), template_rule_applicable(ctx, t, molecule)])
                for t in templates
            ]
        )
        gate = ctx.registry.make("nc_gate", BOOL)
        helper = disj([escape, bool_ref(gate)])
        quantified = forall(
            prod.all_vars(), implies(bool_ref(gate), not_(body))
        )
        if witness is not None:
            binding = _witness_binding(prod, witness)
            instance = implies(bool_ref(gate), not_(substitute(body, binding)))
    return NegativeConstraint(quantified, instance, helper)


def _witness_binding(prod: ProductionVars, witness: dict) -> dict:
    binding = {}
    for p in prod.paths:
        values = witness.get(p)
        if values is None:
            continue
        cuts_v, rmatch_v, tau_v, comp_v = values
        binding[prod.cuts[p]] = cuts_v
        if prod.rmatch:
            binding[prod.rmatch[p]] = rmatch_v
        binding[prod.tau[p]] = tau_v
        if prod.comp:
            binding[prod.comp[p]] = comp_v
    return binding
