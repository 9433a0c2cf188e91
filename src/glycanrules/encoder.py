"""Constraint construction: templates, produce-encodings, variants, decoding.

Every rule is encoded as a `RuleTemplate`, a full tree with a choice at each
position.  The synthesis query's templates choose through solver variables; a
concrete rule is a template with its choices fixed to constants
(`ConcreteRuleSide`), which the formula constructors fold.  So the one
encoder serves both the synthesis query and the concrete/concrete
equivalence checks.  A *molecule side* is always concrete: the synthesis loop
encodes the observed molecules and the counterexamples
`producer.first_extra` returns.

Node situations inside a rule tree: `KMatchAns` on the path from the root to
the parent of the expansion root, `KExpand` on the added part, `KMatch` for
side pattern, `KAbsent` for unused template positions.

`ProduceEncoder.encode_p` is the one place a rule's ancestor path and side
pattern are matched against a molecule.  It matches them at a *mark*, one of
three:

- the step's own timestamp, when the rule produces a piece of the molecule;
- another step's time, when the fast/slow dominance guard asks whether a fast
  rule could have extended the molecule as it stood then;
- `FINISHED`, when the fast escape of a rejected stuck prefix asks whether a
  fast rule can extend the finished molecule.  Every node is present then,
  and a position is empty exactly when the molecule has no node there.

`ProduceEncoder.applicable` asks the last two questions over every empty slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    ModelError,
    Molecule,
    MonomerAlphabet,
    Path,
    Rule,
    RuleSet,
    TreeNode,
    tree_positions,
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
# the mark of the finished molecule (see the module docstring)
FINISHED = object()


class DecodeError(RuntimeError):
    """A solver model violated template correctness (an encoder bug)."""


@dataclass
class Variants:
    fast_slow: bool = False
    hard_ends: bool = False
    repeat: Optional[tuple[int, int]] = None  # (d0, r0)


class EncodingContext:
    """Sorts and the variable registry shared by one synthesis job;
    `compartments` is the budget of stages a rule may be placed in."""

    def __init__(self, alphabet: MonomerAlphabet, n_rules: int,
                 variants: Optional[Variants] = None, namespace: str = "",
                 compartments: int = 1):
        self.alphabet = alphabet
        self.variants = variants or Variants()
        self.compartments = compartments
        self.registry = VarRegistry(namespace)
        # sort names are shared across contexts: sessions deduplicate sort
        # declarations by name, so contexts sharing one session must agree on
        # the alphabet and rule count (variable names carry the namespace)
        members = (NONE_SUGAR,) + tuple(f"Sug_{m.name}" for m in alphabet)
        self.sugar_sort = EnumSort("Sugar", members)
        self.situation_sort = EnumSort("Situation", SITUATIONS)
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
# rule templates
# --------------------------------------------------------------------------


class RuleTemplate:
    """A rule as the full tree of depth `depth`/width `width`, with a choice
    at every position (its situation and sugar, and below the root whether
    it is a hard end) and for the whole rule (its compartment and speed).

    A rule being synthesized chooses through solver variables
    (`make_rule_templates`).  A concrete rule is a template with its choices
    fixed (`ConcreteRuleSide`): members, Booleans and an int, which the
    formula constructors fold.  A position with no hard end choice is missing
    from `hard_end`; `fast` is None when speeds are not modeled."""

    def __init__(self, depth: int, width: int, situation: dict, sugar: dict,
                 hard_end: dict, compartment, fast):
        self.depth = depth
        self.width = width
        self.paths = list(situation)  # the full tree's positions, preorder
        self.situation = situation
        self.sugar = sugar
        self.hard_end = hard_end
        self.compartment = compartment
        self.fast = fast

    def exists(self, path: Path) -> bool:
        return len(path) <= self.depth and all(1 <= s <= self.width for s in path)

    def child_slots(self, path: Path) -> int:
        return self.width if len(path) < self.depth else 0

    def hard_end_f(self, path: Path) -> Formula:
        return _fold(self.hard_end.get(path))

    def fast_f(self) -> Formula:
        return _fold(self.fast)

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


def _fold(choice) -> Formula:
    """A Boolean choice as a formula: the variable's reference, or the
    constant it is fixed to (no choice at all is false)."""
    if isinstance(choice, Var):
        return bool_ref(choice)
    return TRUE if choice else FALSE


def _variable_template(ctx: EncodingContext, index: int, depth: int,
                       width: int) -> RuleTemplate:
    """Template `index` of a synthesis query: every choice a fresh variable."""
    paths = full_tree_paths(depth, width)
    reg = ctx.registry
    tag = f"t{index}"
    sugar = {p: reg.make(f"{tag}_nu_{_ptag(p)}", ctx.sugar_sort) for p in paths}
    situation = {
        p: reg.make(f"{tag}_kappa_{_ptag(p)}", ctx.situation_sort) for p in paths
    }
    compartment = reg.make(f"{tag}_comp", IntSort(1, ctx.compartments))
    fast = reg.make(f"{tag}_fast", BOOL) if ctx.variants.fast_slow else None
    hard_end = {}
    if ctx.variants.hard_ends:
        hard_end = {p: reg.make(f"{tag}_he_{_ptag(p)}", BOOL) for p in paths if p}
    return RuleTemplate(depth, width, situation, sugar, hard_end, compartment, fast)


_SITUATION_MEMBER = {"match": K_MATCH, "matchans": K_MATCH_ANS, "expand": K_EXPAND}


def ConcreteRuleSide(ctx: EncodingContext, rule: Rule) -> RuleTemplate:
    """`rule` as a template with its choices fixed, no larger than the rule
    needs: deep enough for its nodes and hard ends and for its expansion root
    to sit above the leaves (`ell_range`), as wide as its widest node or hard
    slot.  Every position where the rule has no node is absent."""
    nodes = dict(tree_positions(rule.root))
    hard = [parent + (slot,) for parent, slot in rule.hard_ends]
    depth = max([len(p) for p in [*nodes, *hard]] + [rule.expand_depth + 1])
    width = max([len(n.children) for n in nodes.values()] + [p[-1] for p in hard])
    situation, sugar = {}, {}
    for p in full_tree_paths(depth, width):
        if p in nodes:
            situation[p] = _SITUATION_MEMBER[rule.situation(p)]
            sugar[p] = ctx.sugar_member(nodes[p].label)
        else:
            situation[p], sugar[p] = K_ABSENT, NONE_SUGAR
    return RuleTemplate(depth, width, situation, sugar, dict.fromkeys(hard, True),
                        rule.compartment, rule.fast)


# --------------------------------------------------------------------------
# molecule sides
# --------------------------------------------------------------------------


class ConcreteMoleculeSide:
    def __init__(self, ctx: EncodingContext, molecule: Molecule):
        self.ctx = ctx
        self.molecule = molecule
        self.paths = [p for p, _ in sorted(molecule.positions())]

    def exists(self, path: Path) -> bool:
        return self.molecule.node_at(path) is not None

    def label_op(self, path: Path):
        node = self.molecule.node_at(path)
        return self.ctx.sugar_member(node.label)

    def slots(self, path: Path) -> int:
        node = self.molecule.node_at(path)
        return len(node.children) if node is not None else 0


def _ptag(path: Path) -> str:
    return "r" if not path else "".join(str(s) for s in path)


# --------------------------------------------------------------------------
# production variables
# --------------------------------------------------------------------------


class ProductionVars:
    """Fresh per encode_produce call: a cut, a timestamp (and the owning
    compartment when more than one exists) for every position of the
    molecule, and a rule choice for every position but the root, which no
    rule adds."""

    def __init__(self, ctx: EncodingContext, mol: ConcreteMoleculeSide):
        tag = f"p{ctx.prod_counter}"
        ctx.prod_counter += 1
        reg = ctx.registry
        paths = mol.paths
        n = len(paths)
        self.paths = paths
        self.cuts = {p: reg.make(f"{tag}_cuts_{_ptag(p)}", BOOL) for p in paths}
        if ctx.rule_sort is not None:
            self.rmatch = {
                p: reg.make(f"{tag}_rm_{_ptag(p)}", ctx.rule_sort)
                for p in paths if p
            }
        else:
            self.rmatch = {}
        self.tau = {p: reg.make(f"{tag}_tau_{_ptag(p)}", IntSort(0, n)) for p in paths}
        k = ctx.compartments
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
            if p in self.rmatch:
                out.append(self.rmatch[p])
            out.append(self.tau[p])
            if self.comp:
                out.append(self.comp[p])
        return out


# --------------------------------------------------------------------------
# MatchTree / MatchCut / EncodeP / EncodeProduce
# --------------------------------------------------------------------------


class ProduceEncoder:
    def __init__(self, ctx: EncodingContext, mol: ConcreteMoleculeSide,
                 rules: list):
        self.ctx = ctx
        self.mol = mol
        self.rules = rules
        self.prod = ProductionVars(ctx, mol)
        self.k = ctx.compartments

    # -- time-order side conditions --

    def _before(self, path: Path, mark, rule: RuleTemplate,
                stage_exact: bool = False) -> Formula:
        """Node at `path` was present when the piece stamped `mark` landed.

        The positive (matching) occurrences use the linearized form, which is
        complete up to reordering of independent steps; negative occurrences
        (dominance) need the exact stage-consistent disjunction.  Every node
        is present at FINISHED.
        """
        if mark is FINISHED:
            return TRUE
        if self.k > 1 and stage_exact:
            comp = self.prod.comp[path]
            return disj(
                [
                    int_lt(comp, rule.compartment),
                    conj(
                        [
                            int_eq(comp, rule.compartment),
                            int_lt(self.prod.tau[path], mark),
                        ]
                    ),
                ]
            )
        parts = [int_lt(self.prod.tau[path], mark)]
        if self.k > 1:
            parts.append(int_le(self.prod.comp[path], rule.compartment))
        return conj(parts)

    def _same_step(self, path: Path, mark, rule: RuleTemplate) -> Formula:
        """Node at `path` belongs to the piece stamped `mark`.

        Timestamps are shared exactly across a piece; together with pairwise
        distinct cut timestamps (under the non-monotonic variants) this pins
        every node to the step that added it, which the hard-end and
        dominance conditions rely on.
        """
        parts = [int_eq(self.prod.tau[path], mark)]
        if self.k > 1:
            parts.append(int_eq(self.prod.comp[path], rule.compartment))
        return conj(parts)

    def _empty_at(self, path: Path, mark, rule: RuleTemplate) -> Formula:
        """The position is unoccupied at the stage-consistent time `mark`;
        at FINISHED, exactly when the molecule has no node there."""
        if not self.mol.exists(path):
            return TRUE
        if mark is FINISHED:
            return FALSE
        later = not_(int_lt(self.prod.tau[path], mark))
        if self.k > 1:
            comp = self.prod.comp[path]
            later = disj(
                [
                    int_lt(rule.compartment, comp),
                    conj([int_eq(comp, rule.compartment), later]),
                ]
            )
        return later

    # -- MatchTree --

    def match_tree(self, mpath: Path, rule: RuleTemplate, rpath: Path, mark,
                   is_expand: bool, stage_exact: bool = False) -> Formula:
        if not rule.exists(rpath):
            return TRUE
        if not self.mol.exists(mpath):
            return enum_is(rule.situation[rpath], K_ABSENT)
        if is_expand:
            tcons = self._same_step(mpath, mark, rule)
        else:
            tcons = self._before(mpath, mark, rule, stage_exact)
        core = implies(
            not_(enum_is(rule.situation[rpath], K_ABSENT)),
            conj([tcons, enum_is(rule.sugar[rpath], self.mol.label_op(mpath))]),
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
        return conj(parts)

    # -- MatchCut --

    def match_cut(self, mpath: Path, rule: RuleTemplate, rpath: Path,
                  parent_not_absent: Formula) -> Formula:
        if not self.mol.exists(mpath):
            return TRUE
        cuts = bool_ref(self.prod.cuts[mpath])
        if not rule.exists(rpath):
            return implies(parent_not_absent, cuts)
        absent = enum_is(rule.situation[rpath], K_ABSENT)
        parts = [implies(parent_not_absent, iff(absent, cuts))]
        for j in range(1, self.mol.slots(mpath) + 1):
            parts.append(
                self.match_cut(mpath + (j,), rule, rpath + (j,), not_(absent))
            )
        return conj(parts)

    # -- EncodeP --

    def encode_p(self, vpath: Path, rule: RuleTemplate, ell: int,
                 block_at=None) -> Formula:
        """Rule applied with its expansion root landing at `vpath`, the rule
        root aligned `ell` levels up.  The mark the pattern is matched at is
        one of three:

        - no `block_at`: the step's own timestamp `tau[vpath]`; the expansion
          content must be the piece of that step and the cuts its boundary;
        - `block_at` another step's time: applicability only, for fast/slow
          dominance; the pattern is matched, stage-exactly, against the
          molecule as it stood at that time, and the expansion content and
          cut pattern are not analyzed;
        - `block_at=FINISHED`: applicability only, against the finished
          molecule, for the fast escape of a rejected stuck prefix."""
        if len(vpath) < ell:
            return FALSE
        stage_exact = block_at is not None
        mark = self.prod.tau[vpath] if block_at is None else block_at
        parts = []
        rpos: Path = ()
        for i in range(ell, 0, -1):
            apath = vpath[: len(vpath) - i]
            parts.append(enum_is(rule.situation[rpos], K_MATCH_ANS))
            parts.append(enum_is(rule.sugar[rpos], self.mol.label_op(apath)))
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
        parts.append(enum_is(rule.situation[rpos], K_EXPAND))
        if block_at is None:
            parts.append(self.match_tree(vpath, rule, rpos, mark, True))
            parts.append(self.match_cut(vpath, rule, rpos, FALSE))
            if self.ctx.variants.fast_slow:
                parts.append(self._dominance_guard(rule, mark))
        return conj(parts)

    # -- fast/slow applicability and dominance --

    def applicable(self, other: RuleTemplate, mark,
                   rule: Optional[RuleTemplate] = None) -> Formula:
        """`other` can extend the molecule as it stands at `mark`: some
        child slot empty then admits its pattern.  `rule` is the slow rule
        stamped `mark`, whose compartment `other` must share; at FINISHED
        there is none."""
        sites = []
        for p in self.mol.paths:
            for slot in range(1, self.mol.slots(p) + 1):
                site = p + (slot,)
                empty = self._empty_at(site, mark, rule)
                if empty is FALSE:
                    continue
                for ell in other.ell_range():
                    pattern = self.encode_p(site, other, ell, block_at=mark)
                    if pattern is FALSE:
                        continue
                    cond = [pattern, empty]
                    if rule is not None and self.k > 1:
                        cond.append(
                            int_eq(other.compartment, rule.compartment)
                        )
                    sites.append(conj(cond))
        return disj(sites)

    def _dominance_guard(self, rule: RuleTemplate, mark) -> Formula:
        """A slow application is legal only when no fast rule of the same
        compartment could extend the molecule state at time `mark`."""
        blockers = [
            implies(other.fast_f(), not_(self.applicable(other, mark, rule)))
            for other in self.rules
            if other.fast_f() is not FALSE
        ]
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
            if mol.exists((j,)):
                parts.append(bool_ref(prod.cuts[(j,)]))
        if not self.rules:
            # nothing can ever be added: only a bare seed is produced
            return conj(parts) if len(mol.paths) == 1 else FALSE
        positions = mol.paths[1:]  # preorder: the root comes first
        if self.ctx.variants.hard_ends or self.ctx.variants.fast_slow:
            # distinct pieces land at distinct times: the non-monotonic side
            # conditions are only exact against a strict interleaving
            for i, u in enumerate(positions):
                for v in positions[i + 1 :]:
                    parts.append(
                        implies(
                            conj([bool_ref(prod.cuts[u]), bool_ref(prod.cuts[v])]),
                            not_(int_eq(prod.tau[u], prod.tau[v])),
                        )
                    )
        for vpath in positions:
            for t_idx, rule in enumerate(self.rules):
                body = disj(
                    [self.encode_p(vpath, rule, ell) for ell in rule.ell_range()]
                )
                guard = [
                    enum_is(prod.rmatch[vpath], f"R{t_idx}"),
                    bool_ref(prod.cuts[vpath]),
                ]
                parts.append(implies(conj(guard), body))
        return conj(parts)


def encode_produce(ctx: EncodingContext, mol: ConcreteMoleculeSide, rules: list
                   ) -> tuple[Formula, ProductionVars]:
    encoder = ProduceEncoder(ctx, mol, rules)
    return encoder.encode(), encoder.prod


# --------------------------------------------------------------------------
# template factories and correctness conditions
# --------------------------------------------------------------------------


def make_rule_templates(ctx: EncodingContext, depth: int, width: int, count: int
                        ) -> list[RuleTemplate]:
    if depth < 2 and count > 0:
        raise ValueError("rule depth must be at least 2")
    return [_variable_template(ctx, i, depth, width) for i in range(count)]


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
                    # 2. slots beyond the label's arity are absent, and carry
                    # no hard end
                    for i in range(m.arity + 1, t.width + 1):
                        is_m = enum_is(nu[p], ctx.sugar_member(m.name))
                        parts.append(
                            implies(is_m, enum_is(kappa[p + (i,)], K_ABSENT))
                        )
                        if ctx.variants.hard_ends:
                            parts.append(
                                implies(is_m, not_(bool_ref(t.hard_end[p + (i,)])))
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


# --------------------------------------------------------------------------
# symmetry breaking
# --------------------------------------------------------------------------


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
        va, vb = a.all_vars(), b.all_vars()
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
    return RuleSet(tuple(_decode_rule(ctx, model, t) for t in templates))


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
                        molecule: Molecule, steps: Optional[list],
                        rules: Optional[RuleSet] = None,
                        fast_escape: bool = False) -> NegativeConstraint:
    """Build `forall prod-vars. not EncodeProduce(molecule, templates)` plus
    the eager instantiation at the production that `steps`, the candidate
    `rules`' derivation of the counterexample (`producer.first_extra`), gives.

    With `fast_escape` (the fast/slow prefix adjustment) the rejection is
    conditional: either some fast rule can extend the molecule, or it must be
    unproducible.  The condition is threaded through an auxiliary Boolean so
    the universal stays in a directly assertable position.
    """
    encoder = ProduceEncoder(ctx, ConcreteMoleculeSide(ctx, molecule), templates)
    body, prod = encoder.encode(), encoder.prod
    quantified = forall(prod.all_vars(), not_(body))
    instance = TRUE
    if steps is not None:
        instance = not_(substitute(body, derivation_binding(prod, rules, steps)))
    helper = None
    if fast_escape:
        escape = disj([conj([t.fast_f(), encoder.applicable(t, FINISHED)])
                       for t in templates])
        gate = ctx.registry.make("nc_gate", BOOL)
        helper = disj([escape, bool_ref(gate)])
        quantified = forall(
            prod.all_vars(), implies(bool_ref(gate), not_(body))
        )
        instance = implies(bool_ref(gate), instance)
    return NegativeConstraint(quantified, instance, helper)


def derivation_binding(prod: ProductionVars, rules: RuleSet, steps: list) -> dict:
    """Values of `prod` that follow `steps`, a derivation by `rules` from a
    seed: step i (from 1) cuts at the root it attaches, and every node of its
    piece gets `R<rule index>`, timestamp i and the step's compartment.  The
    seed gets no cut, timestamp 0 and compartment 1."""
    binding = {}
    for p in prod.paths:
        binding[prod.cuts[p]] = False
        binding[prod.tau[p]] = 0
        if prod.comp:
            binding[prod.comp[p]] = 1
    for var in prod.rmatch.values():
        binding[var] = "R0"
    for i, step in enumerate(steps, 1):
        root = step.path + (step.slot,)
        binding[prod.cuts[root]] = True
        for sub, _ in tree_positions(step.rule.expand_node()):
            p = root + sub
            binding[prod.tau[p]] = i
            if prod.rmatch:
                binding[prod.rmatch[p]] = f"R{rules.rules.index(step.rule)}"
            if prod.comp:
                binding[prod.comp[p]] = step.compartment
    return binding
