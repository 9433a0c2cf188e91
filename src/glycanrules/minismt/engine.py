"""Finite-domain SMT engine over the parsed SMT-LIB2 forms.

Supported fragment: Bool constants, bounded Int constants (a range assertion
must follow each declaration), enumeration datatypes, the connectives
and/or/not/=>/= , integer comparisons, and universal quantifiers over
finite-sorted bound variables whose body is (=> <range-guard> <body>).

Ground formulas are lowered to CNF (Tseitin with polarity, one-hot enums,
order-encoded integers) over an incremental CDCL core.  Universals are
checked model-by-model: each candidate model is tested per universal by a
dedicated sub-engine solving for a violating instantiation; found witnesses
are asserted as ground instances until none remain (finite domains guarantee
termination).

Integer variables named in a `(set-info :order-cluster (...))` hint are
lowered as a strict weak order via pairwise precedence Booleans instead of
order bits; only var<var, var<=var and positive var=lo atoms may touch them.
Only asymmetry is asserted up front.  Transitivity and the weak-order axiom
are added lazily: each SAT model is checked in O(n^2) per cluster against the
ranks (a member's rank is its number of predecessors), every mismatched pair
names one triple the model breaks, that triple's axioms are added, and the
search resumes from the part of the model they leave standing.  Once no pair
mismatches, the precedences are exactly "rank(x) < rank(y)", so get-value
reports rank-realized integers consistent with every comparison, and
universals are checked against those values.
"""

from __future__ import annotations

import itertools
import time

from .sat import Solver, neg


class SolverError(Exception):
    pass


BOOL = ("Bool",)
INT = ("Int",)


class Universal:
    def __init__(self, bounds, guard, body, scope_depth, full_term):
        self.bounds = bounds  # list of (name, sort-descr, (lo, hi) or None)
        self.guard = guard
        self.body = body
        self.scope_depth = scope_depth
        self.full_term = full_term
        self.sub = None  # lazily built sub-engine
        self.free_vars = None


class Scope:
    def __init__(self, selector):
        self.selector = selector  # sat var or None at depth 0
        self.universals: list[Universal] = []


class Engine:
    def __init__(self, is_sub=False):
        self.sat = Solver()
        self.enums: dict[str, tuple] = {}
        self.member_sort: dict[str, str] = {}
        self.decls: dict[str, tuple] = {}
        self.int_bounds: dict[str, tuple] = {}
        self.cluster_of: dict[str, int] = {}
        self.clusters: list[list[str]] = []
        self.p_vars: dict[tuple, int] = {}
        self.enum_bits: dict[tuple, int] = {}
        self.order_bits: dict[tuple, int] = {}
        self.bool_vars: dict[str, int] = {}
        self.min_aux: dict[str, int] = {}
        self.aux: dict[tuple, int] = {}
        self.tseitin: dict[tuple, tuple] = {}  # id-key -> (var, done_polarity)
        self.scopes = [Scope(None)]
        self.model_vals: list | None = None
        self.is_sub = is_sub

    # ------------- declarations -------------

    def declare_enum(self, name: str, members):
        if name in self.enums:
            raise SolverError(f"datatype {name} redeclared")
        self.enums[name] = tuple(members)
        for m in members:
            if m in self.member_sort:
                raise SolverError(f"constructor {m} reused")
            self.member_sort[m] = name

    def declare_fun(self, name: str, sort):
        if name in self.decls:
            raise SolverError(f"{name} redeclared")
        if sort == "Bool":
            self.decls[name] = BOOL
        elif sort == "Int":
            self.decls[name] = INT
        elif isinstance(sort, str) and sort in self.enums:
            self.decls[name] = ("Enum", sort)
        else:
            raise SolverError(f"unsupported sort {sort!r}")

    def declare_cluster(self, names):
        """Make precedence Booleans p(x,y) meaning x < y over `names`.

        Only the asymmetry clauses, one per unordered pair, are added here;
        `_refine_clusters` adds the transitivity and weak-order axioms of a
        triple once a model breaks it.
        """
        cid = len(self.clusters)
        group = []
        for nm in names:
            if self.decls.get(nm) != INT:
                raise SolverError(f"cluster member {nm} is not an Int")
            if nm in self.cluster_of:
                raise SolverError(f"{nm} already in a cluster")
            if nm not in self.int_bounds:
                raise SolverError(f"cluster member {nm} has no range yet")
            self.cluster_of[nm] = cid
            group.append(nm)
        lo, hi = self.int_bounds[group[0]]
        for nm in group:
            if self.int_bounds[nm] != (lo, hi):
                raise SolverError("cluster members must share one range")
        if hi - lo + 1 < len(group):
            raise SolverError("cluster range narrower than the chain length")
        self.clusters.append(group)
        for x in group:
            for y in group:
                if x != y:
                    self.p_vars[(x, y)] = self.sat.new_var()
        for i, x in enumerate(group):
            for y in group[i + 1:]:
                # asymmetry: ¬p(x,y) ∨ ¬p(y,x)
                self.sat.add_clause(
                    [neg(2 * self.p_vars[(x, y)]), neg(2 * self.p_vars[(y, x)])]
                )

    def _refine_clusters(self, snapshot) -> bool:
        """Add the order axioms of every triple the model breaks.

        The model is a strict weak order exactly when p(x,y) holds iff
        rank(x) < rank(y), rank being the number of predecessors.  A pair
        with p(x,y) but rank(x) >= rank(y) has some z before x and not before
        y (transitivity broken); an incomparable pair with rank(x) < rank(y)
        has some z before y and not before x (negative transitivity broken).
        Returns True if clauses were added; the search must then resume.
        """
        pv = self.p_vars
        triples = set()
        for cid, group in enumerate(self.clusters):
            n = len(group)
            pred = []  # bitmask over group indices of each member's predecessors
            for y in group:
                mask = 0
                for i, z in enumerate(group):
                    if z != y and snapshot[2 * pv[(z, y)]] == 1:
                        mask |= 1 << i
                pred.append(mask)
            rank = [m.bit_count() for m in pred]
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    before = bool(pred[j] >> i & 1)
                    if before == (rank[i] < rank[j]):
                        continue
                    if before:
                        extra = pred[i] & ~pred[j]
                    elif pred[i] >> j & 1:
                        continue  # the reversed pair is mismatched as well
                    else:
                        extra = pred[j] & ~pred[i]
                    k = (extra & -extra).bit_length() - 1
                    triples.add((cid, *sorted((i, j, k))))
        if not triples:
            return False
        clauses = []
        # sorted, so the clause order does not depend on the hash seed
        for cid, *idx in sorted(triples):
            group = self.clusters[cid]
            for x, y, z in itertools.permutations([group[i] for i in idx]):
                pxy, pyz, pxz = 2 * pv[(x, y)], 2 * pv[(y, z)], 2 * pv[(x, z)]
                # transitivity: p(x,y) ∧ p(y,z) → p(x,z)
                clauses.append([neg(pxy), neg(pyz), pxz])
                # weak order: p(x,z) → p(x,y) ∨ p(y,z)
                clauses.append([neg(pxz), pxy, pyz])
        self.sat.add_model_clauses(clauses)
        return True

    # ------------- variable encodings -------------

    def _bool_lit(self, name: str) -> int:
        v = self.bool_vars.get(name)
        if v is None:
            v = self.sat.new_var()
            self.bool_vars[name] = v
        return 2 * v

    def _enum_bit(self, name: str, member: str) -> int:
        key = (name, member)
        bit = self.enum_bits.get(key)
        if bit is not None:
            return 2 * bit
        sort = self.decls[name][1]
        members = self.enums[sort]
        bits = []
        for m in members:
            v = self.sat.new_var()
            self.enum_bits[(name, m)] = v
            bits.append(2 * v)
        self.sat.add_clause(bits)  # at least one
        for i in range(len(bits)):
            for j in range(i + 1, len(bits)):
                self.sat.add_clause([neg(bits[i]), neg(bits[j])])
        return 2 * self.enum_bits[key]

    def _order_bit(self, name: str, k: int) -> int:
        """Literal for (name <= k); folds outside the range."""
        lo, hi = self.int_bounds[name]
        if k < lo:
            return neg(self.sat.true_lit)
        if k >= hi:
            return self.sat.true_lit
        bit = self.order_bits.get((name, k))
        if bit is None:
            prev = None
            for kk in range(lo, hi):
                v = self.sat.new_var()
                self.order_bits[(name, kk)] = v
                if prev is not None:
                    self.sat.add_clause([neg(2 * prev), 2 * v])
                prev = v
            bit = self.order_bits[(name, k)]
        return 2 * bit

    def _require_bounds(self, name: str):
        if name not in self.int_bounds:
            raise SolverError(f"integer {name} used before its range assertion")

    # ------------- term classification -------------

    def _is_int_operand(self, t) -> bool:
        if isinstance(t, int):
            return True
        return isinstance(t, str) and self.decls.get(t) == INT

    def _is_enum_operand(self, t) -> bool:
        if not isinstance(t, str):
            return False
        if t in self.member_sort:
            return True
        d = self.decls.get(t)
        return d is not None and d[0] == "Enum"

    # ------------- atoms -------------

    def _atom_int_lt(self, a, b) -> int:
        """Literal for a < b with a, b int vars or constants."""
        if isinstance(a, int) and isinstance(b, int):
            return self.sat.true_lit if a < b else neg(self.sat.true_lit)
        if a == b:
            return neg(self.sat.true_lit)
        if isinstance(a, str):
            self._require_bounds(a)
        if isinstance(b, str):
            self._require_bounds(b)
        ca = self.cluster_of.get(a) if isinstance(a, str) else None
        cb = self.cluster_of.get(b) if isinstance(b, str) else None
        if ca is not None or cb is not None:
            if ca != cb:
                raise SolverError(
                    f"comparison {a} < {b} mixes cluster and non-cluster ints"
                )
            return 2 * self.p_vars[(a, b)]
        if isinstance(a, int):
            # a < b  <=>  not (b <= a)
            return neg(self._order_bit(b, a))
        if isinstance(b, int):
            return self._order_bit(a, b - 1)
        key = ("<", a, b)
        lit = self.aux.get(key)
        if lit is not None:
            return lit
        v = self.sat.new_var()
        lit = 2 * v
        self.aux[key] = lit
        la, ha = self.int_bounds[a]
        lb, hb = self.int_bounds[b]
        for k in range(lb, hb + 1):
            # lit -> (b <= k -> a <= k-1)
            cl = [neg(lit), neg(self._order_bit(b, k)), self._order_bit(a, k - 1)]
            self.sat.add_clause(cl)
        for k in range(la, ha + 1):
            # ¬lit -> (a <= k -> b <= k)
            cl = [lit, neg(self._order_bit(a, k)), self._order_bit(b, k)]
            self.sat.add_clause(cl)
        return lit

    def _atom_int_eq_const(self, name: str, c: int) -> int:
        self._require_bounds(name)
        lo, hi = self.int_bounds[name]
        if c < lo or c > hi:
            return neg(self.sat.true_lit)
        if name in self.cluster_of:
            if c != lo:
                raise SolverError(
                    f"cluster integer {name} compared to non-minimum {c}"
                )
            lit = self.min_aux.get(name)
            if lit is not None:
                return lit
            v = self.sat.new_var()
            lit = 2 * v
            self.min_aux[name] = lit
            others = [x for x in self.clusters[self.cluster_of[name]] if x != name]
            long_cl = [lit]
            for z in others:
                self.sat.add_clause([neg(lit), neg(2 * self.p_vars[(z, name)])])
                long_cl.append(2 * self.p_vars[(z, name)])
            self.sat.add_clause(long_cl)
            return lit
        hi_side = self._order_bit(name, c)
        lo_side = neg(self._order_bit(name, c - 1))
        if hi_side == self.sat.true_lit:
            return lo_side
        if lo_side == self.sat.true_lit:
            return hi_side
        key = ("=", name, c)
        lit = self.aux.get(key)
        if lit is not None:
            return lit
        v = self.sat.new_var()
        lit = 2 * v
        self.aux[key] = lit
        self.sat.add_clause([neg(lit), hi_side])
        self.sat.add_clause([neg(lit), lo_side])
        self.sat.add_clause([lit, neg(hi_side), neg(lo_side)])
        return lit

    def _atom_enum_eq(self, a, b) -> int:
        a_is_member = a in self.member_sort
        b_is_member = b in self.member_sort
        if a_is_member and b_is_member:
            return self.sat.true_lit if a == b else neg(self.sat.true_lit)
        if a_is_member:
            a, b = b, a
            a_is_member, b_is_member = b_is_member, a_is_member
        if b_is_member:
            sort = self.decls[a][1]
            if b not in self.enums[sort]:
                raise SolverError(f"{b} is not a member of {sort}")
            return self._enum_bit(a, b)
        # var = var
        if self.decls[a][1] != self.decls[b][1]:
            raise SolverError(f"enum sort mismatch: {a} vs {b}")
        if a == b:
            return self.sat.true_lit
        key = ("=", *sorted((a, b)))
        lit = self.aux.get(key)
        if lit is not None:
            return lit
        v = self.sat.new_var()
        lit = 2 * v
        self.aux[key] = lit
        members = self.enums[self.decls[a][1]]
        diff_lits = [lit]
        for m in members:
            xa = self._enum_bit(a, m)
            xb = self._enum_bit(b, m)
            self.sat.add_clause([neg(lit), neg(xa), xb])
            self.sat.add_clause([neg(lit), xa, neg(xb)])
            u = 2 * self.sat.new_var()
            self.sat.add_clause([neg(u), xa])
            self.sat.add_clause([neg(u), neg(xb)])
            diff_lits.append(u)
        self.sat.add_clause(diff_lits)
        return lit

    # ------------- tseitin lowering -------------

    def _lower(self, term, memo) -> int:
        """Literal equisatisfiably representing `term` (full biconditional
        definitions, so the literal is usable in any polarity)."""
        if isinstance(term, str):
            if term == "true":
                return self.sat.true_lit
            if term == "false":
                return neg(self.sat.true_lit)
            d = self.decls.get(term)
            if d == BOOL:
                return self._bool_lit(term)
            raise SolverError(f"unknown boolean symbol {term!r}")
        if not isinstance(term, tuple):
            raise SolverError(f"unexpected term {term!r}")
        key = id(term)
        hit = memo.get(key)
        if hit is not None:
            # the stored reference keeps `term` alive, so a live id cannot
            # have been recycled by a structurally different tuple
            return hit[1]
        head = term[0]
        if head == "not":
            lit = neg(self._lower(term[1], memo))
        elif head in ("and", "or"):
            args = [self._lower(t, memo) for t in term[1:]]
            if head == "and":
                args = [a for a in args if a != self.sat.true_lit]
                if any(a == neg(self.sat.true_lit) for a in args):
                    lit = neg(self.sat.true_lit)
                elif not args:
                    lit = self.sat.true_lit
                elif len(args) == 1:
                    lit = args[0]
                else:
                    v = 2 * self.sat.new_var()
                    for a in args:
                        self.sat.add_clause([neg(v), a])
                    self.sat.add_clause([v] + [neg(a) for a in args])
                    lit = v
            else:
                args = [a for a in args if a != neg(self.sat.true_lit)]
                if any(a == self.sat.true_lit for a in args):
                    lit = self.sat.true_lit
                elif not args:
                    lit = neg(self.sat.true_lit)
                elif len(args) == 1:
                    lit = args[0]
                else:
                    v = 2 * self.sat.new_var()
                    for a in args:
                        self.sat.add_clause([neg(a), v])
                    self.sat.add_clause([neg(v)] + list(args))
                    lit = v
        elif head == "=>":
            # right-associative chain
            args = term[1:]
            rewritten = ("or",) + tuple(("not", a) for a in args[:-1]) + (args[-1],)
            lit = self._lower(rewritten, memo)
        elif head in ("<", "<=", ">", ">="):
            a, b = term[1], term[2]
            if head == ">":
                a, b = b, a
                head = "<"
            elif head == ">=":
                a, b = b, a
                head = "<="
            if head == "<":
                lit = self._atom_int_lt(a, b)
            else:
                lit = neg(self._atom_int_lt(b, a))
        elif head == "=":
            a, b = term[1], term[2]
            if self._is_int_operand(a) and self._is_int_operand(b):
                if isinstance(a, int) and isinstance(b, int):
                    lit = self.sat.true_lit if a == b else neg(self.sat.true_lit)
                elif isinstance(a, int):
                    lit = self._atom_int_eq_const(b, a)
                elif isinstance(b, int):
                    lit = self._atom_int_eq_const(a, b)
                else:
                    both = (
                        "and",
                        ("<=", a, b),
                        ("<=", b, a),
                    )
                    lit = self._lower(both, memo)
            elif self._is_enum_operand(a) and self._is_enum_operand(b):
                lit = self._atom_enum_eq(a, b)
            else:
                # boolean equivalence
                la = self._lower(a, memo)
                lb = self._lower(b, memo)
                if la == lb:
                    lit = self.sat.true_lit
                elif la == neg(lb):
                    lit = neg(self.sat.true_lit)
                else:
                    v = 2 * self.sat.new_var()
                    self.sat.add_clause([neg(v), neg(la), lb])
                    self.sat.add_clause([neg(v), la, neg(lb)])
                    self.sat.add_clause([v, la, lb])
                    self.sat.add_clause([v, neg(la), neg(lb)])
                    lit = v
        elif head == "ite":
            c, t, e = term[1], term[2], term[3]
            rewritten = ("and", ("=>", c, t), ("=>", ("not", c), e))
            lit = self._lower(rewritten, memo)
        else:
            raise SolverError(f"unsupported operator {head!r}")
        memo[key] = (term, lit)
        return lit

    # ------------- assertions -------------

    def _try_range_pattern(self, term) -> bool:
        """Recognize (and (<= lo v) (<= v hi)) and record the bounds."""
        if not (isinstance(term, tuple) and len(term) == 3 and term[0] == "and"):
            return False
        low, high = term[1], term[2]
        if not (
            isinstance(low, tuple) and len(low) == 3 and low[0] == "<="
            and isinstance(high, tuple) and len(high) == 3 and high[0] == "<="
        ):
            return False
        if not (
            isinstance(low[1], int) and isinstance(low[2], str)
            and isinstance(high[2], int) and high[1] == low[2]
        ):
            return False
        name = low[2]
        if self.decls.get(name) != INT:
            return False
        lo, hi = low[1], high[2]
        if lo > hi:
            raise SolverError(f"empty range for {name}")
        known = self.int_bounds.get(name)
        if known is None:
            self.int_bounds[name] = (lo, hi)
            return True
        if known == (lo, hi):
            return True
        return False  # a genuinely different constraint: lower it normally

    def assert_term(self, term, _split_ok=True):
        scope = self.scopes[-1]
        if isinstance(term, tuple) and term and term[0] == "forall":
            self._assert_forall(term)
            return
        if self._try_range_pattern(term):
            return
        if _split_ok and isinstance(term, tuple) and term and term[0] == "and":
            for sub in term[1:]:
                self.assert_term(sub)
            return
        lit = self._lower(term, {})
        guard = [] if scope.selector is None else [neg(2 * scope.selector)]
        self.sat.add_clause(guard + [lit])

    def _assert_forall(self, term):
        if self.is_sub:
            raise SolverError("nested quantifiers are not supported")
        binders = term[1]
        body = term[2]
        bounds = []
        for b in binders:
            name, sort = b
            if sort == "Bool":
                bounds.append((name, BOOL, None))
            elif sort == "Int":
                bounds.append((name, INT, None))
            elif isinstance(sort, str) and sort in self.enums:
                bounds.append((name, ("Enum", sort), None))
            else:
                raise SolverError(f"unsupported bound sort {sort!r}")
        if not (isinstance(body, tuple) and len(body) == 3 and body[0] == "=>"):
            raise SolverError("forall body must be (=> <range-guard> <body>)")
        guard, real = body[1], body[2]
        guard_conjuncts = (
            list(guard[1:]) if isinstance(guard, tuple) and guard[0] == "and" else [guard]
        )
        ranges = {}
        for g in guard_conjuncts:
            if (
                isinstance(g, tuple) and len(g) == 3 and g[0] == "<="
                and isinstance(g[1], int) and isinstance(g[2], str)
            ):
                ranges.setdefault(g[2], [None, None])[0] = g[1]
            elif (
                isinstance(g, tuple) and len(g) == 3 and g[0] == "<="
                and isinstance(g[1], str) and isinstance(g[2], int)
            ):
                ranges.setdefault(g[1], [None, None])[1] = g[2]
            elif g == "true":
                pass
            else:
                raise SolverError("forall guard may only contain range atoms")
        resolved = []
        for name, sort, _ in bounds:
            if sort == INT:
                lo_hi = ranges.get(name)
                if lo_hi is None or lo_hi[0] is None or lo_hi[1] is None:
                    raise SolverError(f"bound int {name} lacks a range guard")
                resolved.append((name, sort, (lo_hi[0], lo_hi[1])))
            else:
                resolved.append((name, sort, None))
        uni = Universal(resolved, guard, real, len(self.scopes) - 1, term)
        self.scopes[-1].universals.append(uni)

    # ------------- scopes -------------

    def push(self):
        sel = self.sat.new_var()
        self.scopes.append(Scope(sel))

    def pop(self):
        if len(self.scopes) == 1:
            raise SolverError("pop at depth 0")
        scope = self.scopes.pop()
        self.sat.add_clause([neg(2 * scope.selector)])
        self.model_vals = None

    # ------------- solving -------------

    def _selector_assumptions(self):
        return [2 * s.selector for s in self.scopes if s.selector is not None]

    def _active_universals(self):
        for scope in self.scopes:
            for uni in scope.universals:
                yield uni

    def check_sat(self, timeout_ms=None, max_mbqi_rounds=200_000) -> str:
        deadline = None
        if timeout_ms is not None:
            deadline = time.monotonic() + timeout_ms / 1000.0
        self.model_vals = None
        rounds = 0
        resume = False
        while True:
            res = self.sat.solve(
                self._selector_assumptions(), deadline=deadline, resume=resume
            )
            if res is False:
                return "unsat"
            if res is None:
                return "unknown"
            snapshot = list(self.sat.litval)
            resume = self._refine_clusters(snapshot)
            if resume:
                continue
            violated = False
            for uni in self._active_universals():
                wit = self._find_violation(uni, snapshot, deadline)
                if wit == "unknown":
                    return "unknown"
                if wit is not None:
                    inst = substitute(uni.body, wit)
                    sel = self.scopes[uni.scope_depth].selector
                    lit = self._lower(inst, {})
                    guard = [] if sel is None else [neg(2 * sel)]
                    self.sat.add_clause(guard + [lit])
                    violated = True
                    rounds += 1
                    break
            if not violated:
                self.model_vals = snapshot
                return "sat"
            if rounds >= max_mbqi_rounds:
                return "unknown"

    def _find_violation(self, uni: Universal, snapshot, deadline):
        if uni.sub is None:
            sub = Engine(is_sub=True)
            sub.enums = dict(self.enums)
            sub.member_sort = dict(self.member_sort)
            free = []
            bound_names = {name for name, _, _ in uni.bounds}
            for name in sorted(collect_symbols(uni.body) | collect_symbols(uni.guard)):
                if name in bound_names or name in sub.decls:
                    continue
                d = self.decls.get(name)
                if d is None:
                    continue
                sub.decls[name] = d
                if d == INT:
                    self._require_bounds(name)
                    sub.int_bounds[name] = self.int_bounds[name]
                free.append(name)
            for name, sort, rng in uni.bounds:
                sub.decls[name] = sort
                if sort == INT:
                    sub.int_bounds[name] = rng
            sub.assert_term(("not", ("=>", uni.guard, uni.body)))
            uni.sub = sub
            uni.free_vars = free
        sub = uni.sub
        assumptions = []
        for name in uni.free_vars:
            val = self._value_from(snapshot, name)
            assumptions.extend(sub._value_assumptions(name, val))
        res = sub.sat.solve(assumptions, deadline=deadline)
        if res is None:
            return "unknown"
        if res is False:
            return None
        wit = {}
        sub_snapshot = list(sub.sat.litval)
        for name, sort, rng in uni.bounds:
            wit[name] = sub._value_from(sub_snapshot, name)
        return wit

    def _value_assumptions(self, name, val):
        d = self.decls[name]
        if d == BOOL:
            lit = self._bool_lit(name)
            return [lit if val == "true" else neg(lit)]
        if d == INT:
            lo, hi = self.int_bounds[name]
            lits = []
            hi_bit = self._order_bit(name, val)
            lo_bit = self._order_bit(name, val - 1)
            if hi_bit != self.sat.true_lit:
                lits.append(hi_bit)
            if lo_bit != neg(self.sat.true_lit):
                lits.append(neg(lo_bit))
            return lits
        return [self._enum_bit(name, val)]

    # ------------- model extraction -------------

    def _lit_true(self, snapshot, lit) -> bool:
        return snapshot[lit] == 1

    def _value_from(self, snapshot, name):
        d = self.decls.get(name)
        if d is None:
            raise SolverError(f"unknown symbol {name!r}")
        if d == BOOL:
            v = self.bool_vars.get(name)
            if v is None:
                return "false"
            return "true" if snapshot[2 * v] == 1 else "false"
        if d == INT:
            self._require_bounds(name)
            lo, hi = self.int_bounds[name]
            if name in self.cluster_of:
                return self._cluster_value(snapshot, name)
            for k in range(lo, hi):
                bit = self.order_bits.get((name, k))
                if bit is None:
                    return lo
                if snapshot[2 * bit] == 1:
                    return k
            return hi
        sort = d[1]
        for m in self.enums[sort]:
            bit = self.enum_bits.get((name, m))
            if bit is not None and snapshot[2 * bit] == 1:
                return m
        return self.enums[sort][0]

    def _cluster_value(self, snapshot, name) -> int:
        group = self.clusters[self.cluster_of[name]]
        lo, _ = self.int_bounds[name]
        count = 0
        for z in group:
            if z == name:
                continue
            pv = self.p_vars[(z, name)]
            if snapshot[2 * pv] == 1:
                count += 1
        return lo + count

    def get_values(self, names):
        if self.model_vals is None:
            raise SolverError("no model available")
        return [(n, self._value_from(self.model_vals, n)) for n in names]


def collect_symbols(term) -> set:
    out = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):
            if t and t[0] == '"':
                continue
            stack.extend(t)
        elif isinstance(t, str):
            out.add(t)
    return out


def substitute(term, mapping):
    memo = {}

    def walk(t):
        if isinstance(t, str):
            got = mapping.get(t)
            return t if got is None else got
        if not isinstance(t, tuple):
            return t
        key = id(t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = tuple(walk(x) for x in t)
        memo[key] = out
        return out

    return walk(term)
