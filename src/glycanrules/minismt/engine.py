"""Finite-domain SMT engine over the parsed SMT-LIB2 forms.

Supported fragment: Bool constants, bounded Int constants (a range assertion
must follow each declaration), enumeration datatypes, the connectives
and/or/not/=>/=, the integer comparisons < and <= between Int constants and
numerals, and universal quantifiers over finite-sorted bound variables whose
body is (=> <range-guard> <body>).  That is all the client's emitter writes;
any other operator or operand is an error.

Ground formulas are lowered to CNF over an incremental CDCL core: enums
one-hot, integers order-encoded, and each compound subterm a literal with a
full biconditional (Tseitin) definition, usable in either polarity.  One
table per engine, `Engine.lowered`, maps each term (Bool name, `true`,
`false`, atom or compound) to its literal, so a subterm that recurs, in one
assertion, a later one or an MBQI instance, is defined once; each sub-engine
keeps a table of its own.  An and/or gate is built from its children's
literals (`_gate`), each child looked up in the table before it is lowered;
`(=> a ... b)` is the or gate of the literals of `(not a) ... b`.  Two
spellings of one atom share a literal:
`(<= a b)` is lowered as `(not (< b a))`, `(= 3 x)` as `(= x 3)`, and an
enum `(= b a)` reuses the literal of `(= a b)`.  Assertions are lowered as
parsed: a `let` is expanded where one occurs, at the top of an assertion,
below it in `_define`, or in a universal's body when it is stored.

Universals are checked model-by-model (MBQI): each candidate model is tested
against every universal by a dedicated sub-engine solving for a violating
instantiation.  One round lowers the instances of all the witnesses found,
adds their clauses to the model with `Solver.add_model_clauses`, and resumes
the search from the trail they leave standing; rounds repeat until no
universal is violated (finite domains guarantee termination).  A `:timeout`
is tested before each main solve, each violation sub-solve and each
instance lowered, and after each conflict.
"""

from __future__ import annotations

import time

from .sat import Solver, neg


class SolverError(Exception):
    pass


BOOL = ("Bool",)
INT = ("Int",)
# a check-sat that needs more MBQI rounds than this answers unknown
MAX_MBQI_ROUNDS = 200_000
# SAT work counters `statistics` adds up over the main and the sub-solvers
SEARCH_STATS = ("decisions", "conflicts", "undone", "restarts", "learned")


class Universal:
    def __init__(self, bounds, guard, body):
        self.bounds = bounds  # list of (name, sort-descr, (lo, hi) or None)
        self.guard = guard
        self.body = body
        self.sub = None  # lazily built sub-engine
        self.free_vars = None


class Engine:
    def __init__(self):
        self.sat = Solver()
        # where lowering sends its clauses: the solver, or the buffer of
        # `_lower_instances`
        self.add_clause = self.sat.add_clause
        self.enums: dict[str, tuple] = {}
        self.member_sort: dict[str, str] = {}
        self.decls: dict[str, tuple] = {}
        self.int_bounds: dict[str, tuple] = {}
        self.enum_bits: dict[tuple, int] = {}
        self.order_bits: dict[tuple, int] = {}
        true = self.sat.true_lit
        self.lowered: dict = {"true": true, "false": neg(true)}  # term -> literal
        self.universals: list[Universal] = []
        self.model_vals: list | None = None
        self.mbqi_rounds = 0
        self.instances = 0
        self.violation_solves = 0

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
        """Refuse the `:order-cluster` hint: every Int is order-encoded.

        The name stays only because `perfbench/spans.py` wraps it.
        """
        raise SolverError("order clusters are not supported")

    # ------------- variable encodings -------------

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
        self.add_clause(bits)  # at least one
        for i in range(len(bits)):
            for j in range(i + 1, len(bits)):
                self.add_clause([neg(bits[i]), neg(bits[j])])
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
                    self.add_clause([neg(2 * prev), 2 * v])
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
        for operand in (a, b):
            if not self._is_int_operand(operand):
                raise SolverError(
                    f"{show(operand)!r} is neither a numeral nor a declared Int"
                )
            if isinstance(operand, str):
                self._require_bounds(operand)
        if isinstance(a, int) and isinstance(b, int):
            return self.sat.true_lit if a < b else neg(self.sat.true_lit)
        if a == b:
            return neg(self.sat.true_lit)
        if isinstance(a, int):
            # a < b  <=>  not (b <= a)
            return neg(self._order_bit(b, a))
        if isinstance(b, int):
            return self._order_bit(a, b - 1)
        lit = 2 * self.sat.new_var()
        la, ha = self.int_bounds[a]
        lb, hb = self.int_bounds[b]
        for k in range(lb, hb + 1):
            # lit -> (b <= k -> a <= k-1)
            cl = [neg(lit), neg(self._order_bit(b, k)), self._order_bit(a, k - 1)]
            self.add_clause(cl)
        for k in range(la, ha + 1):
            # ¬lit -> (a <= k -> b <= k)
            cl = [lit, neg(self._order_bit(a, k)), self._order_bit(b, k)]
            self.add_clause(cl)
        return lit

    def _atom_int_eq_const(self, name: str, c: int) -> int:
        self._require_bounds(name)
        lo, hi = self.int_bounds[name]
        if c < lo or c > hi:
            return neg(self.sat.true_lit)
        hi_side = self._order_bit(name, c)
        lo_side = neg(self._order_bit(name, c - 1))
        if hi_side == self.sat.true_lit:
            return lo_side
        if lo_side == self.sat.true_lit:
            return hi_side
        lit = 2 * self.sat.new_var()
        self.add_clause([neg(lit), hi_side])
        self.add_clause([neg(lit), lo_side])
        self.add_clause([lit, neg(hi_side), neg(lo_side)])
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
        lit = self.lowered.get(("=", b, a))
        if lit is not None:
            return lit
        lit = 2 * self.sat.new_var()
        members = self.enums[self.decls[a][1]]
        diff_lits = [lit]
        for m in members:
            xa = self._enum_bit(a, m)
            xb = self._enum_bit(b, m)
            self.add_clause([neg(lit), neg(xa), xb])
            self.add_clause([neg(lit), xa, neg(xb)])
            u = 2 * self.sat.new_var()
            self.add_clause([neg(u), xa])
            self.add_clause([neg(u), neg(xb)])
            diff_lits.append(u)
        self.add_clause(diff_lits)
        return lit

    # ------------- tseitin lowering -------------

    def _lower(self, term) -> int:
        """Literal equisatisfiably representing `term` (full biconditional
        definitions, so the literal is usable in any polarity).

        `self.lowered` is the one map from a term to its literal, so each
        distinct term is defined once, by `_define`.
        """
        lit = self.lowered.get(term)
        if lit is None:
            lit = self.lowered[term] = self._define(term)
        return lit

    def _define(self, term) -> int:
        """Literal of `term`, a Bool name or a compound term, after adding
        its definition; a `let` is expanded here."""
        if isinstance(term, str):
            if self.decls.get(term) == BOOL:
                return 2 * self.sat.new_var()
            raise SolverError(f"unknown boolean symbol {term!r}")
        if not isinstance(term, tuple):
            raise SolverError(f"unexpected term {term!r}")
        head = term[0]
        if head == "let":
            lit = self._lower(expand_lets(term, {}))
        elif head == "not":
            lit = neg(self._lower(term[1]))
        elif head in ("and", "or"):
            lit = self._gate(head, self._lower_all(term[1:]))
        elif head == "=>":
            # right-associative chain: (or (not a) ... b), built from the
            # literals of its children
            args = self._lower_all(term[1:])
            for i in range(len(args) - 1):
                args[i] ^= 1
            lit = self._gate("or", args)
        elif head == "<":
            lit = self._atom_int_lt(term[1], term[2])
        elif head == "<=":
            lit = neg(self._lower(("<", term[2], term[1])))
        elif head == "=":
            a, b = term[1], term[2]
            int_a, int_b = self._is_int_operand(a), self._is_int_operand(b)
            enum_a, enum_b = self._is_enum_operand(a), self._is_enum_operand(b)
            if int_a and int_b:
                if isinstance(a, int) and isinstance(b, int):
                    lit = self.sat.true_lit if a == b else neg(self.sat.true_lit)
                elif isinstance(a, int):
                    lit = self._lower(("=", b, a))
                elif isinstance(b, int):
                    lit = self._atom_int_eq_const(a, b)
                else:
                    lit = self._lower(("and", ("<=", a, b), ("<=", b, a)))
            elif enum_a and enum_b:
                lit = self._atom_enum_eq(a, b)
            elif int_a or int_b or enum_a or enum_b:
                typed, odd = (a, b) if int_a or enum_a else (b, a)
                raise SolverError(
                    f"sort mismatch in {show(term)}: {show(odd)!r} does not have"
                    f" the sort of {show(typed)!r}"
                )
            else:
                # boolean equivalence
                la = self._lower(a)
                lb = self._lower(b)
                if la == lb:
                    lit = self.sat.true_lit
                elif la == neg(lb):
                    lit = neg(self.sat.true_lit)
                else:
                    v = 2 * self.sat.new_var()
                    self.add_clause([neg(v), neg(la), lb])
                    self.add_clause([neg(v), la, neg(lb)])
                    self.add_clause([v, la, lb])
                    self.add_clause([v, neg(la), neg(lb)])
                    lit = v
        else:
            raise SolverError(f"unsupported operator {head!r}")
        return lit

    def _lower_all(self, terms) -> list:
        """The literals of `terms`, each looked up before it is lowered."""
        lowered = self.lowered
        lits = []
        for t in terms:
            lit = lowered.get(t)
            if lit is None:
                lit = lowered[t] = self._define(t)
            lits.append(lit)
        return lits

    def _gate(self, head, args) -> int:
        """Literal of the and/or of the literals `args`, after adding its
        Tseitin definition.  Constants fold, and one argument is its own
        literal."""
        unit = self.sat.true_lit if head == "and" else self.sat.true_lit ^ 1
        args = [a for a in args if a != unit]
        if unit ^ 1 in args:
            return unit ^ 1
        if not args:
            return unit
        if len(args) == 1:
            return args[0]
        v = 2 * self.sat.new_var()
        add_clause = self.add_clause
        if head == "and":
            for a in args:
                add_clause([v ^ 1, a])
            add_clause([v] + [a ^ 1 for a in args])
        else:
            for a in args:
                add_clause([a ^ 1, v])
            add_clause([v ^ 1] + args)
        return v

    # ------------- assertions -------------

    def _try_range_pattern(self, term) -> bool:
        """Recognize (and (<= lo v) (<= v hi)) and record the bounds."""
        if not (isinstance(term, tuple) and len(term) == 3):
            return False
        low, high = range_atom(term[1]), range_atom(term[2])
        if not (low and high and low[1] == 0 and high[1] == 1 and low[0] == high[0]):
            return False
        name = low[0]
        if self.decls.get(name) != INT:
            return False
        lo, hi = low[2], high[2]
        if lo > hi:
            raise SolverError(f"empty range for {name}")
        known = self.int_bounds.get(name)
        if known is None:
            self.int_bounds[name] = (lo, hi)
            return True
        if known == (lo, hi):
            return True
        return False  # a genuinely different constraint: lower it normally

    def assert_term(self, term):
        """Assert `term` as parsed.  A universal is kept for MBQI, a range
        records an Int's bounds, a conjunction is asserted conjunct by
        conjunct, and a `let` at the top is expanded first."""
        head = term[0] if isinstance(term, tuple) and term else None
        if head == "let":
            self.assert_term(expand_lets(term, {}))
        elif head == "forall":
            self._assert_forall(term)
        elif head == "and":
            if not self._try_range_pattern(term):
                for sub in term[1:]:
                    self.assert_term(sub)
        else:
            self.sat.add_clause([self._lower(term)])

    def _assert_forall(self, term):
        # expanded now, or `substitute` would rename a `let` binder that
        # shadows a bound variable
        body = expand_lets(term[2], {})
        if not (isinstance(body, tuple) and len(body) == 3 and body[0] == "=>"):
            raise SolverError("forall body must be (=> <range-guard> <body>)")
        guard, real = body[1], body[2]
        ranges = {}
        for g in guard[1:] if isinstance(guard, tuple) and guard[0] == "and" else [guard]:
            atom = range_atom(g)
            if atom is not None:
                name, side, c = atom
                ranges.setdefault(name, [None, None])[side] = c
            elif g != "true":
                raise SolverError("forall guard may only contain range atoms")
        bounds = []
        for name, sort in term[1]:
            if sort == "Bool":
                bounds.append((name, BOOL, None))
            elif sort == "Int":
                lo, hi = ranges.get(name, (None, None))
                if lo is None or hi is None:
                    raise SolverError(f"bound int {name} lacks a range guard")
                bounds.append((name, INT, (lo, hi)))
            elif isinstance(sort, str) and sort in self.enums:
                bounds.append((name, ("Enum", sort), None))
            else:
                raise SolverError(f"unsupported bound sort {sort!r}")
        self.universals.append(Universal(bounds, guard, real))

    # ------------- solving -------------

    def check_sat(self, timeout_ms=None) -> str:
        deadline = None
        if timeout_ms is not None:
            deadline = time.monotonic() + timeout_ms / 1000.0
        self.model_vals = None
        rounds = 0
        resume = False
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                return "unknown"
            res = self.sat.solve(deadline=deadline, resume=resume)
            if res is False:
                return "unsat"
            if res is None:
                return "unknown"
            # clauses go to this model from here on, and the search resumes
            resume = True
            snapshot = list(self.sat.litval)
            found = []
            for uni in self.universals:
                # a sub-solve without conflicts never tests the deadline
                if deadline is not None and time.monotonic() >= deadline:
                    return "unknown"
                wit = self._find_violation(uni, snapshot, deadline)
                if wit == "unknown":
                    return "unknown"
                if wit is not None:
                    found.append((uni, wit))
            if not found:
                self.model_vals = snapshot
                return "sat"
            clauses = self._lower_instances(found, deadline)
            if clauses is None:
                return "unknown"
            self.mbqi_rounds += 1
            self.instances += len(found)
            self.sat.add_model_clauses(clauses)
            rounds += 1
            if rounds >= MAX_MBQI_ROUNDS:
                return "unknown"

    def _lower_instances(self, found, deadline=None):
        """Clauses of the instances (universal, witness) in `found`, or None
        if `deadline` passes before the last one is lowered.

        Lowering buffers its clauses instead of adding them, so that
        `Solver.add_model_clauses` can add them all to the current model.
        """
        clauses = []
        self.add_clause = clauses.append
        complete = False
        try:
            for uni, wit in found:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                clauses.append([self._lower(substitute(uni.body, wit))])
            else:
                complete = True
        finally:
            self.add_clause = self.sat.add_clause
            if not complete:
                # cut short by the deadline or a `SolverError`: `self.lowered`
                # keeps the literals defined so far; their definitions, and
                # the instances, which the universals imply, must reach the
                # solver
                for lits in clauses:
                    self.sat.add_clause(lits)
        return clauses if complete else None

    def _find_violation(self, uni: Universal, snapshot, deadline):
        if uni.sub is None:
            sub = Engine()
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
        self.violation_solves += 1
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
            lit = self._lower(name)
            return [lit if val == "true" else neg(lit)]
        if d == INT:
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

    def _value_from(self, snapshot, name):
        d = self.decls.get(name)
        if d is None:
            raise SolverError(f"unknown symbol {name!r}")
        if d == BOOL:
            lit = self.lowered.get(name)
            return "true" if lit is not None and snapshot[lit] == 1 else "false"
        if d == INT:
            self._require_bounds(name)
            lo, hi = self.int_bounds[name]
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

    def statistics(self) -> list:
        """(keyword, count) pairs for `(get-info :all-statistics)`.

        Decisions, conflicts, undone assignments, restarts, learned and
        problem clauses and variables add up the main SAT solver and every
        violation sub-solver.  Solves count the main solver's calls, and
        resumed solves those of them that searched on from a kept trail.
        """
        work = dict.fromkeys(SEARCH_STATS + ("clauses", "vars"), 0)
        subs = [u.sub.sat for u in self.universals if u.sub is not None]
        for solver in [self.sat] + subs:
            for key in SEARCH_STATS:
                work[key] += getattr(solver, key)
            work["clauses"] += len(solver.clauses) - solver.learned
            work["vars"] += solver.nvars
        return [(f":{key}", count) for key, count in work.items()] + [
            (":solves", self.sat.solves),
            (":resumed-solves", self.sat.resumed),
            (":mbqi-rounds", self.mbqi_rounds),
            (":instances", self.instances),
            (":violation-solves", self.violation_solves),
        ]

    def get_values(self, names):
        if self.model_vals is None:
            raise SolverError("no model available")
        return [(n, self._value_from(self.model_vals, n)) for n in names]


def range_atom(term):
    """(v, 0, c) for the lower bound (<= c v), (v, 1, c) for the upper bound
    (<= v c), and None for any other term."""
    if isinstance(term, tuple) and len(term) == 3 and term[0] == "<=":
        if isinstance(term[1], int) and isinstance(term[2], str):
            return term[2], 0, term[1]
        if isinstance(term[1], str) and isinstance(term[2], int):
            return term[1], 1, term[2]
    return None


def expand_lets(term, env):
    """`term` with each `let` replaced by its body, the bound names
    substituted; a bound value is shared, not copied, by its uses.  A
    `forall` binder shadows an outer `let` name of its own; a `let` value
    that names one of its bound variables is an error, since the binder
    would capture it."""
    if isinstance(term, str):
        return env.get(term, term)
    if not isinstance(term, tuple):
        return term
    if term and term[0] == "let":
        bindings = term[1]
        inner = dict(env)
        for name, value in bindings:
            inner[name] = expand_lets(value, env)
        return expand_lets(term[2], inner)
    if term and term[0] == "forall" and env:
        # a bound variable shadows an outer `let` name of its own
        bound = {b[0] for b in term[1] if isinstance(b, tuple) and b}
        inner = {k: v for k, v in env.items() if k not in bound}
        if any(bound & collect_symbols(v) for v in inner.values()):
            raise SolverError("a let value under forall names one of its bound variables")
        return (term[0], term[1]) + tuple([expand_lets(t, inner) for t in term[2:]])
    if term and term[0] == '"':
        return term
    return tuple([expand_lets(t, env) for t in term])


def show(term) -> str:
    """`term` in SMT-LIB2 syntax, for error messages."""
    if isinstance(term, tuple):
        return "(" + " ".join(map(show, term)) + ")"
    return str(term)


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
    """`term` with each symbol that `mapping` names replaced by its value."""
    return _substitute(term, mapping, {})


def _substitute(t, mapping, memo):
    """`substitute` below `t`, memoized by node identity.

    Module-level, not a closure inside `substitute`: a recursive closure is a
    reference cycle that keeps each call's memo alive until a collection.
    """
    if isinstance(t, str):
        got = mapping.get(t)
        return t if got is None else got
    if not isinstance(t, tuple):
        return t
    key = id(t)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = tuple([_substitute(x, mapping, memo) for x in t])
    memo[key] = out
    return out
