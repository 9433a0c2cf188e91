"""Deterministic CDCL SAT solver with assumptions and incremental clauses.

Literals are ints: variable v (0-based) gives 2*v for the positive literal and
2*v+1 for the negative one.  `add_clause` backtracks to decision level 0;
`add_model_clauses` keeps the part of a model's trail its clauses allow, for
`solve(resume=True)` to search on from.  `solve` accepts assumption literals
that are decided first, so scoped assertions can be switched with selector
variables.  All heuristics (activity ordering, phase saving, Luby restarts)
break ties by variable index, so runs are reproducible.
"""

from __future__ import annotations

import time


def neg(lit: int) -> int:
    return lit ^ 1


def var_of(lit: int) -> int:
    return lit >> 1


class Solver:
    def __init__(self):
        self.clauses: list = []  # each entry: list of lits, or None when deleted
        self.learned_idx: list[int] = []
        self.watches: list[list[int]] = []
        self.litval: list[int] = []  # per literal: 0 unknown, 1 true, -1 false
        self.level: list[int] = []
        self.reason: list[int] = []  # clause index or -1
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = []
        self.var_inc = 1.0
        self.phase: list[bool] = []
        self.heap: list[int] = []
        self.heap_pos: list[int] = []
        self.ok = True
        self.nvars = 0
        self.true_lit = 2 * self.new_var()
        self._enqueue(self.true_lit, -1)

    # ----- variables -----

    def new_var(self) -> int:
        v = self.nvars
        self.nvars += 1
        self.watches.extend(([], []))
        self.litval.extend((0, 0))
        self.level.append(-1)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.phase.append(False)
        self.heap_pos.append(-1)
        self._heap_insert(v)
        return v

    # ----- activity heap (max by activity, ties by smaller index) -----

    def _heap_less(self, a: int, b: int) -> bool:
        if self.activity[a] != self.activity[b]:
            return self.activity[a] > self.activity[b]
        return a < b

    def _heap_insert(self, v: int):
        if self.heap_pos[v] != -1:
            return
        self.heap.append(v)
        self.heap_pos[v] = len(self.heap) - 1
        self._heap_up(len(self.heap) - 1)

    def _heap_up(self, i: int):
        heap, pos = self.heap, self.heap_pos
        v = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if self._heap_less(v, heap[parent]):
                heap[i] = heap[parent]
                pos[heap[i]] = i
                i = parent
            else:
                break
        heap[i] = v
        pos[v] = i

    def _heap_down(self, i: int):
        heap, pos = self.heap, self.heap_pos
        v = heap[i]
        size = len(heap)
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            right = left + 1
            child = left
            if right < size and self._heap_less(heap[right], heap[left]):
                child = right
            if self._heap_less(heap[child], v):
                heap[i] = heap[child]
                pos[heap[i]] = i
                i = child
            else:
                break
        heap[i] = v
        pos[v] = i

    def _heap_pop(self) -> int:
        heap, pos = self.heap, self.heap_pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_down(0)
        return top

    def _bump(self, v: int):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(self.nvars):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
        if self.heap_pos[v] != -1:
            self._heap_up(self.heap_pos[v])

    # ----- clauses -----

    def add_clause(self, lits) -> bool:
        """Add a clause; invalidates any model left on the trail.

        Returns False if the solver became unsat at level 0.
        """
        self._cancel_until(0)
        if not self.ok:
            return False
        seen = set()
        out = []
        for lit in lits:
            if self.litval[lit] == 1 or neg(lit) in seen:
                return True  # satisfied or tautological
            if self.litval[lit] == -1 or lit in seen:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], -1):
                self.ok = False
                return False
            self.ok = self.propagate() == -1
            return self.ok
        ci = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0]].append(ci)
        self.watches[out[1]].append(ci)
        return True

    def add_model_clauses(self, clauses):
        """Add clauses over the variables of the model `solve` just found.

        Each clause has two or more literals over distinct variables.  Only
        the decision levels the clauses need are undone: back to just below
        the highest level of each clause the model falsifies.  A clause left
        with one unassigned literal propagates it.  `solve` with `resume=True`
        and the same assumptions then searches on from the kept trail instead
        of from level 0.
        """
        litval, level = self.litval, self.level
        target = len(self.trail_lim)
        for lits in clauses:
            if all(litval[lit] == -1 for lit in lits):
                target = min(target, max(level[var_of(lit)] for lit in lits) - 1)
        if target < 0:
            self.ok = False  # falsified at level 0
            return
        self._cancel_until(target)
        # every clause now has a literal that is not false; watch it and the
        # next best, before any unit is enqueued
        units = []
        for lits in clauses:
            # non-false literals first, then false ones from the highest level
            out = sorted(
                lits, key=lambda lit: (litval[lit] == -1, -level[var_of(lit)])
            )
            ci = len(self.clauses)
            self.clauses.append(out)
            self.watches[out[0]].append(ci)
            self.watches[out[1]].append(ci)
            if litval[out[1]] == -1 and litval[out[0]] == 0:
                units.append(ci)
        # a unit made false by an earlier one is a conflict that `propagate`
        # finds, since the earlier literal waits in the queue
        for ci in units:
            self._enqueue(self.clauses[ci][0], ci)

    def _add_learned(self, lits) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.learned_idx.append(ci)
        if len(lits) >= 2:
            self.watches[lits[0]].append(ci)
            self.watches[lits[1]].append(ci)
        return ci

    # ----- assignment -----

    def _enqueue(self, lit: int, reason: int) -> bool:
        if self.litval[lit] == -1:
            return False
        if self.litval[lit] == 1:
            return True
        v = var_of(lit)
        self.litval[lit] = 1
        self.litval[neg(lit)] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = not (lit & 1)
        self.trail.append(lit)
        return True

    def propagate(self) -> int:
        """Returns a conflicting clause index or -1."""
        clauses = self.clauses
        litval = self.litval
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = lit ^ 1
            watchers = self.watches[falsified]
            i = 0
            kept = []
            conflict = -1
            n = len(watchers)
            while i < n:
                ci = watchers[i]
                i += 1
                clause = clauses[ci]
                if clause is None:
                    continue
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                if litval[first] == 1:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if litval[clause[k]] != -1:
                        clause[1] = clause[k]
                        clause[k] = falsified
                        self.watches[clause[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if litval[first] == -1:
                    kept.extend(watchers[i:n])
                    conflict = ci
                    break
                self.litval[first] = 1
                self.litval[neg(first)] = -1
                v = var_of(first)
                self.level[v] = len(self.trail_lim)
                self.reason[v] = ci
                self.phase[v] = not (first & 1)
                self.trail.append(first)
            self.watches[falsified] = kept
            if conflict != -1:
                return conflict
        return -1

    def _cancel_until(self, target: int):
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        for idx in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[idx]
            v = var_of(lit)
            self.litval[lit] = 0
            self.litval[neg(lit)] = 0
            self.reason[v] = -1
            self.level[v] = -1
            if self.heap_pos[v] == -1:
                self._heap_insert(v)
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # ----- conflict analysis -----

    def _analyze(self, conflict: int):
        learnt = []
        seen = [False] * self.nvars
        counter = 0
        lit = -1
        index = len(self.trail)
        cur_level = len(self.trail_lim)
        clause = self.clauses[conflict]
        while True:
            for q in clause if lit == -1 else clause[1:]:
                v = var_of(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                lit = self.trail[index]
                if seen[var_of(lit)]:
                    break
            v = var_of(lit)
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            clause = self.clauses[self.reason[v]]
        learnt.insert(0, neg(lit))
        # cheap minimization: drop literals implied by the rest
        filtered = [learnt[0]]
        for q in learnt[1:]:
            r = self.reason[var_of(q)]
            if r == -1:
                filtered.append(q)
                continue
            if any(
                not seen[var_of(p)] and self.level[var_of(p)] > 0
                for p in self.clauses[r]
                if var_of(p) != var_of(q)
            ):
                filtered.append(q)
        learnt = filtered
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[var_of(q)] for q in learnt[1:])
        top = max(range(1, len(learnt)), key=lambda i: self.level[var_of(learnt[i])])
        learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt, back

    # ----- learned clause housekeeping -----

    def _reduce_db(self):
        keep = len(self.learned_idx) // 2
        locked = {self.reason[var_of(lit)] for lit in self.trail}
        candidates = [
            ci
            for ci in self.learned_idx
            if ci not in locked and self.clauses[ci] is not None
            and len(self.clauses[ci]) > 2
        ]
        for ci in candidates[: max(0, len(candidates) - keep)]:
            self.clauses[ci] = None
        self.learned_idx = [ci for ci in self.learned_idx if self.clauses[ci] is not None]

    # ----- main search -----

    def solve(self, assumptions=(), deadline=None, max_conflicts=None, resume=False):
        """True = sat, False = unsat, None = resource limit reached.

        With `resume`, search continues from the current trail, which must
        have been left by `add_model_clauses` after a solve with the same
        assumptions.
        """
        if not self.ok:
            return False
        if not resume:
            self._cancel_until(0)
            if self.propagate() != -1:
                self.ok = False
                return False
        assumptions = list(assumptions)
        conflicts = 0
        luby_idx = 1
        restart_budget = 128 * _luby(luby_idx)
        since_restart = 0
        while True:
            conf = self.propagate()
            if conf != -1:
                conflicts += 1
                since_restart += 1
                if len(self.trail_lim) <= len(assumptions):
                    # conflict depends only on assumptions and level 0
                    self._cancel_until(0)
                    return False
                learnt, back = self._analyze(conf)
                # assumptions removed by a deep backjump are re-decided later
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._cancel_until(0)
                    if not self._enqueue(learnt[0], -1):
                        self.ok = False
                        return False
                else:
                    ci = self._add_learned(learnt)
                    if not self._enqueue(learnt[0], ci):
                        self.ok = False
                        return False
                self.var_inc /= 0.95
                if conflicts % 256 == 0:
                    if deadline is not None and time.monotonic() > deadline:
                        self._cancel_until(0)
                        return None
                    if max_conflicts is not None and conflicts >= max_conflicts:
                        self._cancel_until(0)
                        return None
                if len(self.learned_idx) > 4000 + len(self.clauses) // 4:
                    self._reduce_db()
                continue
            if since_restart >= restart_budget:
                since_restart = 0
                luby_idx += 1
                restart_budget = 128 * _luby(luby_idx)
                self._cancel_until(len(assumptions) if assumptions else 0)
                continue
            # extend assumptions first
            if len(self.trail_lim) < len(assumptions):
                a = assumptions[len(self.trail_lim)]
                if self.litval[a] == 1:
                    self.trail_lim.append(len(self.trail))
                    continue
                if self.litval[a] == -1:
                    self._cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                self._enqueue(a, -1)
                continue
            v = self._pick_branch()
            if v == -1:
                return True
            self.trail_lim.append(len(self.trail))
            lit = 2 * v + (0 if self.phase[v] else 1)
            self._enqueue(lit, -1)

    def _pick_branch(self) -> int:
        while self.heap:
            v = self.heap[0]
            if self.litval[2 * v] == 0:
                return self._heap_pop()
            self._heap_pop()
        return -1

    def value(self, v: int) -> bool:
        return self.litval[2 * v] == 1


def _luby(i: int) -> int:
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while i != (1 << k) - 1:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)
