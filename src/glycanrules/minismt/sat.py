"""Deterministic CDCL SAT solver with assumptions and incremental clauses.

Literals are ints: variable v (0-based) gives 2*v for the positive literal and
2*v+1 for the negative one.  There are two ways in for clauses.  `add_clause`
backtracks to decision level 0 if the trail has any decision, which drops any
model on it; the engine uses it for assertions.  `add_model_clauses` adds a
batch to the model `solve` just found and keeps the part of its trail the
batch allows, for `solve(resume=True)` to search on from; the engine uses it
for each MBQI round's instances.  A one-literal clause added that way above
level 0 is asserted at the current level and again after every backjump
below it, until the search is back at level 0.  Both ways normalise a clause
in one scan over its literals: a literal's level is read only if it has a
value, and repeats and tautologies are found in the short output list.
`solve` accepts
assumption literals that are decided first; only the engine's violation
sub-solvers use them, to fix a universal's free variables to the candidate
model's values, and the main solver is called without any.  All heuristics
(activity ordering, phase saving, Luby restarts) break ties by variable
index, so runs are reproducible.
The decision order is a `heapq` of (-activity, var) tuples with lazy deletion
of the entries a bump leaves stale (see `_bump`).

Each clause is watched on two literals.  A watch entry of a longer clause is
its index in `clauses`; one of a binary clause holds the other literal,
encoded as -2 - lit, so `propagate` implies it without fetching the clause.
Having no third literal to watch, a binary clause keeps its two entries
where they were added.  The literal it implies gets the reason
-2 - falsified, from which conflict analysis rebuilds the clause.  Binary
clauses are stored in `clauses` as well, and count among the problem clauses.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush


def neg(lit: int) -> int:
    return lit ^ 1


def var_of(lit: int) -> int:
    return lit >> 1


class Solver:
    def __init__(self):
        self.clauses: list = []  # each entry: list of lits, or None when deleted
        self.learned_idx: list[int] = []
        # per literal: the clauses to visit when it becomes false, as clause
        # indices, or -2 - lit for a binary clause whose other literal is lit
        self.watches: list[list[int]] = []
        self.litval: list[int] = []  # per literal: 0 unknown, 1 true, -1 false
        self.level: list[int] = []
        # per variable: -1 for a decision or a level-0 fact, else the index
        # of the clause that implied it, or -2 - lit for a binary clause whose
        # other literal lit is false
        self.reason: list[int] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = []
        self.var_inc = 1.0
        self.phase: list[bool] = []
        self.heap: list[tuple] = []  # (-activity, var) entries; see `_bump`
        self.heap_entry: list[tuple] = []  # per variable: its newest entry
        self.in_heap = bytearray()  # per variable: 1 if that entry is in `heap`
        self.units: list[int] = []  # literals `_reassert_units` keeps asserting
        self.ok = True
        self.nvars = 0
        # work counters, read by `Engine.statistics`
        self.decisions = 0
        self.conflicts = 0
        self.undone = 0  # assignments taken back by backjumps and restarts
        self.restarts = 0
        self.learned = 0  # learned clauses stored (learned units are not)
        self.solves = 0
        self.resumed = 0
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
        entry = (-0.0, v)
        self.heap_entry.append(entry)
        self.in_heap.append(1)
        heappush(self.heap, entry)
        return v

    # ----- decision order -----
    # `heap` is a `heapq` of (-activity, var) entries, so `heappop` gives the
    # highest activity, ties to the smaller index.  A bump makes a variable a
    # new entry, `heap_entry[v]`, and pushes it if the old one is in the
    # heap; the old one is then stale, and is dropped when popped.  Every
    # unassigned variable has its newest entry in the heap (`in_heap[v]`),
    # and a backjump pushes back only the entries that were popped, without
    # making new ones.  The heap is rebuilt from the newest entries after an
    # activity rescale, and when it grows past twice the variable count,
    # which bounds the stale ones.

    def _bump(self, v: int):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > 1e100:
            activity, entry = self.activity, self.heap_entry
            for u in range(self.nvars):
                activity[u] *= 1e-100
                entry[u] = (-activity[u], u)
            self.var_inc *= 1e-100
            self._rebuild_heap()
            return
        entry = self.heap_entry[v] = (-act, v)
        if self.in_heap[v]:
            heappush(self.heap, entry)
            if len(self.heap) > 2 * self.nvars:
                self._rebuild_heap()

    def _rebuild_heap(self):
        """The heap of the newest entries of the variables in it."""
        entry, in_heap, heap = self.heap_entry, self.in_heap, self.heap
        heap.clear()
        for v in range(self.nvars):
            if in_heap[v]:
                heap.append(entry[v])
        heapify(heap)

    # ----- clauses -----

    def add_clause(self, lits) -> bool:
        """Add a clause; invalidates any model left on the trail.

        Returns False if the solver became unsat at level 0.
        """
        if self.trail_lim:
            self._cancel_until(0)
        if not self.ok:
            return False
        out = self._normalised(lits)
        if out is None:
            return True
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], -1):
                self.ok = False
                return False
            self.ok = self.propagate() is None
            return self.ok
        self._watch(out)
        return True

    def _watch(self, lits) -> int:
        """Store the clause `lits` and watch its first two literals; returns
        the reason of its first literal, should the clause imply it."""
        ci = len(self.clauses)
        self.clauses.append(lits)
        a, b = lits[0], lits[1]
        if len(lits) == 2:
            self.watches[a].append(-2 - b)
            self.watches[b].append(-2 - a)
            return -2 - b
        self.watches[a].append(ci)
        self.watches[b].append(ci)
        return ci

    def _normalised(self, lits):
        """`lits` without repeats and literals false at level 0; None if the
        clause is true at level 0 or a tautology."""
        litval, level = self.litval, self.level
        out = []
        for lit in lits:
            val = litval[lit]
            if val and level[lit >> 1] == 0:
                if val == 1:
                    return None
                continue
            # clauses are short: a list scan beats building a set
            if lit in out:
                continue
            if lit ^ 1 in out:
                return None
            out.append(lit)
        return out

    def add_model_clauses(self, clauses):
        """Add clauses over the variables of the model `solve` just found.

        Each clause is first normalised as `add_clause` does.  Only the
        decision levels the clauses need are undone: back to just below the
        highest level of each clause the model falsifies.  A clause left with
        one unassigned literal propagates it.  A one-literal clause is
        asserted at the current level and again after every backjump below
        it (`_reassert_units`), until the solver is back at level 0.  `solve`
        with `resume=True` and the same assumptions then searches on from the
        kept trail instead of from level 0.
        """
        kept = []
        for lits in clauses:
            out = self._normalised(lits)
            if out is None:
                continue
            if not out:
                self.ok = False  # falsified at level 0
                return
            kept.append(out)
        litval, level = self.litval, self.level
        target = len(self.trail_lim)
        for out in kept:
            if all(litval[lit] == -1 for lit in out):
                # above 0: literals false at level 0 are gone
                target = min(target, max(level[lit >> 1] for lit in out) - 1)
        self._cancel_until(target)
        # every clause now has a literal that is not false; watch it and the
        # next best, before any unit is enqueued
        implied = []
        for out in kept:
            if len(out) == 1:
                # the unit's reason; watching ¬true leaves it to
                # `_reassert_units` to assert the unit after a backjump
                self.units.append(out[0])
                out.append(self.true_lit ^ 1)
                self._watch(out)
                continue
            # non-false literals first, then false ones from the highest level
            out.sort(key=lambda lit: (litval[lit] == -1, -level[lit >> 1]))
            reason = self._watch(out)
            if litval[out[1]] == -1 and litval[out[0]] == 0:
                implied.append((out[0], reason))
        # a unit made false by an earlier one is a conflict that `propagate`
        # finds, since the earlier literal waits in the queue
        for lit, reason in implied:
            self._enqueue(lit, reason)

    def _reassert_units(self) -> bool:
        """Enqueue the unassigned units of `add_model_clauses`.

        Above level 0 each is enqueued at the current level with its reason
        [unit, ¬true], which conflict analysis reads as a level-0 fact.  A
        unit found false was just made so by a literal still in the queue;
        propagating it finds the conflict on the unit's reason.  At level 0
        the units become facts and the list empties.  Returns False if one is
        false at level 0.
        """
        litval = self.litval
        root = not self.trail_lim
        reason = -1 if root else -2 - (self.true_lit ^ 1)
        for unit in self.units:
            if litval[unit] == 0:
                self._enqueue(unit, reason)
            elif root and litval[unit] == -1:
                return False
        if root:
            self.units = []
        return True

    def _add_learned(self, lits) -> int:
        """Store and watch a learned clause of two or more literals; returns
        the reason of its first literal."""
        self.learned += 1
        self.learned_idx.append(len(self.clauses))
        return self._watch(lits)

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

    def propagate(self):
        """Returns the literals of a conflicting clause, or None."""
        clauses, litval, watches = self.clauses, self.litval, self.watches
        trail, level, reason, phase = self.trail, self.level, self.reason, self.phase
        depth = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[falsified]
            kept = []
            keep = kept.append
            for i, ci in enumerate(watchers):
                if ci < 0:
                    # a binary clause, met without fetching it
                    keep(ci)
                    first = -2 - ci
                    val = litval[first]
                    if val == 1:
                        continue
                    if val == -1:
                        kept.extend(watchers[i + 1:])
                        watches[falsified] = kept
                        self.qhead = qhead
                        return [first, falsified]
                    litval[first] = 1
                    litval[first ^ 1] = -1
                    v = first >> 1
                    level[v] = depth
                    reason[v] = -2 - falsified
                    phase[v] = not (first & 1)
                    trail.append(first)
                    continue
                clause = clauses[ci]
                if clause is None:
                    continue
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                if litval[first] == 1:
                    keep(ci)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if litval[other] != -1:
                        clause[1] = other
                        clause[k] = falsified
                        watches[other].append(ci)
                        break
                else:
                    keep(ci)
                    if litval[first] == -1:
                        kept.extend(watchers[i + 1:])
                        watches[falsified] = kept
                        self.qhead = qhead
                        return clause
                    litval[first] = 1
                    litval[first ^ 1] = -1
                    v = first >> 1
                    level[v] = depth
                    reason[v] = ci
                    phase[v] = not (first & 1)
                    trail.append(first)
            watches[falsified] = kept
        self.qhead = qhead
        return None

    def _cancel_until(self, target: int):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target:
            return
        trail = self.trail
        bound = trail_lim[target]
        self.undone += len(trail) - bound
        litval, level, reason = self.litval, self.level, self.reason
        heap, entry, in_heap = self.heap, self.heap_entry, self.in_heap
        for idx in range(len(trail) - 1, bound - 1, -1):
            lit = trail[idx]
            v = lit >> 1
            litval[lit] = 0
            litval[lit ^ 1] = 0
            reason[v] = -1
            level[v] = -1
            if not in_heap[v]:
                in_heap[v] = 1
                heappush(heap, entry[v])
        del trail[bound:]
        del trail_lim[target:]
        self.qhead = bound

    # ----- conflict analysis -----

    def _analyze(self, conflict):
        """The learned clause of the conflicting clause `conflict` (its
        literals), asserting literal first, and the level to backjump to."""
        learnt = []
        seen = [False] * self.nvars
        counter = 0
        lit = -1
        index = len(self.trail)
        cur_level = len(self.trail_lim)
        clause = conflict
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
            r = self.reason[v]
            clause = self.clauses[r] if r >= 0 else (lit, -2 - r)
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
                for p in (self.clauses[r] if r >= 0 else (-2 - r,))
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

    def solve(self, assumptions=(), deadline=None, resume=False):
        """True = sat, False = unsat, None = `deadline` passed, as tested
        after each conflict.

        With `resume`, search continues from the current trail, which must
        have been left by `add_model_clauses` after a solve with the same
        assumptions.
        """
        self.solves += 1
        if not self.ok:
            return False
        if resume:
            self.resumed += 1
        else:
            self._cancel_until(0)
        if not self._reassert_units():
            self.ok = False
            return False
        if not resume and self.propagate() is not None:
            self.ok = False
            return False
        assumptions = list(assumptions)
        luby_idx = 1
        restart_budget = 128 * _luby(luby_idx)
        since_restart = 0
        while True:
            conf = self.propagate()
            if conf is not None:
                self.conflicts += 1
                since_restart += 1
                if len(self.trail_lim) <= len(assumptions):
                    # conflict depends only on assumptions and level 0
                    if not self.trail_lim:
                        self.ok = False
                    self._cancel_until(0)
                    return False
                learnt, back = self._analyze(conf)
                # assumptions removed by a deep backjump are re-decided later
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._cancel_until(0)
                    asserted = self._enqueue(learnt[0], -1)
                else:
                    asserted = self._enqueue(learnt[0], self._add_learned(learnt))
                # units after the learned literal: one it falsifies is a
                # conflict for `propagate`, not unsat
                if not asserted or not self._reassert_units():
                    self.ok = False
                    return False
                self.var_inc /= 0.95
                if deadline is not None and time.monotonic() >= deadline:
                    self._cancel_until(0)
                    return None
                if len(self.learned_idx) > 4000 + len(self.clauses) // 4:
                    self._reduce_db()
                continue
            if since_restart >= restart_budget:
                self.restarts += 1
                since_restart = 0
                luby_idx += 1
                restart_budget = 128 * _luby(luby_idx)
                self._cancel_until(len(assumptions) if assumptions else 0)
                if not self._reassert_units():
                    self.ok = False
                    return False
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
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            lit = 2 * v + (0 if self.phase[v] else 1)
            self._enqueue(lit, -1)

    def _pick_branch(self) -> int:
        """Pop the heap down to the newest entry of an unassigned variable,
        and return that variable, or -1."""
        heap, entry, in_heap, litval = self.heap, self.heap_entry, self.in_heap, self.litval
        while heap:
            top = heappop(heap)
            v = top[1]
            if top is not entry[v]:
                continue  # stale
            in_heap[v] = 0
            if litval[2 * v] == 0:
                return v
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
