import itertools
import random
import time

from glycanrules.minismt.sat import Solver


def brute_force_sat(nvars, clauses):
    for bits in itertools.product([False, True], repeat=nvars):
        if all(any(bits[l >> 1] != (l & 1) for l in cl) for cl in clauses):
            return True
    return False


def make_solver(nvars):
    s = Solver()
    vs = [s.new_var() for _ in range(nvars)]
    return s, vs


def lit(vs, code):
    # code: +i / -i over 1-based test variables
    v = vs[abs(code) - 1]
    return 2 * v + (1 if code < 0 else 0)


def test_trivial_sat_unsat():
    s, vs = make_solver(1)
    assert s.add_clause([lit(vs, 1)])
    assert s.solve() is True
    assert s.value(vs[0])
    assert s.add_clause([lit(vs, -1)]) is False or s.solve() is False


def test_unit_propagation_chain():
    s, vs = make_solver(4)
    s.add_clause([lit(vs, 1)])
    s.add_clause([lit(vs, -1), lit(vs, 2)])
    s.add_clause([lit(vs, -2), lit(vs, 3)])
    s.add_clause([lit(vs, -3), lit(vs, 4)])
    assert s.solve() is True
    assert all(s.value(v) for v in vs)


def pigeonhole(holes):
    """Unsat: holes + 1 pigeons, each in a hole, no two in one."""
    # p[i][j]: pigeon i in hole j
    s = Solver()
    p = [[s.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for i in range(holes + 1):
        s.add_clause([2 * v for v in p[i]])
    for j in range(holes):
        for a in range(holes + 1):
            for b in range(a + 1, holes + 1):
                s.add_clause([2 * p[a][j] + 1, 2 * p[b][j] + 1])
    return s


def test_pigeonhole_3_into_2_unsat():
    assert pigeonhole(2).solve() is False


def test_pigeonhole_7_into_6_unsat_across_restarts():
    s = pigeonhole(6)
    assert s.solve() is False
    assert s.restarts > 0


def random_3cnf(rng, nv, m):
    return [[2 * v + rng.randint(0, 1) for v in rng.sample(range(nv), 3)]
            for _ in range(m)]


def fresh_solve(nv, clauses):
    s, _ = make_solver(nv)
    return all(s.add_clause(cl) for cl in clauses) and s.solve()


def test_learned_clause_deletion_keeps_answers():
    """Deleting learned clauses (`_reduce_db`) between solves loses nothing:
    a solver that keeps taking clauses answers as a fresh one does, and its
    models satisfy every clause."""
    rng = random.Random(4)
    nv = 150
    clauses = random_3cnf(rng, nv, 630)
    s, _ = make_solver(nv)
    assert all(s.add_clause(cl) for cl in clauses)
    answers = []
    got = s.solve()
    while True:
        answers.append(got)
        assert got == fresh_solve(nv, clauses)
        if not got:
            break
        assert all(any(s.value(l >> 1) != bool(l & 1) for l in cl) for cl in clauses)
        learned = len(s.learned_idx)
        if len(answers) == 1:
            assert learned >= 300
        s._reduce_db()
        assert len(s.learned_idx) < learned
        extra = random_3cnf(rng, nv, 20)
        clauses += extra
        got = all(s.add_clause(cl) for cl in extra) and s.solve()
    assert answers[0] and not answers[-1]


def test_passed_deadline_stops_the_first_conflict():
    """The deadline is tested at every conflict, not every 256th."""
    s = pigeonhole(4)
    assert s.solve() is False and 0 < s.conflicts < 256
    s = pigeonhole(4)
    assert s.solve(deadline=time.monotonic() - 1) is None
    assert s.conflicts == 1


def test_assumptions_and_incremental():
    s, vs = make_solver(3)
    s.add_clause([lit(vs, 1), lit(vs, 2)])
    s.add_clause([lit(vs, -1), lit(vs, 3)])
    assert s.solve(assumptions=[lit(vs, -2)]) is True
    assert s.value(vs[0]) and s.value(vs[2])
    assert s.solve(assumptions=[lit(vs, -2), lit(vs, -3)]) is False
    # solver is still usable afterwards
    assert s.solve() is True
    s.add_clause([lit(vs, -3)])
    assert s.solve(assumptions=[lit(vs, -2)]) is False
    assert s.solve(assumptions=[lit(vs, 2)]) is True


def test_random_cnf_agrees_with_bruteforce():
    rng = random.Random(2024)
    for trial in range(300):
        nv = rng.randint(1, 8)
        ncl = rng.randint(1, 24)
        clauses = []
        for _ in range(ncl):
            width = rng.randint(1, 3)
            cl = tuple(
                2 * rng.randrange(nv) + rng.randint(0, 1) for _ in range(width)
            )
            clauses.append(cl)
        s = Solver()
        vs = [s.new_var() for _ in range(nv)]
        remap = []
        ok = True
        for cl in clauses:
            mapped = [2 * vs[l >> 1] + (l & 1) for l in cl]
            remap.append(tuple(mapped))
            if not s.add_clause(mapped):
                ok = False
                break
        expected = brute_force_sat(nv, clauses)
        got = s.solve() if ok else False
        assert got == expected, f"trial {trial}: got {got}, expected {expected}"
        if got:
            for cl in clauses:
                assert any(s.value(vs[l >> 1]) != bool(l & 1) for l in cl)


def test_random_assumption_queries():
    rng = random.Random(7)
    for trial in range(120):
        nv = rng.randint(2, 7)
        ncl = rng.randint(2, 18)
        clauses = [
            tuple(2 * rng.randrange(nv) + rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
            for _ in range(ncl)
        ]
        s = Solver()
        vs = [s.new_var() for _ in range(nv)]
        base_ok = True
        for cl in clauses:
            if not s.add_clause([2 * vs[l >> 1] + (l & 1) for l in cl]):
                base_ok = False
                break
        n_assum = rng.randint(1, nv)
        chosen = rng.sample(range(nv), n_assum)
        assum_codes = [(v, rng.randint(0, 1)) for v in chosen]
        full = list(clauses) + [((2 * v + sign),) for v, sign in assum_codes]
        expected = brute_force_sat(nv, full)
        if base_ok:
            got = s.solve(assumptions=[2 * vs[v] + sign for v, sign in assum_codes])
        else:
            got = False
        assert got == expected, f"trial {trial}"


def test_model_clauses_resume_agrees_with_bruteforce():
    """Clauses added to a model, then a resumed solve, as order refinement does."""
    rng = random.Random(11)

    def random_clause(nv, width):
        return tuple(2 * v + rng.randint(0, 1) for v in rng.sample(range(nv), width))

    for trial in range(150):
        nv = rng.randint(3, 8)
        s, vs = make_solver(nv)

        def mapped(cl):
            return [2 * vs[l >> 1] + (l & 1) for l in cl]

        full = [random_clause(nv, rng.randint(1, 3)) for _ in range(rng.randint(1, 10))]
        for cl in full:
            s.add_clause(mapped(cl))
        assum = random_clause(nv, rng.randint(0, 2))
        full += [(a,) for a in assum]
        got = s.solve(mapped(assum))
        for rounds in range(40):
            assert got == brute_force_sat(nv, full), f"trial {trial}, round {rounds}"
            if not got:
                break
            for cl in full:
                assert any(s.value(vs[l >> 1]) != bool(l & 1) for l in cl)
            # mostly literals the model falsifies, so the trail must give way
            extra = [
                tuple(
                    l ^ 1 if s.value(vs[l >> 1]) != bool(l & 1) and rng.random() < 0.8
                    else l
                    for l in random_clause(nv, rng.randint(2, 3))
                )
                for _ in range(rng.randint(1, 4))
            ]
            full += extra
            s.add_model_clauses([mapped(cl) for cl in extra])
            got = s.solve(mapped(assum), resume=True)


def test_model_clauses_are_normalised_and_units_kept_across_backjumps():
    s, (a, b, c, d) = make_solver(4)
    s.add_clause([2 * a + 1])  # ¬a at level 0
    assert s.solve() is True
    # b, c and d are decided false at levels 1, 2 and 3
    assert [s.level[v] for v in (b, c, d)] == [1, 2, 3]
    before = len(s.clauses)
    # true at level 0, and a tautology: nothing is added
    s.add_model_clauses([[2 * a + 1, 2 * d], [2 * d, 2 * d + 1]])
    assert len(s.clauses) == before
    # ¬a false at level 0 and a repeat drop out, leaving the unit c
    s.add_model_clauses([[2 * a, 2 * c, 2 * c]])
    assert s.solve(resume=True) is True
    assert s.value(c) and s.level[c] == 1 and s.reason[c] != -1
    # both literals false at level 1: back to level 0, where c is a fact
    # and implies b
    s.add_model_clauses([[2 * b, 2 * c + 1]])
    assert s.solve(resume=True) is True
    assert s.value(c) and s.level[c] == 0
    assert s.value(b) and s.level[b] == 0


def test_unit_falsified_by_a_learned_literal_is_a_conflict_not_unsat():
    """A learned clause whose asserting literal negates a unit added above
    level 0: the unit's reason conflicts, and the search goes on."""
    s, (a, b, u, x) = make_solver(4)
    # u -> a, by way of x
    s.add_clause([2 * u + 1, 2 * a, 2 * x])
    s.add_clause([2 * u + 1, 2 * a, 2 * x + 1])
    assert s.solve() is True
    assert [s.level[v] for v in (a, b, u)] == [1, 2, 3] and not s.value(u)
    # the unit u is asserted at level 2, and its conflict learns (¬u ∨ a),
    # whose literal ¬u is asserted at level 1
    s.add_model_clauses([[2 * u]])
    assert s.solve(resume=True) is True
    assert s.value(u) and s.value(a)
    assert s.level[u] == 0 and s.level[a] == 0


def test_model_clauses_with_facts_repeats_and_units_agree_with_bruteforce():
    """Like the resume test above, with level-0 facts, repeated literals and
    one-literal clauses among the clauses added to a model."""
    rng = random.Random(13)

    def random_clause(nv, width):
        return tuple(2 * rng.randrange(nv) + rng.randint(0, 1) for _ in range(width))

    for trial in range(200):
        nv = rng.randint(3, 8)
        s, vs = make_solver(nv)

        def mapped(cl):
            return [2 * vs[l >> 1] + (l & 1) for l in cl]

        full = [random_clause(nv, rng.randint(1, 3)) for _ in range(rng.randint(0, 8))]
        full += [random_clause(nv, 1) for _ in range(rng.randint(0, 2))]
        for cl in full:
            s.add_clause(mapped(cl))
        assum = tuple(2 * v + rng.randint(0, 1)
                      for v in rng.sample(range(nv), rng.randint(0, 2)))
        full += [(lit,) for lit in assum]
        got = s.solve(mapped(assum))
        for rounds in range(40):
            assert got == brute_force_sat(nv, full), f"trial {trial}, round {rounds}"
            if not got:
                break
            for cl in full:
                assert any(s.value(vs[l >> 1]) != bool(l & 1) for l in cl)
            extra = []
            for _ in range(rng.randint(1, 4)):
                # widths 1-4 with repeats allowed; mostly literals the model
                # falsifies, so the trail must give way
                cl = tuple(
                    l ^ 1 if s.value(vs[l >> 1]) != bool(l & 1) and rng.random() < 0.8
                    else l
                    for l in random_clause(nv, rng.choice((1, 1, 2, 3, 4)))
                )
                extra.append(cl)
            full += extra
            s.add_model_clauses([mapped(cl) for cl in extra])
            got = s.solve(mapped(assum), resume=True)


def test_decision_order_is_highest_activity_then_smallest_index():
    """Random bumps, assignments and backjumps, with one forced activity
    rescale: after each step the heap's pick is the unassigned variable of
    highest activity, ties to the smaller index, found by brute force."""
    rng = random.Random(21)
    s, vs = make_solver(40)
    rescaled = False

    def expected():
        free = [v for v in range(s.nvars) if s.litval[2 * v] == 0]
        return min(free, key=lambda v: (-s.activity[v], v), default=-1)

    def pick():
        # `_pick_branch` pops entries; ask a copy so the solver is untouched
        probe = Solver.__new__(Solver)
        probe.heap, probe.in_heap = list(s.heap), bytearray(s.in_heap)
        probe.heap_entry, probe.litval = s.heap_entry, s.litval
        return probe._pick_branch()

    for step in range(3000):
        r = rng.random()
        if r < 0.45:
            if not rescaled and step > 1500:
                s.var_inc = 1e100  # the next bump rescales every activity
                rescaled = True
            elif rng.random() < 0.3:
                s.var_inc /= 0.95  # otherwise equal bumps make ties
            s._bump(rng.choice(vs))
        elif r < 0.7:
            best = expected()
            v = s._pick_branch()
            assert v == best, step
            if v != -1:
                s.trail_lim.append(len(s.trail))
                s._enqueue(2 * v + rng.randint(0, 1), -1)
        elif r < 0.85:
            free = [v for v in vs if s.litval[2 * v] == 0]
            if free:  # an implied literal: assigned, its entry left in place
                s._enqueue(2 * rng.choice(free) + rng.randint(0, 1), -1)
        else:
            s._cancel_until(rng.randint(0, len(s.trail_lim)))
        assert pick() == expected(), step
        # at most one newest entry per variable, and the rebuild at twice the
        # variable count bounds the stale ones
        assert len(s.heap) <= 3 * s.nvars
    assert rescaled and max(s.activity) < 1e100
