import itertools
import random

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


def test_pigeonhole_3_into_2_unsat():
    # p[i][j]: pigeon i in hole j
    s = Solver()
    p = [[s.new_var() for _ in range(2)] for _ in range(3)]
    for i in range(3):
        s.add_clause([2 * p[i][0], 2 * p[i][1]])
    for j in range(2):
        for a in range(3):
            for b in range(a + 1, 3):
                s.add_clause([2 * p[a][j] + 1, 2 * p[b][j] + 1])
    assert s.solve() is False


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
