import itertools
import random
import subprocess
import sys

import pytest

from glycanrules.minismt.engine import Engine
from glycanrules.minismt.sexpr import Reader, parse_all, unparse
from glycanrules.minismt.__main__ import expand_lets


def run_solver(script: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "glycanrules.minismt"],
        input=script,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return [ln for ln in proc.stdout.splitlines() if ln and ln != "success"]


def test_sexpr_roundtrip():
    forms = parse_all('(assert (and (<= 0 x) (or a (not b)) "str lit"))')
    assert len(forms) == 1
    assert unparse(forms[0]) == '(assert (and (<= 0 x) (or a (not b)) "str lit"))'


def test_reader_handles_split_forms():
    r = Reader()
    assert r.feed("(assert (and a") == []
    forms = r.feed(" b))\n(check-sat)\n")
    assert len(forms) == 2


def test_let_expansion_shares_objects():
    forms = parse_all("(assert (let ((u (and a b))) (or u (not u))))")
    term = expand_lets(forms[0][1], {})
    assert term[0] == "or"
    assert term[1] is term[2][1]  # shared object, not a copy


def test_basic_protocol():
    out = run_solver(
        """(set-option :print-success true)
(declare-fun p () Bool)
(declare-fun q () Bool)
(assert (or p q))
(assert (not p))
(check-sat)
(get-value (p q))
(exit)
"""
    )
    assert out == ["sat", "((p false) (q true))"]


def test_int_order_encoding_boundaries():
    out = run_solver(
        """(set-option :print-success true)
(declare-fun x () Int)
(assert (and (<= 2 x) (<= x 5)))
(assert (< x 3))
(check-sat)
(get-value (x))
(push 1)
(assert (< x 2))
(check-sat)
(pop 1)
(check-sat)
(exit)
"""
    )
    assert out == ["sat", "((x 2))", "unsat", "sat"]


def test_unbounded_int_is_an_error():
    out = run_solver(
        """(set-option :print-success true)
(declare-fun x () Int)
(assert (< x 3))
(check-sat)
(exit)
"""
    )
    assert out and out[0].startswith("(error")


def test_enum_datatype_and_distinct_members():
    out = run_solver(
        """(set-option :print-success true)
(declare-datatypes ((K 0)) (((On) (Off) (Broken))))
(declare-fun a () K)
(declare-fun b () K)
(assert (= a b))
(assert (not (= a On)))
(assert (not (= b Off)))
(check-sat)
(get-value (a b))
(exit)
"""
    )
    assert out == ["sat", "((a Broken) (b Broken))"]


def random_ground_script(rng):
    """Random formula over 2 bools, 1 enum (3 members), 2 ints in [0,2]."""
    decls = """(set-option :print-success true)
(declare-datatypes ((E 0)) (((M0) (M1) (M2))))
(declare-fun p () Bool)
(declare-fun q () Bool)
(declare-fun e () E)
(declare-fun x () Int)
(assert (and (<= 0 x) (<= x 2)))
(declare-fun y () Int)
(assert (and (<= 0 y) (<= y 2)))
"""

    def atom():
        k = rng.randrange(6)
        if k == 0:
            return "p"
        if k == 1:
            return "q"
        if k == 2:
            return f"(= e M{rng.randrange(3)})"
        if k == 3:
            return f"({rng.choice(['<', '<='])} x y)"
        if k == 4:
            return f"(= {rng.choice(['x', 'y'])} {rng.randrange(3)})"
        return f"({rng.choice(['<', '<='])} {rng.choice(['x','y'])} {rng.randrange(3)})"

    def term(depth):
        if depth == 0 or rng.random() < 0.35:
            return atom()
        op = rng.choice(["and", "or", "not", "=>"])
        if op == "not":
            return f"(not {term(depth - 1)})"
        return f"({op} {term(depth - 1)} {term(depth - 1)})"

    asserts = [f"(assert {term(3)})" for _ in range(rng.randint(1, 4))]
    return decls + "\n".join(asserts) + "\n(check-sat)\n(exit)\n", asserts


def eval_sexpr(term, env):
    if isinstance(term, str):
        if term in ("true", "false"):
            return term == "true"
        return env.get(term, term)  # enum members evaluate to themselves
    if isinstance(term, int):
        return term
    head = term[0]
    if head == "and":
        return all(eval_sexpr(t, env) for t in term[1:])
    if head == "or":
        return any(eval_sexpr(t, env) for t in term[1:])
    if head == "not":
        return not eval_sexpr(term[1], env)
    if head == "=>":
        return (not eval_sexpr(term[1], env)) or eval_sexpr(term[2], env)
    if head == "=":
        return eval_sexpr(term[1], env) == eval_sexpr(term[2], env)
    if head == "<":
        return eval_sexpr(term[1], env) < eval_sexpr(term[2], env)
    if head == "<=":
        return eval_sexpr(term[1], env) <= eval_sexpr(term[2], env)
    raise AssertionError(head)


@pytest.mark.parametrize("trial", range(40))
def test_ground_solving_agrees_with_enumeration(trial):
    rng = random.Random(1000 + trial)
    script, asserts = random_ground_script(rng)
    answer = run_solver(script)[0]
    terms = [parse_all(a)[0][1] for a in asserts]
    expected = False
    for p, q in itertools.product([False, True], repeat=2):
        for e in ("M0", "M1", "M2"):
            for x in range(3):
                for y in range(3):
                    env = {"p": p, "q": q, "e": e, "x": x, "y": y}
                    if all(eval_sexpr(t, env) for t in terms):
                        expected = True
    assert answer == ("sat" if expected else "unsat"), script


@pytest.mark.parametrize("trial", range(37))
def test_cluster_lowering_agrees_with_order_encoding(trial):
    """The precedence lowering and plain order encoding must agree."""
    rng = random.Random(2000 + trial)
    # trials 25 and up use clusters of 5-8 members, long enough for the
    # lazily added transitivity axioms to matter
    large = trial >= 25
    n = rng.randint(5, 8) if large else rng.randint(2, 4)
    names = [f"t{i}" for i in range(n)]
    decls = []
    for nm in names:
        decls.append(f"(declare-fun {nm} () Int)")
        decls.append(f"(assert (and (<= 0 {nm}) (<= {nm} {n})))")
    atoms = []
    for _ in range(rng.randint(n, 3 * n) if large else rng.randint(2, 6)):
        a, b = rng.sample(names, 2)
        op = rng.choice(["<", "<="])
        lit = f"({op} {a} {b})"
        if rng.random() < 0.4:
            lit = f"(not {lit})"
        atoms.append(lit)
    if rng.random() < 0.5:
        atoms.append(f"(= {rng.choice(names)} 0)")
    body = "\n".join(f"(assert {a})" for a in atoms)
    hint = f"(set-info :order-cluster ({' '.join(names)}))"
    head = "(set-option :print-success true)\n"
    tail = "\n(check-sat)\n(exit)\n"
    with_cluster = run_solver(head + "\n".join(decls) + "\n" + hint + "\n" + body + tail)
    without = run_solver(head + "\n".join(decls) + "\n" + body + tail)
    assert with_cluster[0] == without[0], (atoms, with_cluster, without)
    if with_cluster[0] == "sat":
        # the realized values must satisfy the formula
        script = (head + "\n".join(decls) + "\n" + hint + "\n" + body
                  + "\n(check-sat)\n(get-value (" + " ".join(names) + "))\n(exit)\n")
        out = run_solver(script)
        vals = {p[0]: p[1] for p in parse_all(out[1])[0]}
        terms = [parse_all(f"(assert {a})")[0][1] for a in atoms]
        env = dict(vals)
        for t in terms:
            assert eval_sexpr(t, env), (atoms, vals)


def test_cluster_model_is_repaired_away_from_cycles():
    decls = "".join(
        f"(declare-fun {v} () Int)\n(assert (and (<= 0 {v}) (<= {v} 2)))\n"
        for v in "abc"
    )
    out = run_solver(
        "(set-option :print-success true)\n" + decls
        + """(set-info :order-cluster (a b c))
(push 1)
(assert (< a b))
(assert (< b c))
(assert (< c a))
(check-sat)
(pop 1)
(assert (< a b))
(assert (< b c))
(check-sat)
(get-value (a b c))
(assert (not (< a c)))
(check-sat)
(exit)
"""
    )
    assert out == ["unsat", "sat", "((a 0) (b 1) (c 2))", "unsat"]


def test_mbqi_universal_over_enum():
    out = run_solver(
        """(set-option :print-success true)
(declare-datatypes ((E 0)) (((M0) (M1))))
(declare-fun e () E)
(declare-fun p () Bool)
(assert (forall ((u E)) (=> true (or p (= u e)))))
(check-sat)
(get-value (p))
(exit)
"""
    )
    # with two members, (= u e) cannot hold for both, so p must be true
    assert out == ["sat", "((p true))"]


def test_mbqi_universal_unsat():
    out = run_solver(
        """(set-option :print-success true)
(declare-fun x () Int)
(assert (and (<= 0 x) (<= x 3)))
(assert (forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) (not (= u x)))))
(check-sat)
(exit)
"""
    )
    assert out == ["unsat"]


def test_engine_pop_reenables_models():
    eng = Engine()
    eng.declare_fun("a", "Bool")
    eng.assert_term(("or", "a", "a"))
    assert eng.check_sat() == "sat"
    eng.push()
    eng.assert_term(("not", "a"))
    assert eng.check_sat() == "unsat"
    eng.pop()
    assert eng.check_sat() == "sat"
    assert eng.get_values(["a"]) == [("a", "true")]


def test_timeout_returns_unknown():
    # a hard pigeonhole instance with a 1ms budget
    lines = ["(set-option :print-success true)", "(set-option :timeout 1)"]
    holes, pigeons = 9, 10
    for i in range(pigeons):
        for j in range(holes):
            lines.append(f"(declare-fun p{i}h{j} () Bool)")
    for i in range(pigeons):
        ors = " ".join(f"p{i}h{j}" for j in range(holes))
        lines.append(f"(assert (or {ors}))")
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                lines.append(f"(assert (or (not p{a}h{j}) (not p{b}h{j})))")
    lines.append("(check-sat)")
    lines.append("(exit)")
    out = run_solver("\n".join(lines) + "\n")
    assert out[0] in ("unknown", "unsat")  # tiny instances may still finish
