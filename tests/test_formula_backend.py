import gc
import io
import itertools
import pathlib
import random
import subprocess
import sys

import pytest

from glycanrules.backend import (
    ProtocolError,
    Session,
    SolverConfig,
    _Emitter,
    default_solver_config,
)
from glycanrules.formula import (
    BOOL,
    EnumSort,
    FALSE,
    Forall,
    IntSort,
    TRUE,
    Var,
    VarRegistry,
    bool_ref,
    conj,
    disj,
    domain_product,
    enum_is,
    evaluate,
    exactly_one,
    forall,
    iff,
    implies,
    int_cmp,
    int_eq,
    int_le,
    int_lt,
    not_,
    substitute,
)
from glycanrules.minismt.__main__ import serve
from glycanrules.minismt.sexpr import parse_all

COLOR = EnumSort("Color", ("Red", "Green", "Blue"))


def make_vars():
    reg = VarRegistry()
    b = reg.make("b", BOOL)
    c = reg.make("c", COLOR)
    x = reg.make("x", IntSort(0, 3))
    y = reg.make("y", IntSort(0, 3))
    return b, c, x, y


def test_constant_folding():
    b, c, x, y = make_vars()
    assert conj([]) is TRUE
    assert disj([]) is FALSE
    assert conj([TRUE, bool_ref(b)]) is not TRUE
    assert conj([FALSE, bool_ref(b)]) is FALSE
    assert not_(not_(bool_ref(b))).var is b
    assert implies(FALSE, bool_ref(b)) is TRUE
    assert int_lt(x, x) is FALSE
    assert int_le(x, x) is TRUE
    assert int_lt(1, 2) is TRUE
    assert enum_is("Red", "Red") is TRUE
    assert enum_is("Red", "Blue") is FALSE


def test_enum_member_validation():
    _, c, _, _ = make_vars()
    with pytest.raises(ValueError):
        enum_is(c, "Purple")


def test_evaluate_and_substitute_agree():
    rng = random.Random(5)
    b, c, x, y = make_vars()
    for _ in range(200):
        f = random_formula(rng, [b], [c], [x, y], depth=4)
        env = {
            b: rng.choice([False, True]),
            c: rng.choice(COLOR.members),
            x: rng.randrange(4),
            y: rng.randrange(4),
        }
        direct = evaluate(f, env)
        folded = substitute(f, env)
        assert folded in (TRUE, FALSE)
        assert (folded is TRUE) == direct


def random_formula(rng, bools, enums, ints, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return bool_ref(rng.choice(bools))
        if kind == 1:
            return enum_is(rng.choice(enums), rng.choice(COLOR.members))
        if kind == 2:
            op = rng.choice(["<", "<=", "="])
            lhs = rng.choice(ints + [rng.randrange(4)])
            rhs = rng.choice(ints + [rng.randrange(4)])
            from glycanrules.formula import int_cmp

            return int_cmp(op, lhs, rhs)
        return rng.choice([TRUE, FALSE])
    kind = rng.randrange(5)
    subs = [random_formula(rng, bools, enums, ints, depth - 1) for _ in range(2)]
    if kind == 0:
        return conj(subs)
    if kind == 1:
        return disj(subs)
    if kind == 2:
        return not_(subs[0])
    if kind == 3:
        return implies(subs[0], subs[1])
    return iff(subs[0], subs[1])


def test_exactly_one_semantics():
    b, c, x, y = make_vars()
    reg = VarRegistry()
    items = [reg.make(f"i{i}", BOOL) for i in range(3)]
    f = exactly_one([bool_ref(v) for v in items])
    for combo in itertools.product([False, True], repeat=3):
        env = dict(zip(items, combo))
        assert evaluate(f, env) == (sum(combo) == 1)
    assert exactly_one([]) is FALSE


def test_assert_declares_the_free_variables_it_writes(tmp_path):
    b, c, x, y = make_vars()
    cfg = SolverConfig(dump_dir=str(tmp_path), expand_quantifier_threshold=0)
    with Session(cfg) as session:
        session.assert_formula(forall((x,), implies(bool_ref(b), int_lt(x, y))))
        shared = not_(enum_is(c, "Red"))
        session.assert_formula(
            conj([disj([shared, bool_ref(b)]), implies(shared, int_lt(y, 2))])
        )
        assert session.check_sat() == "sat"
        commands = list(session.commands)
    # the shared node is written at each use, and nothing is let-bound
    assert commands[-2].count(f"(not (= {c.name} Red))") == 2
    assert "(let" not in commands[-2]
    declared = [cmd.split()[1] for cmd in commands if cmd.startswith("(declare-fun")]
    assert declared == [b.name, y.name, c.name]


def solve_formulas(formulas, read_vars=(), config=None):
    with Session(config or SolverConfig()) as session:
        for f in formulas:
            session.assert_formula(f)
        res = session.check_sat()
        model = None
        if res == "sat" and read_vars:
            model = session.get_model(list(read_vars))
        return res, model


def test_session_basic_sat_unsat():
    b, c, x, y = make_vars()
    res, model = solve_formulas(
        [implies(bool_ref(b), enum_is(c, "Green")), bool_ref(b), int_lt(x, y)],
        [b, c, x, y],
    )
    assert res == "sat"
    assert model.value(b) is True
    assert model.value(c) == "Green"
    assert model.value(x) < model.value(y)

    res, _ = solve_formulas([int_lt(x, y), int_lt(y, x)])
    assert res == "unsat"


def test_assert_true_and_range_bounds():
    _, _, x, _ = make_vars()
    res, model = solve_formulas([TRUE, int_le(3, x)], [x])
    assert res == "sat"
    assert model.value(x) == 3  # hi bound of the range


def test_enum_lowering_maps_back_to_exactly_one_member():
    rng = random.Random(9)
    reg = VarRegistry()
    vars = [reg.make(f"e{i}", COLOR) for i in range(6)]
    constraints = [
        not_(enum_is(vars[0], "Red")),
        enum_is(vars[1], vars[0]),
        disj([enum_is(v, "Blue") for v in vars[2:]]),
    ]
    res, model = solve_formulas(constraints, vars)
    assert res == "sat"
    for v in vars:
        assert model.value(v) in COLOR.members
    assert model.value(vars[1]) == model.value(vars[0]) != "Red"


@pytest.mark.parametrize("trial", range(30))
def test_quantifier_native_vs_expanded_vs_truth_table(trial):
    rng = random.Random(100 + trial)
    reg = VarRegistry()
    b = reg.make("b", BOOL)
    c = reg.make("c", COLOR)
    x = reg.make("x", IntSort(0, 2))
    q = reg.make("q", IntSort(0, 2))
    body = random_formula(rng, [b], [c], [x, q], depth=3)
    uni = forall((q,), body)
    ground = random_formula(rng, [b], [c], [x], depth=2)
    # truth-table over the free variables
    free = [b, c, x]
    expected = any(
        evaluate(uni, dict(zip(free, combo))) and evaluate(ground, dict(zip(free, combo)))
        for combo in domain_product(tuple(free))
    )
    native = SolverConfig(expand_quantifier_threshold=0)
    expanded = SolverConfig(expand_quantifier_threshold=10_000)
    for config in (native, expanded):
        res, _ = solve_formulas([uni, ground], config=config)
        assert res == ("sat" if expected else "unsat"), f"config {config}"


def random_body(rng, atoms, depth, pool=None):
    """A random tree; with a `pool`, a DAG that reuses earlier subterms."""
    if pool and rng.random() < 0.25:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.25:
        g = rng.choice(atoms)()
    else:
        a = random_body(rng, atoms, depth - 1, pool)
        b = random_body(rng, atoms, depth - 1, pool)
        g = rng.choice(
            [conj([a, b]), disj([a, b]), not_(a), implies(a, b), iff(a, b)]
        )
    if pool is not None:
        pool.append(g)
    return g


def random_universal(rng, shared):
    reg = VarRegistry()
    qb = reg.make("qb", BOOL)
    qc = reg.make("qc", COLOR)
    qi = reg.make("qi", IntSort(0, 2))
    qj = reg.make("qj", IntSort(1, 3))
    fb = reg.make("fb", BOOL)
    fc = reg.make("fc", COLOR)
    fi = reg.make("fi", IntSort(0, 3))
    ints = [qi, qj, fi]
    atoms = [
        lambda: bool_ref(rng.choice([qb, fb])),
        lambda: enum_is(rng.choice([qc, fc]), rng.choice(COLOR.members)),
        lambda: enum_is(qc, fc),
        lambda: int_cmp(
            rng.choice(["<", "<=", "="]),
            rng.choice(ints + [rng.randrange(4)]),
            rng.choice(ints + [rng.randrange(4)]),
        ),
    ]
    binders = [qb, qc, qi, qj]
    rng.shuffle(binders)
    body = random_body(rng, atoms, 5, [] if shared else None)
    kind = rng.randrange(3)
    if kind == 1:
        # TRUE for every prefix that binds the first binder to its first value
        guard = {
            qb: bool_ref(qb),
            qc: not_(enum_is(qc, "Red")),
            qi: int_le(1, qi),
            qj: int_le(2, qj),
        }[binders[0]]
        body = implies(guard, body)
    elif kind == 2:
        # FALSE for exactly one instance
        point = conj(
            [not_(bool_ref(qb)), enum_is(qc, "Blue"), int_eq(qi, 2), int_eq(qj, 1)]
        )
        body = conj([body, not_(point)])
    return forall(binders, body), (fb, fc, fi)


@pytest.mark.parametrize("shared", [False, True], ids=["tree", "dag"])
def test_staged_expansion_matches_one_shot_grounding(shared):
    rng = random.Random(31)
    checked = 0
    with Session(SolverConfig()) as session:
        for _ in range(150):
            f, free = random_universal(rng, shared)
            if not isinstance(f, Forall):
                continue
            reference = conj(
                substitute(f.body, dict(zip(f.vars, c)))
                for c in domain_product(f.vars)
            )
            got = session._maybe_expand(f)
            if not shared:
                assert _Emitter().emit(got) == _Emitter().emit(reference)
            for combo in domain_product(free):
                env = dict(zip(free, combo))
                assert evaluate(got, env) == evaluate(reference, env)
            checked += 1
    assert checked > 120


def test_staged_expansion_may_fold_a_shared_double_negation_further():
    # Byte identity with one-shot grounding needs a body without shared
    # subterms.  Here one-shot grounding keeps the tautology
    # (= (not x) (not x)), because its sides are distinct objects; binding q0
    # first folds the left side back onto the shared node y, so the staged
    # instance is TRUE and dropped.
    reg = VarRegistry()
    q0, q1, x, z = (reg.make(n, BOOL) for n in ("q0", "q1", "x", "z"))
    y = disj([not_(bool_ref(x)), bool_ref(q1)])
    f = forall((q0, q1), disj([bool_ref(z), iff(not_(implies(y, bool_ref(q0))), y)]))
    reference = conj(
        substitute(f.body, dict(zip(f.vars, c))) for c in domain_product(f.vars)
    )
    with Session(SolverConfig()) as session:
        got = session._maybe_expand(f)
    assert len(got.args) == len(reference.args) - 1
    for combo in itertools.product([False, True], repeat=2):
        env = dict(zip((x, z), combo))
        assert evaluate(got, env) == evaluate(reference, env)


def test_expansion_threshold_boundary():
    reg = VarRegistry()
    q = reg.make("q", IntSort(0, 3))
    b = reg.make("b", BOOL)
    f = forall((q, b), implies(bool_ref(b), int_le(q, 2)))  # domain size 8
    with Session(SolverConfig(expand_quantifier_threshold=8)) as session:
        assert not isinstance(session._maybe_expand(f), Forall)
    with Session(SolverConfig(expand_quantifier_threshold=7)) as session:
        assert session._maybe_expand(f) is f


def test_transcript_keeps_a_tail_unless_dumped(tmp_path):
    reg = VarRegistry()
    xs = [reg.make(f"x{i}", IntSort(0, 9)) for i in range(6)]
    asserts = [int_lt(a, b) for a, b in zip(xs, xs[1:])]
    # a solver that says success to everything and quits at the first check-sat
    fake = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.startswith('(check-sat'):\n"
        "        break\n"
        "    print('success', flush=True)\n"
    )
    cfg = SolverConfig(executable=sys.executable, extra_args=("-c", fake))
    with Session(cfg) as s:
        for f in asserts:
            s.assert_formula(f)
        with pytest.raises(ProtocolError) as err:
            s.check_sat()
        assert len(s.commands) == 8
    tail = str(err.value).split("--- transcript tail ---\n", 1)[1].splitlines()
    assert tail[-1] == "(check-sat)"
    assert tail[-2] == f"(assert (< {xs[4].name} {xs[5].name}))"
    assert len(tail) == 8

    with Session(SolverConfig(dump_dir=str(tmp_path))) as s:
        for f in asserts:
            s.assert_formula(f)
        assert s.check_sat("full") == "sat"
    lines = (tmp_path / "full.smt2").read_text().splitlines()
    # 3 options and set-logic, 6 declarations with their range asserts,
    # 5 asserts, check-sat
    assert lines[0] == "(set-option :print-success true)"
    assert len(lines) == 4 + 12 + 5 + 2
    assert lines[-2:] == ["(check-sat)", "; expect sat"]


def test_emission_is_deterministic(tmp_path):
    def emit_once(dump):
        reg = VarRegistry()
        x = reg.make("x", IntSort(0, 5))
        y = reg.make("y", IntSort(0, 5))
        shared = conj([int_lt(x, y), int_lt(0, y)])
        f = conj([disj([shared, int_eq(x, 3)]), implies(shared, int_le(x, 4))])
        cfg = SolverConfig(dump_dir=str(dump))
        with Session(cfg) as s:
            s.assert_formula(f)
            s.check_sat("probe")
        return (dump / "probe.smt2").read_text(), _Emitter().emit(shared)

    a, shared_text = emit_once(tmp_path / "a")
    b, _ = emit_once(tmp_path / "b")
    assert a == b
    # the shared node is written at each use, and nothing is let-bound
    assert a.count(shared_text) == 2
    assert "(let" not in a


def test_shared_subterm_solves_like_its_tree_built_copy(tmp_path):
    """A node reused by identity and a copy built at each use give the same
    answer and the same solver work: the solver maps equal terms to one
    literal, so sharing in the text would only save bytes."""
    def transcript(share):
        b, c, x, y = make_vars()

        def node():
            return conj([int_lt(x, y), not_(enum_is(c, "Red"))])

        first = node()
        second, third = (first, first) if share else (node(), node())
        f = conj([
            disj([first, bool_ref(b)]),
            implies(second, int_le(x, 2)),
            iff(third, not_(bool_ref(b))),
        ])
        dump = tmp_path / ("shared" if share else "tree")
        with Session(SolverConfig(dump_dir=str(dump))) as s:
            s.assert_formula(f)
            assert s.check_sat("probe") == "sat"
        return (dump / "probe.smt2").read_text(), _Emitter().emit(first)

    def replay(script):
        out = io.StringIO()
        serve(io.StringIO(script + "(get-info :all-statistics)\n(exit)\n"), out)
        lines = out.getvalue().splitlines()
        (answer,) = [ln for ln in lines if ln in ("sat", "unsat")]
        (stats,) = [ln for ln in lines if ln.startswith("(:")]
        return answer, parse_all(stats)[0]

    shared, node_text = transcript(share=True)
    tree, _ = transcript(share=False)
    assert shared == tree
    assert shared.count(node_text) == 3
    answer, stats = replay(shared)
    assert answer == "sat"
    # the same node bound once by a let lowers to the same clauses
    head, _, rest = shared.rpartition("(assert ")
    body, _, tail = rest.partition("\n")
    let_bound = (f"{head}(assert (let ((l0 {node_text})) "
                 f"{body.replace(node_text, 'l0')[:-1]}))\n{tail}")
    assert let_bound.count(node_text) == 1
    assert replay(let_bound) == (answer, stats)


def test_transcript_replays_with_same_answers(tmp_path):
    reg = VarRegistry()
    x = reg.make("x", IntSort(0, 4))
    y = reg.make("y", IntSort(0, 4))
    cfg = SolverConfig(dump_dir=str(tmp_path))
    with Session(cfg) as s:
        s.assert_formula(int_le(x, 3))
        assert s.check_sat("q1") == "sat"
        s.assert_formula(int_lt(x, y))
        assert s.check_sat("q2") == "sat"
        s.assert_formula(int_lt(y, x))
        assert s.check_sat("q3") == "unsat"
    replayed = replay_transcript(tmp_path / "q3.smt2")
    assert replayed == ["sat", "sat", "unsat"]


def replay_transcript(path):
    text = pathlib.Path(path).read_text()
    expected = [
        line.split("; expect ", 1)[1]
        for line in text.splitlines()
        if line.startswith("; expect ")
    ]
    script = "\n".join(
        line for line in text.splitlines() if not line.startswith("; expect")
    )
    proc = subprocess.run(
        [sys.executable, "-m", "glycanrules.minismt"],
        input=script + "\n(exit)\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    answers = [
        line
        for line in proc.stdout.splitlines()
        if line in ("sat", "unsat", "unknown")
    ]
    assert len(answers) == len(expected)
    return answers


def test_substitute_leaves_no_reference_cycles():
    b, c, x, y = make_vars()
    f = conj([
        disj([bool_ref(b), enum_is(c, "Red")]),
        implies(int_lt(x, y), not_(bool_ref(b))),
    ])
    gc.collect()
    gc.disable()
    try:
        for value in range(100):
            substitute(f, {x: value % 4})
            _Emitter().emit(forall([x], f))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_missing_solver_binary_raises():
    from glycanrules.backend import SolverLaunchError

    cfg = SolverConfig(executable="/nonexistent/solver-binary")
    with pytest.raises(SolverLaunchError):
        Session(cfg)


def test_default_config_honors_env(monkeypatch):
    monkeypatch.setenv("GLYCANRULES_SOLVER", "/opt/tools/z3")
    cfg = default_solver_config()
    assert cfg.executable == "/opt/tools/z3"
    assert cfg.extra_args == ("-in", "-smt2")
    monkeypatch.setenv("GLYCANRULES_SOLVER_ARGS", "--foo --bar")
    cfg = default_solver_config()
    assert cfg.extra_args == ("--foo", "--bar")
    # arguments passed explicitly win over the environment
    assert default_solver_config(extra_args=("-x",)).extra_args == ("-x",)
