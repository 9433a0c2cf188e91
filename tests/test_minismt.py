import gc
import io
import itertools
import random
import subprocess
import sys

import pytest

from glycanrules.minismt import engine as engine_module
from glycanrules.minismt.engine import Engine, SolverError, Universal, substitute
from glycanrules.minismt import sexpr
from glycanrules.minismt.sat import neg
from glycanrules.minismt.sexpr import CLOSE, OPEN, Reader, SexprError, parse_all
from glycanrules.minismt.__main__ import expand_lets, serve


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
    assert forms == [
        ("assert", ("and", ("<=", 0, "x"), ("or", "a", ("not", "b")), ('"', "str lit")))
    ]


def test_quoted_parentheses_are_symbols():
    assert parse_all("(a |(| b)") == [("a", "(", "b")]
    assert parse_all("(a |)| b)") == [("a", ")", "b")]
    with pytest.raises(SexprError, match="unbalanced '\\('"):
        parse_all("(a |)| b")
    assert Reader().feed("(a |)| b") == []


def test_reader_handles_split_forms():
    r = Reader()
    assert r.feed("(assert (and a") == []
    forms = r.feed(" b))\n(check-sat)\n")
    assert len(forms) == 2


# ----- the reader against a character-by-character reference -----


def ref_tokenize(text: str):
    """The reader's tokenizer as it was, one character at a time, except
    that only ASCII `-?[0-9]+` is a numeral and parentheses have tokens of
    their own."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            yield OPEN if ch == "(" else CLOSE
            i += 1
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        out.append('"')
                        j += 2
                        continue
                    break
                out.append(text[j])
                j += 1
            else:
                raise SexprError("unterminated string literal")
            yield ('"', "".join(out))
            i = j + 1
            continue
        if ch == "|":
            j = text.find("|", i + 1)
            if j == -1:
                raise SexprError("unterminated quoted symbol")
            yield text[i + 1 : j]
            i = j + 1
            continue
        j = i
        while j < n and text[j] not in ' \t\r\n();"|':
            j += 1
        tok = text[i:j]
        i = j
        digits = tok[1:] if tok.startswith("-") else tok
        if digits and all(c in "0123456789" for c in digits):
            yield int(tok)
        else:
            yield tok


def ref_parse_all(text: str):
    stack = [[]]
    for tok in ref_tokenize(text):
        if tok == OPEN:
            stack.append([])
        elif tok == CLOSE:
            if len(stack) == 1:
                raise SexprError("unbalanced ')'")
            done = tuple(stack.pop())
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SexprError("unbalanced '('")
    return stack[0]


def ref_feed(buffer: str):
    """(forms or error, rest of the buffer) of a reader that scans `buffer`
    one character at a time and parses up to the last ')' closing a
    top-level form."""
    depth, quote, end = 0, "", 0
    i = 0
    while i < len(buffer):
        ch = buffer[i]
        if quote:
            if ch == quote:
                if buffer[i:i + 2] == '""':
                    i += 1
                else:
                    quote = ""
        elif ch in '"|':
            quote = ch
        elif ch == ";":
            quote = "\n"
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                end = i + 1
        i += 1
    return outcome(ref_parse_all, buffer[:end]) if end else [], buffer[end:]


def outcome(parse, text):
    try:
        return parse(text)
    except SexprError as exc:
        return ("error", str(exc))


READER_ATOMS = ["a", "x1", "v520_p3_tau_2222", ":named", "=>", "<=", "0", "42",
                "-7", "007", "-", "--5", "²", "٣", "-٣", "a\x0bb", "b\xa0c", "1e5"]
READER_SPACES = [" ", " ", "  ", "\t", "\n", "\r\n", ""]
READER_QUOTED = ['"a ( b"', '"say ""hi"""', '"; no comment"', '"|"', '""',
                 "; a ( comment \" |\n", ";\n", "|a b|", "|(|", "|)|", '|;"|', "||",
                 '"two\nlines"']
READER_BROKEN = [")", "(", '"open', "|open", "; no newline"]


def random_reader_text(rng, quoted: bool) -> str:
    def item(depth):
        r = rng.random()
        if depth < 4 and r < 0.3:
            inner = [item(depth + 1) for _ in range(rng.randint(0, 4))]
            return "(" + "".join(rng.choice(READER_SPACES) + x for x in inner) + ")"
        if quoted and r < 0.45:
            return rng.choice(READER_QUOTED)
        return rng.choice(READER_ATOMS)

    items = [item(0) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.15:
        pool = READER_BROKEN if quoted else READER_BROKEN[:2]
        items.insert(rng.randint(0, len(items)), rng.choice(pool))
    return "".join(x + rng.choice(READER_SPACES) for x in items)


@pytest.mark.parametrize("piece", [None, 3], ids=["whole", "pieces"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_reader_agrees_with_a_character_tokenizer(quoted, piece, monkeypatch):
    """Seeded random texts, whole and fed in random chunks: `parse_all` and
    `Reader.feed` give the forms and errors the reference gives, and the
    reader keeps the same unread text.  With a tiny `_PIECE`, the tokenizer
    cuts nearly every run of plain text into pieces."""
    if piece is not None:
        monkeypatch.setattr(sexpr, "_PIECE", piece)
    rng = random.Random(8 + quoted)
    for trial in range(1500):
        text = random_reader_text(rng, quoted)
        assert outcome(parse_all, text) == outcome(ref_parse_all, text), repr(text)
        cuts = sorted(rng.sample(range(1, len(text) + 1), min(len(text), rng.randint(1, 4))))
        reader, expected_buffer, start = Reader(), "", 0
        for cut in cuts:
            expected, expected_buffer = ref_feed(expected_buffer + text[start:cut])
            assert outcome(reader.feed, text[start:cut]) == expected, (trial, repr(text))
            assert reader.buffer == expected_buffer, (trial, repr(text))
            start = cut


def test_reader_numerals_are_ascii_digits():
    assert parse_all("(7 -7 007 --5 ² ٣ -٣ - -x)") == [
        (7, -7, 7, "--5", "²", "٣", "-٣", "-", "-x")]


@pytest.mark.parametrize("token", ["--5", "²"])
def test_malformed_numeral_is_an_error_not_a_crash(token):
    out = run_solver(
        f"""(set-option :print-success true)
(declare-fun x () Int)
(assert (and (<= 0 x) (<= x 3)))
(assert (< x {token}))
(check-sat)
(get-value (x))
(exit)
"""
    )
    assert len(out) == 3 and out[0].startswith("(error")
    assert out[1:] == ["sat", "((x 0))"]


@pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
def test_timeout_that_is_not_a_numeral_is_an_error(value):
    out = run_solver(
        f"""(set-option :print-success true)
(set-option :timeout {value})
(declare-fun p () Bool)
(assert p)
(check-sat)
(exit)
"""
    )
    assert len(out) == 2 and out[0].startswith('(error ":timeout'), out
    assert out[1] == "sat"


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


@pytest.mark.parametrize("command", [
    "(push 1)", "(pop 1)", "(reset)", "(declare-const x Bool)", '(echo "x")',
])
def test_commands_no_session_sends_are_unsupported(command):
    out = io.StringIO()
    serve(io.StringIO(f"""(declare-fun p () Bool)
(assert p)
{command}
(check-sat)
(get-value (p))
(exit)
"""), out)
    replies = out.getvalue().splitlines()
    assert replies[0].startswith('(error "unsupported command '), replies
    assert replies[1:] == ["sat", "((p true))"]


@pytest.mark.parametrize("term", ["(ite p (< x 1) (< 1 x))", "(> x 1)", "(>= x 1)"])
def test_operators_the_emitter_never_writes_are_unsupported(term):
    out = io.StringIO()
    serve(io.StringIO(f"""(declare-fun p () Bool)
(declare-fun x () Int)
(assert (and (<= 0 x) (<= x 2)))
(assert {term})
(assert (=> p (< x 1)))
(assert p)
(check-sat)
(get-value (p x))
(exit)
"""), out)
    replies = out.getvalue().splitlines()
    assert replies[0].startswith('(error "unsupported operator '), replies
    assert replies[1:] == ["sat", "((p true) (x 0))"]


def test_int_order_encoding_boundaries():
    out = run_solver(
        """(set-option :print-success true)
(declare-fun x () Int)
(assert (and (<= 2 x) (<= x 5)))
(assert (< x 3))
(check-sat)
(get-value (x))
(assert (< x 2))
(check-sat)
(exit)
"""
    )
    assert out == ["sat", "((x 2))", "unsat"]


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


GROUND_DECLS = """(set-option :print-success true)
(declare-datatypes ((E 0)) (((M0) (M1) (M2))))
(declare-fun p () Bool)
(declare-fun q () Bool)
(declare-fun e () E)
(declare-fun x () Int)
(assert (and (<= 0 x) (<= x 2)))
(declare-fun y () Int)
(assert (and (<= 0 y) (<= y 2)))
"""


def random_ground_term(rng, depth, pool=()):
    """Random formula over 2 bools, 1 enum (3 members), 2 ints in [0,2];
    given a `pool` of subterms, a leaf is one of them half of the time."""

    def atom():
        if pool and rng.random() < 0.5:
            return rng.choice(pool)
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

    return term(depth)


def random_ground_script(rng):
    asserts = [f"(assert {random_ground_term(rng, 3)})" for _ in range(rng.randint(1, 4))]
    return GROUND_DECLS + "\n".join(asserts) + "\n(check-sat)\n(exit)\n", asserts


GROUND_ENVS = [
    {"p": p, "q": q, "e": e, "x": x, "y": y}
    for p, q in itertools.product([False, True], repeat=2)
    for e in ("M0", "M1", "M2")
    for x in range(3)
    for y in range(3)
]


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
    expected = any(all(eval_sexpr(t, env) for t in terms) for env in GROUND_ENVS)
    assert answer == ("sat" if expected else "unsat"), script


@pytest.mark.parametrize("trial", range(40))
def test_reused_subterms_agree_with_enumeration(trial):
    """2-5 assertions built from one pool of subterms, so that later ones
    reuse literals the engine already holds for them: every check-sat
    answers as enumeration does, and every model satisfies the assertions."""
    rng = random.Random(5000 + trial)
    pool = [random_ground_term(rng, 2) for _ in range(rng.randint(2, 5))]
    asserts = [random_ground_term(rng, 2, pool) for _ in range(rng.randint(2, 5))]
    lines = [GROUND_DECLS]
    for a in asserts:
        lines += [f"(assert {a})", "(check-sat)", "(get-value (p q e x y))"]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n(exit)\n"), out)
    replies = [r for r in out.getvalue().splitlines() if r != "success"]
    terms = [parse_all(a)[0] for a in asserts]
    for i in range(len(asserts)):
        answer, values = replies[2 * i], replies[2 * i + 1]
        active = terms[: i + 1]
        expected = any(all(eval_sexpr(t, env) for t in active) for env in GROUND_ENVS)
        assert answer == ("sat" if expected else "unsat"), (i, lines)
        if answer == "sat":
            model = {}
            for name, value in parse_all(values)[0]:
                model[name] = value == "true" if name in "pq" else value
            assert all(eval_sexpr(t, model) for t in active), (i, model, lines)


def statistics_of(script: str) -> dict:
    out = io.StringIO()
    serve(io.StringIO(script + "(get-info :all-statistics)\n(exit)\n"), out)
    stats = parse_all(out.getvalue().splitlines()[-1])[0]
    return dict(zip(stats[::2], stats[1::2]))


def test_a_term_asserted_again_adds_no_variables_or_clauses():
    decls = "".join(f"(declare-fun {v} () Bool)\n" for v in "pqr")
    term = "(assert (or (and p q) (and q r)))\n"
    once = statistics_of(decls + term)
    twice = statistics_of(decls + term + term)
    assert (once[":vars"], once[":clauses"]) == (7, 9)
    assert (twice[":vars"], twice[":clauses"]) == (7, 9)


def test_an_implication_lowers_as_its_disjunction():
    """(=> p q r) is lowered from its children's literals to the same gate
    as (or (not p) (not q) r): one variable and four clauses."""
    decls = "".join(f"(declare-fun {v} () Bool)\n" for v in "pqr")
    implication = "(assert (=> p q r))\n"
    disjunction = "(assert (or (not p) (not q) r))\n"
    for term in (implication, disjunction):
        stats = statistics_of(decls + term)
        assert (stats[":vars"], stats[":clauses"]) == (5, 4)
    for values in itertools.product((True, False), repeat=3):
        fixed = "".join(f"(assert {v})\n" if on else f"(assert (not {v}))\n"
                        for v, on in zip("pqr", values))
        answers = [serve_replies(decls + term + fixed + "(check-sat)\n")
                   for term in (implication, disjunction)]
        p, q, r = values
        expected = "sat" if not (p and q) or r else "unsat"
        assert answers == [[expected], [expected]]


@pytest.mark.parametrize("first, second, same", [
    ("(< a b)", "(<= b a)", False),
    ("(= a 3)", "(= 3 a)", True),
    ("(= e f)", "(= f e)", True),
])
def test_a_second_spelling_of_an_atom_reuses_its_literal(first, second, same):
    engine = Engine()
    engine.declare_enum("E", ["M0", "M1", "M2"])
    for name, sort in [("a", "Int"), ("b", "Int"), ("e", "E"), ("f", "E")]:
        engine.declare_fun(name, sort)
    for name in "ab":
        engine.assert_term(parse_all(f"(and (<= 0 {name}) (<= {name} 5))")[0])
    lit = engine._lower(parse_all(first)[0])
    nvars = engine.sat.nvars
    again = engine._lower(parse_all(second)[0])
    assert engine.sat.nvars == nvars
    assert again == (lit if same else neg(lit))


def serve_replies(script: str) -> list[str]:
    out = io.StringIO()
    serve(io.StringIO(script), out)
    return out.getvalue().splitlines()


def test_declare_datatypes_with_a_list_missing_is_an_error():
    replies = serve_replies("""(declare-datatypes ((A 0) (B 0)) (((a1) (a2))))
(declare-fun b () B)
(exit)
""")
    assert replies[0] == (
        '(error "declare-datatypes names 2 sorts but gives 1 constructor lists")'
    )
    assert replies[1] == """(error "unsupported sort 'B'")"""


@pytest.mark.parametrize("term, odd", [("(= x e)", "e"), ("(= x p)", "p"),
                                       ("(= p x)", "p"), ("(= M0 x)", "x")])
def test_equality_across_sorts_names_the_odd_operand(term, odd):
    replies = serve_replies(f"""(declare-datatypes ((E 0)) (((M0) (M1))))
(declare-fun x () Int)
(declare-fun p () Bool)
(assert (and (<= 0 x) (<= x 2)))
(assert {term})
(check-sat)
(exit)
""")
    typed = "M0" if odd == "x" else "x"
    assert replies == [
        f"(error \"sort mismatch in {term}: '{odd}' does not have"
        f" the sort of '{typed}'\")",
        "sat",
    ]


@pytest.mark.parametrize("term, odd", [("(< x (+ y 1))", "(+ y 1)"),
                                       ("(<= (+ y 1) x)", "(+ y 1)"),
                                       ("(< x p)", "p")])
def test_a_comparison_operand_that_is_no_int_is_named(term, odd):
    replies = serve_replies(f"""(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun p () Bool)
(assert (and (<= 0 x) (<= x 3)))
(assert (and (<= 0 y) (<= y 3)))
(assert {term})
(check-sat)
(exit)
""")
    assert replies == [
        f"(error \"'{odd}' is neither a numeral nor a declared Int\")", "sat",
    ]


def test_a_comparison_operand_that_is_no_int_is_named_by_a_universal():
    """A universal's body is lowered at check-sat, so the error surfaces
    there, on every check."""
    replies = serve_replies("""(declare-fun x () Int)
(assert (and (<= 0 x) (<= x 3)))
(assert (forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) (< u (+ x 1)))))
(check-sat)
(check-sat)
(exit)
""")
    error = "(error \"'(+ x 1)' is neither a numeral nor a declared Int\")"
    assert replies == [error, error]


@pytest.mark.parametrize("trial", range(37))
def test_cluster_lowering_agrees_with_order_encoding(trial):
    """Ints compared only with each other, as a molecule's timestamps are,
    lower through order bits to models that satisfy every comparison; with
    at most 4 Ints the verdict matches enumeration."""
    rng = random.Random(2000 + trial)
    # trials 25 and up use 5-8 Ints and more comparisons than Ints
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
    terms = [parse_all(a)[0] for a in atoms]
    out = run_solver(
        "(set-option :print-success true)\n" + "\n".join(decls) + "\n"
        + "\n".join(f"(assert {a})" for a in atoms)
        + "\n(check-sat)\n(get-value (" + " ".join(names) + "))\n(exit)\n"
    )
    assert out[0] in ("sat", "unsat"), (atoms, out)
    if out[0] == "sat":
        vals = {p[0]: p[1] for p in parse_all(out[1])[0]}
        assert all(0 <= vals[nm] <= n for nm in names), (atoms, vals)
        assert all(eval_sexpr(t, vals) for t in terms), (atoms, vals)
    if n <= 4:
        truth = any(
            all(eval_sexpr(t, dict(zip(names, values))) for t in terms)
            for values in itertools.product(range(n + 1), repeat=n)
        )
        assert out[0] == ("sat" if truth else "unsat"), (atoms, out)


def test_order_cluster_hint_is_an_error():
    """The hint is refused, and the session goes on with plain Ints."""
    decls = "".join(
        f"(declare-fun {v} () Int)\n(assert (and (<= 0 {v}) (<= {v} 2)))\n"
        for v in ("t0", "t1")
    )
    out = run_solver(
        "(set-option :print-success true)\n" + decls + """(set-info :order-cluster (t0 t1))
(assert (< t1 t0))
(check-sat)
(get-value (t0 t1))
(exit)
"""
    )
    assert out[0].startswith("(error") and "not supported" in out[0], out
    assert out[1] == "sat"
    vals = dict(parse_all(out[2])[0])
    assert vals["t1"] < vals["t0"], out


def test_definitions_lowered_before_an_instance_fails_are_kept():
    """An instance fails on an unknown symbol after (and p q) got its
    literal: the literal's definition must reach the solver, since later
    assertions reuse the literal."""
    engine = Engine()
    for name in ("p", "q"):
        engine.declare_fun(name, "Bool")
    uni = Universal([("u", ("Bool",), None)], "true", parse_all("(or (and p q) u)")[0])
    with pytest.raises(SolverError, match="unknown boolean symbol 'r'"):
        engine._lower_instances([(uni, {"u": "r"})])
    assert engine.add_clause == engine.sat.add_clause
    for term in ("(not (and p q))", "p", "q"):
        engine.assert_term(parse_all(term)[0])
    assert engine.check_sat() == "unsat"


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


def test_let_that_shadows_a_bound_variable_is_expanded_before_instances():
    """(let ((u 2)) ...) in a universal's body binds a new u: an instance
    substitutes the bound u only outside it."""
    universal = "(forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) {}))"
    script = """(declare-fun x () Int)
(assert (and (<= 0 x) (<= x 3)))
(assert {})
(check-sat)
(get-value (x))
"""
    with_let = statistics_of(script.format(
        universal.format("(or (= u 0) (let ((u 2)) (< u x)))")))
    expanded = statistics_of(script.format(universal.format("(or (= u 0) (< 2 x))")))
    assert with_let == expanded
    assert with_let[":mbqi-rounds"] > 0
    assert serve_replies(script.format(universal.format(
        "(or (= u 0) (let ((u 2)) (< u x)))")))[-2:] == ["sat", "((x 3))"]


def test_forall_binder_shadows_an_outer_let_name():
    """The bound u is not the let's u: the universal forces y to 3."""
    script = """(declare-fun y () Int)
(assert (and (<= 0 y) (<= y 3)))
(assert (let ((u 1)) (forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) (<= u y)))))
(check-sat)
(get-value (y))
"""
    assert serve_replies(script) == ["sat", "((y 3))"]
    # a let value that names the bound variable would be captured by it
    captured = script.replace("((u 1))", "((w u))").replace("(<= u y)", "(<= w y)")
    assert serve_replies(captured)[0] == (
        '(error "a let value under forall names one of its bound variables")')


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


def test_passed_deadline_answers_unknown_before_an_mbqi_round():
    engine = Engine()
    engine.declare_fun("x", "Int")
    engine.assert_term(parse_all("(and (<= 0 x) (<= x 3))")[0])
    engine.assert_term(parse_all(
        "(forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) (not (= u x))))")[0])
    assert engine.check_sat(timeout_ms=0) == "unknown"
    assert engine.mbqi_rounds == 0 and engine.violation_solves == 0
    assert engine.check_sat() == "unsat"


def test_passed_deadline_answers_unknown_before_a_violation_solve(monkeypatch):
    """The deadline passes during the main solve; the violation sub-solve,
    which would find no conflict and so never test it, must not run."""
    engine = Engine()
    engine.declare_fun("p", "Bool")
    engine.declare_fun("x", "Int")
    engine.assert_term(parse_all("(and (<= 0 x) (<= x 3))")[0])
    engine.assert_term("p")
    engine.assert_term(parse_all(
        "(forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) (or p (= u x))))")[0])
    clock = [0.0]
    monkeypatch.setattr(engine_module.time, "monotonic", lambda: clock[0])
    solve = engine.sat.solve

    def solve_past_the_deadline(*args, **kwargs):
        result = solve(*args, **kwargs)
        clock[0] = 10.0
        return result

    engine.sat.solve = solve_past_the_deadline
    assert engine.check_sat(timeout_ms=1000) == "unknown"
    assert engine.violation_solves == 0
    assert engine.check_sat() == "sat"


def test_passed_deadline_answers_unknown_between_instances(monkeypatch):
    """The deadline passes while a round's first instance is lowered: the
    second is not lowered, and the first reaches the solver."""
    engine = Engine()
    for name in ("x", "y"):
        engine.declare_fun(name, "Int")
        engine.assert_term(parse_all(f"(and (<= 0 {name}) (<= {name} 3))")[0])
        engine.assert_term(parse_all(
            f"(forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) (<= u {name})))")[0])
    clock = [0.0]
    monkeypatch.setattr(engine_module.time, "monotonic", lambda: clock[0])
    substitute_now = engine_module.substitute
    lowered = []

    def substitute_past_the_deadline(term, mapping):
        lowered.append(term)
        clock[0] = 10.0
        return substitute_now(term, mapping)

    monkeypatch.setattr(engine_module, "substitute", substitute_past_the_deadline)
    assert engine.check_sat(timeout_ms=1000) == "unknown"
    assert len(lowered) == 1 and engine.mbqi_rounds == 0
    # x is 0 in the first model; the instance (<= u x), with u the witness
    # above 0, makes (<= x 0) false in the solver for good
    x_le_0 = engine._order_bit("x", 0)
    assert engine.sat.litval[x_le_0] == -1 and engine.sat.level[x_le_0 >> 1] == 0
    assert engine.check_sat() == "sat"
    assert engine.get_values(["x", "y"]) == [("x", 3), ("y", 3)]


def test_substitute_leaves_no_reference_cycles():
    term = ("and", ("=", "x", "y"), ("or", ("not", "b"), ("<=", "x", 3)))
    assert substitute(term, {"x": 2, "b": "true"}) == (
        "and", ("=", 2, "y"), ("or", ("not", "true"), ("<=", 2, 3))
    )
    gc.collect()
    gc.disable()
    try:
        for value in range(100):
            substitute(term, {"x": value % 4})
        assert gc.collect() == 0
    finally:
        gc.enable()


STAT_KEYS = [":decisions", ":conflicts", ":undone", ":restarts", ":learned",
             ":clauses", ":vars", ":solves", ":resumed-solves", ":mbqi-rounds",
             ":instances", ":violation-solves"]


def test_all_statistics_repeat_on_a_replayed_transcript(dataset_dir, tmp_path):
    """A dumped synthesis transcript replays to the same work counters."""
    from glycanrules.backend import default_solver_config
    from glycanrules.driver import Budgets, SynthesisJob, synthesize
    from glycanrules.grammar import parse_dataset

    data = parse_dataset((dataset_dir / "compartments_pair.gly").read_text())
    job = SynthesisJob(data, Budgets(3, 2, compartments=2),
                       solver=default_solver_config(dump_dir=str(tmp_path)))
    assert synthesize(job).status == "Synthesized"
    transcript = max(tmp_path.glob("query_*_synth.smt2"),
                     key=lambda p: int(p.name.split("_")[1])).read_text()
    script = transcript + "(get-info :all-statistics)\n(get-info :name)\n(exit)\n"
    # each replay is a fresh process with its own hash seed
    first, second = run_solver(script), run_solver(script)
    assert first == second
    assert first[-1] == '(:name "glycanrules-minismt")'
    stats = parse_all(first[-2])[0]
    counts = dict(zip(stats[::2], stats[1::2]))
    assert list(counts) == STAT_KEYS
    assert all(isinstance(n, int) and n >= 0 for n in counts.values())
    assert counts[":mbqi-rounds"] > 0 and counts[":violation-solves"] > 0
    assert counts[":decisions"] > 0 and counts[":undone"] > 0
    # The exact search.  A change that leaves every decision as it is keeps
    # these counts; one that means to change the search updates them.
    assert counts == {
        ":decisions": 94, ":conflicts": 15, ":undone": 1972, ":restarts": 0,
        ":learned": 5, ":clauses": 2715, ":vars": 1015, ":solves": 4,
        ":resumed-solves": 2, ":mbqi-rounds": 2, ":instances": 2,
        ":violation-solves": 3,
    }


def test_served_sessions_leave_no_reference_cycles(dataset_dir, tmp_path):
    """The solver child runs with the cyclic collector off: serving a
    synthesis transcript, and scripts that end in error replies, must leave
    nothing for it to collect."""
    from glycanrules.backend import default_solver_config
    from glycanrules.driver import Budgets, SynthesisJob, synthesize
    from glycanrules.grammar import parse_dataset

    data = parse_dataset((dataset_dir / "compartments_pair.gly").read_text())
    job = SynthesisJob(data, Budgets(3, 2, compartments=2),
                       solver=default_solver_config(dump_dir=str(tmp_path)))
    assert synthesize(job).status == "Synthesized"
    transcripts = [path.read_text() for path in sorted(tmp_path.glob("query_*.smt2"))]
    failing = [
        "(push 1)\n(assert (and p\n",
        "(declare-fun x () Int)\n(assert (< x 3))\n(get-value (x))\n",
        "(declare-fun p () Bool)\n(assert (=> p (* p 2)))\n(assert (= p 1))\n",
        "(declare-datatypes ((A 0) (B 0)) (((a1) (a2))))\n(set-option :timeout x)\n",
        "(declare-fun x () Int)\n(assert (and (<= 0 x) (<= x 3)))\n"
        "(assert (forall ((u Int)) (=> (and (<= 0 u) (<= u 3)) (<= u (+ x 1)))))\n"
        "(check-sat)\n",
        "(declare-fun y () Int)\n"
        "(assert (let ((w u)) (forall ((u Int)) (=> (<= u 3) (<= w y)))))\n",
    ]
    gc.collect()
    gc.disable()
    try:
        replies = [serve_replies(script) for script in transcripts + failing]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all("sat" in out and not any(r.startswith("(error") for r in out)
               for out in replies[:len(transcripts)])
    assert all(any(r.startswith("(error") for r in out)
               for out in replies[len(transcripts):])


MBQI_DOMAINS = {"Bool": (False, True), "E": ("M0", "M1", "M2"), "Int": (0, 1, 2)}
MBQI_FREE = {"p": "Bool", "q": "Bool", "e": "E", "x": "Int", "y": "Int"}


def random_mbqi_term(rng, names, depth):
    """A random formula over `names` (name -> sort) and the enum members."""
    by_sort = {s: [n for n, t in names.items() if t == s] for s in MBQI_DOMAINS}

    def atom():
        sort = rng.choice(["Bool", "E", "Int", "Int"])
        if sort == "Bool":
            return rng.choice(by_sort["Bool"])
        a = rng.choice(by_sort[sort])
        if sort == "E":
            b = rng.choice(by_sort["E"] + list(MBQI_DOMAINS["E"]))
            return f"(= {a} {b})"
        b = rng.choice(by_sort["Int"] + [0, 1, 2])
        op = rng.choice(["<", "<=", "="])
        return f"({op} {a} {b})" if rng.random() < 0.5 else f"({op} {b} {a})"

    def term(d):
        if d == 0 or rng.random() < 0.3:
            return atom()
        op = rng.choice(["and", "or", "not", "=>"])
        if op == "not":
            return f"(not {term(d - 1)})"
        return f"({op} {term(d - 1)} {term(d - 1)})"

    return term(depth)


def random_universal(rng, index):
    bound = {f"v{index}{j}": rng.choice(list(MBQI_DOMAINS)) for j in range(rng.randint(1, 3))}
    body = random_mbqi_term(rng, {**MBQI_FREE, **bound}, 3)
    binders = " ".join(f"({n} {s})" for n, s in bound.items())
    ranges = [f"(<= 0 {n}) (<= {n} 2)" for n, s in bound.items() if s == "Int"]
    guard = f"(and {' '.join(ranges)})" if ranges else "true"
    text = f"(forall ({binders}) (=> {guard} {body}))"
    return text, (bound, parse_all(body)[0])


def mbqi_holds(assertion, env) -> bool:
    if assertion[0] == "ground":
        return eval_sexpr(assertion[1], env)
    bound, body = assertion[1]
    return all(
        eval_sexpr(body, {**env, **dict(zip(bound, values))})
        for values in itertools.product(*(MBQI_DOMAINS[s] for s in bound.values()))
    )


@pytest.mark.parametrize("trial", range(60))
def test_mbqi_agrees_with_the_expanded_problem(trial):
    """Random universals and ground asserts, checked after each batch: every
    check-sat answers as the fully expanded ground problem does, and every
    model satisfies all assertions made so far."""
    rng = random.Random(3000 + trial)
    lines = ["(declare-datatypes ((E 0)) (((M0) (M1) (M2))))"]
    for name, sort in MBQI_FREE.items():
        lines.append(f"(declare-fun {name} () {sort})")
        if sort == "Int":
            lines.append(f"(assert (and (<= 0 {name}) (<= {name} 2)))")
    asserted = []  # the assertions made so far
    checks = []  # the assertions active at each check-sat
    universals = 0

    def add_assertions(count):
        nonlocal universals
        for _ in range(count):
            if universals < 3 and rng.random() < 0.6:
                text, parts = random_universal(rng, universals)
                universals += 1
                asserted.append(("forall", parts))
            else:
                text = random_mbqi_term(rng, MBQI_FREE, 2)
                asserted.append(("ground", parse_all(text)[0]))
            lines.append(f"(assert {text})")

    def check():
        lines.append("(check-sat)")
        lines.append(f"(get-value ({' '.join(MBQI_FREE)}))")
        checks.append(list(asserted))

    for _ in range(rng.randint(2, 3)):
        add_assertions(rng.randint(1, 3))
        check()
    lines.append("(exit)")
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    replies = out.getvalue().splitlines()
    assert len(replies) == 2 * len(checks), replies
    envs = [dict(zip(MBQI_FREE, values))
            for values in itertools.product(*(MBQI_DOMAINS[s] for s in MBQI_FREE.values()))]
    for i, active in enumerate(checks):
        answer, values = replies[2 * i], replies[2 * i + 1]
        expected = any(all(mbqi_holds(a, env) for a in active) for env in envs)
        assert answer == ("sat" if expected else "unsat"), (i, lines)
        if answer == "sat":
            model = {}
            for name, value in parse_all(values)[0]:
                model[name] = value == "true" if MBQI_FREE[name] == "Bool" else value
            assert all(mbqi_holds(a, model) for a in active), (i, model, lines)
