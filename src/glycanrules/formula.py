"""Solver-agnostic constraint AST over finite-domain variables.

Three sorts: Boolean, bounded integer, and enumeration.  Connectives fold
constants at construction time, so a formula built against concrete inputs
partially evaluates for free.  Nodes use identity equality.  Sharing a
subterm object saves building it again; the backend writes it out at each use,
and the solver maps equal terms to one literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union


@dataclass(frozen=True)
class IntSort:
    lo: int
    hi: int


@dataclass(frozen=True)
class EnumSort:
    name: str
    members: tuple[str, ...]


BOOL = "Bool"
Sort = Union[str, IntSort, EnumSort]


@dataclass(frozen=True, eq=False)
class Var:
    name: str
    sort: Sort


class Formula:
    __slots__ = ()


class _Const(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"


TRUE = _Const(True)
FALSE = _Const(False)


class BoolRef(Formula):
    __slots__ = ("var",)

    def __init__(self, var: Var):
        self.var = var


class EnumEq(Formula):
    """var = member (constant) or var = var."""

    __slots__ = ("left", "right")

    def __init__(self, left: Var, right):
        self.left = left
        self.right = right


class IntCmp(Formula):
    """lhs op rhs with op in {'<', '<=', '='}; operands are Var or int."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs, rhs):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        self.arg = arg


class And(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


class Or(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


class Implies(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right


class Iff(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right


class Forall(Formula):
    __slots__ = ("vars", "body")

    def __init__(self, vars: tuple, body: Formula):
        self.vars = vars
        self.body = body


# ----- constructors with constant folding -----


def conj(items: Iterable[Formula]) -> Formula:
    out = []
    for f in items:
        if f is TRUE:
            continue
        if f is FALSE:
            return FALSE
        out.append(f)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def disj(items: Iterable[Formula]) -> Formula:
    out = []
    for f in items:
        if f is FALSE:
            continue
        if f is TRUE:
            return TRUE
        out.append(f)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


def not_(f: Formula) -> Formula:
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def implies(a: Formula, b: Formula) -> Formula:
    if a is FALSE or b is TRUE:
        return TRUE
    if a is TRUE:
        return b
    if b is FALSE:
        return not_(a)
    return Implies(a, b)


def iff(a: Formula, b: Formula) -> Formula:
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return not_(b)
    if b is FALSE:
        return not_(a)
    if a is b:
        return TRUE
    return Iff(a, b)


def bool_ref(var: Var) -> Formula:
    return BoolRef(var)


def enum_is(var, member) -> Formula:
    """Equality over the enum sort; either side may be a constant member."""
    if isinstance(var, str) and isinstance(member, Var):
        var, member = member, var
    if isinstance(var, str) and isinstance(member, str):
        return TRUE if var == member else FALSE
    if isinstance(member, str):
        if member not in var.sort.members:
            raise ValueError(f"{member!r} not in sort {var.sort.name}")
        return EnumEq(var, member)
    if var is member:
        return TRUE
    if var.sort is not member.sort and var.sort != member.sort:
        raise ValueError("enum sort mismatch")
    return EnumEq(var, member)


def int_cmp(op: str, lhs, rhs) -> Formula:
    if isinstance(lhs, int) and isinstance(rhs, int):
        result = {
            "<": lhs < rhs,
            "<=": lhs <= rhs,
            "=": lhs == rhs,
        }[op]
        return TRUE if result else FALSE
    if lhs is rhs:
        return FALSE if op == "<" else TRUE
    for side in (lhs, rhs):
        if isinstance(side, Var) and not isinstance(side.sort, IntSort):
            raise ValueError(f"{side.name} is not an integer variable")
    return IntCmp(op, lhs, rhs)


def int_lt(lhs, rhs) -> Formula:
    return int_cmp("<", lhs, rhs)


def int_le(lhs, rhs) -> Formula:
    return int_cmp("<=", lhs, rhs)


def int_eq(lhs, rhs) -> Formula:
    return int_cmp("=", lhs, rhs)


def exactly_one(items: list) -> Formula:
    """Cardinality-1 over a small list, pairwise encoded."""
    parts = [disj(items)]
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            parts.append(not_(conj([items[i], items[j]])))
    return conj(parts)


def forall(vars: Iterable[Var], body: Formula) -> Formula:
    vs = tuple(vars)
    if not vs or body is TRUE or body is FALSE:
        return body
    return Forall(vs, body)


# ----- traversal helpers -----


def substitute(f: Formula, binding: dict) -> Formula:
    """Replace variables by constants (bool / int / member name), folding."""
    return _substitute(f, binding, {})


def _substitute(g: Formula, binding: dict, memo: dict) -> Formula:
    """`substitute` over the DAG below `g`, memoized by node identity.

    Module-level, not a closure inside `substitute`: a recursive closure is a
    reference cycle that keeps each call's memo alive until a collection.
    """
    if isinstance(g, _Const):
        return g
    hit = memo.get(id(g))
    if hit is not None:
        return hit
    if isinstance(g, BoolRef):
        got = binding.get(g.var)
        out = g if got is None else (TRUE if got else FALSE)
    elif isinstance(g, EnumEq):
        out = enum_is(_value_of(g.left, binding), _value_of(g.right, binding))
    elif isinstance(g, IntCmp):
        out = int_cmp(g.op, _value_of(g.lhs, binding), _value_of(g.rhs, binding))
    elif isinstance(g, Not):
        out = not_(_substitute(g.arg, binding, memo))
    elif isinstance(g, And):
        out = conj([_substitute(a, binding, memo) for a in g.args])
    elif isinstance(g, Or):
        out = disj([_substitute(a, binding, memo) for a in g.args])
    elif isinstance(g, Implies):
        out = implies(_substitute(g.left, binding, memo),
                      _substitute(g.right, binding, memo))
    elif isinstance(g, Iff):
        out = iff(_substitute(g.left, binding, memo),
                  _substitute(g.right, binding, memo))
    elif isinstance(g, Forall):
        out = forall(g.vars, _substitute(g.body, binding, memo))
    else:
        raise TypeError(f"unknown formula node {g!r}")
    memo[id(g)] = out
    return out


def _value_of(v, binding: dict):
    return binding.get(v, v) if isinstance(v, Var) else v


def evaluate(f: Formula, env: dict) -> bool:
    """Truth-table evaluation; `env` maps Var -> bool | int | member."""
    if isinstance(f, _Const):
        return f.value
    if isinstance(f, BoolRef):
        return bool(env[f.var])
    if isinstance(f, EnumEq):
        left = env[f.left]
        right = env[f.right] if isinstance(f.right, Var) else f.right
        return left == right
    if isinstance(f, IntCmp):
        lhs = env[f.lhs] if isinstance(f.lhs, Var) else f.lhs
        rhs = env[f.rhs] if isinstance(f.rhs, Var) else f.rhs
        return {"<": lhs < rhs, "<=": lhs <= rhs, "=": lhs == rhs}[f.op]
    if isinstance(f, Not):
        return not evaluate(f.arg, env)
    if isinstance(f, And):
        return all(evaluate(a, env) for a in f.args)
    if isinstance(f, Or):
        return any(evaluate(a, env) for a in f.args)
    if isinstance(f, Implies):
        return (not evaluate(f.left, env)) or evaluate(f.right, env)
    if isinstance(f, Iff):
        return evaluate(f.left, env) == evaluate(f.right, env)
    if isinstance(f, Forall):
        for combo in domain_product(f.vars):
            inner = dict(env)
            inner.update(zip(f.vars, combo))
            if not evaluate(f.body, inner):
                return False
        return True
    raise TypeError(f"unknown formula node {f!r}")


def domain_values(sort: Sort):
    if sort == BOOL:
        return [False, True]
    if isinstance(sort, IntSort):
        return list(range(sort.lo, sort.hi + 1))
    return list(sort.members)


def domain_product(vars: tuple):
    import itertools

    return itertools.product(*[domain_values(v.sort) for v in vars])


def domain_size(vars: tuple) -> int:
    size = 1
    for v in vars:
        size *= len(domain_values(v.sort))
    return size


class VarRegistry:
    """Deterministic variable factory: names are [<ns>]v<counter>_<role>."""

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self.counter = 0

    def make(self, role: str, sort: Sort) -> Var:
        name = f"{self.namespace}v{self.counter}_{role}"
        self.counter += 1
        return Var(name, sort)
