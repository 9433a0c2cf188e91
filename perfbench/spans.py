"""Self-time spans and counters for the benchmark's traced runs.

Tracing is installed from outside the program: `Tracer.patch` replaces a
function or method with a wrapper that times the call.  A span's self time is
its duration minus the time of the spans it encloses, so every traced second
lands in exactly one metric.  A recursive call of a span already open is not
timed again.  `ClientTrace` covers the layers that run in the benchmark
process; `install_minismt` covers the bundled solver and runs inside the
solver child (see `launcher.py`).
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)  # metric -> self seconds
        self.counts = defaultdict(int)  # metric -> count
        self._stack = []  # open spans: [metric, seconds of enclosed spans]
        self._active = set()
        self._undo = []

    def patch(self, owner, attr, metric, after=None, skip_under=()):
        """Wrap `owner.attr` in a span named `metric`.

        `metric` may be a function of the call's arguments.  `after(result,
        args)` runs once the span has closed; its time is charged to no span.
        A call made directly inside a span named in `skip_under` is left
        untimed, so it stays in that span's self time.
        """
        orig = getattr(owner, attr)
        key = (id(owner), attr)
        stack, active = self._stack, self._active
        seconds = self.seconds
        clock = time.perf_counter

        def wrapper(*args, **kw):
            if key in active or (stack and stack[-1][0] in skip_under):
                return orig(*args, **kw)
            name = metric(args) if callable(metric) else metric
            active.add(key)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kw)
            finally:
                elapsed = clock() - t0
                stack.pop()
                active.discard(key)
                seconds[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                t1 = clock()
                after(result, args)
                if stack:
                    stack[-1][1] += clock() - t1
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def count(self, owner, attr, hook):
        """Call `hook(result, args)` after each call of `owner.attr`, untimed.

        For calls too frequent to time, such as one per solver conflict; the
        hook's cost stays in the enclosing span.
        """
        orig = getattr(owner, attr)

        def wrapper(*args, **kw):
            result = orig(*args, **kw)
            hook(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def count_nodes(f) -> int:
    """Distinct nodes of a formula DAG."""
    from glycanrules.formula import And, Forall, Iff, Implies, Not, Or

    seen = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if isinstance(g, Not):
            todo.append(g.arg)
        elif isinstance(g, (And, Or)):
            todo.extend(g.args)
        elif isinstance(g, (Implies, Iff)):
            todo.append(g.left)
            todo.append(g.right)
        elif isinstance(g, Forall):
            todo.append(g.body)
    return len(seen)


class ClientTrace:
    """Spans and counters of the layers that run in the benchmark process."""

    def __init__(self):
        self.tracer = Tracer()
        self._roles = {}  # id(session) -> "synth" | "cex", for the current job

    def begin_job(self):
        self._roles.clear()

    def install(self):
        from glycanrules import backend, driver, encoder
        from glycanrules.formula import Forall, domain_size

        t = self.tracer
        c = t.counts
        session = backend.Session

        def opened(_, args):
            # synthesize opens the synthesis session first, then the
            # counterexample session
            self._roles[id(args[0])] = "synth" if len(self._roles) % 2 == 0 else "cex"
            c["backend.sessions"] += 1

        def query_metric(args):
            role = self._roles.get(id(args[0]), "synth")
            return f"driver.{role}_query_s"

        def expanded(_, args):
            f = args[1]
            if isinstance(f, Forall):
                size = domain_size(f.vars)
                if size <= args[0].config.expand_quantifier_threshold:
                    c["backend.expand_instances"] += size

        def emitted(text, args):
            c["backend.emit_bytes"] += len(text)
            c["formula.nodes_asserted"] += count_nodes(args[1])

        def closed(_, args):
            c["backend.queries"] += args[0].check_count

        def verified(*_):
            c["producer.verify_calls"] += 1

        t.patch(session, "__init__", "backend.spawn_s", after=opened)
        t.patch(session, "close", "backend.close_s", after=closed)
        t.patch(session, "_send", "backend.assert_wait_s",
                skip_under=("backend.spawn_s", "backend.close_s"))
        t.patch(session, "_maybe_expand", "backend.expand_s", after=expanded)
        t.patch(session, "check_sat", query_metric)
        t.patch(session, "get_model", "backend.get_model_s")
        t.patch(backend._Emitter, "emit", "backend.emit_s", after=emitted)
        t.patch(backend, "substitute", "formula.substitute_s")
        t.patch(encoder, "substitute", "formula.substitute_s")
        t.patch(driver, "encode_produce", "encoder.produce_s")
        for name in ("make_rule_templates", "make_molecule_template",
                     "rule_template_correctness", "mol_template_correctness",
                     "symmetry_break"):
            t.patch(driver, name, "encoder.templates_s")
        t.patch(driver, "negative_constraint", "encoder.negative_s")
        t.patch(driver, "decode_rules", "encoder.decode_s")
        t.patch(driver, "decode_molecule", "encoder.decode_s")
        t.patch(driver, "verify", "producer.verify_s", after=verified)

    def restore(self):
        self.tracer.restore()


def install_minismt(tracer: Tracer, solvers: list):
    """Trace the bundled solver's layers; every new SAT solver joins `solvers`."""
    from glycanrules.minismt import __main__ as front
    from glycanrules.minismt import engine, sat, sexpr

    c = tracer.counts
    cluster = engine.Engine.declare_cluster

    def declare_cluster(self, names):
        before = len(self.sat.clauses)
        cluster(self, names)
        c["minismt.cluster_clauses"] += len(self.sat.clauses) - before

    def analyzed(result, args):
        c["minismt.conflicts"] += 1
        if len(result[0]) > 1:  # unit clauses are enqueued, not stored
            c["minismt.learned"] += 1
            args[0].perfbench_learned += 1

    def created(_, args):
        args[0].perfbench_learned = 0
        solvers.append(args[0])

    def violation(witness, _):
        if witness is not None and witness != "unknown":
            c["minismt.mbqi_rounds"] += 1

    engine.Engine.declare_cluster = declare_cluster
    tracer.patch(engine.Engine, "declare_cluster", "minismt.cluster_s")
    tracer.patch(sexpr.Reader, "feed", "minismt.parse_s")
    tracer.patch(front, "expand_lets", "minismt.let_expand_s")
    tracer.patch(engine.Engine, "assert_term", "minismt.lower_s")
    tracer.patch(engine.Engine, "check_sat", "minismt.mbqi_s")
    tracer.patch(engine.Engine, "_find_violation", "minismt.mbqi_s", after=violation)
    tracer.patch(sat.Solver, "solve", "minismt.search_s")
    tracer.count(sat.Solver, "__init__", created)
    tracer.count(sat.Solver, "_analyze", analyzed)


def solver_sizes(solvers) -> dict:
    """Problem clauses (learned ones excluded) and variables over `solvers`."""
    return {
        "minismt.clauses": sum(len(s.clauses) - s.perfbench_learned for s in solvers),
        "minismt.vars": sum(s.nvars for s in solvers),
    }
