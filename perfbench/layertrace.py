"""Per-layer tracing from outside the package.

``install`` replaces every public function and public method of the
layer modules, in every ``planegraphs`` module that holds a reference to
it, with a wrapper that counts the call and charges its time to the
callee's layer.  A layer's self time is the time its calls took minus the
time of the calls they made into other layers.  Calls within one layer
are only counted, so a layer's internal structure costs nothing extra.

Calls into another layer are timed.  Most of them also record a span
``(name, layer, start, end, parent span)``, kept in memory and written out
at the end.  The hot leaf calls (field operations, incidence primitives,
methods of the data classes) run millions of times, so they keep only
their aggregated count and time.  ``calibrate`` measures what one wrapper
adds; the tracer takes that cost off the self times, and the report gives
it per call.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import types
from collections import Counter

LAYERS = ("gf", "plane", "cycles", "wheelgear", "graphs", "oracle", "cli")

# Module-level functions that keep no per-call span.  Every class method
# is treated the same way.
LEAF_FUNCTIONS = {
    "gf.is_prime", "gf.factorize", "gf.prime_power", "gf.is_primitive",
    "gf.element_order", "gf.gamma_map", "gf.gamma_prime_map",
    "plane.canon", "plane.line_through", "plane.intersect", "plane.incident",
    "plane.is_affine", "plane.affine_triple", "plane.affine_coords",
    "plane.parallel_line", "plane.direction_of_slope",
}

# Operators of the field element class, traced like public methods.
OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__"}

# Inclusive timers: the time from entering the first of these names until
# it returns, whatever layer the caller is in.
GROUPS = {
    "gf.make_field": "gf.make_field_s",
    "plane.CoordPlane.to_generic": "plane.to_generic_s",
    "cycles.singer_cycle": "cycles.singer_s",
    "cycles.singer_difference_set": "cycles.singer_s",
    "graphs.write_embedding": "graphs.io_s",
    "graphs.read_embedding": "graphs.io_s",
    "oracle.exists_embedding": "oracle.search_s",
}

ROUTES = ("ARC", "EXPLICIT", "FROM_WHEEL", "PATHS_EVEN", "PATHS_ODD", "MAX_EVEN", "MAX_ODD", "ORACLE")

ENC_OPS = ("eadd", "esub", "eneg", "emul", "einv", "ediv")
ELEMENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse")


class Tracer:
    """Call counts, per-layer self time, inclusive group times and spans.

    ``inner_s`` and ``outer_s`` are the parts of one wrapper's own cost
    that fall inside and outside the interval it times (see
    ``calibrate``).  Each frame's self time has them taken off, so that a
    layer is not charged for the wrappers around the calls it makes.
    """

    def __init__(self, clock=time.perf_counter, inner_s=0.0, outer_s=0.0):
        self.clock = clock
        self.inner_s = inner_s
        self.outer_s = outer_s
        self.self_s = Counter()
        self.group_s = Counter()
        self.extra = Counter()
        self.spans = []
        self.observers = {}
        self._calls = {}
        self._depth = Counter()
        # frames: [layer, seconds in timed children, enclosing span, timed children]
        self._stack = [[None, 0.0, -1, 0]]

    def count(self, name: str) -> int:
        return self._calls.get(name, [0])[0]

    def wrap(self, fn, layer: str, name: str, leaf: bool):
        stack, clock, spans = self._stack, self.clock, self.spans
        self_s, group_s, depth = self.self_s, self.group_s, self._depth
        inner, outer = self.inner_s, self.outer_s
        group = GROUPS.get(name)
        observe = self.observers.get(name)
        calls = self._calls.setdefault(name, [0])

        def call(*args, **kwargs):
            calls[0] += 1
            caller = stack[-1]
            if group is None and caller[0] == layer:
                # same layer: the time stays with the enclosing frame
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, args, layer)
                return result
            if leaf:
                frame = [layer, 0.0, caller[2], 0]
            else:
                frame = [layer, 0.0, len(spans), 0]
                spans.append(None)
            if group is not None:
                depth[group] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1] - inner - outer * frame[3]
                caller[1] += dur
                caller[3] += 1
                if group is not None:
                    depth[group] -= 1
                    if not depth[group]:
                        group_s[group] += dur
                if not leaf:
                    spans[frame[2]] = (name, layer, t0, t1, caller[2])
            if observe is not None:
                observe(result, args, caller[0])
            return result

        call.__wrapped__ = fn
        return call


def _public_members(cls):
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        if isinstance(val, (types.FunctionType, property, classmethod)):
            yield attr, val


def install(tracer: Tracer) -> None:
    """Wrap the public names of every layer module, everywhere they are bound."""
    replace = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"planegraphs.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            qual = f"{layer}.{name}"
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                for attr, val in _public_members(obj):
                    mq = f"{qual}.{attr}"
                    if isinstance(val, property):
                        new = property(tracer.wrap(val.fget, layer, mq, leaf=True))
                    elif isinstance(val, classmethod):
                        new = classmethod(tracer.wrap(val.__func__, layer, mq, leaf=True))
                    else:
                        new = tracer.wrap(val, layer, mq, leaf=True)
                    setattr(obj, attr, new)
            elif callable(obj):
                replace[id(obj)] = (obj, tracer.wrap(obj, layer, qual, qual in LEAF_FUNCTIONS))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "planegraphs" or modname.startswith("planegraphs.")):
            continue
        for name, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


def calibrate(n: int = 200_000) -> tuple:
    """(inner, outer) seconds one timed wrapper adds to a call.

    Measured on a no-op function: ``inner`` is the part the wrapper's own
    timer sees, ``outer`` the rest of the added cost, which lands in the
    caller's interval.  The smallest of three rounds is kept.
    """

    def noop():
        return None

    best = None
    for _ in range(3):
        t = Tracer()
        wrapped = t.wrap(noop, "x", "x.noop", leaf=True)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        total = ((t2 - t1) - (t1 - t0)) / n
        inner = t.self_s["x"] / n - (t1 - t0) / n
        if best is None or total < best[0] + best[1]:
            best = (inner, total - inner)
    return best


def add_observers(tracer: Tracer) -> None:
    """Counters read from the results of particular calls."""
    c = tracer.extra

    def verified(rep, args, caller):
        c["graphs.verify_ok"] += rep.ok
        c["graphs.violations"] += len(rep.violations)

    def written(_, args, caller):
        c["graphs.write_bytes"] += os.path.getsize(args[1])

    def searched(res, args, caller):
        c["oracle.expansions"] += res.expansions
        c["oracle.budget_hits"] += res.status == "budget"

    def planned(plan, args, caller):
        # only plans the caller asked for; a gear built from a wheel also
        # plans the wheel inside the layer
        if caller != "wheelgear":
            c[f"wheelgear.route.{plan.route}"] += 1

    tracer.observers.update({
        "graphs.verify_embedding": verified,
        "graphs.write_embedding": written,
        "oracle.exists_embedding": searched,
        "wheelgear.wheel_plan": planned,
        "wheelgear.gear_plan": planned,
    })


def layer_metrics(tracer: Tracer, cells: int, fields_built: int) -> dict:
    """The per-layer metrics, by name, from one traced pass."""
    c, e, s, g = tracer.count, tracer.extra, tracer.self_s, tracer.group_s
    verify = c("graphs.verify_embedding")
    search_s = g["oracle.search_s"]
    m = {f"{layer}.self_s": s[layer] for layer in LAYERS}
    m.update({
        "gf.enc_ops": sum(c(f"gf.FieldSpec.{op}") for op in ENC_OPS),
        "gf.element_ops": sum(c(f"gf.FieldElement.{op}") for op in ELEMENT_OPS),
        "gf.primitive_tests": c("gf.is_primitive"),
        "gf.fields_built": fields_built,
        "gf.make_field_s": g["gf.make_field_s"],
        "plane.lines_computed": c("plane.line_through"),
        "plane.incidence_tests": c("plane.incident"),
        "plane.planes_built": c("plane.pg_from_field") + c("plane.ag_from_field"),
        "plane.to_generic_calls": c("plane.CoordPlane.to_generic"),
        "plane.to_generic_s": g["plane.to_generic_s"],
        "cycles.constructions": c("cycles.ag_cycle") + c("cycles.pg_cycle"),
        "cycles.long_cycles": c("cycles.long_cycle"),
        "cycles.singer_s": g["cycles.singer_s"],
        "wheelgear.plans": c("wheelgear.wheel_plan") + c("wheelgear.gear_plan"),
        "graphs.verify_calls": verify,
        "graphs.verify_per_cell": verify / cells,
        "graphs.verify_ok_ratio": e["graphs.verify_ok"] / verify if verify else 0.0,
        "graphs.violations": e["graphs.violations"],
        "graphs.embeddings_made": c("graphs.make_embedding"),
        "graphs.write_bytes": e["graphs.write_bytes"],
        "graphs.io_s": g["graphs.io_s"],
        "oracle.searches": c("oracle.exists_embedding"),
        "oracle.expansions": e["oracle.expansions"],
        "oracle.expansions_per_s": e["oracle.expansions"] / search_s if search_s else 0.0,
        "oracle.budget_hits": e["oracle.budget_hits"],
        "cli.commands": c("cli.main"),
    })
    for tag in ROUTES:
        m[f"wheelgear.route.{tag}"] = e[f"wheelgear.route.{tag}"]
    return m
