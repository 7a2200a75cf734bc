"""Span tracing of sqfree's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function in every sqfree module that
binds it (``sqfree.selberg.count_congruent`` is the same object as
``sqfree.sieve.count_congruent``, so both names are wrapped) and
``Tracer.restore`` puts the originals back.  Spans are kept in memory as
(name, start, end, parent span, job id, error) and written out once the run
ends.  Counters that need a function's inputs or result are computed by the
hooks below, after the span has closed.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

LAYERS = {
    "arith": ("primes_up_to", "mobius_up_to"),
    "sieve": ("count_tuples", "count_squarefree", "count_congruent"),
    "density": ("density_constant",),
    "selberg": ("optimal_weights", "quadratic_form_bound"),
    "buchstab": ("buchstab_decompose", "count_square_multiples"),
    "cli": ("run_command", "render"),
}
TRACED = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
MODULES = ("sqfree", "sqfree.arith", "sqfree.sieve", "sqfree.density", "sqfree.selberg",
           "sqfree.buchstab", "sqfree.cli")

NAME, START, END, PARENT, JOB, ERROR = range(6)


class Tracer:
    """Wraps the traced functions while installed and records their spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[str, object] = {}
        self.originals = {}
        for module, fns in LAYERS.items():
            mod = importlib.import_module(f"sqfree.{module}")
            for fn in fns:
                self.originals[f"{module}.{fn}"] = getattr(mod, fn)
        self._prime_counts: dict[int, int] = {}

    def bindings(self):
        """Every (module, attribute, traced name) that binds a traced original."""
        by_id = {id(fn): name for name, fn in self.originals.items()}
        out = []
        for module in MODULES:
            mod = importlib.import_module(module)
            for attr, value in vars(mod).items():
                name = by_id.get(id(value))
                if name is not None and value is self.originals[name]:
                    out.append((mod, attr, name))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, attr, name in self.bindings():
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, self.originals[name])
            setattr(mod, attr, self._wrappers[name])
            self._patches.append((mod, attr, self.originals[name]))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, True]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                span[ERROR] = False
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def prime_count(self, bound: int) -> int:
        count = self._prime_counts.get(bound)
        if count is None:
            count = len(self.originals["arith.primes_up_to"](bound))
            self._prime_counts[bound] = count
        return count

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent, job, error]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[JOB], s[ERROR]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "job", "error"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict:
    """calls, busy_s, self_s and errors per traced name.

    Busy time counts a span only when no ancestor has the same name, so a
    function that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for name in TRACED}
    for index, span in enumerate(spans):
        row = totals[span[NAME]]
        row["calls"] += 1
        row["self_s"] += selfs[index]
        row["errors"] += int(span[ERROR])
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            row["busy_s"] += span[END] - span[START]
    return totals


# -- counters computed from inputs and results --------------------------------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _window_and_offsets(args, kwargs):
    from sqfree.arith import as_offsets
    from sqfree.sieve import as_window
    return as_window(_arg(args, kwargs, 0, "window")), as_offsets(_arg(args, kwargs, 1, "offsets"))


def _count_congruent_window(args, kwargs):
    from sqfree.sieve import as_window
    return int(_arg(args, kwargs, 0, "d")), as_window(_arg(args, kwargs, 1, "window"))


def _primes_up_to(tracer, args, kwargs, result):
    tracer.peak("arith.primes_up_to.max_primes", len(result))


def _count_tuples(tracer, args, kwargs, result):
    w, offsets = _window_and_offsets(args, kwargs)
    tracer.add("sieve.count_tuples.elems", w.h * offsets.r)


def _count_congruent(tracer, args, kwargs, result):
    d, w = _count_congruent_window(args, kwargs)
    if d * d <= 4 * w.h:
        tracer.add("sieve.count_congruent.small_modulus_calls", 1)


def _density_constant(tracer, args, kwargs, result):
    from sqfree.density import DEFAULT_PRIME_CUTOFF
    cutoff = int(_arg(args, kwargs, 1, "prime_cutoff", DEFAULT_PRIME_CUTOFF))
    if not result.degenerate_zero:
        tracer.add("density.density_constant.factors", tracer.prime_count(cutoff))


def _optimal_weights(tracer, args, kwargs, result):
    tracer.add("selberg.optimal_weights.weights", len(result.weights))


def _quadratic_form_bound(tracer, args, kwargs, result):
    system = _arg(args, kwargs, 2, "system")
    size = len(system.weights)
    tracer.add("selberg.quadratic_form_bound.pairs", size * (size + 1) // 2)


def _buchstab_decompose(tracer, args, kwargs, result):
    w = result.window
    offsets = result.offsets.offsets
    scans = 0
    for coord, q, _removed in result.ledger:
        q2 = q * q
        off = offsets[coord - 1]
        scans += (w.end + off) // q2 - (w.x + off) // q2
    tracer.add("buchstab.buchstab_decompose.ledger_rows", len(result.ledger))
    tracer.add("buchstab.buchstab_decompose.candidate_scans", scans)
    tracer.add("buchstab.buchstab_decompose.removed", result.removed_total)


def _count_square_multiples(tracer, args, kwargs, result):
    query = _arg(args, kwargs, 0, "query")
    lo = math.ceil(query.d_lo)
    hi = min(math.floor(query.d_hi), math.isqrt(query.x + query.h))
    tracer.add("buchstab.count_square_multiples.moduli", max(0, hi - lo + 1))


def _render(tracer, args, kwargs, result):
    tracer.add("cli.render.bytes", len(result.encode()))


HOOKS = {
    "arith.primes_up_to": _primes_up_to,
    "sieve.count_tuples": _count_tuples,
    "sieve.count_congruent": _count_congruent,
    "density.density_constant": _density_constant,
    "selberg.optimal_weights": _optimal_weights,
    "selberg.quadratic_form_bound": _quadratic_form_bound,
    "buchstab.buchstab_decompose": _buchstab_decompose,
    "buchstab.count_square_multiples": _count_square_multiples,
    "cli.render": _render,
}


def child_calls(spans, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans opened directly under a ``parent_name`` span."""
    return sum(1 for span in spans
               if span[NAME] == child_name and span[PARENT] is not None
               and spans[span[PARENT]][NAME] == parent_name)
