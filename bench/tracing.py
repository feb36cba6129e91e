"""Per-layer spans, recorded from outside the program.

The layers are the ``yverma`` modules.  ``Tracer.install`` wraps the
module-level functions listed in ``LAYERS`` (the ones the README library
table names) and rebinds the wrapper in every ``yverma`` namespace that
bound the original, so calls through ``from .x import y`` names are seen
too.  Methods of ``PolyQ``, ``ModuleVector`` and ``SeriesU`` are never
wrapped, which keeps the overhead bounded.  ``rational_roots`` is wrapped
beside ``parse_rational_fn`` because the character route spends its
rational-layer time there.

Each call records one span: id, layer, function, start, end, parent span
id and job id.  Spans stay in memory until the caller aggregates or
writes them.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, NamedTuple, Optional

LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "rational": ("parse_rational_fn", "rational_roots"),
    "series": ("expand_rational", "series_from_tail", "series_mul", "series_inverse",
               "series_shift_argument"),
    "linalg": ("rref", "rank", "nullspace"),
    "verma": ("act_generator", "act_quantum_det", "in_tail_submodule"),
    "gauss": ("act_e", "act_f", "act_h", "act_h_via_quantum_det"),
    "recurrence": ("detect_recurrence", "reconstruct_rational", "is_rational_verdict"),
    "singular": ("find_singular", "canonical_singular_vector", "verify_singular"),
    "character": ("contravariant_pairing", "irreducible_weight_dims", "character_formula"),
    "rootsys": ("cartan_matrix", "validate_cartan", "symmetrizers", "positive_roots",
                "spanning_count"),
    "verdicts": ("verdict_reducible", "verdict_weight_finiteness",
                 "verdict_finite_dimensional", "shifted_quotient_polynomial"),
    "selftest": ("run_selftest",),
}

# Counters read at layer boundaries: name -> unit.
COUNTERS = {
    "verma.cache_entries": "count",
    "character.pairings": "count",
    "character.gram_entries": "count",
    "character.rank_ratio": "ratio",
    "linalg.cells": "count",
    "recurrence.nullspace_calls": "count",
    "recurrence.found_ratio": "ratio",
    "singular.candidates": "count",
    "singular.relation_rounds": "count",
    "singular.kernel_dim": "count",
}


class Span(NamedTuple):
    sid: int
    layer: str
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[int]


def _shape_cells(args: tuple) -> int:
    rows = args[0]
    if len(args) > 1:  # nullspace(rows, ncols)
        return len(rows) * args[1]
    return len(rows) * len(rows[0]) if rows else 0


def _on_return(tracer: "Tracer", name: str, args: tuple, result, parent_layer: Optional[str]) -> None:
    """Counts taken where the work happens, from arguments and return values."""
    c = tracer.counts
    if name in ("rref", "rank", "nullspace") and parent_layer != "linalg":
        c["linalg.cells"] += _shape_cells(args)
        if name == "nullspace" and parent_layer == "recurrence":
            c["recurrence.nullspace_calls"] += 1
    elif name == "contravariant_pairing":
        c["character.pairings"] += 1
    elif name == "irreducible_weight_dims":
        c["character.gram_entries"] += sum(rep.spanning_size**2 for rep in result)
        c["gram.rank_sum"] += sum(rep.rank for rep in result)
        c["gram.spanning_sum"] += sum(rep.spanning_size for rep in result)
    elif name == "detect_recurrence":
        c["detect.calls"] += 1
        c["detect.found"] += result is not None
    elif name == "find_singular":
        c["singular.candidates"] += len(result.candidates)
        first_bound = result.degree_bound + result.level + 1
        c["singular.relation_rounds"] += result.relation_bound - first_bound + 1
        c["singular.kernel_dim"] += len(result.fbasis)


class Tracer:
    """Span and counter recorder for the ``yverma`` package loaded in this process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job: Optional[int] = None
        self._stack: list[tuple[int, str]] = []
        self._next = 0
        self._caches: list = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent, parent_layer = tracer._stack[-1] if tracer._stack else (None, None)
            tracer._stack.append((sid, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, layer, name, start, end, parent, tracer.job))
            _on_return(tracer, name, args, result, parent_layer)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function, in every namespace that holds it."""
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"yverma.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrapped[id(fn)] = (fn, self._wrap(layer, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "yverma" and not modname.startswith("yverma."):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._undo.append(functools.partial(setattr, module, attr, value))

        cache_cls = sys.modules["yverma.verma"].ActionCache
        original_init = cache_cls.__init__
        caches = self._caches

        def init(cache, hw):
            original_init(cache, hw)
            caches.append(cache)

        cache_cls.__init__ = init
        self._undo.append(functools.partial(setattr, cache_cls, "__init__", original_init))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def begin_job(self, job: int) -> None:
        self.job = job

    def end_job(self) -> None:
        """Add the entries of every ActionCache the job created, then forget them."""
        self.counts["verma.cache_entries"] += sum(len(c.data) for c in self._caches)
        self._caches.clear()
        self.job = None

    def take(self) -> tuple[list[Span], Counter]:
        """Return and reset the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


def layer_metrics(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: number of spans and summed self time, for every layer in LAYERS."""
    own = self_times(spans)
    out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for s in spans:
        out[s.layer]["calls"] += 1
        out[s.layer]["self_s"] += own[s.sid]
    return out


def counter_metrics(counts: Counter) -> dict[str, float]:
    """The COUNTERS values, with ratios taken over their bases (0 when a base is 0)."""
    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {name: counts[name] for name in COUNTERS}
    out["character.rank_ratio"] = ratio("gram.rank_sum", "gram.spanning_sum")
    out["recurrence.found_ratio"] = ratio("detect.found", "detect.calls")
    return out


def write_spans(spans: list[Span], path) -> None:
    """Spans as gzipped CSV, one row per span in completion order."""
    with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
        out = csv.writer(fh)
        out.writerow(Span._fields)
        out.writerows(spans)
