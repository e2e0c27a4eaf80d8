"""Spans around the calls into each hyperconv layer, recorded from outside.

``traced(tracer)`` replaces each layer's public names where their callers
look them up (the globals of ``hyperconv.extremizer`` and
``hyperconv.convolution``, and the methods of ``SliceEngine``) with wrappers
that record a span per call, and restores the originals on exit. Names a
later version of the library no longer has are skipped; the benchmark's own
test then reports the layer as silent.

Counts are computed from the calls' inputs, outputs and array sizes, never
from timings, so they repeat exactly between runs. Byte counts are computed
from ``ndarray.nbytes``, not measured.
"""
from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import hyperconv.convolution as convolution
import hyperconv.extremizer as extremizer
from hyperconv.engine import SliceEngine


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at the root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None, memory=False):
        """fn recording one span per call; attrs(args, kwargs, result) -> dict.

        With memory=True the outermost such span runs under tracemalloc and
        stores its peak traced allocation in attrs["peak_alloc_bytes"].
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owns_trace = memory and not tracemalloc.is_tracing()
            if owns_trace:
                tracemalloc.start()
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if owns_trace:
                    span.attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result
        return wrapper

    def named(self, prefix: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name.startswith(prefix)]


# ---- counts computed from inputs, outputs and array sizes ----

def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def live_diamond_entries(n: int) -> int:
    """Window pairs with both nodes on the grid, over both tau parities.

    Even rows tau = 2c delta pair nodes c -/+ j for j <= min(c, n-1-c); odd
    rows tau = (2m+1) delta pair m+1-j and m+j for 1 <= j <= min(m+1, n-1-m).
    """
    c = np.arange(n)
    m = np.arange(n - 1)
    return int(np.sum(np.minimum(c, n - 1 - c) + 1) + np.sum(np.minimum(m + 1, n - 1 - m)))


def _engine_build_attrs(args, kwargs, result):
    engine = args[0]
    return {"table_bytes": sum(_array_bytes(v) for v in vars(engine).values()),
            "live_entries": live_diamond_entries(engine.n)}


def _ascend_attrs(args, kwargs, result):
    return {"accepted_steps": len(result[1]) - 1}


def _field_attrs(args, kwargs, result):
    return {"live_cells": int(np.count_nonzero(result.values)),
            "grid_cells": int(result.values.size)}


def _shell_rows_attrs(args, kwargs, result):
    """Tau rows shell_pair_norm_sq visits: tau = k delta > 0 over the pair's span."""
    s, delta, i0_f, F, i0_g, G = args
    k_lo = i0_f + i0_g
    k_hi = k_lo + len(F) + len(G) - 2
    return {"rows": k_hi - max(k_lo, 1) + 1}


def _delta_attrs(args, kwargs, result):
    return {"delta": float(args[2])}


def _targets():
    """(owner, attribute, span name, attrs, memory) for every traced call site."""
    return [
        (SliceEngine, "__init__", "engine.build", _engine_build_attrs, True),
        (SliceEngine, "numerator", "engine.numerator", None, True),
        (SliceEngine, "q_ratio", "engine.q_ratio", None, True),
        (SliceEngine, "q_gradient", "engine.q_gradient", None, True),
        (extremizer, "trial_family_scan", "extremizer.trial_family_scan", None, False),
        (extremizer, "_ascend", "extremizer.ascend", _ascend_attrs, False),
        (extremizer, "hyperbolic_conv", "convolution.hyperbolic_conv", _field_attrs, False),
        (extremizer, "cross_conv", "convolution.cross_conv", _field_attrs, False),
        (convolution, "profile_measure_integral",
         "convolution.profile_measure_integral", None, False),
        (extremizer, "l2_field_norm", "norms.l2_field_norm", None, False),
        (extremizer, "field_inner_product", "norms.field_inner_product", None, False),
        (extremizer, "shell_pair_norm_sq", "extremizer.shell_pair_norm_sq",
         _shell_rows_attrs, False),
        (extremizer, "dyadic_shell_values", "extremizer.dyadic_shell_values",
         _delta_attrs, False),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every traced call site for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs, memory in _targets():
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs, memory))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---- per-layer metrics of one traced solve ----

def _busy(spans) -> float:
    return sum((sp.duration for sp in spans), 0.0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a tracer that recorded one "workload.solve" span."""
    spans = tracer.spans
    solve = tracer.named("workload.solve")[-1]
    builds = tracer.named("engine.build")
    ascents = tracer.named("extremizer.ascend")
    ascent_ids = {i for i, sp in enumerate(spans) if sp.name == "extremizer.ascend"}
    fields = tracer.named("convolution.hyperbolic_conv") + tracer.named("convolution.cross_conv")
    shell_pairs = tracer.named("extremizer.shell_pair_norm_sq")
    table_bytes = sum(sp.attrs["table_bytes"] for sp in builds)
    live_cells = sum(sp.attrs["live_cells"] for sp in fields)
    rows = sum(sp.attrs["rows"] for sp in shell_pairs)
    accepted = sum(sp.attrs.get("accepted_steps", 0) for sp in ascents)
    ascent_q_ratios = [sp for sp in tracer.named("engine.q_ratio") if sp.parent in ascent_ids]
    ascent_children = [sp for sp in spans if sp.parent in ascent_ids]
    peaks = [sp.attrs["peak_alloc_bytes"] for sp in tracer.named("engine.")
             if "peak_alloc_bytes" in sp.attrs]
    conv_s = _busy(fields)
    shell_s = _busy(shell_pairs)
    return {
        "engine.build_s": _busy(builds),
        "engine.builds": len(builds),
        "engine.numerator_s": _busy(tracer.named("engine.numerator")),
        "engine.numerator_calls": len(tracer.named("engine.numerator")),
        "engine.q_gradient_s": _busy(tracer.named("engine.q_gradient")),
        "engine.q_gradient_calls": len(tracer.named("engine.q_gradient")),
        "engine.table_bytes": table_bytes,
        "engine.live_fraction": _ratio(8 * sum(sp.attrs["live_entries"] for sp in builds),
                                       table_bytes),
        "engine.peak_alloc_mb": max(peaks, default=0) / 2 ** 20,
        "extremizer.trial_scan_s": _busy(tracer.named("extremizer.trial_family_scan")),
        "extremizer.refine_s": solve.end - max(sp.end for sp in ascents) if ascents else 0.0,
        "extremizer.ascent_self_s": _busy(ascents) - _busy(ascent_children),
        "extremizer.accepted_steps": accepted,
        "extremizer.step_accept_ratio": _ratio(accepted, len(ascent_q_ratios)),
        "convolution.hyperbolic_conv_s": _busy(tracer.named("convolution.hyperbolic_conv")),
        "convolution.cross_conv_s": _busy(tracer.named("convolution.cross_conv")),
        "convolution.live_cells": live_cells,
        "convolution.grid_cells": sum(sp.attrs["grid_cells"] for sp in fields),
        "convolution.us_per_live_cell": _ratio(1e6 * conv_s, live_cells),
        "convolution.profile_measure_integral_s":
            _busy(tracer.named("convolution.profile_measure_integral")),
        "norms.l2_field_norm_s": _busy(tracer.named("norms.l2_field_norm")),
        "norms.field_inner_product_s": _busy(tracer.named("norms.field_inner_product")),
        "extremizer.shell_pair_norm_sq_s": shell_s,
        "extremizer.shell_pair_calls": len(shell_pairs),
        "extremizer.shell_pair_rows": rows,
        "extremizer.us_per_shell_row": _ratio(1e6 * shell_s, rows),
        "extremizer.dyadic_shell_values_s": _busy(tracer.named("extremizer.dyadic_shell_values")),
        "extremizer.dyadic_passes": len({sp.attrs["delta"] for sp in
                                         tracer.named("extremizer.dyadic_shell_values")}),
    }
