"""In-memory spans around the program's public entry points.

The traced runs wrap the functions and methods listed in :data:`LAYERS`
with a :class:`Tracer`: every call records a span (name, start, end,
parent).  A span's *self* time is its duration minus the time its child
spans cover, so a layer's figure excludes the layers it calls into.
Wrapping happens from the benchmark's files; the program is unchanged
and the wrappers are removed again afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records nested spans of serial (single-threaded) calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[int] = []
        self.spans: list[Span | None] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock, stack, spans = self._clock, self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = Span(name, start, end, parent)

        traced.__wrapped_original__ = fn
        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over every closed span."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, tuple[float, int]] = {}
        for span_id, span in enumerate(self.spans):
            if span is None:
                continue
            seconds, calls = totals.get(span.name, (0.0, 0))
            own = span.end - span.start - covered[span_id]
            totals[span.name] = (seconds + own, calls + 1)
        return totals


def _layer_targets() -> list[tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every traced entry point."""
    from repro.algorithms.detconstsort import DetConstSort
    from repro.algorithms.dp import DpFairRanking
    from repro.algorithms.ipf import ApproxMultiValuedIPF
    from repro.algorithms.mallows_postprocess import MallowsFairRanking
    from repro.batch import kernels
    from repro.experiments import (
        fig1_infeasible,
        fig2_central_ii,
        fig34_tradeoff,
        german_credit_exp,
    )
    from repro.fairness import construction
    from repro.mallows import sampling
    from repro.utils import bootstrap

    targets = [
        ("fairness.weakly_fair", construction, "weakly_fair_ranking"),
        ("algorithms.dp", DpFairRanking, "rank"),
        ("algorithms.detconstsort", DetConstSort, "rank"),
        ("algorithms.ipf", ApproxMultiValuedIPF, "rank"),
        ("algorithms.mallows", MallowsFairRanking, "rank"),
        ("mallows.sample", sampling, "sample_mallows_batch"),
        ("experiments.collect", fig1_infeasible, "collect_fig1"),
        ("experiments.collect", fig2_central_ii, "collect_fig2"),
        ("experiments.collect", fig34_tradeoff, "collect_fig34"),
        ("experiments.collect", german_credit_exp, "collect_german_credit"),
        ("experiments.collect", bootstrap, "bootstrap_ci"),
    ]
    targets += [
        ("batch.kernels", kernels, name)
        for name in sorted(vars(kernels))
        if name.startswith("batch_") and callable(getattr(kernels, name))
    ]
    return targets

#: Span names of :func:`_layer_targets`, in report order.
LAYERS = (
    "fairness.weakly_fair",
    "algorithms.dp",
    "algorithms.detconstsort",
    "algorithms.ipf",
    "algorithms.mallows",
    "mallows.sample",
    "batch.kernels",
    "experiments.collect",
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point of :data:`LAYERS`; returns the undo.

    Module-level functions are also replaced wherever a ``repro`` module
    imported them by name, so call sites bound at import time are traced.
    """
    undo: list[tuple[object, str, object]] = []
    for span_name, owner, attr in _layer_targets():
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for holder in holders:
            undo.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def restore() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


def compare(tracer: Tracer, work: Callable[[], None]) -> tuple[float, float]:
    """Run ``work`` three times -- a warm-up, untraced, then traced into
    ``tracer`` -- clearing the kernel cache before each; returns the
    untraced and traced wall seconds."""
    from repro.batch.cache import DEFAULT_CACHE

    walls = []
    for traced in (None, False, True):
        DEFAULT_CACHE.clear()
        restore = install(tracer) if traced else (lambda: None)
        started = time.perf_counter()
        try:
            work()
        finally:
            restore()
        walls.append(time.perf_counter() - started)
    return walls[1], walls[2]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """``<layer>_s`` self seconds for every layer, plus ``<layer>_calls``
    for the fairness construction and the four served algorithms."""
    totals = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        seconds, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = (seconds, "s")
        if layer.startswith(("fairness.", "algorithms.")):
            metrics[f"{layer}_calls"] = (calls, "count")
    return metrics
