"""Measured-cost feedback for the work scheduler and the admission gate.

The scheduler dispatches :class:`~repro.batch.schedule.WorkUnit`\\ s
longest-processing-time-first, but until a unit kind has actually run, its
``weight`` is a static guess (``n_samples`` here, subsample size there).
:class:`CostModel` closes the loop: every completed unit reports its
measured compute wall-time (clocked in the executing process by
:meth:`~repro.batch.schedule.WorkerPool.iter`), the model folds it into an
exponentially-weighted moving average per ``unit.kind``, and the next
schedule of the same kinds is dispatched by *seconds observed* instead of
by guesswork.

Three consumers:

* :func:`repro.experiments.runner.run_all` schedules from and feeds the
  model it is given — the engine session's, the caller's ``costs=``, or a
  fresh one per call — so a second pipeline run given the same model
  dispatches from the first run's measurements;
* :class:`repro.engine.RankingEngine` owns one model per session —
  repeated ``rank_many`` calls over similar request mixes converge onto
  measured dispatch order;
* the async serving tier (:mod:`repro.serve`) *prices admission* by the
  session's table: a request's predicted cost is its kind's EWMA
  seconds, as measured by the session itself.

Weights only shape the dispatch order, never the results: whatever the
model has (or has not) learned, output stays byte-identical.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Hashable, Iterable

from repro.batch.schedule import WorkUnit


class CostModel:
    """EWMA of measured per-kind unit wall-times (thread-safe).

    Parameters
    ----------
    smoothing:
        Weight of the newest observation in the moving average,
        ``0 < smoothing <= 1``; ``1`` keeps only the latest measurement.
    """

    def __init__(self, smoothing: float = 0.5) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.smoothing = float(smoothing)
        self._lock = threading.Lock()
        self._seconds: dict[Hashable, float] = {}
        self._observations: dict[Hashable, int] = {}

    def observe(self, kind: Hashable, seconds: float) -> None:
        """Fold one measured unit wall-time into ``kind``'s average.

        ``kind=None`` (a unit that opted out of learning) is ignored.
        """
        if kind is None:
            return
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        with self._lock:
            previous = self._seconds.get(kind)
            if previous is None:
                self._seconds[kind] = seconds
            else:
                self._seconds[kind] = (
                    self.smoothing * seconds + (1.0 - self.smoothing) * previous
                )
            self._observations[kind] = self._observations.get(kind, 0) + 1

    def weight(self, kind: Hashable, default: float = 1.0) -> float:
        """The measured dispatch weight for ``kind`` — its EWMA seconds —
        or ``default`` (the caller's static guess) when never observed."""
        if kind is None:
            return default
        with self._lock:
            seconds = self._seconds.get(kind)
        return default if seconds is None else seconds

    def known(self, kind: Hashable) -> bool:
        """Whether ``kind`` has at least one observation."""
        with self._lock:
            return kind in self._seconds

    def reweight(self, units: Iterable[WorkUnit]) -> list[WorkUnit]:
        """Copies of ``units`` with every *observed* kind's weight replaced
        by its measured seconds (unobserved kinds keep their static guess).

        Dispatch order is the only thing that changes — results are a pure
        function of each unit's ``(fn, seed, payload)``.
        """
        out: list[WorkUnit] = []
        for unit in units:
            if unit.kind is not None and self.known(unit.kind):
                out.append(replace(unit, weight=self.weight(unit.kind)))
            else:
                out.append(unit)
        return out

    def snapshot(self) -> dict[Hashable, tuple[float, int]]:
        """``{kind: (ewma_seconds, n_observations)}`` at this instant."""
        with self._lock:
            return {
                kind: (self._seconds[kind], self._observations[kind])
                for kind in self._seconds
            }

    def to_jsonable(self) -> dict[str, dict[str, float]]:
        """The cost table with stringified kinds, for JSON reports such
        as :attr:`repro.engine.EngineStats.cost_table` (kinds are tuples;
        JSON keys must be strings)."""
        return {
            kind_label(kind): {
                "ewma_seconds": seconds,
                "observations": count,
            }
            for kind, (seconds, count) in sorted(
                self.snapshot().items(), key=lambda item: kind_label(item[0])
            )
        }

    def clear(self) -> None:
        """Forget every observation."""
        with self._lock:
            self._seconds.clear()
            self._observations.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._seconds)


def kind_label(kind: Hashable) -> str:
    """Human/JSON-friendly rendering of a unit kind (tuples join on
    ``":"``: ``("rank", "dp", 150)`` → ``"rank:dp:150"``)."""
    if isinstance(kind, tuple):
        return ":".join(str(part) for part in kind)
    return str(kind)
