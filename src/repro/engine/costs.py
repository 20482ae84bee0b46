"""Measured-cost feedback for the work scheduler.

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

* :class:`repro.engine.RankingEngine` owns one model per session —
  repeated ``rank_many`` calls over similar request mixes converge onto
  measured dispatch order;
* :func:`repro.experiments.runner.run_all` observes into a process-wide
  :data:`DEFAULT_COSTS` table, so a second pipeline run in the same process
  schedules from the first run's measurements, and benchmark runs persist
  the table into the ``BENCH_*.json`` perf trajectory;
* the async serving tier (:mod:`repro.serve`) *prices admission* by the
  same table: a request's predicted cost is its kind's EWMA seconds, so a
  warm-started model (see :func:`load_bench_cost_tables` and
  :meth:`CostModel.merge_jsonable`) shapes both dispatch order and
  admit/queue/reject decisions from the very first batch.

Weights only shape the dispatch order, never the results: whatever the
model has (or has not) learned, output stays byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import replace
from typing import Hashable, Iterable, Mapping

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
        """The cost table with stringified kinds, for ``BENCH_*.json``
        persistence (kinds are tuples; JSON keys must be strings)."""
        return {
            kind_label(kind): {
                "ewma_seconds": seconds,
                "observations": count,
            }
            for kind, (seconds, count) in sorted(
                self.snapshot().items(), key=lambda item: kind_label(item[0])
            )
        }

    def merge(self, table: Mapping[Hashable, tuple[float, int]]) -> int:
        """Seed the model from a prior :meth:`snapshot` (e.g. a persisted
        trajectory); returns the number of kinds imported.

        A *learned* entry always wins over an import: merging never
        clobbers an EWMA this model has measured itself.  Entries that
        carry no usable measurement are skipped rather than imported —
        a non-positive observation count (a zero-count entry is a row
        without a single measurement behind it, so averaging against it
        would be a divide-by-zero in disguise), or a negative/non-finite
        EWMA.
        """
        imported = 0
        with self._lock:
            # Sorted by label so the table's insertion order (visible in
            # snapshot/to_jsonable renderings) is input-order independent.
            for kind, (seconds, count) in sorted(
                table.items(), key=lambda item: kind_label(item[0])
            ):
                seconds = float(seconds)
                count = int(count)
                if count <= 0 or not math.isfinite(seconds) or seconds < 0.0:
                    continue
                if kind in self._seconds:
                    continue
                self._seconds[kind] = seconds
                self._observations[kind] = count
                imported += 1
        return imported

    def merge_jsonable(self, table: Mapping[str, Mapping[str, float]]) -> int:
        """Seed the model from a :meth:`to_jsonable` rendering (the format
        persisted into ``BENCH_*.json``); returns the kinds imported.

        String keys are parsed back into tuple kinds via
        :func:`kind_from_label`, so a table round-trips:
        ``model.merge_jsonable(model.to_jsonable())`` restores every tuple
        kind exactly.  Rows missing ``ewma_seconds``/``observations`` (or
        carrying junk) are skipped by the same rules as :meth:`merge`.
        """
        parsed: dict[Hashable, tuple[float, int]] = {}
        for label, entry in sorted(table.items()):
            try:
                seconds = float(entry["ewma_seconds"])
                count = int(entry["observations"])
            except (KeyError, TypeError, ValueError):
                continue
            parsed[kind_from_label(label)] = (seconds, count)
        return self.merge(parsed)

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


def kind_from_label(label: str) -> Hashable:
    """Inverse of :func:`kind_label` for tuple kinds: ``"rank:dp:150"`` →
    ``("rank", "dp", 150)``.

    Every label parses to a tuple (a single token becomes a 1-tuple),
    because all the kinds the engine and the experiment pipeline emit are
    tuples; all-digit parts come back as ``int`` so the engine's
    ``("rank", name, n_items)`` kinds round-trip exactly.  Non-tuple
    string kinds do not round-trip — they were never emitted by this
    package.
    """
    return tuple(
        int(part) if part.isdigit() else part for part in label.split(":")
    )


def load_bench_cost_tables(*paths: "str | os.PathLike[str]") -> dict[str, dict[str, float]]:
    """Collect every persisted ``cost_table`` from ``BENCH_*.json``
    trajectory files into one jsonable table.

    The trajectory files are the ``--json`` dumps of the benchmark suite:
    a list of ``reports`` whose ``metrics`` mappings may carry a
    ``cost_table`` (the :meth:`CostModel.to_jsonable` rendering recorded
    by the engine/scheduler benchmarks).  When several files (or several
    reports) price the same kind, the entry with the most observations
    wins — the better-estimated EWMA.  Missing files raise
    ``FileNotFoundError``; files without any cost table contribute
    nothing.  Feed the result to :meth:`CostModel.merge_jsonable` (or
    :meth:`repro.engine.RankingEngine.warm_start_costs`) to warm-start a
    model before its first batch.
    """
    merged: dict[str, dict[str, float]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        for report in payload.get("reports", []) or []:
            metrics = report.get("metrics") or {}
            table = metrics.get("cost_table")
            if not isinstance(table, Mapping):
                continue
            for label, entry in sorted(table.items()):
                if not isinstance(entry, Mapping):
                    continue
                current = merged.get(label)
                if (
                    current is None
                    or entry.get("observations", 0)
                    > current.get("observations", 0)
                ):
                    merged[label] = dict(entry)
    return merged


#: Process-wide cost table the experiment pipeline feeds (engine sessions
#: own private models instead).
DEFAULT_COSTS = CostModel()
