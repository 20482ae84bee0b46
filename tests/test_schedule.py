"""Tests for the experiment-level work scheduler (:mod:`repro.batch.schedule`).

The contract under test: a task graph of independent, seed-addressed work
units produces the same key-ordered result mapping whether it runs inline,
on a pool of any size, or submitted in any (weight-driven) order — and the
composite ``run_all`` pipeline built on it is byte-identical for every
worker count.
"""

import os
import pickle

import numpy as np
import pytest

from repro.batch import WorkerPool, WorkUnit
from repro.experiments.runner import reports_digest, run_all


def _draw_unit(seed, count):
    """Seeded unit: the raw stream identity of its SeedSequence."""
    return np.random.default_rng(seed).random(count).tolist()


def _const_unit(seed, value):
    """Deterministic unit: no seed consumed."""
    assert seed is None
    return value


def _pid_unit(seed):
    from repro.batch.parallel import effective_n_jobs, in_worker

    return os.getpid(), in_worker(), effective_n_jobs(6)


def _boom_unit(seed):
    raise RuntimeError("unit failure")


def _units(n=6):
    seqs = np.random.SeedSequence(77).spawn(n)
    return [
        WorkUnit(
            key=("draw", i),
            fn=_draw_unit,
            seed=seqs[i],
            payload=(3,),
            # Deliberately inverted weights: the LPT submission order must
            # never show in the result mapping.
            weight=float(n - i),
        )
        for i in range(n)
    ]


class TestRunUnits:
    def test_results_keyed_in_input_order(self):
        units = _units()
        out = WorkerPool(2).run(units)
        assert list(out) == [u.key for u in units]

    def test_pooled_matches_inline(self):
        units = _units()
        inline = WorkerPool(1).run(units)
        for n_jobs in (2, 3):
            assert WorkerPool(n_jobs).run(units) == inline

    def test_inline_matches_direct_invocation(self):
        units = _units(3)
        out = WorkerPool(1).run(units)
        for u in units:
            assert out[u.key] == u.fn(u.seed, *u.payload)

    def test_seedless_units(self):
        units = [
            WorkUnit(key=i, fn=_const_unit, payload=(i * 10,)) for i in range(4)
        ]
        assert WorkerPool(2).run(units) == {0: 0, 1: 10, 2: 20, 3: 30}

    def test_empty_graph(self):
        assert WorkerPool(4).run([]) == {}

    def test_duplicate_keys_rejected(self):
        units = [
            WorkUnit(key="same", fn=_const_unit, payload=(1,)),
            WorkUnit(key="same", fn=_const_unit, payload=(2,)),
        ]
        with pytest.raises(ValueError, match="duplicate work-unit key"):
            WorkerPool(1).run(units)

    def test_single_unit_runs_inline(self):
        (result,) = WorkerPool(4).run(
            [WorkUnit(key="solo", fn=_pid_unit)]
        ).values()
        pid, worker, jobs = result
        assert pid == os.getpid() and not worker

    def test_pooled_units_marked_as_workers_and_unnested(self):
        out = WorkerPool(2).run(
            [WorkUnit(key=i, fn=_pid_unit) for i in range(4)]
        )
        for pid, worker, jobs in out.values():
            assert pid != os.getpid()
            assert worker
            assert jobs == 1  # effective_n_jobs clamps inside pool children

    def test_unit_error_propagates(self):
        units = [WorkUnit(key="boom", fn=_boom_unit)] + _units(2)
        with pytest.raises(RuntimeError, match="unit failure"):
            WorkerPool(2).run(units)
        with pytest.raises(RuntimeError, match="unit failure"):
            WorkerPool(1).run(units)

    def test_on_unit_done_reports_every_key_once(self):
        units = _units(5)
        for n_jobs in (1, 3):
            done = []
            WorkerPool(n_jobs).run(
                units, on_unit_done=lambda key, seconds: done.append(key)
            )
            assert sorted(done) == sorted(u.key for u in units)

    def test_on_unit_done_inline_fires_in_input_order(self):
        units = _units(4)
        done = []
        WorkerPool(1).run(
            units, on_unit_done=lambda key, seconds: done.append(key)
        )
        assert done == [u.key for u in units]

    def test_on_unit_done_reports_measured_seconds(self):
        units = _units(3)
        timings = {}
        WorkerPool(1).run(units, on_unit_done=timings.__setitem__)
        assert set(timings) == {u.key for u in units}
        assert all(s >= 0.0 for s in timings.values())


class TestIterUnits:
    def test_streamed_set_matches_run_units_for_every_n_jobs(self):
        units = _units(6)
        expected = WorkerPool(1).run(units)
        for n_jobs in (1, 2, 3):
            completed = list(WorkerPool(n_jobs).iter(units))
            assert {c.key: c.result for c in completed} == expected

    def test_inline_streams_in_input_order(self):
        units = _units(4)
        keys = [c.key for c in WorkerPool(1).iter(units)]
        assert keys == [u.key for u in units]

    def test_completed_units_carry_seconds_and_kind(self):
        units = [
            WorkUnit(key=i, fn=_const_unit, payload=(i,), kind=("const",))
            for i in range(3)
        ]
        for n_jobs in (1, 2):
            for c in WorkerPool(n_jobs).iter(units):
                assert c.seconds >= 0.0
                assert c.kind == ("const",)

    def test_failure_propagates_at_iteration(self):
        units = [WorkUnit(key="boom", fn=_boom_unit)] + _units(2)
        for n_jobs in (1, 2):
            with pytest.raises(RuntimeError, match="unit failure"):
                list(WorkerPool(n_jobs).iter(units))

    def test_duplicate_keys_rejected(self):
        units = [
            WorkUnit(key="same", fn=_const_unit, payload=(1,)),
            WorkUnit(key="same", fn=_const_unit, payload=(2,)),
        ]
        with pytest.raises(ValueError, match="duplicate work-unit key"):
            list(WorkerPool(1).iter(units))

    def test_abandoning_the_stream_is_safe(self):
        units = _units(6)
        stream = WorkerPool(2).iter(units)
        first = next(stream)
        stream.close()
        assert first.key in {u.key for u in units}
        # The shared pool must stay usable after an early close.
        assert WorkerPool(2).run(units) == WorkerPool(1).run(units)


class TestWorkerPool:
    def test_handle_is_picklable_and_hashable(self):
        pool = WorkerPool(2)
        assert pickle.loads(pickle.dumps(pool)) == pool
        assert hash(WorkerPool(2)) == hash(pool)


class TestRunAllScheduler:
    def test_run_all_digest_independent_of_n_jobs(self):
        """The whole-pipeline byte-equality contract: panel-level,
        figure-level, and trial-level units mixed through one pool must
        reproduce the serial reports exactly, for every worker count."""
        reports = run_all(fast=True, n_jobs=1)
        digest = reports_digest(reports)
        for n_jobs in (2, 4):
            assert reports_digest(run_all(fast=True, n_jobs=n_jobs)) == digest

    def test_reports_digest_is_order_and_content_sensitive(self):
        a = {"x": "1", "y": "2"}
        assert reports_digest(a) == reports_digest(dict(a))
        assert reports_digest(a) != reports_digest({"x": "1", "y": "3"})
        assert reports_digest(a) != reports_digest({"y": "2", "x": "1"})


def _marker_unit(seed, directory, name, dwell):
    """Unit that leaves a file proving it ran (``dwell`` keeps pooled
    variants busy long enough for cancellation to be observable)."""
    import time as _time

    if dwell:
        _time.sleep(dwell)
    with open(os.path.join(directory, name), "w") as fh:
        fh.write("ran")
    return name


class TestMidStreamFailure:
    """The failure path of ``WorkerPool.iter``: a unit raising mid-stream
    must cancel still-queued units (not grind the pool through work nobody
    will consume) and leave the pool reusable."""

    def test_inline_failure_cancels_everything_after_it(self, tmp_path):
        units = [
            WorkUnit(key="before", fn=_marker_unit,
                     payload=(str(tmp_path), "before", 0.0)),
            WorkUnit(key="boom", fn=_boom_unit),
            WorkUnit(key="after", fn=_marker_unit,
                     payload=(str(tmp_path), "after", 0.0)),
        ]
        with pytest.raises(RuntimeError, match="unit failure"):
            list(WorkerPool(1).iter(units))
        # Inline order is input order: the unit before the failure ran,
        # the one behind it was cancelled before ever starting.
        assert (tmp_path / "before").exists()
        assert not (tmp_path / "after").exists()

    def test_pooled_failure_cancels_queued_units(self, tmp_path):
        # The failing unit's weight puts it first into the pool; the 40
        # marker units behind it are queued.  When the failure surfaces,
        # queued futures are cancelled — only the few a second worker
        # grabbed in the race window may have run.
        n_markers = 40
        units = [WorkUnit(key="boom", fn=_boom_unit, weight=100.0)] + [
            WorkUnit(
                key=("marker", i),
                fn=_marker_unit,
                payload=(str(tmp_path), f"m{i}", 0.005),
                weight=1.0,
            )
            for i in range(n_markers)
        ]
        with pytest.raises(RuntimeError, match="unit failure"):
            list(WorkerPool(2).iter(units))
        ran = len(list(tmp_path.glob("m*")))
        assert ran < n_markers, (
            f"{ran}/{n_markers} queued units ran after the failure — "
            "cancellation did not happen"
        )
        # The shared pool survives the abort and serves again.
        units_again = _units(4)
        assert WorkerPool(2).run(units_again) == WorkerPool(1).run(units_again)

    def test_abandoned_stream_cancels_queued_units(self, tmp_path):
        n_markers = 40
        units = [
            WorkUnit(
                key=("marker", i),
                fn=_marker_unit,
                payload=(str(tmp_path), f"m{i}", 0.005),
            )
            for i in range(n_markers)
        ]
        stream = WorkerPool(2).iter(units)
        next(stream)
        stream.close()
        assert len(list(tmp_path.glob("m*"))) < n_markers
