"""Equivalence tests for the process pool.

For a fixed seed, every experiment's output is byte-identical for every
``n_jobs`` value, so whole experiments are reproducible independently of
the worker count; and pool children never nest pools of their own.
"""

import os

import pytest

from repro.batch import (
    WorkerPool,
    WorkUnit,
    effective_n_jobs,
    in_worker,
    resolve_n_jobs,
)
from repro.datasets.german_credit import synthesize_german_credit
from repro.experiments.config import (
    Fig1Config,
    Fig2Config,
    Fig34Config,
    GermanCreditConfig,
)
from repro.experiments.fig1_infeasible import run_fig1
from repro.experiments.fig2_central_ii import run_fig2
from repro.experiments.fig34_tradeoff import run_fig34
from repro.experiments.german_credit_exp import run_german_credit


def _process_probe_unit(_seed):
    """Returns which process ran the unit and what it may fan out to."""
    return os.getpid(), in_worker(), effective_n_jobs(4)


class TestSharding:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)

    def test_resolve_n_jobs_allows_at_most_four_per_cpu(self, monkeypatch):
        ceiling = 4 * max(1, os.cpu_count() or 1)
        assert resolve_n_jobs(ceiling) == ceiling
        with pytest.raises(ValueError, match=f"n_jobs must be <= {ceiling}"):
            resolve_n_jobs(ceiling + 1)
        # A one-core host still takes n_jobs=4, and -1 always passes.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_n_jobs(4) == 4
        assert resolve_n_jobs(-1) == 1
        with pytest.raises(ValueError, match="n_jobs must be <= 4"):
            resolve_n_jobs(5)

    def test_effective_n_jobs_in_parent(self):
        assert not in_worker()
        assert effective_n_jobs(3) == 3
        assert effective_n_jobs(-1) == resolve_n_jobs(-1)
        with pytest.raises(ValueError):
            effective_n_jobs(0)
        with pytest.raises(ValueError):
            effective_n_jobs(-2)

    def test_effective_n_jobs_clamps_inside_worker(self, monkeypatch):
        import repro.batch.parallel as parallel

        monkeypatch.setattr(parallel, "_IN_WORKER", True)
        assert parallel.in_worker()
        assert effective_n_jobs(8) == 1
        assert effective_n_jobs(-1) == 1
        assert effective_n_jobs(1) == 1
        with pytest.raises(ValueError):
            effective_n_jobs(0)
        with pytest.raises(ValueError):
            effective_n_jobs(-2)

    def test_pool_children_are_workers_and_never_nest(self):
        """Pooled units run in pool children that are marked as workers,
        so a unit asking for four workers gets one."""
        units = [WorkUnit(key=i, fn=_process_probe_unit) for i in range(2)]
        out = WorkerPool(2).run(units)
        pids = {pid for pid, _, _ in out.values()}
        assert os.getpid() not in pids  # really ran in pool children
        assert all(flag for _, flag, _ in out.values())  # marked as workers
        assert all(jobs == 1 for _, _, jobs in out.values())  # no nesting


class TestExperimentEquivalence:
    def test_fig1_output_independent_of_njobs(self):
        base = dict(
            target_iis=(0, 8), thetas=(0.5,), n_samples=300,
            n_bootstrap=60, seed=11,
        )
        a = run_fig1(Fig1Config(**base, pool=WorkerPool(1)))
        b = run_fig1(Fig1Config(**base, pool=WorkerPool(2)))
        assert a.central_iis == b.central_iis
        for ii in a.mean_sample_ii:
            for theta in a.mean_sample_ii[ii]:
                ra = a.mean_sample_ii[ii][theta]
                rb = b.mean_sample_ii[ii][theta]
                assert (ra.estimate, ra.low, ra.high) == (
                    rb.estimate, rb.low, rb.high,
                )

    def test_fig34_output_independent_of_njobs(self):
        base = dict(
            deltas=(0.5,), thetas=(0.5,), n_trials=2,
            samples_per_trial=300, n_bootstrap=60, seed=11,
        )
        a = run_fig34(Fig34Config(**base, pool=WorkerPool(1)))
        b = run_fig34(Fig34Config(**base, pool=WorkerPool(2)))
        assert a.central_ii == b.central_ii
        assert a.to_text_fig3() == b.to_text_fig3()
        assert a.to_text_fig4() == b.to_text_fig4()

    def test_fig2_output_independent_of_njobs(self):
        base = dict(deltas=(0.0, 0.6, 1.0), n_trials=12, n_bootstrap=60, seed=11)
        results = [
            run_fig2(Fig2Config(**base, pool=WorkerPool(j))) for j in (1, 2, 3)
        ]
        for other in results[1:]:
            assert other.to_text() == results[0].to_text()
            for delta in results[0].central_ii:
                ra = results[0].central_ii[delta]
                rb = other.central_ii[delta]
                assert (ra.estimate, ra.low, ra.high) == (
                    rb.estimate, rb.low, rb.high,
                )

    def test_german_credit_output_independent_of_njobs(self):
        data = synthesize_german_credit(seed=0)
        base = dict(sizes=(10, 20), n_repeats=5, n_bootstrap=60, seed=11)
        results = [
            run_german_credit(
                GermanCreditConfig(**base, pool=WorkerPool(j)), data=data
            )
            for j in (1, 2, 3)
        ]
        for other in results[1:]:
            assert other.to_text_fig5() == results[0].to_text_fig5()
            assert other.to_text_fig6() == results[0].to_text_fig6()
            assert other.to_text_fig7() == results[0].to_text_fig7()
            for alg in results[0].ndcg:
                for size in results[0].ndcg[alg]:
                    ra = results[0].ndcg[alg][size]
                    rb = other.ndcg[alg][size]
                    assert (ra.estimate, ra.low, ra.high) == (
                        rb.estimate, rb.low, rb.high,
                    )


class TestCliWiring:
    def test_jobs_flag_parses(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["fig1", "--jobs", "4"]).jobs == 4
        assert parser.parse_args(["fig3"]).jobs == 1
        assert parser.parse_args(["all", "--fast", "--jobs", "-1"]).jobs == -1

    def test_jobs_flag_covers_trial_sharded_commands(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["fig2", "--jobs", "3"]).jobs == 3
        assert parser.parse_args(["fig2"]).jobs == 1
        args = parser.parse_args(["fig5", "--theta", "1", "--jobs", "2"])
        assert args.jobs == 2 and args.theta == 1.0
        assert parser.parse_args(["fig7"]).jobs == 1
