"""Equivalence tests for the multi-core fan-out (both sharding modes).

The contract of :func:`repro.batch.mallows_sample_and_score`: for a fixed
seed, every ``n_jobs`` value produces byte-identical samples and scores,
and leaves a passed-in generator in exactly the state the single-process
path would — so whole experiments are reproducible independently of the
worker count.
The same holds for the trial-granular pool
(:meth:`repro.batch.WorkerPool.run_trials`) that covers the German Credit
panels and Fig. 2.
"""

import warnings

import numpy as np
import pytest

from repro.batch import (
    WorkerPool,
    effective_n_jobs,
    in_worker,
    mallows_sample_and_score,
    resolve_n_jobs,
    shard_row_ranges,
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
from repro.fairness.constraints import FairnessConstraints
from repro.groups.attributes import GroupAssignment
from repro.mallows.sampling import sample_mallows_batch
from repro.rankings.permutation import random_ranking

N = 15
M = 700  # above MIN_ROWS_PER_JOB * 2, so two shards really fan out
THETA = 0.7


@pytest.fixture(scope="module")
def workload():
    center = random_ranking(N, seed=3)
    groups = GroupAssignment.from_indices(np.arange(N) % 2)
    constraints = FairnessConstraints.proportional(groups)
    scores = np.linspace(2.0, 0.1, N)
    return center, groups, constraints, scores


class TestSharding:
    def test_shard_row_ranges_cover_and_balance(self):
        assert shard_row_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_row_ranges(2, 5) == [(0, 1), (1, 2)]  # empties dropped
        assert shard_row_ranges(0, 4) == []
        with pytest.raises(ValueError):
            shard_row_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_row_ranges(5, 0)

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)

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

    def test_stream_slice_matches_full_draw(self):
        """The invariant the sharder is built on: an advanced PCG64 clone
        reproduces the trailing rows of one big row-major draw."""
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        full = rng.random((10, 7))
        clone = np.random.PCG64()
        clone.state = state
        clone.advance(4 * 7)
        part = np.random.Generator(clone).random((6, 7))
        assert np.array_equal(full[4:], part)


class TestPipelineEquivalence:
    def test_njobs_byte_identical(self, workload):
        center, groups, constraints, scores = workload
        results = [
            mallows_sample_and_score(
                center,
                THETA,
                M,
                groups=groups,
                constraints=constraints,
                scores=scores,
                seed=2024,
                pool=WorkerPool(n_jobs),
                return_orders=True,
            )
            for n_jobs in (1, 2, 3)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].orders, other.orders)
            assert np.array_equal(
                results[0].infeasible_index, other.infeasible_index
            )
            assert np.array_equal(results[0].ndcg, other.ndcg)

    def test_matches_legacy_single_process_path(self, workload):
        """n_jobs > 1 reproduces the plain sample_mallows_batch draws."""
        center, groups, constraints, _ = workload
        legacy = sample_mallows_batch(center, THETA, M, seed=99)
        sharded = mallows_sample_and_score(
            center,
            THETA,
            M,
            groups=groups,
            constraints=constraints,
            seed=99,
            pool=WorkerPool(2),
            return_orders=True,
        )
        assert np.array_equal(legacy, sharded.orders)

    def test_parent_generator_end_state(self, workload):
        """After a sharded run the caller's generator continues exactly
        where the single-process path would have left it."""
        center, groups, constraints, _ = workload
        g1 = np.random.default_rng(41)
        g2 = np.random.default_rng(41)
        a = mallows_sample_and_score(
            center, THETA, M, groups=groups, constraints=constraints,
            seed=g1, pool=WorkerPool(1),
        )
        b = mallows_sample_and_score(
            center, THETA, M, groups=groups, constraints=constraints,
            seed=g2, pool=WorkerPool(2),
        )
        assert np.array_equal(a.infeasible_index, b.infeasible_index)
        assert np.array_equal(g1.random(20), g2.random(20))

    def test_non_advanceable_bit_generator_fallback(self, workload):
        """MT19937 cannot advance; the central-draw fallback must still be
        byte-identical across n_jobs."""
        center, groups, constraints, _ = workload
        a = mallows_sample_and_score(
            center, THETA, M, groups=groups, constraints=constraints,
            seed=np.random.Generator(np.random.MT19937(7)), pool=WorkerPool(1),
            return_orders=True,
        )
        b = mallows_sample_and_score(
            center, THETA, M, groups=groups, constraints=constraints,
            seed=np.random.Generator(np.random.MT19937(7)), pool=WorkerPool(2),
            return_orders=True,
        )
        assert np.array_equal(a.orders, b.orders)
        assert np.array_equal(a.infeasible_index, b.infeasible_index)

    def test_philox_generator_is_byte_identical(self, workload):
        """Philox's ``advance`` counts 4-word blocks, not doubles, so its
        shards must be drawn centrally rather than cloned."""
        center, _, _, _ = workload
        orders = [
            mallows_sample_and_score(
                center, THETA, M, pool=WorkerPool(n_jobs), return_orders=True,
                seed=np.random.Generator(np.random.Philox(7)),
            ).orders
            for n_jobs in (1, 2)
        ]
        assert np.array_equal(orders[0], orders[1])

    def test_buffered_half_word_survives_sharding(self, workload):
        """A 32-bit half-word buffered in the caller's generator before the
        batch is still served after it, as drawing doubles leaves it."""
        center, _, _, _ = workload
        tails = []
        for n_jobs in (1, 2):
            rng = np.random.default_rng(5)
            rng.integers(0, 10, dtype=np.uint32)
            mallows_sample_and_score(
                center, THETA, M, seed=rng, pool=WorkerPool(n_jobs)
            )
            tails.append(rng.integers(0, 2**32, size=3, dtype=np.uint32))
        assert np.array_equal(tails[0], tails[1])

    def test_optional_outputs(self, workload):
        center, groups, constraints, scores = workload
        bare = mallows_sample_and_score(center, THETA, 50, seed=1)
        assert bare.infeasible_index is None and bare.ndcg is None
        assert bare.orders is None
        with pytest.raises(ValueError):
            mallows_sample_and_score(center, THETA, 50, groups=groups, seed=1)
        with pytest.raises(ValueError):
            mallows_sample_and_score(
                center, THETA, 50, constraints=constraints, seed=1
            )

    def test_small_batch_runs_inline(self, workload):
        """A batch under ``2 * MIN_ROWS_PER_JOB`` rows is one shard, which
        runs inline."""
        center, groups, constraints, _ = workload
        out = mallows_sample_and_score(
            center, THETA, 50, groups=groups, constraints=constraints,
            seed=3, pool=WorkerPool(4),
        )
        assert out.infeasible_index.shape == (50,)
        # Identical to the plain single-process run.
        ref = mallows_sample_and_score(
            center, THETA, 50, groups=groups, constraints=constraints,
            seed=3, pool=WorkerPool(1),
        )
        assert np.array_equal(out.infeasible_index, ref.infeasible_index)

    def test_empty_batch(self, workload):
        center, groups, constraints, scores = workload
        out = mallows_sample_and_score(
            center, THETA, 0, groups=groups, constraints=constraints,
            scores=scores, seed=0, pool=WorkerPool(2), return_orders=True,
        )
        assert out.orders.shape == (0, N)
        assert out.infeasible_index.shape == (0,)
        assert out.ndcg.shape == (0,)


def _square_trial(trial_index, rng):
    """Module-level (hence picklable) trial: index² plus one stream draw."""
    return trial_index**2 + float(rng.random())


def _payload_trial(trial_index, rng, offset, scale):
    return offset + scale * trial_index + float(rng.random())


def _stream_probe_trial(trial_index, rng):
    """Returns the trial's first three uniforms — the raw stream identity."""
    return rng.random(3).tolist()


def _process_probe_trial(trial_index, rng):
    """Returns which process ran the trial and what it may fan out to."""
    import os

    from repro.batch.parallel import effective_n_jobs, in_worker

    return os.getpid(), in_worker(), effective_n_jobs(4)


class TestTrialPool:
    def test_results_in_trial_order_with_payload(self):
        out = WorkerPool(1).run_trials(
            _payload_trial, 5, seed=0, payload=(100.0, 10.0)
        )
        assert [int(x) for x in out] == [100, 110, 120, 130, 140]

    def test_byte_identical_across_n_jobs(self):
        results = [
            WorkerPool(n_jobs).run_trials(_stream_probe_trial, 9, seed=42)
            for n_jobs in (1, 2, 3)
        ]
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_matches_spawned_generator_streams(self):
        """Trial t's stream is exactly spawn_generators(seed, n)[t]'s."""
        from repro.utils.rng import spawn_generators

        out = WorkerPool(2).run_trials(_stream_probe_trial, 4, seed=7)
        expected = [g.random(3).tolist() for g in spawn_generators(7, 4)]
        assert out == expected

    def test_generator_seed_consumed_consistently(self):
        """A passed-in generator is consumed identically for every n_jobs,
        so downstream draws from the same stream are unaffected."""
        g1 = np.random.default_rng(3)
        g2 = np.random.default_rng(3)
        a = WorkerPool(1).run_trials(_square_trial, 4, seed=g1)
        b = WorkerPool(2).run_trials(_square_trial, 4, seed=g2)
        assert a == b
        assert np.array_equal(g1.random(5), g2.random(5))

    def test_zero_trials(self):
        assert WorkerPool(4).run_trials(_square_trial, 0, seed=0) == []

    def test_negative_trials_raises(self):
        with pytest.raises(ValueError):
            WorkerPool().run_trials(_square_trial, -1, seed=0)

    def test_invalid_n_jobs_raises(self):
        with pytest.raises(ValueError):
            WorkerPool(0).run_trials(_square_trial, 3, seed=0)

    def test_fewer_trials_than_workers_clamps_instead_of_inlining(self):
        """Regression for the inline fallback: n_trials < n_jobs must fan
        out on min(n_jobs, n_trials) workers, silently and byte-identically
        (heavy few-repeat loops were losing all parallelism)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = WorkerPool(3).run_trials(_process_probe_trial, 2, seed=5)
        import os

        pids = {pid for pid, _, _ in out}
        assert os.getpid() not in pids  # really ran in pool children
        assert all(flag for _, flag, _ in out)  # marked as workers
        assert all(jobs == 1 for _, _, jobs in out)  # no nested pools

    def test_clamped_fanout_matches_serial_streams(self):
        a = WorkerPool(8).run_trials(_stream_probe_trial, 3, seed=5)
        b = WorkerPool(1).run_trials(_stream_probe_trial, 3, seed=5)
        assert a == b

    def test_single_trial_runs_inline(self):
        """A single trial is one unit, which runs inline."""
        out = WorkerPool(8).run_trials(_square_trial, 1, seed=5)
        assert out == WorkerPool(1).run_trials(_square_trial, 1, seed=5)


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
