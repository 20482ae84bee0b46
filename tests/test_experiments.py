"""Smoke + shape tests of the experiment harness (fast configurations)."""

import numpy as np
import pytest

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
from repro.experiments.german_credit_exp import (
    ALGORITHMS,
    run_german_credit,
    run_table1,
)

FAST_FIG1 = Fig1Config(target_iis=(0, 8, 14), thetas=(0.25, 1.0, 4.0), n_samples=60, n_bootstrap=100, seed=7)
FAST_FIG2 = Fig2Config(deltas=(0.0, 0.5, 1.0), n_trials=40, n_bootstrap=100, seed=7)
FAST_FIG34 = Fig34Config(
    deltas=(0.0, 1.0), thetas=(0.25, 1.0, 4.0), n_trials=15,
    samples_per_trial=10, n_bootstrap=100, seed=7,
)
FAST_GC = GermanCreditConfig(
    theta=0.5, noise_sigma=0.0, sizes=(10, 30), n_repeats=4, n_bootstrap=100, seed=7
)


class TestFig1:
    def test_runs_and_reports(self):
        result = run_fig1(FAST_FIG1)
        text = result.to_text()
        assert "Fig.1" in text
        assert len(result.central_iis) == 3

    def test_sample_ii_converges_to_central(self):
        result = run_fig1(FAST_FIG1)
        for central_ii, per_theta in result.mean_sample_ii.items():
            largest_theta = max(per_theta)
            assert per_theta[largest_theta].estimate == pytest.approx(
                central_ii, abs=2.5
            )

    def test_unfair_center_repaired_at_low_theta(self):
        result = run_fig1(FAST_FIG1)
        per_theta = result.mean_sample_ii[14]
        smallest_theta = min(per_theta)
        # Large drop from the central II of 14.
        assert per_theta[smallest_theta].estimate < 9.0

    def test_reproducible(self):
        a = run_fig1(FAST_FIG1)
        b = run_fig1(FAST_FIG1)
        for ii in a.mean_sample_ii:
            for theta in a.mean_sample_ii[ii]:
                assert (
                    a.mean_sample_ii[ii][theta].estimate
                    == b.mean_sample_ii[ii][theta].estimate
                )


class TestFig2:
    def test_monotone_trend(self):
        result = run_fig2(FAST_FIG2)
        estimates = [r.estimate for r in result.central_ii.values()]
        # Segregation grows with delta.
        assert estimates[0] < estimates[-1]

    def test_delta_one_saturates(self):
        result = run_fig2(FAST_FIG2)
        assert result.central_ii[1.0].estimate == pytest.approx(14.0, abs=0.5)

    def test_report_contains_deltas(self):
        text = run_fig2(FAST_FIG2).to_text()
        assert "delta" in text
        assert "0.5" in text


class TestFig34:
    def test_ndcg_converges_to_one(self):
        result = run_fig34(FAST_FIG34)
        for delta in FAST_FIG34.deltas:
            per_theta = result.sample_ndcg[delta]
            assert per_theta[4.0].estimate > 0.99

    def test_ndcg_monotone_in_theta(self):
        result = run_fig34(FAST_FIG34)
        for delta in FAST_FIG34.deltas:
            estimates = [result.sample_ndcg[delta][t].estimate for t in FAST_FIG34.thetas]
            assert estimates == sorted(estimates)

    def test_sample_ii_approaches_central_at_high_theta(self):
        result = run_fig34(FAST_FIG34)
        for delta in FAST_FIG34.deltas:
            high = result.sample_ii[delta][4.0].estimate
            assert high == pytest.approx(result.central_ii[delta], abs=2.0)

    def test_tradeoff_for_unfair_center(self):
        # At delta=1 the centre is maximally unfair: lowering theta lowers II.
        result = run_fig34(FAST_FIG34)
        ii = [result.sample_ii[1.0][t].estimate for t in FAST_FIG34.thetas]
        assert ii[0] < ii[-1]

    def test_both_reports_render(self):
        result = run_fig34(FAST_FIG34)
        assert "Fig.3" in result.to_text_fig3()
        assert "Fig.4" in result.to_text_fig4()


class TestTable1:
    def test_exact_counts_rendered(self):
        text = run_table1(synthesize_german_credit(seed=0))
        assert "131" in text and "261" in text and "256" in text
        assert "1000" in text

    def test_totals_row(self):
        text = run_table1(synthesize_german_credit(seed=0))
        total_line = [l for l in text.splitlines() if l.startswith("Total")][0]
        assert "108" in total_line and "713" in total_line and "179" in total_line


class TestGermanCredit:
    @pytest.fixture(scope="class")
    def result(self):
        return run_german_credit(FAST_GC, data=synthesize_german_credit(seed=0))

    def test_all_algorithms_present(self, result):
        for alg in ALGORITHMS:
            assert set(result.ppfair_known[alg]) == set(FAST_GC.sizes)
            assert set(result.ndcg[alg]) == set(FAST_GC.sizes)

    def test_attribute_aware_dominate_known_attribute(self, result):
        # ILP and IPF enforce the Age-Sex constraints: near-perfect PPfair.
        for alg in ("ApproxMultiValuedIPF", "ILP"):
            for size in FAST_GC.sizes:
                assert result.ppfair_known[alg][size].estimate >= 95.0

    def test_ndcg_values_sane(self, result):
        for alg in ALGORITHMS:
            for size in FAST_GC.sizes:
                v = result.ndcg[alg][size].estimate
                assert 0.5 <= v <= 1.0 + 1e-9

    def test_best_of_m_beats_single_sample_ndcg(self, result):
        wins = sum(
            result.ndcg["Mallows (best of m)"][size].estimate
            >= result.ndcg["Mallows (1 sample)"][size].estimate
            for size in FAST_GC.sizes
        )
        assert wins == len(FAST_GC.sizes)

    def test_mallows_competitive_on_unknown_attribute(self, result):
        # Fig. 6: no method sees Housing, and the attribute-blind Mallows
        # method stays within 12 points of the best attribute-aware
        # baseline, averaged over sizes.
        def mean_over_sizes(alg):
            return np.mean(
                [result.ppfair_unknown[alg][s].estimate for s in FAST_GC.sizes]
            )

        best_baseline = max(
            mean_over_sizes(alg)
            for alg in ("DetConstSort", "ApproxMultiValuedIPF", "ILP")
        )
        assert mean_over_sizes("Mallows (best of m)") >= best_baseline - 12.0

    def test_reports_render(self, result):
        assert "Fig.5" in result.to_text_fig5()
        assert "Fig.6" in result.to_text_fig6()
        assert "Fig.7" in result.to_text_fig7()
        assert "Age-Sex" in result.to_text_fig5()
        assert "Housing" in result.to_text_fig6()

    def test_noisy_panel_runs(self):
        cfg = GermanCreditConfig(
            theta=1.0, noise_sigma=1.0, sizes=(10, 20), n_repeats=3,
            n_bootstrap=50, seed=3,
        )
        result = run_german_credit(cfg, data=synthesize_german_credit(seed=0))
        assert "sigma=1" in result.to_text_fig5()
