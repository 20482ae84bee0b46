"""The Mallows ranking model (Section III-E) and samplers."""

from repro.mallows.model import (
    MallowsModel,
    expected_kendall_tau,
    log_partition_function,
    partition_function,
)
from repro.mallows.sampling import (
    sample_mallows,
    sample_mallows_batch,
    sample_mallows_rankings,
)
from repro.mallows.learning import (
    estimate_center_borda,
    estimate_center_copeland,
    fit_mallows,
    fit_theta_mle,
)
from repro.mallows.generalized import (
    GeneralizedMallowsModel,
    dispersion_profile,
    displacement_vector,
    fit_generalized_mallows,
)
from repro.mallows.marginals import (
    exact_expected_exposure,
    exact_expected_ndcg,
    expected_positions,
    position_marginals,
    tune_theta_for_ndcg_exact,
)

__all__ = [
    "MallowsModel",
    "partition_function",
    "log_partition_function",
    "expected_kendall_tau",
    "sample_mallows",
    "sample_mallows_batch",
    "sample_mallows_rankings",
    "fit_theta_mle",
    "fit_mallows",
    "estimate_center_borda",
    "estimate_center_copeland",
    "GeneralizedMallowsModel",
    "dispersion_profile",
    "displacement_vector",
    "fit_generalized_mallows",
    "position_marginals",
    "expected_positions",
    "exact_expected_ndcg",
    "exact_expected_exposure",
    "tune_theta_for_ndcg_exact",
]
