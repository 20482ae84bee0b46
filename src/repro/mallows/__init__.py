"""The Mallows ranking model (Section III-E) and samplers."""

from repro.mallows.model import (
    MallowsModel,
    expected_kendall_tau,
    log_partition_function,
    partition_function,
)
from repro.mallows.sampling import sample_mallows, sample_mallows_batch
from repro.mallows.generalized import (
    GeneralizedMallowsModel,
    dispersion_profile,
    displacement_vector,
)
from repro.mallows.marginals import (
    exact_expected_ndcg,
    expected_positions,
    position_marginals,
)

__all__ = [
    "MallowsModel",
    "partition_function",
    "log_partition_function",
    "expected_kendall_tau",
    "sample_mallows",
    "sample_mallows_batch",
    "GeneralizedMallowsModel",
    "dispersion_profile",
    "displacement_vector",
    "position_marginals",
    "expected_positions",
    "exact_expected_ndcg",
]
