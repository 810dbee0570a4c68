"""Tests for homogeneity of variances with bootstrap box-type acceptance regions.

The package bundles four tests of equal group variances (Levene,
Shoemaker, a bootstrapped Levene, and a box-type bootstrap test on
log-variance contrasts), the Dirichlet normal-theory calibration behind
the box construction, and a reproducible Monte Carlo harness for size and
power studies.
"""

from .bootstrap import SMOOTH_FACTOR, CriticalSearch, search_critical
from .descriptive import (
    GroupedSample,
    LogVarianceContrasts,
    MomentEstimates,
    estimate_moments,
    log_variance_contrasts,
)
from .dirichlet import DirichletParams, NormalTheoryBox, calibrate_box, log_contrast, sample_dirichlet
from .distributions import Distribution, sample_standardized
from .errors import DegenerateDataError, NumericError
from .homogeneity import (
    ALL_METHODS,
    BOOTSTRAP_LEVENE,
    BOX,
    LEVENE,
    SHOEMAKER,
    BootstrapConfig,
    TestResult,
    bootstrap_levene,
    box_test,
    levene,
    run_all,
    shoemaker,
)
from .rng import derive_seed, stream
from .simulation import (
    TWO_GROUP_NULL_SIZES,
    CellEstimate,
    ExperimentConfig,
    RobustnessReport,
    averaged_power,
    robustness,
    run_cell,
    run_grid,
    two_group_null_grid,
)
from .special import chi2_cdf, chi2_quantile, f_cdf, f_quantile

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "BOOTSTRAP_LEVENE",
    "BOX",
    "LEVENE",
    "SHOEMAKER",
    "SMOOTH_FACTOR",
    "TWO_GROUP_NULL_SIZES",
    "BootstrapConfig",
    "CellEstimate",
    "CriticalSearch",
    "DegenerateDataError",
    "DirichletParams",
    "Distribution",
    "ExperimentConfig",
    "GroupedSample",
    "LogVarianceContrasts",
    "MomentEstimates",
    "NormalTheoryBox",
    "NumericError",
    "RobustnessReport",
    "TestResult",
    "averaged_power",
    "bootstrap_levene",
    "box_test",
    "calibrate_box",
    "chi2_cdf",
    "chi2_quantile",
    "derive_seed",
    "estimate_moments",
    "f_cdf",
    "f_quantile",
    "levene",
    "log_contrast",
    "log_variance_contrasts",
    "robustness",
    "run_all",
    "run_cell",
    "run_grid",
    "sample_dirichlet",
    "sample_standardized",
    "search_critical",
    "shoemaker",
    "stream",
    "two_group_null_grid",
]
