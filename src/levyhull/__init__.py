"""Stick-breaking simulation and statistical verification of the shape of
concave majorants of Levy processes."""

from .config import ExperimentConfig, load_config
from .hull import (
    Face,
    QuintupleSample,
    concave_majorant,
    convex_minorant,
    merge_collinear,
    shape_stats,
    stack_quintuples,
)
from .models import (
    EXACT_JUMPS,
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    LogCorrectedPareto,
    Pareto,
    PathSkeleton,
    PointMass,
    StableProcess,
    TwoPoint,
    norming,
    sample_increment,
    sample_path,
    theta,
    theta_fubini,
)
from .rng import master_stream, substream
from .sbrep import (
    NormalizedStat,
    compute_sigma_t,
    normalize_finite_variance,
    normalize_stable_zero_mean,
    normalize_heavy,
    normalize_drift,
    sample_quintuple,
)
from .stats import KsResult, TailFitResult, ks_two_sample, tail_slope

__version__ = "0.1.0"
