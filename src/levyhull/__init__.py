"""Stick-breaking simulation and statistical verification of the shape of
concave majorants of Levy processes."""

from .config import ExperimentConfig, load_config
from .hull import (
    Face,
    MajorantSummary,
    concave_majorant,
    convex_minorant,
    merge_collinear,
    shape_stats,
)
from .limitlaws import (
    LimitSample,
    perpetuity_tail_constant,
    sample_limit_envelopes,
    sample_limit_finite_variance,
    sample_limit_stable_zero_mean,
    sample_limit_heavy,
    sample_limit_drift,
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
    QuintupleSample,
    compute_sigma_t,
    normalize_finite_variance,
    normalize_stable_zero_mean,
    normalize_heavy,
    normalize_drift,
    sample_quintuple,
    stack_quintuples,
)
from .stats import KsResult, TailFitResult, ks_two_sample, tail_slope
from .sticks import StickBreak, big_sticks, sample_sticks, tau

__version__ = "0.1.0"
