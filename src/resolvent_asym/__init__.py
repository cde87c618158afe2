"""Radial resolvent asymptotics for the normalized p-Laplacian.

Exact radial solutions of eps^2 Laplacian_p u = u with boundary value 1 on
balls and ball complements, comparison barriers, distance (Varadhan-type)
asymptotics, and scaled q-means encoding boundary curvature.
"""

__version__ = "0.1.0"

from .params import INFINITY, ProblemParams, conjugate, limit_prediction  # noqa: F401
from .radial import Geometry, RadialSolution, eval_log_u, ode_residual, \
    varadhan_residual  # noqa: F401
from .barriers import enhanced_U, enhanced_V, sandwich_check  # noqa: F401
from .geometry import BallDomain, ExteriorBallDomain, ImplicitDomain, \
    TouchingBallConfig, area_ratio_limit, level_set_area, touching_ball  # noqa: F401
from .qmeans import QMeanQuery, QMeanResult, q_mean, qmean_limit_experiment, \
    solution_profile  # noqa: F401
from .experiments import RateFit, RateModel, SweepConfig, emit, fit_rate, \
    run_psi_rate_table, run_qmean_sweep, run_varadhan_sweep  # noqa: F401
