"""Robust M-estimation for additive single-index models.

Fits ``y_t = sum_j gamma_1j g_1j(x_t' theta_1j) + sum_j gamma_2j
g_2j(z_t' theta_2j) + e_t`` under convex losses (squared error, absolute
error, quantile, Huber) where ``x_t`` is stochastically trending and
``z_t`` is trending-stationary.  Nonsmooth losses are handled through a
Gaussian-smoothed surrogate whose derivatives feed a damped Newton
iteration; simulation, Monte Carlo and rolling-forecast harnesses are
included along with a command-line interface (``mollifit --help``).
"""

__version__ = "0.1.0"

from .dgp import (
    DgpConfig,
    ErrorLaw,
    TrendKind,
    gen_errors,
    gen_example,
    gen_linear_process,
    gen_trending_stationary,
    gen_unit_root,
    rng_for,
)
from .estimate import (
    FitOptions,
    FitResult,
    Inference,
    estimate_a1,
    estimate_a2,
    estimate_sigma,
    fit,
    fit_many,
    infer,
    stationary_covariance,
)
from .exceptions import MollifitError
from .forecast import ForecastConfig, pseudo_r2, rolling_forecast, run_forecast
from .losses import (
    LAD,
    SQUARED_ERROR,
    LossKind,
    LossSpec,
    eval_loss,
    gap_bound,
    huber_loss,
    kde_mollifier_order,
    mollified_eval,
    mollified_grad,
    mollified_hess,
    quantile_loss,
    sample_size_order,
    subgrad,
)
from .model import (
    Dataset,
    GAUSS_PDF,
    HERMITE_EXP,
    HERMITE_EXP_LINEAR,
    IDENTITY,
    HRegular,
    IRegular,
    LinkKind,
    LinkSpec,
    ModelSpec,
    ParamLayout,
    ParamVector,
    classify_link,
    normalize,
    param_jacobian,
    power_link,
    regression_mean,
    residuals,
)
from .montecarlo import McConfig, McTable, rate_exponent, run_replications, summarize

__all__ = [name for name in dir() if not name.startswith("_")]
