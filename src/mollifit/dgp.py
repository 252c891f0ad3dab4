"""Simulation designs: linear processes, unit roots, trending stationarity.

The packaged example generators reproduce the two simulation designs used
for the Monte Carlo tables: a homogeneous design (linear plus squared index
of a bivariate random walk plus a linear trending-stationary index) and an
integrable design (Gaussian-density link on the random-walk index).

Determinism contract: every generator is a pure function of its
configuration and the supplied seeded stream.  Distinct replications should
use child streams of a common seed, e.g. ``rng_for(base_seed, cell, rep)``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .exceptions import ConfigurationError, ShapeError
from .model import (
    Dataset,
    IDENTITY,
    GAUSS_PDF,
    ModelSpec,
    ParamVector,
    power_link,
    regression_mean,
)

VAR_BURN_IN = 200


class ErrorLaw(enum.Enum):
    NORMAL = "normal"
    MIXED_NORMAL = "mixednormal"
    T2 = "t2"
    CAUCHY = "cauchy"


class TrendKind(enum.Enum):
    NONE = "none"
    LINEAR = "linear"


@dataclass
class DgpConfig:
    """Full description of the regressor and error processes."""

    n: int
    d1: int
    d2: int
    rho1: np.ndarray
    sigma1: np.ndarray
    rho2: np.ndarray
    sigma2: np.ndarray
    trend: TrendKind = TrendKind.NONE
    error_law: ErrorLaw = ErrorLaw.NORMAL
    error_scale: float = 1.0
    lin_proc_coeffs: list[np.ndarray] | None = None
    quantile_recentering: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"n must be at least 1, got {self.n}")
        self.rho1 = np.asarray(self.rho1, dtype=float)
        self.sigma1 = np.asarray(self.sigma1, dtype=float)
        self.rho2 = np.asarray(self.rho2, dtype=float)
        self.sigma2 = np.asarray(self.sigma2, dtype=float)
        if self.error_scale <= 0:
            raise ConfigurationError("error_scale must be positive")
        for name, mat, d in (
            ("rho1", self.rho1, self.d1),
            ("sigma1", self.sigma1, self.d1),
            ("rho2", self.rho2, self.d2),
            ("sigma2", self.sigma2, self.d2),
        ):
            if mat.shape != (d, d):
                raise ShapeError(f"{name} must be {d}x{d}, got {mat.shape}")
        if self.lin_proc_coeffs is not None:
            if len(self.lin_proc_coeffs) < 1:
                raise ConfigurationError("lin_proc_coeffs must be non-empty")
            self.lin_proc_coeffs = [
                np.asarray(a, dtype=float) for a in self.lin_proc_coeffs
            ]
            d = self.d1
            if any(np.atleast_2d(a).shape != (d, d) for a in self.lin_proc_coeffs):
                raise ShapeError(f"lin_proc_coeffs must be {d}x{d} matrices")


def rng_for(base_seed: int, *key: int) -> np.random.Generator:
    """Independent substream keyed by integers (replication, cell, ...)."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=tuple(key)))


def gen_linear_process(coeffs, n: int, rng: np.random.Generator) -> np.ndarray:
    """w_t = sum_j A_j eta_{t-j} with iid standard normal innovations.

    ``coeffs`` is the list (A_0, ..., A_J); A_0 must be the identity.  A
    burn-in of J presample innovations makes every output row a full sum.
    """
    coeffs = [np.atleast_2d(np.asarray(a, dtype=float)) for a in coeffs]
    if not coeffs:
        raise ConfigurationError("need at least one coefficient matrix")
    d = coeffs[0].shape[0]
    for a in coeffs:
        if a.shape != (d, d):
            raise ShapeError("all coefficient matrices must be square and same size")
    if not np.array_equal(coeffs[0], np.eye(d)):
        raise ConfigurationError("leading linear-process coefficient must be the identity")
    lag = len(coeffs) - 1
    # Main innovations first, presample burn-in after: adding taps (even
    # zero ones) must not reshuffle the draws under a fixed seed.
    main = rng.standard_normal((n, d))
    if lag == 0:
        return main
    pre = rng.standard_normal((lag, d))
    eta = np.vstack([pre, main])
    w = main.copy()
    for j in range(1, lag + 1):
        w += eta[lag - j : lag - j + n] @ coeffs[j].T
    return w


def _var1_path(rho: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """Rows s_t = rho s_{t-1} + shocks_t of a VAR(1), started at s_{-1} = 0.

    A diagonal ``rho`` runs each coordinate as a scalar recursion.  That
    rounds exactly as the matrix step does, because the off-diagonal
    products the matrix step adds are exact zeros.  Any other ``rho`` keeps
    the matrix step: a hand-written multiply-add sums its products in
    another order than ``rho @ s`` and rounds differently.
    """
    s = np.empty_like(shocks)
    if np.array_equal(rho, np.diag(np.diag(rho))):
        for j, r in enumerate(np.diag(rho).tolist()):
            path = itertools.accumulate(shocks[:, j].tolist(), lambda prev, e, r=r: r * prev + e)
            s[:, j] = np.fromiter(path, float, count=len(shocks))
        return s
    prev = np.zeros(shocks.shape[1])
    for t, e in enumerate(shocks):
        prev = rho @ prev + e
        s[t] = prev
    return s


def gen_unit_root(config: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    """x_t = rho1 x_{t-1} + sigma1 w_t with x_0 = 0."""
    coeffs = config.lin_proc_coeffs or [np.eye(config.d1)]
    w = gen_linear_process(coeffs, config.n, rng) @ config.sigma1.T
    if np.array_equal(config.rho1, np.eye(config.d1)):
        return np.cumsum(w, axis=0)
    # Allowed for robustness experiments, but outside the unit-root theory.
    import warnings

    warnings.warn("rho1 is not the identity; x_t is not a unit-root process")
    return _var1_path(config.rho1, w)


def gen_trending_stationary(config: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    """z_t = h(t/n) + v_t with a burnt-in stationary VAR(1) component."""
    eigvals = np.linalg.eigvals(config.rho2)
    if np.max(np.abs(eigvals)) >= 1.0:
        raise ConfigurationError("rho2 must have spectral radius < 1")
    eps = rng.standard_normal((config.n + VAR_BURN_IN, config.d2)) @ config.sigma2.T
    v = _var1_path(config.rho2, eps)[VAR_BURN_IN:]
    if config.trend is TrendKind.LINEAR:
        tau = np.arange(1, config.n + 1) / config.n
        v = v + tau[:, None]
    return v


def law_quantile(law: ErrorLaw, p: float) -> float:
    """Quantile of the unscaled error law, exact or solved to 1e-12."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError("quantile level must lie in (0,1)")
    if law is ErrorLaw.NORMAL:
        return float(ndtri(p))
    if law is ErrorLaw.CAUCHY:
        return math.tan(math.pi * (p - 0.5))
    if law is ErrorLaw.T2:
        a = 2.0 * p - 1.0
        return a * math.sqrt(2.0 / (1.0 - a * a))
    # Mixed normal: 0.9 N(0,1) + 0.1 N(0,4); numeric root of the cdf.
    # Imported here: scipy.optimize loads scipy.linalg, scipy.sparse and
    # more, which no other command path needs.
    from scipy.optimize import brentq

    cdf = lambda x: 0.9 * ndtr(x) + 0.1 * ndtr(x / 2.0) - p
    return float(brentq(cdf, -60.0, 60.0, xtol=1e-12, rtol=8.9e-16))


def gen_errors(
    law: ErrorLaw,
    n: int,
    scale: float,
    recentering: float | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """iid draws from the error law, scaled; optionally quantile-recentred.

    With ``recentering=tau`` the tau-quantile of the scaled law is
    subtracted, so the tau-quantile of the returned errors is zero.
    Heavy-tailed draws use inverse-cdf transforms of a uniform stream.
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    if rng is None:
        raise ConfigurationError("a seeded stream is required")
    if law is ErrorLaw.NORMAL:
        e = rng.standard_normal(n)
    elif law is ErrorLaw.MIXED_NORMAL:
        wide = rng.uniform(size=n) >= 0.9
        e = rng.standard_normal(n) * np.where(wide, 2.0, 1.0)
    elif law is ErrorLaw.T2:
        a = 2.0 * rng.uniform(size=n) - 1.0
        e = a * np.sqrt(2.0 / (1.0 - a * a))
    else:
        e = np.tan(math.pi * (rng.uniform(size=n) - 0.5))
    e = scale * e
    if recentering is not None:
        e = e - scale * law_quantile(law, recentering)
    return e


def _example_dgp_config(n: int, law: ErrorLaw, recenter_tau, scale: float) -> DgpConfig:
    return DgpConfig(
        n=n,
        d1=2,
        d2=2,
        rho1=np.eye(2),
        sigma1=np.diag([0.2, 0.5]),
        rho2=0.5 * np.eye(2),
        sigma2=np.eye(2),
        trend=TrendKind.LINEAR,
        error_law=law,
        error_scale=scale,
        quantile_recentering=recenter_tau,
    )


def example_model(example: str) -> tuple[ModelSpec, ParamVector]:
    """True model and parameters of a packaged example ('ex51' or 'ex52')."""
    unit = np.array([1.0, 1.0]) / math.sqrt(2.0)
    if example == "ex51":
        spec = ModelSpec(
            nonstat_links=(IDENTITY, power_link(2)),
            stat_links=(IDENTITY,),
            d1=2,
            d2=2,
        )
        truth = ParamVector(
            [unit.copy(), unit.copy()], [2.0, 2.0], [unit.copy()], [1.0]
        )
    elif example == "ex52":
        spec = ModelSpec(
            nonstat_links=(GAUSS_PDF,),
            stat_links=(IDENTITY,),
            d1=2,
            d2=2,
            share_theta1=True,
        )
        truth = ParamVector([unit.copy()], [2.0], [unit.copy()], [1.0])
    else:
        raise ConfigurationError(f"unknown example id: {example!r}")
    return spec, truth


def gen_example(
    example: str,
    n: int,
    law: ErrorLaw,
    rng: np.random.Generator,
    recenter_tau: float | None = None,
    error_scale: float = 0.5,
) -> tuple[Dataset, ModelSpec, ParamVector]:
    """Simulate a packaged example; returns (data, true model, true params).

    The unit-root innovations, the stationary driver and the errors draw
    from three disjoint child streams of ``rng``.
    """
    if n < 50:
        raise ConfigurationError("example datasets need n >= 50")
    spec, truth = example_model(example)
    config = _example_dgp_config(n, law, recenter_tau, error_scale)
    return simulate_generic(config, spec, truth, rng), spec, truth


def simulate_generic(
    config: DgpConfig,
    model: ModelSpec,
    params: ParamVector,
    rng: np.random.Generator,
) -> Dataset:
    """Dataset from an arbitrary DgpConfig and true model/parameters."""
    rng_w, rng_eps, rng_e = rng.spawn(3)
    X = gen_unit_root(config, rng_w)
    Z = gen_trending_stationary(config, rng_eps)
    e = gen_errors(
        config.error_law, config.n, config.error_scale, config.quantile_recentering, rng_e
    )
    y = regression_mean(model, params, X, Z) + e
    return Dataset(y=y, X=X, Z=Z)


def dataset_to_csv(data: Dataset) -> str:
    """Render a dataset as CSV: header y,x1..,z1.. and 17-digit values."""
    d1 = data.X.shape[1]
    d2 = data.Z.shape[1]
    header = ",".join(
        ["y"]
        + [f"x{i + 1}" for i in range(d1)]
        + [f"z{i + 1}" for i in range(d2)]
    )
    rows = [header]
    for t in range(data.n):
        vals = [data.y[t]] + list(data.X[t]) + list(data.Z[t])
        rows.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(rows) + "\n"


def table_from_csv(text: str) -> tuple[dict[str, np.ndarray], list[str] | None]:
    """Parse a comma-separated table whose first line is the header.

    Returns the numeric columns keyed by header name, and the raw values of
    the first non-numeric column (the dates), or None when every column is
    numeric.  Any further non-numeric column is dropped.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ConfigurationError("table has no header row")
    if len(lines) == 1:
        raise ConfigurationError("table has a header but no data rows")
    header = [h.strip() for h in lines[0].split(",")]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise ConfigurationError(f"repeated column name(s) in table header: {', '.join(repeated)}")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ConfigurationError("ragged row in input table")
    columns = {}
    dates = None
    for h, vals in zip(header, zip(*rows)):
        try:
            columns[h] = np.array([float(v) for v in vals])
        except ValueError:
            if dates is None:
                dates = list(vals)
    return columns, dates


def dataset_from_table(
    table: dict[str, np.ndarray], y_col: str, x_cols: list[str], z_cols: list[str]
) -> Dataset:
    """The dataset of the named columns: y, then the X and Z blocks in order.

    The names must be disjoint, and each must be a column of ``table``.  A
    block without columns becomes one zero column.
    """
    names = [y_col, *x_cols, *z_cols]
    if len(set(names)) != len(names):
        raise ConfigurationError("y/x/z column names must be disjoint")
    for name in names:
        if name not in table:
            raise ConfigurationError(f"input table has no column {name!r}")
    n = len(table[y_col])
    X, Z = (np.column_stack([table[c] for c in cols]) if cols else np.zeros((n, 1))
            for cols in (x_cols, z_cols))
    return Dataset(y=table[y_col], X=X, Z=Z)


def dataset_from_csv(text: str) -> Dataset:
    """Build a dataset from a CSV with numeric columns y, x1..x<d1>, z1..z<d2>.

    Columns are picked by name, so their order in the file does not matter.
    A block without columns becomes one zero column.
    """
    columns, dates = table_from_csv(text)
    xs = [f"x{i + 1}" for i in range(sum(h.startswith("x") for h in columns))]
    zs = [f"z{i + 1}" for i in range(sum(h.startswith("z") for h in columns))]
    if dates is not None or set(columns) != {"y", *xs, *zs}:
        raise ConfigurationError(
            "dataset columns must be numeric and named y, x1..x<d1>, z1..z<d2>; "
            f"numeric columns found: {list(columns)}"
        )
    return dataset_from_table(columns, "y", xs, zs)
