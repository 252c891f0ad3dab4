"""Convex losses, their subgradients, and Gaussian-smoothed versions.

The smoothing kernel is ``phi_m(x) = sqrt(m/pi) * exp(-m x^2)``, the density
of ``N(0, 1/(2m))``.  Convolving a loss ``rho`` with ``phi_m`` yields an
infinitely differentiable surrogate ``rho_m`` whose first two derivatives
stand in for the subgradient and the (generally distributional) second
derivative of ``rho``.  For the three kink losses the convolution has a
closed form in ``erf``/``Phi`` terms.

An order is a plain float, finite and at least 1: :func:`sample_size_order`
gives a fit's m = floor(n^(2+eps)), :func:`kde_mollifier_order` one matched
to a density bandwidth.

All evaluation functions are vectorized over ``u`` and are pure functions of
their arguments, so they are safe to call from any number of threads.  The
smoothed loss and its derivatives also take an array of orders ``m`` that
broadcasts against ``u``, such as a (rows, 1) column for a (rows, n) block;
each element then rounds as in a call with its own scalar order.

In double precision the special functions of the closed forms saturate:
``erf(x)`` is exactly +-1 from |x| >= 5.9216, ``ndtr(x)`` exactly 1 from
x >= 8.2924 and exactly 0 at and below x = -37.6772.  At the large orders of
a fit (m = n^(2+eps)) nearly every residual lies beyond the kink window
where they vary, so each ``erf``/``ndtr`` call goes through
:func:`_saturated`: it evaluates the function only on the elements strictly
inside the window (-6.5, 6.5) for ``erf`` and (-38.5, 8.5) for ``ndtr`` and
writes the exact constant elsewhere, bitwise what the full call returns.
When the window holds more than half the elements, the gather would cost
more than it saves, and the function runs on the whole array.  The inside
test is ``~((x <= lo) | (x >= hi))``, so NaN still goes through the
function.  It gathers and scatters instead of passing ``where=`` to the
SciPy ufunc, because ``erf(x, out=o, where=w)`` in a loop crashed the
interpreter with a segmentation fault.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, ndtr

from .exceptions import ConfigurationError, UnsupportedLossError

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Exponents below this are flushed to exactly zero instead of producing
# denormals (relevant for the huge smoothing orders used at large n).
_EXP_FLUSH = -700.0

# Window edges of the special functions, a margin past where they saturate
# in double precision (see the module docstring): (lo, hi, value at and
# below lo, value at and above hi).
_ERF_WINDOW = (-6.5, 6.5, -1.0, 1.0)
_NDTR_WINDOW = (-38.5, 8.5, 0.0, 1.0)


class LossKind(enum.Enum):
    LAD = "lad"
    QUANTILE = "quantile"
    HUBER = "huber"
    SQUARED_ERROR = "se"


@dataclass(frozen=True)
class LossSpec:
    """A member of the convex loss catalog.

    ``param`` is the quantile level for ``QUANTILE`` and the threshold for
    ``HUBER``; it is ignored otherwise.
    """

    kind: LossKind
    param: float = 0.0

    def __post_init__(self):
        if self.kind is LossKind.QUANTILE and not 0.0 < self.param < 1.0:
            raise ConfigurationError(
                f"quantile level must lie in (0,1), got {self.param}"
            )
        # An infinite threshold makes every smoothed Huber score NaN.
        if self.kind is LossKind.HUBER and not (math.isfinite(self.param) and self.param > 0.0):
            raise ConfigurationError(
                f"huber threshold must be finite and positive, got {self.param}"
            )

    @property
    def lipschitz(self) -> float:
        """Global Lipschitz constant of the loss (1, max(tau,1-tau) or c)."""
        if self.kind is LossKind.LAD:
            return 1.0
        if self.kind is LossKind.QUANTILE:
            return max(self.param, 1.0 - self.param)
        if self.kind is LossKind.HUBER:
            return self.param
        raise UnsupportedLossError(
            "squared-error loss has no global Lipschitz constant"
        )

    def label(self) -> str:
        """``kind`` or ``kind:param``; the parameter reads back exactly."""
        if self.kind in (LossKind.QUANTILE, LossKind.HUBER):
            param = f"{self.param:g}"
            if float(param) != self.param:
                param = repr(float(self.param))
            return f"{self.kind.value}:{param}"
        return self.kind.value


LAD = LossSpec(LossKind.LAD)
SQUARED_ERROR = LossSpec(LossKind.SQUARED_ERROR)


def quantile_loss(tau: float) -> LossSpec:
    return LossSpec(LossKind.QUANTILE, tau)


def huber_loss(c: float) -> LossSpec:
    return LossSpec(LossKind.HUBER, c)


def sample_size_order(n: int, epsilon: float = 0.1) -> float:
    """Sample-size rule m = floor(n^(2+epsilon)), epsilon > 0."""
    if not epsilon > 0.0:
        raise ConfigurationError("epsilon must be positive")
    try:
        m = float(math.floor(n ** (2.0 + epsilon)))
    except OverflowError:
        raise ConfigurationError(
            f"mollifier order n^(2+epsilon) overflows at n={n}, epsilon={epsilon!r}"
        ) from None
    return _as_m(m)


def _as_m(m):
    """The order as a float, or an array of orders as a float array."""
    m = np.asarray(m, dtype=float) if np.ndim(m) else float(m)
    # An infinite order makes the smoothed curvature inf * 0 = NaN at u = 0.
    if not np.all(np.isfinite(m) & (m >= 1.0)):
        raise ConfigurationError(f"mollifier order must be finite and >= 1, got {m}")
    return m


def _gexp(z):
    """exp(z) with underflow flushed to exact zero below exp(-700)."""
    z = np.asarray(z, dtype=float)
    out = np.exp(np.maximum(z, _EXP_FLUSH))
    out = np.where(z < _EXP_FLUSH, 0.0, out)
    return out


def _saturated(fn, x, window):
    """``fn(x)``, calling ``fn`` only on the elements inside ``window``.

    ``window`` is ``(lo, hi, below, above)``: ``fn`` equals ``below`` at and
    below ``lo`` and ``above`` at and above ``hi``.
    """
    lo, hi, below, above = window
    x = np.asarray(x, dtype=float)
    # NaN compares false both ways, so it counts as inside.
    inside = ~((x <= lo) | (x >= hi))
    count = np.count_nonzero(inside)
    if 2 * count > x.size:
        return fn(x)
    # Exact for the small integer constants of the windows, and branch-free:
    # np.where(x >= hi, above, below) mispredicts on a mixed-sign x and
    # costs more than the call it saves.
    out = (x >= hi) * (above - below) + below
    if count:
        # Not fn(x, out=out, where=inside): see the module docstring.
        out[inside] = fn(x[inside])
    return out


def _erf(x):
    return _saturated(erf, x, _ERF_WINDOW)


def _ndtr(x):
    return _saturated(ndtr, x, _NDTR_WINDOW)


def _phi(t):
    """Standard normal density with flushed tails."""
    return _gexp(-0.5 * np.asarray(t, dtype=float) ** 2) / _SQRT_2PI


def eval_loss(spec: LossSpec, u):
    """Evaluate the loss at ``u`` (vectorized)."""
    u = np.asarray(u, dtype=float)
    if spec.kind is LossKind.LAD:
        out = np.abs(u)
    elif spec.kind is LossKind.QUANTILE:
        tau = spec.param
        out = u * (tau - (u < 0))
    elif spec.kind is LossKind.HUBER:
        c = spec.param
        au = np.abs(u)
        out = np.where(au <= c, 0.5 * u * u, c * au - 0.5 * c * c)
    else:
        out = u * u
    return out if out.ndim else float(out)


def subgrad(spec: LossSpec, u):
    """Monotone subgradient selection psi(u).

    At kinks the fixed selections are psi(0)=0 for LAD, psi(0)=tau-1/2 for
    the quantile loss and psi(+-c)=+-c for Huber.
    """
    u = np.asarray(u, dtype=float)
    if spec.kind is LossKind.LAD:
        out = np.sign(u)
    elif spec.kind is LossKind.QUANTILE:
        tau = spec.param
        out = np.where(u > 0, tau, np.where(u < 0, tau - 1.0, tau - 0.5))
    elif spec.kind is LossKind.HUBER:
        c = spec.param
        out = np.clip(u, -c, c)
    else:
        out = 2.0 * u
    return out if out.ndim else float(out)


def _require_lipschitz(spec: LossSpec, what: str):
    if spec.kind is LossKind.SQUARED_ERROR:
        raise UnsupportedLossError(
            f"{what} is not defined for squared-error loss; it is already smooth"
        )


def _lad_eval(m, u):
    # E|u + N(0, 1/(2m))| = u*erf(sqrt(m) u) + exp(-m u^2)/sqrt(pi m)
    sm = np.sqrt(m)
    return u * _erf(sm * u) + _gexp(-m * u * u) / (_SQRT_PI * sm)


def mollified_eval(spec: LossSpec, m, u):
    """Gaussian-smoothed loss rho_m(u) in closed form."""
    _require_lipschitz(spec, "mollified evaluation")
    m = _as_m(m)
    u = np.asarray(u, dtype=float)
    if spec.kind is LossKind.LAD:
        out = _lad_eval(m, u)
    elif spec.kind is LossKind.QUANTILE:
        # rho_tau(u) = (tau - 1/2) u + |u|/2, and smoothing is linear.
        out = (spec.param - 0.5) * u + 0.5 * _lad_eval(m, u)
    else:
        c = spec.param
        s2 = 0.5 / m
        s = np.sqrt(s2)
        a = (c - u) / s
        b = (c + u) / s
        # E[((Z - t)_+)^2] for standard normal Z.
        tail_a = (1.0 + a * a) * _ndtr(-a) - a * _phi(a)
        tail_b = (1.0 + b * b) * _ndtr(-b) - b * _phi(b)
        out = 0.5 * (u * u + s2) - 0.5 * s2 * (tail_a + tail_b)
    return out if out.ndim else float(out)


def mollified_grad(spec: LossSpec, m, u):
    """First derivative rho_m'(u); monotone nondecreasing in u."""
    _require_lipschitz(spec, "mollified gradient")
    m = _as_m(m)
    u = np.asarray(u, dtype=float)
    if spec.kind is LossKind.LAD:
        out = _erf(np.sqrt(m) * u)
    elif spec.kind is LossKind.QUANTILE:
        out = (spec.param - 0.5) + 0.5 * _erf(np.sqrt(m) * u)
    else:
        c = spec.param
        s = np.sqrt(0.5 / m)
        a = (c - u) / s
        b = (c + u) / s
        # E[clip(u + s Z, -c, c)] via the two one-sided censored means.
        out = u - s * (_phi(a) - a * _ndtr(-a)) + s * (_phi(b) - b * _ndtr(-b))
    return out if out.ndim else float(out)


def mollified_hess(spec: LossSpec, m, u):
    """Second derivative rho_m''(u) >= 0."""
    _require_lipschitz(spec, "mollified hessian")
    m = _as_m(m)
    u = np.asarray(u, dtype=float)
    if spec.kind is LossKind.LAD:
        out = 2.0 * np.sqrt(m / math.pi) * _gexp(-m * u * u)
    elif spec.kind is LossKind.QUANTILE:
        out = np.sqrt(m / math.pi) * _gexp(-m * u * u)
    else:
        c = spec.param
        s = np.sqrt(0.5 / m)
        out = _ndtr((c - u) / s) + _ndtr((c + u) / s) - 1.0
    return out if out.ndim else float(out)


def gap_bound(spec: LossSpec, m) -> float:
    """Uniform bound on |rho_m - rho|: lipschitz / sqrt(pi m).

    The constant is the Lipschitz constant times the first absolute moment
    of the smoothing kernel, E|N(0,1/(2m))| = 1/sqrt(pi m).
    """
    return spec.lipschitz / math.sqrt(math.pi * _as_m(m))


def kde_mollifier_order(residuals) -> float:
    """Smoothing order matched to a Silverman-type density bandwidth.

    The second-derivative average of a kink loss is a kernel density value
    at the kink, so a consistent estimate needs the kernel scale to follow a
    density-estimation bandwidth (1/sqrt(2m) ~ n^(-1/5)), not the fast
    n^(2+eps) schedule used for the asymptotic theory.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size < 2:
        raise ConfigurationError("need at least 2 residuals for a bandwidth")
    sd = float(np.std(r))
    iqr = float(np.quantile(r, 0.75) - np.quantile(r, 0.25))
    scale = min(sd, iqr / 1.349) if iqr > 0 else sd
    if scale <= 0:
        scale = max(abs(float(np.mean(r))), 1e-8)
    h = 1.06 * scale * r.size ** (-0.2)
    return _as_m(max(1.0, 0.5 / (h * h)))
