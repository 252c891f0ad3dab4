"""Independent references that the tests check the package against.

:func:`quadrature_oracle` integrates the smoothing convolution numerically,
so the closed-form smoothed losses of :mod:`mollifit.losses` can be checked
against it; :func:`quadratic_minimizer` is the closed-form minimizer of the
quadratic surrogate objective that the fit is compared with.  Both use only
the public, unsmoothed loss definitions and the package's exception types,
never the kernels or the solver they check.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from mollifit.exceptions import (
    ConfigurationError,
    RankDeficiencyError,
    ShapeError,
    UnsupportedLossError,
)
from mollifit.losses import LossKind, LossSpec, eval_loss, subgrad

_SQRT_PI = math.sqrt(math.pi)

# Domain half-width for the substituted integral; exp(-13.5^2) ~ 1e-80.
_ORACLE_SPAN = 13.5
_MAX_PANEL_WIDTH = 4.0


class OracleResult(NamedTuple):
    value: float
    accuracy_warning: bool


def _kink_points(spec: LossSpec):
    if spec.kind is LossKind.HUBER:
        return (-spec.param, spec.param)
    return (0.0,)


# Each rule is an eigenvalue problem (16 ms at 128 nodes), so it is made once.
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


def _oracle_value(spec, m, u, order, nodes):
    sm = math.sqrt(m)
    # Orders 1 and 2 integrate the subgradient instead of the loss (one
    # integration by parts): the Hermite-factor representation of rho*H_k
    # multiplies node/weight noise by m^(k/2), which swamps the tiny true
    # value of far-from-kink hessians at large m.
    if order == 0:
        integrand, hermite, prefactor = eval_loss, lambda y: np.ones_like(y), 1.0
    elif order == 1:
        integrand, hermite, prefactor = subgrad, lambda y: np.ones_like(y), 1.0
    else:
        integrand, hermite, prefactor = subgrad, lambda y: 2.0 * y, sm
    # Split at the image of each loss kink so every segment is analytic.
    cuts = [-_ORACLE_SPAN]
    for k in _kink_points(spec):
        yk = sm * (k - u)
        if -_ORACLE_SPAN < yk < _ORACLE_SPAN:
            cuts.append(yk)
    cuts.append(_ORACLE_SPAN)
    cuts.sort()
    ref_x, ref_w = _gauss_legendre(nodes)
    contribs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        npanels = max(1, math.ceil((hi - lo) / _MAX_PANEL_WIDTH))
        edges = np.linspace(lo, hi, npanels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            y = 0.5 * (a + b) + half * ref_x
            # |y| <= 13.5, so the exponent never underflows.
            f = integrand(spec, u + y / sm) * hermite(y) * np.exp(-y * y)
            contribs.append(half * ref_w * f)
    # The signed node contributions cancel heavily; compensated summation
    # keeps the (prefactor-amplified) result near 1 ulp.
    total = math.fsum(np.concatenate(contribs))
    return total * prefactor / _SQRT_PI


def quadrature_oracle(spec: LossSpec, m, u: float, order: int, nodes: int = 128) -> OracleResult:
    """Numerical value of the order-th derivative of rho_m at u.

    Integrates the substituted convolution integral, e.g. for order 0
    ``1/sqrt(pi) * int rho(u + y/sqrt(m)) exp(-y^2) dy``; orders 1 and 2 use
    the once-by-parts form with the subgradient in place of the loss, which
    keeps the conditioning independent of m.  A composite Gauss rule is
    applied per smooth piece, splitting the domain at the images of the loss
    kinks (a single global Gauss-Hermite rule cannot see the kinks and stalls
    near 1e-3 accuracy).  ``nodes`` is the Gauss order per panel.  The result
    carries an embedded accuracy flag obtained by halving the node count.
    """
    if spec.kind is LossKind.SQUARED_ERROR:
        raise UnsupportedLossError(
            "quadrature oracle is not defined for squared-error loss; it is already smooth"
        )
    if order not in (0, 1, 2):
        raise ConfigurationError(f"derivative order must be 0, 1 or 2, got {order}")
    if nodes < 32:
        raise ConfigurationError(f"need at least 32 quadrature nodes, got {nodes}")
    m = float(m)
    if not (math.isfinite(m) and m >= 1.0):
        raise ConfigurationError(f"mollifier order must be finite and >= 1, got {m}")
    u = float(u)
    value = _oracle_value(spec, m, u, order, nodes)
    check = _oracle_value(spec, m, u, order, max(8, nodes // 2))
    warn = abs(value - check) > 1e-9 * (1.0 + abs(value))
    return OracleResult(value, warn)


def quadratic_minimizer(J, psi_e, a2: float, ridge: float = 0.0) -> np.ndarray:
    """Closed-form minimizer of the quadratic surrogate objective.

    In root-n-scaled coordinates the surrogate is
    ``Q(beta) = -(J' psi / sqrt(n))' beta + (a2/2) beta' (J'J/n) beta``;
    its unique minimizer is ``((a2/n) J'J + ridge I)^{-1} (J' psi / sqrt(n))``.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    psi_e = np.asarray(psi_e, dtype=float).ravel()
    n, P = J.shape
    if psi_e.size != n:
        raise ShapeError("psi_e length must match the rows of J")
    if not a2 > 0:
        raise ConfigurationError("a2 must be positive")
    H = (a2 / n) * (J.T @ J) + ridge * np.eye(P)
    b = J.T @ psi_e / math.sqrt(n)
    try:
        beta = np.linalg.solve(H, b)
    except np.linalg.LinAlgError:
        beta = None
    if beta is None or not np.all(np.isfinite(beta)):
        raise RankDeficiencyError("normal matrix for quadratic surrogate is singular")
    return beta
