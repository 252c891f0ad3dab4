"""Additive single-index regression structure.

A model is a sum of single-index terms ``gamma * g(index' theta)`` split
into a block driven by the stochastically trending regressors ``x`` and a
block driven by the trending-stationary regressors ``z``.  Index vectors are
identified by unit norm with a positive leading coordinate.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .exceptions import (
    ConfigurationError,
    DegenerateParameterError,
    ShapeError,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class LinkKind(enum.Enum):
    IDENTITY = "identity"
    POWER = "power"
    GAUSS_PDF = "gauss_pdf"
    HERMITE_EXP = "hermite_exp"
    HERMITE_EXP_LINEAR = "hermite_exp_linear"


@dataclass(frozen=True)
class LinkSpec:
    """A known link function with exact first and second derivatives."""

    kind: LinkKind
    power: int = 0

    def __post_init__(self):
        if self.kind is LinkKind.POWER and self.power < 2:
            raise ConfigurationError("power links need an exponent >= 2")

    def label(self) -> str:
        if self.kind is LinkKind.POWER:
            return f"power:{self.power}"
        return self.kind.value


IDENTITY = LinkSpec(LinkKind.IDENTITY)
GAUSS_PDF = LinkSpec(LinkKind.GAUSS_PDF)
HERMITE_EXP = LinkSpec(LinkKind.HERMITE_EXP)
HERMITE_EXP_LINEAR = LinkSpec(LinkKind.HERMITE_EXP_LINEAR)


def power_link(k: int) -> LinkSpec:
    return LinkSpec(LinkKind.POWER, k)


def link_value(link: LinkSpec, u):
    u = np.asarray(u, dtype=float)
    if link.kind is LinkKind.IDENTITY:
        return u
    if link.kind is LinkKind.POWER:
        return u**link.power
    if link.kind is LinkKind.GAUSS_PDF:
        return np.exp(-0.5 * u * u) / _SQRT_2PI
    if link.kind is LinkKind.HERMITE_EXP:
        return np.exp(-u * u)
    return u * np.exp(-u * u)


def link_deriv(link: LinkSpec, u):
    u = np.asarray(u, dtype=float)
    if link.kind is LinkKind.IDENTITY:
        return np.ones_like(u)
    if link.kind is LinkKind.POWER:
        return link.power * u ** (link.power - 1)
    if link.kind is LinkKind.GAUSS_PDF:
        return -u * np.exp(-0.5 * u * u) / _SQRT_2PI
    if link.kind is LinkKind.HERMITE_EXP:
        return -2.0 * u * np.exp(-u * u)
    return (1.0 - 2.0 * u * u) * np.exp(-u * u)


@dataclass(frozen=True)
class HRegular:
    """Asymptotically homogeneous class: g(lambda u) = lambda^k g(u)."""

    order: int


@dataclass(frozen=True)
class IRegular:
    """Absolutely integrable class (density-like links)."""


def classify_link(link: LinkSpec):
    """Regularity class of a link: HRegular(order) or IRegular()."""
    if link.kind is LinkKind.IDENTITY:
        return HRegular(1)
    if link.kind is LinkKind.POWER:
        return HRegular(link.power)
    return IRegular()


def _is_odd_link(link: LinkSpec) -> bool:
    # g(-u) = -g(u); sign flips of theta are absorbed by flipping gamma.
    if link.kind is LinkKind.HERMITE_EXP_LINEAR:
        return True
    if link.kind is LinkKind.IDENTITY:
        return True
    if link.kind is LinkKind.POWER:
        return link.power % 2 == 1
    return False


@dataclass(frozen=True)
class ModelSpec:
    """Block structure of the regression function."""

    nonstat_links: tuple[LinkSpec, ...]
    stat_links: tuple[LinkSpec, ...]
    d1: int
    d2: int
    share_theta1: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nonstat_links", tuple(self.nonstat_links))
        object.__setattr__(self, "stat_links", tuple(self.stat_links))
        if self.p1 + self.p2 < 1:
            raise ConfigurationError("model needs at least one index block")
        if self.d1 < 1 or self.d2 < 1:
            raise ConfigurationError("index dimensions must be >= 1")
        any_iregular = any(
            isinstance(classify_link(l), IRegular) for l in self.nonstat_links
        )
        if any_iregular and self.p1 > 0 and not self.share_theta1:
            raise ConfigurationError(
                "integrable nonstationary links require a shared index vector"
            )

    @property
    def p1(self) -> int:
        return len(self.nonstat_links)

    @property
    def p2(self) -> int:
        return len(self.stat_links)

    @property
    def n_theta1_blocks(self) -> int:
        if self.p1 == 0:
            return 0
        return 1 if self.share_theta1 else self.p1


@dataclass
class ParamVector:
    """Index vectors and coefficients for every block of a ModelSpec."""

    theta1: list[np.ndarray] = field(default_factory=list)
    gamma1: np.ndarray = field(default_factory=lambda: np.zeros(0))
    theta2: list[np.ndarray] = field(default_factory=list)
    gamma2: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.theta1 = [np.asarray(t, dtype=float).ravel() for t in self.theta1]
        self.theta2 = [np.asarray(t, dtype=float).ravel() for t in self.theta2]
        self.gamma1 = np.asarray(self.gamma1, dtype=float).ravel()
        self.gamma2 = np.asarray(self.gamma2, dtype=float).ravel()


@dataclass
class Dataset:
    """Observed rows (y, x, z)."""

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        # C order: a regressor block then rounds the same in a fit of its
        # own and gathered with other datasets' blocks (fit_many).
        self.y = np.ascontiguousarray(self.y, dtype=float).ravel()
        self.X = np.ascontiguousarray(np.atleast_2d(self.X), dtype=float)
        self.Z = np.ascontiguousarray(np.atleast_2d(self.Z), dtype=float)
        n = self.y.size
        if self.X.shape[0] != n or self.Z.shape[0] != n:
            raise ShapeError("y, X and Z must have the same number of rows")
        for name, arr in (("y", self.y), ("X", self.X), ("Z", self.Z)):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"dataset column block {name} has non-finite entries")

    @property
    def n(self) -> int:
        return self.y.size


class Term(NamedTuple):
    """One additive term ``flat[gamma] * link(A @ flat[theta])``.

    ``A`` is the regressor block Z when ``stationary`` is set and X
    otherwise; terms sharing an index vector share one ``theta`` slice.
    """

    link: LinkSpec
    stationary: bool
    theta: slice
    gamma: int


class ParamLayout:
    """Flat packing of a ParamVector, column-compatible with the Jacobian.

    Order: nonstationary theta blocks, gamma1, stationary theta blocks,
    gamma2.  ``terms`` is the table of additive terms, nonstationary first,
    so the terms of a shared nonstationary index are adjacent;
    ``index_blocks`` groups them by index vector.  The table is the one
    reader of the block split and of ``share_theta1``: the mean, the
    Jacobian, ``normalize`` and the names each loop over it.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        pos = 0
        self.theta1_slices = []
        for _ in range(model.n_theta1_blocks):
            self.theta1_slices.append(slice(pos, pos + model.d1))
            pos += model.d1
        self.gamma1_slice = slice(pos, pos + model.p1)
        pos += model.p1
        self.theta2_slices = []
        for _ in range(model.p2):
            self.theta2_slices.append(slice(pos, pos + model.d2))
            pos += model.d2
        self.gamma2_slice = slice(pos, pos + model.p2)
        pos += model.p2
        self.size = pos
        self.terms = tuple(
            Term(link, False, self.theta1_slices[0 if model.share_theta1 else j],
                 self.gamma1_slice.start + j)
            for j, link in enumerate(model.nonstat_links)
        ) + tuple(
            Term(link, True, self.theta2_slices[j], self.gamma2_slice.start + j)
            for j, link in enumerate(model.stat_links)
        )
        # (theta slice, the terms that use it) per index vector.
        self.index_blocks = [
            (theta, list(terms)) for theta, terms in groupby(self.terms, key=attrgetter("theta"))
        ]

    @functools.cached_property
    def scalars(self) -> list[tuple[str, int]]:
        """(scalar name, flat index) in table order.

        Each coefficient comes first, then the coordinates of its index
        vector; a shared index vector is listed once, with its first term.
        """
        out = []
        k = 0
        for theta, terms in self.index_blocks:
            for i, t in enumerate(terms):
                k += 1
                out.append((f"gamma{k}", t.gamma))
                if i == 0:
                    out += [(f"theta{k}{c - theta.start + 1}", c) for c in range(theta.start, theta.stop)]
        return out

    def check_widths(self, X, Z):
        """Raise ShapeError unless every used regressor block has its index width."""
        for t in self.terms:
            A, name = (Z, "z") if t.stationary else (X, "x")
            width = t.theta.stop - t.theta.start
            if A.shape[1] != width:
                raise ShapeError(f"{name} must have {width} columns, got {A.shape[1]}")

    def pack(self, params: ParamVector) -> np.ndarray:
        """``params`` as one flat vector; ShapeError unless its shapes fit the model."""
        model = self.model
        if len(params.theta1) != model.n_theta1_blocks:
            raise ShapeError(
                f"expected {model.n_theta1_blocks} nonstationary index vectors, "
                f"got {len(params.theta1)}"
            )
        if params.gamma1.size != model.p1 or params.gamma2.size != model.p2:
            raise ShapeError("coefficient count does not match the model blocks")
        if len(params.theta2) != model.p2:
            raise ShapeError("stationary index vector count does not match")
        for thetas, d, name in ((params.theta1, model.d1, "nonstationary"),
                                (params.theta2, model.d2, "stationary")):
            if any(t.size != d for t in thetas):
                raise ShapeError(f"{name} index must have length {d}")
        return np.concatenate([*params.theta1, params.gamma1, *params.theta2, params.gamma2])

    def unpack(self, flat: np.ndarray) -> ParamVector:
        return ParamVector(
            [flat[sl].copy() for sl in self.theta1_slices],
            flat[self.gamma1_slice].copy(),
            [flat[sl].copy() for sl in self.theta2_slices],
            flat[self.gamma2_slice].copy(),
        )

    def param_names(self) -> list[str]:
        """Scalar names in table order: per block gamma then theta coords."""
        return [name for name, _ in self.scalars]

    def named_errors(self, est: ParamVector, truth: ParamVector) -> dict[str, float]:
        """Signed estimation errors keyed by scalar name, sign-aligned.

        An estimated index vector is flipped when it points away from the
        true one (theta' theta0 < 0) before differencing; coefficients are
        differenced directly.
        """
        aligned, ref = self.pack(est), self.pack(truth)
        for theta, _ in self.index_blocks:
            if float(aligned[theta] @ ref[theta]) < 0:
                aligned[theta] = -aligned[theta]
        diff = aligned - ref
        return {name: float(diff[i]) for name, i in self.scalars}


def _rows(flat: np.ndarray) -> np.ndarray:
    """``flat`` as a (rows, P) block: a 1-D vector is one row, viewed not copied."""
    return flat[None] if flat.ndim == 1 else flat


def _index(A, F, theta: slice) -> np.ndarray:
    """``A @ theta`` for every row of F, as (rows, n).

    ``A`` is one (n, d) block or a (rows, n, d) block per row.  A stacked
    product keeps each row a matrix-vector product, bitwise equal to
    ``A @ F[r, theta]``; ``A @ F[:, theta].T`` would run a matrix-matrix
    product that rounds differently.
    """
    return np.matmul(A, F[:, theta, None])[..., 0]


def packed_mean(layout: ParamLayout, flat: np.ndarray, X, Z) -> np.ndarray:
    """Regression mean over the rows of X and Z at packed parameters.

    ``flat`` is a (rows, P) block, giving a (rows, n) mean, or one 1-D
    vector, giving an (n,) mean.  X and Z are (n, d) blocks shared by every
    row, or (rows, n, d) blocks, one per row.  Each row is computed exactly
    as alone.
    """
    F = _rows(flat)
    out = np.zeros((F.shape[0], max(X.shape[-2], Z.shape[-2])))
    for t in layout.terms:
        # In place: u and the link values are fresh arrays of this call.
        v = link_value(t.link, _index(Z if t.stationary else X, F, t.theta))
        v *= F[:, t.gamma, None]
        out += v
    return out if flat.ndim > 1 else out[0]


def param_jacobian(layout: ParamLayout, flat: np.ndarray, X, Z, out=None, scratch=None) -> np.ndarray:
    """Row-wise derivative of :func:`packed_mean` in the packed parameters.

    A (rows, P) block gives (rows, n, P) Jacobians and one 1-D vector an
    (n, P) Jacobian; X and Z are shared or per-row as there.  A (rows, n, P)
    ``out`` is overwritten and returned in place of a new array.  Column
    order matches ParamLayout: for each nonstationary index block
    ``gamma_j * g_j'(x' theta_j) * x'`` (summed over the block's links when
    the index is shared), then the link values for gamma1, then the same
    for the stationary block.

    The columns are built in a C-contiguous (rows, P, n) array, one long
    contiguous loop each, then copied transposed into the result in one
    pass.  ``scratch`` is that array, overwritten; without it one is
    allocated.  The result keeps its (rows, n, P) layout: products with J
    round as they do on that layout.
    """
    F = _rows(flat)
    rows, n = F.shape[0], X.shape[-2]
    C = np.empty((rows, layout.size, n)) if scratch is None else scratch
    # Every column is written: an index column by the first term of its
    # block, a coefficient column by its term.
    for _, terms in layout.index_blocks:
        for i, t in enumerate(terms):
            A = Z if t.stationary else X
            u = _index(A, F, t.theta)
            slope = F[:, t.gamma, None] * link_deriv(t.link, u)
            for j, col in enumerate(range(t.theta.start, t.theta.stop)):
                if i:
                    C[:, col] += slope * A[..., j]
                else:
                    # x + 0.0 rounds as 0.0 + x into a zeroed column: -0.0
                    # becomes 0.0.
                    np.multiply(slope, A[..., j], out=C[:, col])
                    C[:, col] += 0.0
            C[:, t.gamma] = link_value(t.link, u)
    J = np.empty((rows, n, layout.size)) if out is None else out
    J[...] = C.transpose(0, 2, 1)
    return J if flat.ndim > 1 else J[0]


def regression_mean(model: ModelSpec, params: ParamVector, x, z):
    """Regression function value(s); accepts single rows or matrices."""
    layout = ParamLayout(model)
    flat = layout.pack(params)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    single = x.ndim == 1 and z.ndim == 1
    X = np.atleast_2d(x)
    Z = np.atleast_2d(z)
    layout.check_widths(X, Z)
    out = packed_mean(layout, flat, X, Z)
    return float(out[0]) if single else out


def residuals(model: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """e_t = y_t - regression mean at row t."""
    return data.y - regression_mean(model, params, data.X, data.Z)


def _unitize(V: np.ndarray):
    """Rows of a (rows, d) block at unit norm with a positive lead.

    Returns ``(unit, nrm, sign)``: the lead is the first coordinate of the
    unit row above 1e-12 in size, and ``sign`` is -1 where it is negative,
    1 otherwise.  ``np.vecdot`` rounds as the ``np.linalg.norm`` of one
    row.  A row whose norm is zero or not finite comes back meaningless;
    callers test ``nrm``, under ``np.errstate`` if they want quiet.
    """
    nrm = np.sqrt(np.vecdot(V, V))
    unit = V / nrm[:, None]
    lead = unit[np.arange(unit.shape[0]), (np.abs(unit) > 1e-12).argmax(axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    return sign[:, None] * unit, nrm, sign


def _coefficient_factor(link: LinkSpec, nrm, sign):
    """What a coefficient absorbs when its index vector is divided by nrm*sign.

    ``np.float_power`` rounds as Python's float power; ``**`` on an array
    squares by multiplication, which rounds differently.
    """
    cls = classify_link(link)
    if isinstance(cls, HRegular):
        return np.float_power(nrm, cls.order) * sign**cls.order
    return sign if _is_odd_link(link) else 1.0


def packed_normalize(layout: ParamLayout, flat: np.ndarray) -> np.ndarray:
    """:func:`normalize` on packed parameters, which it overwrites.

    ``flat`` is a (rows, P) block or one 1-D vector (one row).  Returns a
    (rows,) mask of the rows whose index vectors all have a finite positive
    norm; the other rows are left meaningless.
    """
    F = _rows(flat)
    ok = np.ones(F.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        for theta, terms in layout.index_blocks:
            F[:, theta], nrm, sign = _unitize(F[:, theta])
            ok &= (nrm > 0.0) & (nrm < np.inf)
            for t in terms:
                F[:, t.gamma] *= _coefficient_factor(t.link, nrm, sign)
    return ok


def normalize(params: ParamVector, model: ModelSpec) -> ParamVector:
    """Rescale every index vector to unit norm with a positive lead.

    Each coefficient absorbs what its link allows exactly, so the regression
    mean is preserved wherever possible: an H-regular link of order k takes
    ``(nrm*sign)^k`` and an odd link takes the sign.  For any other link the
    coefficient is left alone and the caller re-optimizes.
    """
    layout = ParamLayout(model)
    flat = layout.pack(params)
    if not packed_normalize(layout, flat).all():
        raise DegenerateParameterError("cannot normalize a zero index vector")
    return layout.unpack(flat)
