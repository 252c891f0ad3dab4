import math

import numpy as np
import pytest
from scipy.special import erf, ndtr

from mollifit import losses
from mollifit.cli import parse_loss
from mollifit.exceptions import ConfigurationError, UnsupportedLossError
from mollifit.losses import (
    LAD,
    SQUARED_ERROR,
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
from oracles import _kink_points, quadrature_oracle

Q3 = quantile_loss(0.3)
HUB = huber_loss(1.25)
KINK_LOSSES = (LAD, Q3, HUB)
GRID = np.arange(-5.0, 5.0 + 5e-4, 1e-3)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        quantile_loss(0.0)
    with pytest.raises(ConfigurationError):
        quantile_loss(1.0)
    with pytest.raises(ConfigurationError):
        huber_loss(-1.0)
    with pytest.raises(ConfigurationError):
        gap_bound(LAD, 0.5)


def test_spec_and_order_require_finite_values():
    # An infinite Huber threshold makes every smoothed Huber score NaN, and
    # an infinite order makes the smoothed curvature at a kink inf * 0.
    with pytest.raises(ConfigurationError, match="huber threshold must be finite"):
        huber_loss(math.inf)
    with pytest.raises(ConfigurationError, match="mollifier order must be finite"):
        gap_bound(LAD, math.inf)
    for call in (mollified_eval, mollified_grad, mollified_hess):
        with pytest.raises(ConfigurationError, match="mollifier order must be finite"):
            call(LAD, math.inf, 0.0)
        with pytest.raises(ConfigurationError, match="mollifier order must be finite"):
            call(LAD, np.array([[100.0], [math.inf]]), np.zeros((2, 3)))


def test_loss_labels_read_back_exactly():
    for token in ("quantile:0.3", "huber:1.25", "quantile:0.1", "quantile:0.5",
                  "quantile:0.9", "lad", "se"):
        assert parse_loss(token).label() == token
    for spec in (quantile_loss(0.1234567), quantile_loss(1 / 3), huber_loss(1234567.25),
                 huber_loss(1e-7), quantile_loss(0.3), LAD):
        assert parse_loss(spec.label()) == spec
    assert quantile_loss(0.1234567).label() == "quantile:0.1234567"


def test_lipschitz_constants():
    assert LAD.lipschitz == 1.0
    assert Q3.lipschitz == 0.7
    assert HUB.lipschitz == 1.25
    with pytest.raises(UnsupportedLossError):
        SQUARED_ERROR.lipschitz


def test_eval_loss_examples():
    assert eval_loss(Q3, -1.0) == pytest.approx(0.7, abs=1e-15)
    assert eval_loss(HUB, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_loss(LAD, 0.0) == 0.0
    # Piecewise Huber: linear tail beyond c.
    assert eval_loss(HUB, 3.0) == pytest.approx(1.25 * 3 - 0.5 * 1.25**2, abs=1e-15)


def test_eval_loss_nonnegative_zero_at_zero():
    for spec in KINK_LOSSES + (SQUARED_ERROR,):
        vals = eval_loss(spec, GRID)
        assert np.all(vals >= 0)
        assert eval_loss(spec, 0.0) == 0.0


def test_subgrad_examples_and_kinks():
    assert subgrad(LAD, 2.5) == 1.0
    assert subgrad(Q3, -0.1) == pytest.approx(-0.7)
    assert subgrad(HUB, 3.0) == 1.25
    assert subgrad(LAD, 0.0) == 0.0
    assert subgrad(Q3, 0.0) == pytest.approx(0.3 - 0.5)
    assert subgrad(HUB, 1.25) == 1.25
    assert subgrad(HUB, -1.25) == -1.25


def test_subgrad_monotone():
    for spec in KINK_LOSSES:
        psi = subgrad(spec, GRID)
        assert np.all(np.diff(psi) >= -1e-15)


def test_mollified_eval_examples():
    assert mollified_eval(LAD, 100, 0.0) == pytest.approx(1 / math.sqrt(100 * math.pi), abs=1e-12)
    assert mollified_eval(LAD, 100, 10.0) == pytest.approx(10.0, abs=1e-9)
    # Check loss decomposes as (tau - 1/2) u + |u|/2, so half the LAD value at 0.
    assert mollified_eval(Q3, 100, 0.0) == pytest.approx(0.0282094791773878, abs=1e-12)


def test_mollified_grad_examples():
    assert mollified_grad(LAD, 100, 0.0) == 0.0
    assert mollified_grad(LAD, 100, 1.0) == pytest.approx(erf(10.0), abs=1e-15)
    assert mollified_grad(Q3, 400, -1.0) == pytest.approx(-0.7, abs=1e-9)


def test_mollified_hess_examples():
    assert mollified_hess(LAD, 100, 0.0) == pytest.approx(2 * math.sqrt(100 / math.pi), abs=1e-9)
    assert mollified_hess(LAD, 100, 5.0) == 0.0
    assert mollified_hess(HUB, 10000, 0.0) == pytest.approx(1.0, abs=1e-3)


def test_squared_error_unsupported():
    for fn in (mollified_eval, mollified_grad, mollified_hess):
        with pytest.raises(UnsupportedLossError):
            fn(SQUARED_ERROR, 100, 0.0)
    with pytest.raises(UnsupportedLossError):
        gap_bound(SQUARED_ERROR, 100)
    with pytest.raises(UnsupportedLossError):
        quadrature_oracle(SQUARED_ERROR, 100, 0.0, 0)


def test_gap_bound_examples():
    assert gap_bound(LAD, 1e4) == pytest.approx(0.0056418958354776, abs=1e-12)
    assert gap_bound(Q3, 1e4) == pytest.approx(0.7 * 0.0056418958354776, abs=1e-10)
    assert gap_bound(HUB, math.pi) == pytest.approx(1.25 / math.pi, abs=1e-12)


def test_gap_bound_holds_on_grid():
    # Uniform approximation bound, exact up to arithmetic slack; the bound
    # is attained at the kink of the absolute loss.
    for spec in KINK_LOSSES:
        for m in (1e2, 1e4, 1e6):
            gap = np.abs(mollified_eval(spec, m, GRID) - eval_loss(spec, GRID))
            assert gap.max() <= gap_bound(spec, m) + 1e-12


def test_convexity_on_grid():
    for spec in KINK_LOSSES:
        for m in (1e2, 1e4, 1e6):
            assert np.min(mollified_hess(spec, m, GRID)) >= -1e-12


def test_derivative_consistency_finite_differences():
    # Central differences of the smoothed loss against the closed-form
    # derivatives; step sizes sized to the third/fourth derivative scale.
    for spec in KINK_LOSSES:
        for m in (1e2, 1e4):
            h = 1e-5
            fd_grad = (mollified_eval(spec, m, GRID + h) - mollified_eval(spec, m, GRID - h)) / (2 * h)
            grad = mollified_grad(spec, m, GRID)
            assert np.max(np.abs(fd_grad - grad) / (1.0 + np.abs(grad))) < 1e-6
            h = 4e-5
            fd_hess = (mollified_grad(spec, m, GRID + h) - mollified_grad(spec, m, GRID - h)) / (2 * h)
            hess = mollified_hess(spec, m, GRID)
            assert np.max(np.abs(fd_hess - hess) / (1.0 + np.abs(hess))) < 1e-4


def test_oracle_examples():
    r = quadrature_oracle(LAD, 100, 0.0, 0, nodes=128)
    assert r.value == pytest.approx(0.0564189583547756, abs=1e-10)
    assert not r.accuracy_warning
    r = quadrature_oracle(LAD, 1, 0.0, 2, nodes=128)
    assert r.value == pytest.approx(2 / math.sqrt(math.pi), abs=1e-10)
    r = quadrature_oracle(quantile_loss(0.5), 100, 0.0, 1, nodes=128)
    assert r.value == pytest.approx(0.0, abs=1e-12)


def test_oracle_validation():
    with pytest.raises(ConfigurationError):
        quadrature_oracle(LAD, 100, 0.0, 0, nodes=16)
    with pytest.raises(ConfigurationError):
        quadrature_oracle(LAD, 100, 0.0, 3)


def test_oracle_equivalence_grid():
    # Closed forms agree with the independent quadrature across orders,
    # smoothing levels and the kink neighborhoods.
    us = np.concatenate([np.linspace(-10, 10, 21), [-1.25, 1.25, 0.003, -0.0007]])
    for spec in KINK_LOSSES:
        for m in (1.0, 1e2, 1e4, 1e6):
            for u in us:
                closed = (
                    mollified_eval(spec, m, float(u)),
                    mollified_grad(spec, m, float(u)),
                    mollified_hess(spec, m, float(u)),
                )
                for order in (0, 1, 2):
                    got = quadrature_oracle(spec, m, float(u), order, nodes=128).value
                    assert got == pytest.approx(closed[order], abs=1e-8)


def test_pointwise_convergence_monotone():
    # |rho_m'(u) - sign(u)| shrinks monotonically in m away from the kink.
    for u in (0.05, -0.3, 1.0):
        m = 100.0
        gaps = []
        while m <= 1e6:
            gaps.append(abs(mollified_grad(LAD, m, u) - math.copysign(1.0, u)))
            m *= 2
        assert all(b <= a + 1e-18 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0] or gaps[0] == 0.0


def test_shifted_hessian_smoke():
    # Averaged smoothed curvature moves by at most K*(eps + m^-1/2) under a
    # small shift of the sample; K frozen from a one-off calibration at
    # seed 2024 (largest observed ratio 1.14).
    K = 3.0
    rng = np.random.default_rng(2024)
    e = rng.standard_normal(100_000)
    for spec in KINK_LOSSES:
        for m in (1e2, 1e4):
            for eps in (1e-2, 1e-3):
                d = abs(
                    float(np.mean(mollified_hess(spec, m, e + eps)))
                    - float(np.mean(mollified_hess(spec, m, e)))
                )
                assert d <= K * (eps + m**-0.5)


def test_mollifier_order_from_sample_size():
    assert sample_size_order(100) == float(math.floor(100**2.1))
    assert sample_size_order(10, epsilon=1.0) == 1000.0
    with pytest.raises(ConfigurationError):
        sample_size_order(100, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [200.0, math.inf])
def test_mollifier_order_overflow_is_a_configuration_error(epsilon):
    # n ** (2 + epsilon) used to let OverflowError escape.
    with pytest.raises(ConfigurationError, match="overflows"):
        sample_size_order(200, epsilon=epsilon)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("fn, window, onsets", [
    (erf, losses._ERF_WINDOW, (5.9216, 5.9216)),
    (ndtr, losses._NDTR_WINDOW, (37.6772, 8.2924)),
])
def test_special_function_windows_hold_the_saturated_values(fn, window, onsets):
    # On a dense grid out to |x| = 60: each function is exactly the window's
    # constant (sign of zero included) at and past the window's edges, and
    # it saturates for good within 1e-3 below the pinned onset |x|, which
    # lies inside the window.
    lo, hi, below, above = window
    x = np.linspace(0.0, 60.0, 1_200_001)
    for side, const, edge, onset in ((-x, below, lo, onsets[0]), (x, above, hi, onsets[1])):
        y = fn(side)
        out = np.abs(side) >= abs(edge)
        assert _bits(y[out]) == _bits(np.full(np.count_nonzero(out), const))
        last_moving = np.abs(side[y != const]).max()
        assert onset - 1e-3 < last_moving < onset < abs(edge)
    assert math.isnan(fn(math.nan))


def _window_off(fn, x, window):
    return fn(x)


def _kernel_blocks():
    """(spec, m, u) whose kink windows are empty, partial and whole."""
    rng = np.random.default_rng(11)
    for spec in KINK_LOSSES:
        kinks = np.array(_kink_points(spec))
        near = rng.choice(kinks, (3, 400))
        # Whole: wide smoothing around the kinks.
        yield spec, 1.0, near + rng.uniform(-0.5, 0.5, near.shape)
        # Partial, under half: about a third of the arguments inside.
        yield spec, 1e6, near + rng.uniform(-0.02, 0.02, near.shape)
        # Empty: every point at least 0.01 from a kink at m = 1e12, with
        # infinities in the block; then one NaN.
        far = near + rng.choice([-1.0, 1.0], near.shape) * rng.uniform(0.01, 2.0, near.shape)
        far[0, :4] = [np.inf, -np.inf, 5.0, -5.0]
        yield spec, 1e12, far
        with_nan = far.copy()
        with_nan[1, 7] = np.nan
        yield spec, 1e12, with_nan
        # Points whose erf or ndtr argument is exactly a window edge, among
        # far ones: sqrt(4) = 2 scales the LAD argument, and at m = 2 the
        # Huber arguments are 2 * (c -+ u).
        edges = np.full((2, 200), 100.0)
        edges[1] = -100.0
        if spec is HUB:
            edges[:, :4] = [[5.5, -3.0, 20.5, -20.5], [3.0, -5.5, 1.25, -1.25]]
        else:
            edges[:, :2] = [[3.25, -3.25], [0.0, -0.0]]
        yield spec, 2.0 if spec is HUB else 4.0, edges
        # A (rows, 1) column of orders: whole, partial and empty rows.
        mixed = np.stack([near[0] + 0.3, near[1] + rng.uniform(-0.02, 0.02, 400), far[2]])
        yield spec, np.array([[1.0], [1e6], [1e12]]), mixed


def test_windowed_kernels_equal_the_direct_closed_forms_bitwise(monkeypatch):
    cases = list(_kernel_blocks())
    calls = (mollified_eval, mollified_grad, mollified_hess)
    with np.errstate(invalid="ignore"):
        got = [[_bits(call(spec, m, u)) for call in calls] for spec, m, u in cases]
        monkeypatch.setattr(losses, "_saturated", _window_off)
        direct = [[_bits(call(spec, m, u)) for call in calls] for spec, m, u in cases]
    for (spec, m, _), g, d in zip(cases, got, direct):
        for call, a, b in zip(calls, g, d):
            assert a == b, (spec.label(), np.ravel(m)[:1], call.__name__)


def test_windowed_kernels_of_a_scalar_return_floats(monkeypatch):
    # A residual inside the window at m = 1e6 and others beyond it.
    points = [(spec, k + du) for spec in KINK_LOSSES for k in _kink_points(spec)
              for du in (0.0, 1e-4, -0.3, 3.0)]
    calls = (mollified_eval, mollified_grad, mollified_hess)
    got = [[call(spec, 1e6, u) for call in calls] for spec, u in points]
    monkeypatch.setattr(losses, "_saturated", _window_off)
    direct = [[call(spec, 1e6, u) for call in calls] for spec, u in points]
    for values, expected in zip(got, direct):
        for v, e in zip(values, expected):
            assert type(v) is float
            assert _bits(v) == _bits(e)


def test_kde_mollifier_order_tracks_spread():
    rng = np.random.default_rng(5)
    wide = kde_mollifier_order(2.0 * rng.standard_normal(5000))
    narrow = kde_mollifier_order(0.5 * rng.standard_normal(5000))
    assert narrow > wide


def test_underflow_flush_is_exact_zero():
    assert mollified_hess(LAD, 1e6, 5.0) == 0.0
    assert mollified_eval(LAD, 1e6, 50.0) == 50.0
