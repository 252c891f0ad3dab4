import math

import numpy as np
import pytest

from mollifit.dgp import ErrorLaw, gen_example, rng_for
from mollifit.exceptions import (
    ConfigurationError,
    DegenerateParameterError,
    ShapeError,
)
from mollifit.model import (
    Dataset,
    GAUSS_PDF,
    HERMITE_EXP,
    HERMITE_EXP_LINEAR,
    IDENTITY,
    HRegular,
    IRegular,
    ModelSpec,
    ParamLayout,
    ParamVector,
    classify_link,
    link_deriv,
    link_value,
    normalize,
    packed_jacobian,
    packed_mean,
    packed_normalize,
    param_jacobian,
    power_link,
    regression_mean,
    residuals,
)

ALL_LINKS = (IDENTITY, power_link(2), power_link(3), GAUSS_PDF, HERMITE_EXP, HERMITE_EXP_LINEAR)


def test_classify_examples():
    assert classify_link(IDENTITY) == HRegular(1)
    assert classify_link(power_link(2)) == HRegular(2)
    assert isinstance(classify_link(GAUSS_PDF), IRegular)
    assert isinstance(classify_link(HERMITE_EXP), IRegular)
    assert isinstance(classify_link(HERMITE_EXP_LINEAR), IRegular)


def test_h_regular_homogeneity_identity():
    u = np.linspace(-3, 3, 41)
    for link in (IDENTITY, power_link(2), power_link(3)):
        cls = classify_link(link)
        for lam in (2.0, 10.0):
            np.testing.assert_allclose(
                link_value(link, lam * u), cls.nu(lam) * link_value(link, u), rtol=1e-12
            )
        assert cls.nu_dot(2.0) == cls.order * 2.0 ** (cls.order - 1)


def test_i_regular_absolute_integrals():
    u = np.arange(-50.0, 50.0 + 5e-4, 1e-3)
    for link, expect in ((HERMITE_EXP, math.sqrt(math.pi)), (HERMITE_EXP_LINEAR, 1.0), (GAUSS_PDF, 1.0)):
        val = np.trapezoid(np.abs(link_value(link, u)), u)
        assert val == pytest.approx(expect, abs=1e-6)


def test_power_link_validation():
    with pytest.raises(ConfigurationError):
        power_link(1)


def test_model_spec_invariants():
    with pytest.raises(ConfigurationError):
        ModelSpec((), (), 1, 1)
    # Integrable nonstationary links force a shared index vector.
    with pytest.raises(ConfigurationError):
        ModelSpec((GAUSS_PDF, HERMITE_EXP), (), 2, 1, share_theta1=False)
    ModelSpec((GAUSS_PDF, HERMITE_EXP), (), 2, 1, share_theta1=True)


def test_regression_mean_examples():
    ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    pv = ParamVector([np.array([1.0, 0.0])], [1.0], [np.array([1.0, 0.0])], [1.0])
    assert regression_mean(ms, pv, np.array([2.0, 0.0]), np.array([3.0, 0.0])) == 5.0

    ms2 = ModelSpec((GAUSS_PDF,), (), 2, 1, share_theta1=True)
    pv2 = ParamVector([np.array([0.0, 1.0])], [2.0], [], [])
    got = regression_mean(ms2, pv2, np.array([7.0, 0.0]), np.zeros(1))
    assert got == pytest.approx(2 * 0.3989422804014327, abs=1e-7)

    ms3 = ModelSpec((), (IDENTITY,), 1, 2)
    pv3 = ParamVector([], [], [np.array([1.0, 0.0])], [1.0])
    assert regression_mean(ms3, pv3, np.zeros(1), np.array([1.0, 0.0])) == 1.0


def test_regression_mean_shape_error():
    ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    pv = ParamVector([np.array([1.0, 0.0])], [1.0], [np.array([1.0, 0.0])], [1.0])
    with pytest.raises(ShapeError):
        regression_mean(ms, pv, np.array([1.0, 0.0, 3.0]), np.array([1.0, 0.0]))


def test_residuals_trivial_and_roundtrip():
    ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    pv = ParamVector([np.array([0.6, 0.8])], [2.0], [np.array([1.0, 0.0])], [1.0])
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 2))
    Z = rng.standard_normal((20, 2))
    mean = regression_mean(ms, pv, X, Z)
    data = Dataset(y=mean, X=X, Z=Z)
    np.testing.assert_allclose(residuals(ms, pv, data), 0.0, atol=1e-14)
    data2 = Dataset(y=mean + 1.0, X=X, Z=Z)
    np.testing.assert_allclose(residuals(ms, pv, data2), 1.0, atol=1e-14)
    # Simulated data at the truth returns the generated errors bit-exact.
    data3, spec, truth = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(11, 0))
    e = residuals(spec, truth, data3)
    data4, _, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(11, 0))
    e2 = residuals(spec, truth, data4)
    np.testing.assert_array_equal(e, e2)


def _fd_jacobian(model, layout, params, data, delta=1e-6):
    flat = layout.pack(params)
    J = np.zeros((data.n, layout.size))
    for k in range(layout.size):
        up, dn = flat.copy(), flat.copy()
        up[k] += delta
        dn[k] -= delta
        J[:, k] = (
            regression_mean(model, layout.unpack(up), data.X, data.Z)
            - regression_mean(model, layout.unpack(dn), data.X, data.Z)
        ) / (2 * delta)
    return J


def test_param_jacobian_examples():
    # Identity links with unit coefficients: rows are (x', x'theta1, z', z'theta2).
    ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    pv = ParamVector([np.array([0.6, 0.8])], [1.0], [np.array([1.0, 0.0])], [1.0])
    rng = np.random.default_rng(2)
    data = Dataset(rng.standard_normal(5), rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    J = param_jacobian(ms, pv, data)
    np.testing.assert_allclose(J[:, 0:2], data.X)
    np.testing.assert_allclose(J[:, 2], data.X @ pv.theta1[0])
    np.testing.assert_allclose(J[:, 3:5], data.Z)
    np.testing.assert_allclose(J[:, 5], data.Z @ pv.theta2[0])
    # Density link at a zero index: the theta block vanishes.
    ms2 = ModelSpec((GAUSS_PDF,), (), 2, 1, share_theta1=True)
    pv2 = ParamVector([np.array([1.0, 0.0])], [2.0], [], [])
    d2 = Dataset(np.zeros(3), np.column_stack([np.zeros(3), np.arange(3.0)]), np.zeros((3, 1)))
    J2 = param_jacobian(ms2, pv2, d2)
    np.testing.assert_allclose(J2[:, 0:2], 0.0, atol=1e-15)


def test_param_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    cases = [
        ModelSpec((IDENTITY, power_link(2)), (IDENTITY,), 2, 2),
        ModelSpec((GAUSS_PDF, HERMITE_EXP, HERMITE_EXP_LINEAR), (power_link(2),), 3, 2, share_theta1=True),
        ModelSpec((), (HERMITE_EXP_LINEAR,), 1, 3),
    ]
    for ms in cases:
        layout = ParamLayout(ms)
        pv = layout.unpack(rng.standard_normal(layout.size))
        data = Dataset(
            rng.standard_normal(9),
            rng.standard_normal((9, ms.d1)),
            rng.standard_normal((9, ms.d2)),
        )
        J = param_jacobian(ms, pv, data)
        Jfd = _fd_jacobian(ms, layout, pv, data)
        assert np.max(np.abs(J - Jfd) / (1.0 + np.abs(Jfd))) < 1e-5


def test_normalize_examples():
    ms = ModelSpec((IDENTITY,), (), 2, 1)
    out = normalize(ParamVector([np.array([3.0, 4.0])], [1.0], [], []), ms)
    np.testing.assert_allclose(out.theta1[0], [0.6, 0.8])
    assert out.gamma1[0] == pytest.approx(5.0)

    out = normalize(ParamVector([np.array([-1.0, 0.0])], [1.0], [], []), ms)
    np.testing.assert_allclose(out.theta1[0], [1.0, 0.0])
    assert out.gamma1[0] == -1.0

    v = np.array([1.0, 1.0]) / math.sqrt(2)
    out = normalize(ParamVector([v.copy()], [1.0], [], []), ms)
    np.testing.assert_allclose(out.theta1[0], v, atol=1e-15)


def test_normalize_preserves_mean():
    # H-regular links absorb the norm and the sign, odd links the sign: the
    # odd non-homogeneous link therefore starts on the sphere, pointing away.
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 2))
    Z = rng.standard_normal((50, 2))
    cases = [
        (IDENTITY, [3.0, -4.0], [-2.0, 1.0]),
        (power_link(2), [3.0, -4.0], [-2.0, 1.0]),
        (power_link(3), [-0.3, 0.4], [-2.0, 1.0]),
        (HERMITE_EXP_LINEAR, [-0.6, 0.8], [-0.8, -0.6]),
    ]
    models = [
        (ModelSpec((link,), (link,), 2, 2, share_theta1=True),
         ParamVector([np.array(t1)], [1.7], [np.array(t2)], [0.3]))
        for link, t1, t2 in cases
    ]
    # One shared index absorbed by several coefficients, each by its own order.
    models.append((
        ModelSpec((IDENTITY, power_link(2), power_link(3)), (IDENTITY,), 2, 2, share_theta1=True),
        ParamVector([np.array([-3.0, 4.0])], [1.7, -0.4, 0.9], [np.array([-2.0, 1.0])], [0.3]),
    ))
    for ms, pv in models:
        label = ",".join(l.label() for l in ms.nonstat_links)
        before = regression_mean(ms, pv, X, Z)
        out = normalize(pv, ms)
        for t in out.theta1 + out.theta2:
            assert np.linalg.norm(t) == pytest.approx(1.0) and t[0] > 0, label
        after = regression_mean(ms, out, X, Z)
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12, err_msg=label)


def test_normalize_zero_vector_error():
    ms = ModelSpec((IDENTITY,), (), 2, 1)
    with pytest.raises(DegenerateParameterError):
        normalize(ParamVector([np.zeros(2)], [1.0], [], []), ms)


def _block_models():
    for ln in ALL_LINKS:
        for ls in ALL_LINKS:
            share = isinstance(classify_link(ln), IRegular)
            yield ModelSpec((ln, IDENTITY), (ls,), 2, 3, share_theta1=share)


def _serial_mean(layout, flat, X, Z):
    out = np.zeros(X.shape[0])
    for t in layout.terms:
        A = Z if t.stationary else X
        out += flat[t.gamma] * link_value(t.link, A @ flat[t.theta])
    return out


def _serial_jacobian(layout, flat, X, Z):
    J = np.zeros((X.shape[0], layout.size))
    for t in layout.terms:
        A = Z if t.stationary else X
        u = A @ flat[t.theta]
        J[:, t.theta] += (flat[t.gamma] * link_deriv(t.link, u))[:, None] * A
        J[:, t.gamma] = link_value(t.link, u)
    return J


def _serial_normalize(layout, flat):
    flat = flat.copy()
    for theta, terms in layout.index_blocks:
        nrm = float(np.linalg.norm(flat[theta]))
        unit = flat[theta] / nrm
        sign = next((1.0 if v > 0 else -1.0 for v in unit if abs(v) > 1e-12), 1.0)
        flat[theta] = sign * unit
        for t in terms:
            cls = classify_link(t.link)
            if isinstance(cls, HRegular):
                flat[t.gamma] *= nrm**cls.order * sign**cls.order
            elif t.link == HERMITE_EXP_LINEAR:
                flat[t.gamma] *= sign
    return flat


def test_block_kernels_equal_their_rows_bitwise():
    # Each row of a block must round exactly as a one-vector evaluation
    # written with matrix-vector products, np.linalg.norm and Python float
    # powers.  A matrix-matrix product for the index, einsum or (V*V).sum
    # for the norm, or an array ** for the coefficient factor each round
    # differently on a share of the rows.
    rng = np.random.default_rng(7)
    n, rows = 300, 40
    for ms in _block_models():
        layout = ParamLayout(ms)
        X = np.cumsum(rng.standard_normal((n, 2)), axis=0)
        Z = rng.standard_normal((n, 3))
        F = rng.standard_normal((rows, layout.size)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        M = packed_mean(layout, F, X, Z)
        J = packed_jacobian(layout, F, X, Z)
        G = F.copy()
        assert packed_normalize(layout, G).all()
        assert M.shape == (rows, n) and J.shape == (rows, n, layout.size)
        out = np.full(J.shape, np.nan)
        assert packed_jacobian(layout, F, X, Z, out=out) is out
        np.testing.assert_array_equal(out, J)
        for r in range(rows):
            np.testing.assert_array_equal(M[r], _serial_mean(layout, F[r], X, Z))
            np.testing.assert_array_equal(M[r], packed_mean(layout, F[r], X, Z))
            np.testing.assert_array_equal(J[r], _serial_jacobian(layout, F[r], X, Z))
            np.testing.assert_array_equal(J[r], packed_jacobian(layout, F[r], X, Z))
            np.testing.assert_array_equal(G[r], _serial_normalize(layout, F[r]))
            one = F[r].copy()
            assert packed_normalize(layout, one).shape == (1,)
            np.testing.assert_array_equal(one, G[r])
        # Per-row (rows, n, d) regressor blocks, as when one call serves
        # several datasets: each row as a 2-D call on its own blocks.
        Xs = np.cumsum(rng.standard_normal((rows, n, 2)), axis=1)
        Zs = rng.standard_normal((rows, n, 3))
        M3 = packed_mean(layout, F, Xs, Zs)
        J3 = packed_jacobian(layout, F, Xs, Zs)
        assert M3.shape == (rows, n) and J3.shape == (rows, n, layout.size)
        for r in range(rows):
            np.testing.assert_array_equal(M3[r], packed_mean(layout, F[r], Xs[r], Zs[r]))
            np.testing.assert_array_equal(J3[r], packed_jacobian(layout, F[r], Xs[r], Zs[r]))


def test_block_normalize_flags_degenerate_rows_only():
    ms = ModelSpec((IDENTITY,), (GAUSS_PDF,), 2, 2)
    layout = ParamLayout(ms)
    F = np.array([
        [3.0, -4.0, 2.0, 1.0, 1.0, 1.0],
        [0.0, 0.0, 2.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 2.0, np.inf, 0.0, 1.0],
        [-1.0, 0.0, 2.0, 0.0, -2.0, 1.0],
    ])
    G = F.copy()
    np.testing.assert_array_equal(packed_normalize(layout, G), [True, False, False, True])
    for r in (0, 3):
        np.testing.assert_array_equal(G[r], _serial_normalize(layout, F[r]))


def test_dataset_blocks_are_c_ordered():
    # A Fortran-ordered or column-sliced block would run a different
    # matrix-vector kernel alone than gathered with other datasets' blocks.
    body = np.arange(24.0).reshape(6, 4)
    data = Dataset(y=body[:, 0], X=np.asfortranarray(body[:, 1:3]), Z=body[:, 3:])
    for block in (data.y, data.X, data.Z):
        assert block.flags.c_contiguous
    np.testing.assert_array_equal(data.X, body[:, 1:3])


def test_dataset_validation():
    with pytest.raises(ConfigurationError):
        Dataset(np.array([1.0, np.nan]), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(ShapeError):
        Dataset(np.zeros(3), np.zeros((2, 1)), np.zeros((3, 1)))


def test_param_names_layout():
    ms = ModelSpec((IDENTITY, power_link(2)), (IDENTITY,), 2, 2)
    assert ParamLayout(ms).param_names() == [
        "gamma1", "theta11", "theta12",
        "gamma2", "theta21", "theta22",
        "gamma3", "theta31", "theta32",
    ]
    ms2 = ModelSpec((GAUSS_PDF,), (IDENTITY,), 2, 2, share_theta1=True)
    assert ParamLayout(ms2).param_names() == [
        "gamma1", "theta11", "theta12", "gamma2", "theta21", "theta22",
    ]


def test_named_errors_sign_alignment():
    ms = ModelSpec((GAUSS_PDF,), (), 2, 1, share_theta1=True)
    layout = ParamLayout(ms)
    truth = ParamVector([np.array([1.0, 0.0])], [2.0], [], [])
    est = ParamVector([np.array([-0.99, -0.01])], [2.1], [], [])
    errs = layout.named_errors(est, truth)
    # The estimated direction is flipped onto the truth before differencing.
    assert errs["theta11"] == pytest.approx(-0.01)
    assert errs["gamma1"] == pytest.approx(0.1)
