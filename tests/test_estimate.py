import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from mollifit import estimate
from mollifit.dgp import ErrorLaw, gen_example, rng_for
from mollifit.estimate import (
    FitOptions,
    estimate_a1,
    estimate_a2,
    estimate_sigma,
    fit,
    fit_many,
    quadratic_minimizer,
    stationary_covariance,
)
from mollifit.exceptions import (
    ConfigurationError,
    DegenerateParameterError,
    EmptyBlockError,
    MollifitError,
    RankDeficiencyError,
    ShapeError,
)
from mollifit.losses import (
    LAD,
    SQUARED_ERROR,
    MollifierOrder,
    eval_loss,
    huber_loss,
    kde_mollifier_order,
    quantile_loss,
)
from mollifit.model import (
    Dataset,
    IDENTITY,
    ModelSpec,
    ParamLayout,
    ParamVector,
    packed_mean,
    packed_normalize,
    param_jacobian,
    regression_mean,
)

Q3 = quantile_loss(0.3)
HUB = huber_loss(1.25)


def test_quadratic_minimizer_hand_example():
    J = np.array([[1.0], [1.0], [1.0]])
    psi = np.array([1.0, 2.0, 3.0])
    got = quadratic_minimizer(J, psi, a2=1.0, ridge=0.0)
    assert got[0] == pytest.approx(6 / math.sqrt(3), abs=1e-12)
    # Brute-force scan of the scalar surrogate confirms the closed form.
    n = 3
    betas = np.linspace(-10, 10, 200_001)
    q = -(psi @ J[:, 0] / math.sqrt(n)) * betas + 0.5 * (J[:, 0] @ J[:, 0] / n) * betas**2
    assert betas[np.argmin(q)] == pytest.approx(got[0], abs=1e-4)


def test_quadratic_minimizer_zero_score():
    J = np.arange(12.0).reshape(6, 2)
    got = quadratic_minimizer(J, np.zeros(6), a2=2.0)
    np.testing.assert_allclose(got, 0.0, atol=1e-14)


def test_quadratic_minimizer_ols_equivalence():
    # With psi(e) = e and a2 = 1 the scaled minimizer is the LS coefficient.
    rng = np.random.default_rng(0)
    J = rng.standard_normal((300, 3))
    e = rng.standard_normal(300)
    beta = quadratic_minimizer(J, e, a2=1.0)
    ols = np.linalg.lstsq(J, e, rcond=None)[0]
    np.testing.assert_allclose(beta / math.sqrt(300), ols, atol=1e-10)


def test_quadratic_minimizer_errors():
    with pytest.raises(ConfigurationError):
        quadratic_minimizer(np.ones((3, 1)), np.ones(3), a2=0.0)
    with pytest.raises(ShapeError):
        quadratic_minimizer(np.ones((3, 1)), np.ones(4), a2=1.0)
    with pytest.raises(RankDeficiencyError):
        quadratic_minimizer(np.zeros((3, 2)), np.ones(3), a2=1.0, ridge=0.0)


def _linear_dataset(seed, n=200, d1=2, d2=2, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d1))
    Z = rng.standard_normal((n, d2))
    bx = rng.standard_normal(d1)
    bz = rng.standard_normal(d2)
    y = X @ bx + Z @ bz + noise * rng.standard_normal(n)
    return Dataset(y, X, Z), bx, bz


def test_fit_squared_error_matches_ols():
    for seed in range(5):
        data, _, _ = _linear_dataset(seed)
        ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
        res = fit(ms, data, FitOptions(loss=SQUARED_ERROR))
        assert res.converged
        ols = np.linalg.lstsq(np.hstack([data.X, data.Z]), data.y, rcond=None)[0]
        bfit = np.concatenate(
            [res.params.gamma1[0] * res.params.theta1[0], res.params.gamma2[0] * res.params.theta2[0]]
        )
        np.testing.assert_allclose(bfit, ols, atol=1e-8)


def test_fit_zero_noise_recovery():
    # Exact data and a start near the truth: every Lipschitz loss recovers
    # the truth to tolerance.
    rng = np.random.default_rng(3)
    ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    truth = ParamVector(
        [np.array([0.6, 0.8])], [1.5], [np.array([1.0, 0.0])], [0.7]
    )
    X = rng.standard_normal((120, 2))
    Z = rng.standard_normal((120, 2))
    data = Dataset(regression_mean(ms, truth, X, Z), X, Z)
    start = ParamVector(
        [np.array([0.62, 0.79])], [1.45], [np.array([0.99, 0.05])], [0.73]
    )
    # With every residual exactly on the kink, the asymmetric check loss
    # keeps a nonzero smoothed score at the truth, so its accuracy is
    # limited by the final kernel bandwidth (~1/sqrt(2 n^2.1)); the
    # symmetric losses land on the truth to machine precision.
    for loss, atol in ((LAD, 1e-6), (Q3, 5e-4), (HUB, 1e-6)):
        res = fit(ms, data, FitOptions(loss=loss, init_params=start, multistart=1))
        assert res.converged
        np.testing.assert_allclose(res.params.theta1[0], truth.theta1[0], atol=atol)
        np.testing.assert_allclose(res.params.gamma1, truth.gamma1, atol=atol)
        np.testing.assert_allclose(res.params.gamma2, truth.gamma2, atol=atol)


def test_fit_ex51_gamma3_example():
    data, spec, truth = gen_example("ex51", 200, ErrorLaw.NORMAL, rng_for(99, 0))
    res = fit(spec, data, FitOptions(loss=LAD))
    assert abs(res.params.gamma2[0] - 1.0) < 0.15


def test_fit_returns_normalized_params():
    data, spec, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(98, 0))
    res = fit(spec, data, FitOptions(loss=HUB))
    for t in res.params.theta1 + res.params.theta2:
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-9)
        lead = t[np.argmax(np.abs(t) > 1e-12)]
        assert lead > 0


def test_fit_descent_trace_monotone():
    data, spec, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(97, 0))
    res = fit(spec, data, FitOptions(loss=HUB, track_descent=True))
    trace = np.array(res.descent_trace)
    assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))


def test_fit_loss_scale_invariance():
    data, spec, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(96, 0))
    layout = ParamLayout(spec)
    a = fit(spec, data, FitOptions(loss=HUB))
    b = fit(spec, data, FitOptions(loss=HUB, loss_scale=7.3))
    assert np.max(np.abs(layout.pack(a.params) - layout.pack(b.params))) <= 1e-8


def test_fit_needs_enough_rows():
    ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    data = Dataset(np.zeros(4), np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        fit(ms, data, FitOptions(loss=LAD))


@pytest.mark.parametrize("x_cols,z_cols", [(3, 2), (2, 3), (1, 2), (2, 1)])
def test_fit_checks_regressor_widths(x_cols, z_cols):
    ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal(50), rng.standard_normal((50, x_cols)),
                   rng.standard_normal((50, z_cols)))
    with pytest.raises(ShapeError):
        fit(ms, data, FitOptions(loss=LAD))


def test_estimate_a1_examples():
    rng = np.random.default_rng(1)
    r = rng.standard_normal(5000)
    assert estimate_a1(r, LAD) == 1.0
    e = 0.5 * rng.standard_normal(200_000)
    e = e - np.quantile(e, 0.3)
    assert estimate_a1(e, Q3) == pytest.approx(0.21, rel=0.02)
    with pytest.raises(ConfigurationError):
        estimate_a1(np.zeros(0), LAD)


def test_estimate_a2_examples():
    rng = np.random.default_rng(2)
    e = 0.5 * rng.standard_normal(5000)
    m = kde_mollifier_order(e)
    target = 2.0 / (0.5 * math.sqrt(2 * math.pi))
    assert estimate_a2(e, LAD, m) == pytest.approx(target, rel=0.05)

    e1 = rng.standard_normal(5000)
    m_rate = MollifierOrder.from_sample_size(5000)
    assert estimate_a2(e1, HUB, m_rate) == pytest.approx(2 * ndtr(1.25) - 1, rel=0.05)

    e2 = rng.standard_normal(5000)
    e2 = e2 - ndtri(0.3)
    phi = math.exp(-0.5 * ndtri(0.3) ** 2) / math.sqrt(2 * math.pi)
    assert estimate_a2(e2, Q3, kde_mollifier_order(e2)) == pytest.approx(phi, rel=0.05)

    assert estimate_a2(np.ones(5), SQUARED_ERROR, 1.0) == 2.0


def test_estimate_sigma_examples():
    ms = ModelSpec((), (IDENTITY,), 1, 2)
    pv = ParamVector([], [], [np.array([1.0, 0.0])], [1.0])
    n = 100_000
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((n, 2))
    data = Dataset(np.zeros(n), np.zeros((n, 1)), Z)
    S = estimate_sigma(ms, pv, data)
    assert S.shape == (3, 3)
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    np.testing.assert_allclose(S[:2, :2], np.eye(2), atol=0.02)
    # Sigma-hat is the second moment of the stationary Jacobian columns,
    # index part included with its own sign: the theta1-gamma entry is
    # mean(z1^2), not its negative.
    J_s = param_jacobian(ms, pv, data)
    np.testing.assert_allclose(S, J_s.T @ J_s / n, rtol=1e-12, atol=0)
    assert S[0, 2] == pytest.approx(np.mean(Z[:, 0] ** 2), rel=1e-12)
    assert S[0, 2] > 0
    # With a nonstationary block in front, J_s is the trailing theta2..gamma2
    # columns of the full Jacobian.
    ex, ms51, truth = gen_example("ex51", 200, ErrorLaw.NORMAL, rng_for(3, 0))
    J_s = param_jacobian(ms51, truth, ex)[:, ParamLayout(ms51).theta2_slices[0].start :]
    np.testing.assert_allclose(
        estimate_sigma(ms51, truth, ex), J_s.T @ J_s / ex.n, rtol=1e-12, atol=1e-15
    )

    zero = Dataset(np.zeros(10), np.zeros((10, 1)), np.zeros((10, 2)))
    np.testing.assert_array_equal(estimate_sigma(ms, pv, zero), np.zeros((3, 3)))

    small = Dataset(np.zeros(6), np.zeros((6, 1)), rng.standard_normal((6, 2)))
    dup = Dataset(
        np.zeros(12), np.zeros((12, 1)), np.vstack([small.Z, small.Z])
    )
    np.testing.assert_allclose(
        estimate_sigma(ms, pv, small), estimate_sigma(ms, pv, dup), atol=1e-14
    )

    ms_empty = ModelSpec((IDENTITY,), (), 2, 1)
    pv_empty = ParamVector([np.array([1.0, 0.0])], [1.0], [], [])
    with pytest.raises(EmptyBlockError):
        estimate_sigma(ms_empty, pv_empty, zero)


def test_stationary_covariance_examples():
    got = stationary_covariance(1.0, 1.0, np.eye(3), 100)
    np.testing.assert_allclose(got, 0.01 * np.eye(3), atol=1e-10)
    half = stationary_covariance(1.0, 1.0, np.eye(3), 200)
    np.testing.assert_allclose(half, got / 2, atol=1e-12)
    a2 = 2.0 / (0.5 * math.sqrt(2 * math.pi))
    got = stationary_covariance(1.0, a2, np.eye(2), 1)
    # The inversion carries a 1e-10 ridge, so agreement is to ~1e-8.
    assert got[0, 0] == pytest.approx(1 / a2**2, rel=1e-8)


def test_fit_reports_nuisance_fields():
    data, spec, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(95, 0))
    res = fit(spec, data, FitOptions(loss=HUB))
    assert res.a1_hat >= 0
    assert res.a2_hat > 0
    assert res.sigma_hat.shape == (3, 3)
    np.testing.assert_allclose(res.sigma_hat, res.sigma_hat.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(res.sigma_hat)) >= -1e-10
    assert res.stat_cov.shape == (3, 3)
    assert res.mollifier_m == float(math.floor(100**2.1))
    # Objective is reported as the descent achieved from the winning start.
    assert res.objective <= 0


def test_fit_nonconvergence_flag():
    # A single iteration cannot meet the step tolerance on noisy data.
    data, spec, truth = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(94, 0))
    res = fit(
        spec, data,
        FitOptions(loss=HUB, max_iter=1, multistart=1, init_params=truth),
    )
    assert not res.converged


def test_fit_leaves_start_when_smoothed_step_points_uphill():
    # On this sample a residual within a kernel width of zero tips the
    # final-rung smoothed score uphill at the least-squares start, so every
    # smoothed step is refused.  The fit must still reach the exact LAD
    # minimizer, the |z|-weighted median of y/z.
    n = 125
    rng = np.random.default_rng(3197)
    z = rng.standard_normal(n)
    y = z + rng.standard_normal(n)
    res = fit(
        ModelSpec((), (IDENTITY,), 1, 1),
        Dataset(y, np.zeros((n, 1)), z[:, None]),
        FitOptions(loss=LAD),
    )
    r = y / z
    order = np.argsort(r)
    cum = np.cumsum(np.abs(z)[order])
    exact = r[order][np.searchsorted(cum, 0.5 * cum[-1])]
    assert res.converged
    assert res.objective < 0
    assert res.params.gamma2[0] * res.params.theta2[0][0] == pytest.approx(exact, abs=1e-8)


def test_fit_single_block_models():
    rng = np.random.default_rng(21)
    # Stationary-only model (no x block).
    n = 150
    Z = rng.standard_normal((n, 2))
    y = Z @ np.array([1.0, 2.0]) + 0.2 * rng.standard_normal(n)
    ms = ModelSpec((), (IDENTITY,), 1, 2)
    res = fit(ms, Dataset(y, np.zeros((n, 1)), Z), FitOptions(loss=LAD))
    assert res.converged
    b = res.params.gamma2[0] * res.params.theta2[0]
    np.testing.assert_allclose(b, [1.0, 2.0], atol=0.1)
    # Nonstationary-only model (no z block): no stationary covariance.
    X = np.cumsum(rng.standard_normal((n, 2)), axis=0)
    y2 = X @ np.array([0.5, 0.5]) + 0.2 * rng.standard_normal(n)
    ms2 = ModelSpec((IDENTITY,), (), 2, 1)
    res2 = fit(ms2, Dataset(y2, X, np.zeros((n, 1))), FitOptions(loss=HUB))
    assert res2.converged
    assert res2.sigma_hat is None
    assert res2.stat_cov is None
    np.testing.assert_allclose(
        res2.params.gamma1[0] * res2.params.theta1[0], [0.5, 0.5], atol=0.05
    )


def test_fit_multistart_tiebreak_deterministic():
    data, spec, _ = gen_example("ex52", 100, ErrorLaw.NORMAL, rng_for(93, 0))
    a = fit(spec, data, FitOptions(loss=HUB))
    b = fit(spec, data, FitOptions(loss=HUB))
    assert a.start_index == b.start_index
    layout = ParamLayout(spec)
    np.testing.assert_array_equal(layout.pack(a.params), layout.pack(b.params))


def test_stationary_covariance_rejects_an_underflowing_curvature():
    with pytest.raises(ConfigurationError):
        stationary_covariance(1.0, 1e-170, np.eye(2), 100)
    with pytest.raises(ConfigurationError):
        stationary_covariance(1.0, 0.0, np.eye(2), 100)


def test_fit_leaves_stat_cov_empty_when_the_curvature_underflows(monkeypatch):
    data, spec, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(95, 0))
    monkeypatch.setattr(estimate, "estimate_a2", lambda *args: 1e-170)
    res = fit(spec, data, FitOptions(loss=LAD, multistart=1))
    assert res.a2_hat == 1e-170
    assert res.sigma_hat is not None and res.stat_cov is None


@pytest.mark.parametrize("example", ["ex51", "ex52"])
@pytest.mark.parametrize("loss", [LAD, HUB, Q3], ids=["lad", "huber", "quantile"])
def test_global_fit_equals_the_best_single_start_fit(example, loss):
    # The starts of a global fit run in lockstep; each must follow the path
    # it follows alone, so the global fit is the best single-start fit.
    data, spec, _ = gen_example(example, 200, ErrorLaw.T2, rng_for(31, 0))
    layout = ParamLayout(spec)
    glob = fit(spec, data, FitOptions(loss=loss))
    singles = [
        fit(spec, data, FitOptions(loss=loss, multistart=1, init_params=layout.unpack(start)))
        for start in estimate._build_starts(layout, data, 8)
    ]
    objectives = [float(np.sum(eval_loss(loss, r.residuals))) for r in singles]
    best = singles[objectives.index(min(objectives))]
    assert glob.start_index == objectives.index(min(objectives))
    np.testing.assert_array_equal(layout.pack(glob.params), layout.pack(best.params))
    np.testing.assert_array_equal(glob.residuals, best.residuals)
    assert glob.objective == best.objective
    assert glob.iterations == best.iterations
    assert glob.converged == best.converged


def _outcome_bytes(layout, res):
    """Every FitResult field as bytes (params packed), or an error's type and message."""
    if isinstance(res, MollifitError):
        return type(res), str(res)
    out = {}
    for f in dataclasses.fields(res):
        value = getattr(res, f.name)
        if f.name == "params":
            value = layout.pack(value)
        out[f.name] = None if value is None else np.asarray(value).tobytes()
    return out


def _fit_alone(spec, data, opts):
    try:
        return fit(spec, data, opts)
    except MollifitError as err:
        return err


@pytest.mark.parametrize("example", ["ex51", "ex52"])
@pytest.mark.parametrize("loss", [LAD, HUB, Q3], ids=["lad", "huber", "quantile"])
def test_fit_many_equals_fit_on_each_dataset(monkeypatch, example, loss):
    # Mixed n in one call: the jobs of the two n=60 fits share lockstep
    # groups and gathered regressor blocks.  The bad datasets between them
    # (too few rows, too narrow an X) get fit's error in their slots and
    # leave their neighbours alone.  A small element budget splits the
    # groups across fit boundaries and cuts the trial blocks.
    datasets = []
    for k, n in enumerate((60, 90, 60)):
        data, spec, truth = gen_example(example, n, ErrorLaw.T2, rng_for(34, k))
        datasets.append(data)
    a, b, c = datasets
    short = Dataset(y=a.y[:4], X=a.X[:4], Z=a.Z[:4])
    narrow = Dataset(y=b.y, X=b.X[:, :1], Z=b.Z)
    datasets = [a, short, b, narrow, c]
    layout = ParamLayout(spec)
    for opts in (
        FitOptions(loss=loss, track_descent=True),
        FitOptions(loss=loss, track_descent=True, init_params=truth, multistart=1),
    ):
        expect = [_outcome_bytes(layout, _fit_alone(spec, d, opts)) for d in datasets]
        assert [type(e) for e in expect] == [dict, tuple, dict, tuple, dict]
        assert expect[1][0] is ShapeError and expect[3][0] is ShapeError
        for budget in (estimate._BLOCK_ELEMENTS, 700):
            with monkeypatch.context() as patch:
                patch.setattr(estimate, "_BLOCK_ELEMENTS", budget)
                got = fit_many(spec, datasets, opts)
            assert [_outcome_bytes(layout, r) for r in got] == expect, budget


def _serial_search(layout, data, loss, flat, delta, L, damping):
    alpha = 1.0
    for _ in range(60):
        cand = flat + alpha * delta
        assert packed_normalize(layout, cand).all()
        e = data.y - packed_mean(layout, cand, data.X, data.Z)
        L_c = float(np.sum(eval_loss(loss, e)))
        if L_c < L:
            return cand, e, L_c
        alpha *= damping
    return None


def _block_search(layout, data, loss, flat, delta, L, damping, size):
    engine = estimate._LossEngine(loss)
    search = estimate._line_search(flat, delta, L, estimate._alphas(damping), size)
    rows = 0
    try:
        request = next(search)
        while True:
            (reply,) = estimate._evaluate(layout, engine, [(data, request[1])])
            rows += len(reply[0])
            request = search.send(reply)
    except StopIteration as done:
        return done.value, rows


@pytest.mark.parametrize("budget", [2**14, 2**9])
def test_block_line_search_matches_a_serial_search(monkeypatch, budget):
    # 2**9 elements hold two rows at n=200, so long blocks are cut to a prefix.
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", budget)
    data, spec, truth = gen_example("ex51", 200, ErrorLaw.T2, rng_for(32, 0))
    layout = ParamLayout(spec)
    flat = layout.pack(truth)
    delta = np.random.default_rng(3).standard_normal(layout.size)
    e0 = data.y - packed_mean(layout, flat, data.X, data.Z)
    L0 = float(np.sum(eval_loss(LAD, e0)))
    trial_objectives = []
    alpha = 1.0
    for _ in range(60):
        cand = flat + alpha * delta
        packed_normalize(layout, cand)
        trial_objectives.append(float(np.sum(eval_loss(LAD, data.y - packed_mean(layout, cand, data.X, data.Z)))))
        alpha *= 0.5
    # Thresholds that accept at the first, a middle and no trial at all.
    for L in (np.inf, L0, float(np.median(trial_objectives)), min(trial_objectives)):
        expect = _serial_search(layout, data, LAD, flat, delta, L, 0.5)
        for size in (1, 4):
            got, rows = _block_search(layout, data, LAD, flat, delta, L, 0.5, size)
            if expect is None:
                assert got is None
                assert rows == 60
                continue
            cand, e, L_c = expect
            np.testing.assert_array_equal(got[0], cand)
            np.testing.assert_array_equal(got[1], e)
            assert got[2] == L_c
            assert trial_objectives[got[3] - 1] == L_c


def test_solve_each_isolates_a_singular_system():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 4, 4))
    H = A @ A.transpose(0, 2, 1)
    H[1] = 0.0
    g = rng.standard_normal((3, 4))
    steps = estimate._solve_each(H, g, names=None)
    assert isinstance(steps[1], RankDeficiencyError)
    for k in (0, 2):
        np.testing.assert_array_equal(steps[k], np.linalg.solve(H[k], g[k]))


def test_lockstep_raises_the_error_of_the_first_failing_start(monkeypatch):
    # Job 2 fails in the first round and job 1 in the third; the others run
    # on to their outcomes, and a fit reports its first failing start.
    def fake(layout, data, opts, engine, start, m_target):
        k = int(start[0])
        for r in range(3):
            yield "eval", start[None]
            if (k, r) == (2, 0):
                raise RankDeficiencyError("start 2")
            if (k, r) == (1, 2):
                raise DegenerateParameterError("start 1")
        return k

    monkeypatch.setattr(estimate, "_minimize_one", fake)
    data, spec, _ = gen_example("ex52", 100, ErrorLaw.NORMAL, rng_for(33, 0))
    layout = ParamLayout(spec)
    engine = estimate._LossEngine(LAD)
    opts = FitOptions(loss=LAD)
    jobs = [(data, np.full(layout.size, float(k)), 1e4) for k in range(4)]
    out = estimate._lockstep(layout, opts, engine, jobs)
    assert [out[0], out[3]] == [0, 3]
    assert isinstance(out[1], DegenerateParameterError) and str(out[1]) == "start 1"
    assert isinstance(out[2], RankDeficiencyError) and str(out[2]) == "start 2"
    with pytest.raises(DegenerateParameterError, match="start 1"):
        estimate._result(layout, data, opts, None, out)
