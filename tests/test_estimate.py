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
    infer,
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
    LossKind,
    eval_loss,
    huber_loss,
    kde_mollifier_order,
    mollified_grad,
    mollified_hess,
    quantile_loss,
    sample_size_order,
    subgrad,
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
from oracles import quadratic_minimizer

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
    res = fit(spec, data, FitOptions(loss=HUB))
    trace = np.array(res.descent_trace)
    assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))


def test_default_fit_records_the_winning_descent_trace():
    data, spec, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(97, 0))
    res = fit(spec, data, FitOptions(loss=LAD))
    trace = res.descent_trace
    assert len(trace) >= 1
    # The winning start's trace: its objective is the trace's total drop.
    assert trace[-1] - trace[0] == res.objective


_BAD_OPTIONS = [
    ("tol", math.nan), ("tol", math.inf), ("tol", 0.0),
    ("m_epsilon", math.nan), ("m_epsilon", math.inf),
    ("ridge", math.nan), ("ridge", math.inf), ("ridge", -1.0),
    # A count that is not an integer would fail every fit with a TypeError.
    ("max_iter", 2.5), ("max_iter", math.inf), ("multistart", 2.5), ("multistart", math.inf),
]


@pytest.mark.parametrize("name, value", _BAD_OPTIONS)
def test_fit_options_reject_values_that_break_a_fit(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be (finite|an integer)"):
        FitOptions(loss=LAD, **{name: value})


def test_fit_options_accept_a_zero_ridge():
    assert FitOptions(loss=LAD, ridge=0.0).ridge == 0.0


def test_fit_options_accept_numpy_integer_counts():
    data, spec, _ = gen_example("ex52", 100, ErrorLaw.NORMAL, rng_for(8, 0))
    opts = FitOptions(loss=LAD, max_iter=np.int64(3), multistart=np.int32(2))
    assert fit(spec, data, opts).iterations <= 3


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
    m_rate = sample_size_order(5000)
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
    layout = ParamLayout(ms)
    J_s = param_jacobian(layout, layout.pack(pv), data.X, data.Z)
    np.testing.assert_allclose(S, J_s.T @ J_s / n, rtol=1e-12, atol=0)
    assert S[0, 2] == pytest.approx(np.mean(Z[:, 0] ** 2), rel=1e-12)
    assert S[0, 2] > 0
    # With a nonstationary block in front, J_s is the trailing theta2..gamma2
    # columns of the full Jacobian.
    ex, ms51, truth = gen_example("ex51", 200, ErrorLaw.NORMAL, rng_for(3, 0))
    layout51 = ParamLayout(ms51)
    J = param_jacobian(layout51, layout51.pack(truth), ex.X, ex.Z)
    J_s = J[:, layout51.theta2_slices[0].start :]
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
    nuisance = infer(spec, data, res, HUB)
    assert nuisance.a1_hat >= 0
    assert nuisance.a2_hat > 0
    assert nuisance.sigma_hat.shape == (3, 3)
    np.testing.assert_allclose(nuisance.sigma_hat, nuisance.sigma_hat.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(nuisance.sigma_hat)) >= -1e-10
    assert nuisance.stat_cov.shape == (3, 3)
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


def _stationary_line(seed, n=125):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    y = z + rng.standard_normal(n)
    return Dataset(y, np.zeros((n, 1)), z[:, None])


def test_fit_leaves_start_when_smoothed_step_points_uphill():
    # On this sample a residual within a kernel width of zero tips the
    # final-rung smoothed score uphill at the least-squares start, so every
    # smoothed step is refused.  The fit must still reach the exact LAD
    # minimizer, the |z|-weighted median of y/z.
    data = _stationary_line(3197)
    y, z = data.y, data.Z[:, 0]
    res = fit(ModelSpec((), (IDENTITY,), 1, 1), data, FitOptions(loss=LAD))
    r = y / z
    order = np.argsort(r)
    cum = np.cumsum(np.abs(z)[order])
    exact = r[order][np.searchsorted(cum, 0.5 * cum[-1])]
    assert res.converged
    assert res.objective < 0
    assert res.params.gamma2[0] * res.params.theta2[0][0] == pytest.approx(exact, abs=1e-8)


def test_fit_many_takes_exact_score_steps_as_each_fit_alone(monkeypatch):
    # The samples of seeds 3098 and 3165 reach their final rung without a
    # move in the same step round as the uphill sample above, and the
    # uphill sample goes on with exact-score steps among the others' steps;
    # each fit must still be the one it is alone.
    spec = ModelSpec((), (IDENTITY,), 1, 1)
    layout = ParamLayout(spec)
    opts = FitOptions(loss=LAD)
    datasets = [_stationary_line(seed) for seed in (3000, 3197, 3098, 3165, 3001)]
    expect = [_outcome_bytes(layout, fit(spec, data, opts)) for data in datasets]
    flagged = []
    steps = estimate._newton_steps

    def counting(layout, opts, regs, requests, *rest):
        flagged.append(sum(exact for *_, exact in requests))
        return steps(layout, opts, regs, requests, *rest)

    monkeypatch.setattr(estimate, "_newton_steps", counting)
    got = fit_many(spec, datasets, opts)
    assert sum(flagged) > 0
    assert [_outcome_bytes(layout, r) for r in got] == expect


def test_the_fallback_steps_from_the_refused_iterate_on_its_jacobian(monkeypatch):
    # On the uphill sample the final rung refuses the first smoothed step.
    # The exact-score step that follows is an ordinary step request at the
    # same iterate, so it finds the refused step's Jacobian block in place:
    # the fit builds one block per distinct iterate.
    data = _stationary_line(3197)
    requests, blocks = [], []
    steps, jacobian = estimate._newton_steps, estimate.param_jacobian

    def recording(*args):
        requests.extend(args[-4])
        return steps(*args)

    def counting(*args, **kwargs):
        blocks.append(1)
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(estimate, "_newton_steps", recording)
    monkeypatch.setattr(estimate, "param_jacobian", counting)
    fit(ModelSpec((), (IDENTITY,), 1, 1), data, FitOptions(loss=LAD))
    k = next(k for k, request in enumerate(requests) if request[4])
    assert not requests[k - 1][4]
    assert requests[k][1].tobytes() == requests[k - 1][1].tobytes()
    assert len(blocks) == len({request[1].tobytes() for request in requests})


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
    data2 = Dataset(y2, X, np.zeros((n, 1)))
    res2 = fit(ms2, data2, FitOptions(loss=HUB))
    assert res2.converged
    nuisance2 = infer(ms2, data2, res2, HUB)
    assert nuisance2.sigma_hat is None
    assert nuisance2.stat_cov is None
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
    nuisance = infer(spec, data, res, LAD)
    assert nuisance.a2_hat == 1e-170
    assert nuisance.sigma_hat is not None and nuisance.stat_cov is None


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
        FitOptions(loss=loss),
        FitOptions(loss=loss, init_params=truth, multistart=1),
    ):
        expect = [_outcome_bytes(layout, _fit_alone(spec, d, opts)) for d in datasets]
        assert [type(e) for e in expect] == [dict, tuple, dict, tuple, dict]
        assert expect[1][0] is ShapeError and expect[3][0] is ShapeError
        # The largest n as the budget runs one start and one trial row per
        # call, as a fit at n = 50,000 does.
        for budget in (estimate._BLOCK_ELEMENTS, 700, max(d.n for d in datasets)):
            with monkeypatch.context() as patch:
                patch.setattr(estimate, "_BLOCK_ELEMENTS", budget)
                got = fit_many(spec, datasets, opts)
            assert [_outcome_bytes(layout, r) for r in got] == expect, budget


def test_a_step_at_the_iterates_of_the_last_jacobian_reuses_it(monkeypatch):
    # One job per group, as at n = 50,000: on this dataset a rung ends
    # without a move, and the next rung's first step is at the same iterate.
    data, spec, truth = gen_example("ex51", 100, ErrorLaw.T2, rng_for(1, 0))
    opts = FitOptions(loss=LAD, init_params=truth, multistart=1)
    counts = {"blocks": 0, "rounds": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", data.n)
    monkeypatch.setattr(estimate, "param_jacobian", counted("blocks", estimate.param_jacobian))
    monkeypatch.setattr(estimate, "_newton_steps", counted("rounds", estimate._newton_steps))
    fit(spec, data, opts)
    assert 0 < counts["blocks"] < counts["rounds"]


def test_each_lockstep_group_builds_its_own_first_jacobian(monkeypatch):
    # Both fits start at the truth as the only job of their group, so the
    # noisy fit's first step asks for the dataset number and iterate of the
    # zero-noise fit's only Jacobian block, which is built on other
    # regressors and must not be served to it.
    data, spec, truth = gen_example("ex51", 100, ErrorLaw.T2, rng_for(2, 0))
    noisy, _, _ = gen_example("ex51", 100, ErrorLaw.T2, rng_for(3, 0))
    exact = Dataset(regression_mean(spec, truth, data.X, data.Z), data.X, data.Z)
    opts = FitOptions(loss=LAD, init_params=truth, multistart=1)
    layout = ParamLayout(spec)
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", data.n)
    first, second = fit_many(spec, [exact, noisy], opts)
    assert first.iterations == 0 and first.converged
    assert _outcome_bytes(layout, second) == _outcome_bytes(layout, fit(spec, noisy, opts))


def _count_live_curvatures(monkeypatch):
    """Wrap ``_live_curvature``; the returned list grows by one per gathered round."""
    calls = []
    live_curvature = estimate._live_curvature

    def counting(*args):
        calls.append(1)
        return live_curvature(*args)

    monkeypatch.setattr(estimate, "_live_curvature", counting)
    return calls


def _large_fit_setting(loss, protocol, seed=1):
    """ex51 at n = 1000, t2 errors; a budget below n makes it a large fit."""
    tau = loss.param if loss.kind is LossKind.QUANTILE else None
    data, spec, truth = gen_example("ex51", 1000, ErrorLaw.T2, rng_for(seed, 0), recenter_tau=tau)
    opts = FitOptions(loss=loss)
    if protocol == "truth":
        opts = dataclasses.replace(opts, init_params=truth, multistart=1)
    return data, spec, opts


@pytest.mark.parametrize("protocol", ["truth", "global"])
@pytest.mark.parametrize("loss", [LAD, Q3], ids=["lad", "quantile"])
def test_a_large_kink_loss_fit_takes_its_late_curvature_from_the_live_rows(monkeypatch, loss, protocol):
    # A budget of n runs one job per group and one trial per search block,
    # as a budget below n does, so the two fits differ only in how H is
    # summed: over all n rows, or over the few rows with a nonzero weight.
    data, spec, opts = _large_fit_setting(loss, protocol)
    layout = ParamLayout(spec)
    gathered = _count_live_curvatures(monkeypatch)
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", data.n)
    dense = fit(spec, data, opts)
    assert not gathered
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", data.n - 1)
    got = fit(spec, data, opts)
    assert len(gathered) > 0
    assert np.max(np.abs(layout.pack(got.params) - layout.pack(dense.params))) <= 1e-6
    L_dense, L_got = dense.descent_trace[-1], got.descent_trace[-1]
    assert L_got - L_dense <= 1e-9 * L_dense
    assert (got.converged, got.start_index) == (dense.converged, dense.start_index)


@pytest.mark.parametrize("protocol", ["truth", "global"])
@pytest.mark.parametrize("loss", [HUB, SQUARED_ERROR], ids=["huber", "se"])
def test_a_large_fit_with_dense_weights_keeps_the_dense_curvature(monkeypatch, loss, protocol):
    data, spec, opts = _large_fit_setting(loss, protocol)
    layout = ParamLayout(spec)
    gathered = _count_live_curvatures(monkeypatch)
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", data.n)
    dense = _outcome_bytes(layout, fit(spec, data, opts))
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", data.n - 1)
    assert _outcome_bytes(layout, fit(spec, data, opts)) == dense
    # A sphere start far from the data (median |e| about 55) leaves fewer
    # than n/8 residuals inside Huber's quadratic zone at m = 1; it gathers
    # two rounds and does not win.  Squared error never gathers.
    assert bool(gathered) == ((loss, protocol) == (HUB, "global"))


def test_fit_many_of_large_fits_equals_fit_on_each_dataset(monkeypatch):
    # Whether a round gathers depends on its one request only.
    datasets = [_large_fit_setting(LAD, "truth", seed)[0] for seed in (1, 2)]
    _, spec, opts = _large_fit_setting(LAD, "truth")
    layout = ParamLayout(spec)
    gathered = _count_live_curvatures(monkeypatch)
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", datasets[0].n - 1)
    expect = [_outcome_bytes(layout, fit(spec, data, opts)) for data in datasets]
    assert len(gathered) > 0
    got = fit_many(spec, datasets, opts)
    assert [_outcome_bytes(layout, r) for r in got] == expect


def _step_with_weights(monkeypatch, budget, weights, ridge=1e-10):
    """One Newton step of a truth-anchored ex51 LAD state at n = 1000, with ``weights`` imposed."""
    data, spec, opts = _large_fit_setting(LAD, "truth")
    layout = ParamLayout(spec)
    flat = layout.pack(opts.init_params)
    e = data.y - packed_mean(layout, flat, data.X, data.Z)
    monkeypatch.setattr(estimate, "_BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(estimate, "_derivatives", lambda loss, E, M, exact: (subgrad(LAD, E), weights[None]))
    (step,) = estimate._newton_steps(
        layout,
        dataclasses.replace(opts, ridge=ridge),
        estimate._Regressors([data]),
        [(0, flat, e, 1e12, False)],
        {col: name for name, col in layout.scalars},
        np.empty((2, 1, data.n, layout.size)),
        [None],
    )
    return step


@pytest.mark.parametrize(
    "case, ridge",
    [("no live row", 1e-10), ("no live row", 0.0), ("nan", 1e-10), ("nan among live rows", 1e-10)],
)
def test_a_gathered_round_gives_the_dense_step_or_error(monkeypatch, case, ridge):
    # k = 0 leaves the ridge alone in H (singular without it).  A NaN weight
    # is live, as np.count_nonzero counts it, so H is NaN on both paths.
    n = 1000
    weights = np.zeros(n)
    if case != "no live row":
        weights[17] = np.nan
    if case == "nan among live rows":
        weights[[3, 400, 999]] = [0.5, 2.0, 1e-3]
    gathered = _count_live_curvatures(monkeypatch)
    dense = _step_with_weights(monkeypatch, n, weights, ridge)
    assert not gathered
    got = _step_with_weights(monkeypatch, n - 1, weights, ridge)
    assert len(gathered) == 1
    if isinstance(dense, Exception):
        assert (type(got), str(got)) == (type(dense), str(dense))
    else:
        np.testing.assert_array_equal(got, dense)
    assert isinstance(dense, RankDeficiencyError) == (case != "no live row" or ridge == 0.0)


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
    """The search server's answer for one search, and the trials of its refused blocks."""
    regs = estimate._Regressors([data])
    search = estimate._Search(0, flat, delta, L, size)
    alphas = estimate._alphas(damping)
    while True:
        answers = estimate._search(layout, loss, regs, {0: search}, alphas)
        if answers:
            return answers[0], search.k


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


@pytest.mark.parametrize("loss", [LAD, Q3, HUB, SQUARED_ERROR], ids=["lad", "quantile", "huber", "se"])
def test_batched_derivatives_equal_per_row_calls(loss):
    # One order per row, from a flat kernel to the n = 1000 target; the
    # residuals include the kinks at 0 and +-1.25.
    rng = np.random.default_rng(5)
    ms = [1.0, 37.5, 2.5e3, 1.7e5, float(math.floor(1000**2.1))]
    E = rng.standard_normal((len(ms), 400)) * np.array([3.0, 1.0, 0.1, 1e-2, 1e-3])[:, None]
    E[:, :3] = [0.0, 1.25, -1.25]
    exact = np.array([False, True, False, False, True])
    scores, weights = estimate._derivatives(loss, E, np.array(ms)[:, None], exact)
    for k, (m, e) in enumerate(zip(ms, E)):
        sub = subgrad(loss, e)
        if loss.kind is LossKind.SQUARED_ERROR:
            want_score, want_weight = sub, np.full(e.shape, 2.0)
        else:
            want_score = sub if exact[k] else mollified_grad(loss, m, e)
            want_weight = mollified_hess(loss, m, e)
        assert scores[k].tobytes() == want_score.tobytes(), k
        assert weights[k].tobytes() == want_weight.tobytes(), k


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


def test_search_server_ends_each_search_in_its_own_round():
    # Two searches share every evaluation.  One meets a row it cannot
    # normalize at alpha = 1/8 (trial 4, in the third block) and gets the
    # error; the other runs on to accept trial 31 in the fifth block, as it
    # does alone.
    data, spec, truth = gen_example("ex51", 200, ErrorLaw.T2, rng_for(32, 0))
    layout = ParamLayout(spec)
    regs = estimate._Regressors([data])
    alphas = estimate._alphas(0.5)
    flat = layout.pack(truth)
    theta = layout.terms[0].theta
    zeroing = np.zeros(layout.size)
    zeroing[theta] = -8.0 * flat[theta]
    delta = np.random.default_rng(3).standard_normal(layout.size)
    F = flat + alphas[:, None] * delta
    packed_normalize(layout, F)
    L = float(np.median(eval_loss(LAD, data.y - packed_mean(layout, F, data.X, data.Z)).sum(axis=1)))
    alone, _ = _block_search(layout, data, LAD, flat, delta, L, 0.5, 1)
    searches = {
        "zeroing": estimate._Search(0, flat, zeroing, -np.inf, 1),
        "descent": estimate._Search(0, flat, delta, L, 1),
    }
    ended = {}
    round_ = 0
    while searches:
        round_ += 1
        for job, answer in estimate._search(layout, LAD, regs, searches, alphas).items():
            del searches[job]
            ended[job] = round_, answer
    assert ended["zeroing"][0] == 3
    assert isinstance(ended["zeroing"][1], DegenerateParameterError)
    round_, got = ended["descent"]
    assert round_ == 5 and got[3] == alone[3] == 31
    for a, b in zip(got, alone):
        np.testing.assert_array_equal(a, b)


def _spied_fit(monkeypatch):
    """An ex52 n = 200 LAD global fit, its line searches and evaluated rows recorded.

    Returns the searches, each a dict of its ``flat``, ``delta``, objective
    to beat ``L``, rung order ``m`` and tolerance ``tol``, whether the rung
    is the ``final`` one, the ``reply`` and the ``next`` request of its
    start; the evaluated rows, their bytes before normalization mapped to
    ``(normalized, objective)``; and the step lengths.
    """
    searches, trials = [], {}
    minimize, evaluate = estimate._minimize_one, estimate._evaluate

    def minimize_spy(opts, flat, e, L, m_target):
        gen = minimize(opts, flat, e, L, m_target)
        answer, error, m, search = None, None, None, None
        while True:
            try:
                request = gen.send(answer) if error is None else gen.throw(error)
            except StopIteration as done:
                return done.value
            if search is not None:
                search["next"] = request
            search = None
            if request[0] == "step":
                m = request[3]
            else:
                # The rung tolerance, as _minimize_one sets it.
                final = m == m_target
                tol = opts.tol if final else max(opts.tol, 0.03 / math.sqrt(2.0 * m))
                flat_s, delta, L_s = request[1:4]
                search = dict(flat=flat_s, delta=delta, L=L_s, m=m, tol=tol, final=final)
                searches.append(search)
            try:
                answer, error = (yield request), None
            except Exception as err:
                answer, error = None, err
            if search is not None:
                search["reply"] = answer if error is None else error

    def evaluate_spy(layout, loss, regs, F, rows):
        before = F.copy()
        ok, E, Ls = evaluate(layout, loss, regs, F, rows)
        for row, good, L in zip(before, ok, Ls):
            trials[row.tobytes()] = bool(good), float(L)
        return ok, E, Ls

    monkeypatch.setattr(estimate, "_minimize_one", minimize_spy)
    monkeypatch.setattr(estimate, "_evaluate", evaluate_spy)
    data, spec, _ = gen_example("ex52", 200, ErrorLaw.T2, rng_for(1, 0))
    opts = FitOptions(loss=LAD)
    fit(spec, data, opts)
    return searches, trials, estimate._alphas(opts.damping)


def _trial_rows(search, alphas):
    """The rows ``flat + alpha*delta`` of a search, each with ``alpha * max|delta|``."""
    sup = float(np.max(np.abs(search["delta"])))
    return [(search["flat"] + alpha * search["delta"], alpha * sup) for alpha in alphas]


def test_an_annealing_rung_search_tries_no_move_below_the_rung_tolerance(monkeypatch):
    # An accepted move shorter than an annealing rung's tolerance ends the
    # rung anyway, so no such trial is evaluated there.  A row that rounds
    # back to the iterate itself is left out: the start's evaluation and a
    # later rung's search from the same iterate reach it too.
    searches, trials, alphas = _spied_fit(monkeypatch)
    short = tried = 0
    for search in searches:
        if search["final"]:
            continue
        here = search["flat"].tobytes()
        for row, move in _trial_rows(search, alphas):
            if move < search["tol"] and row.tobytes() != here:
                short += 1
                tried += row.tobytes() in trials
    assert short > 0 and tried == 0


def test_an_annealing_rung_ends_where_its_admissible_trials_are_refused(monkeypatch):
    # A search whose trials down to the rung tolerance all fail to lower
    # L_n is refused, and the next rung steps from the same iterate.
    searches, trials, alphas = _spied_fit(monkeypatch)
    ended = 0
    for search in searches:
        if search["final"]:
            continue
        admissible = [trials.get(row.tobytes()) for row, move in _trial_rows(search, alphas)
                      if move >= search["tol"]]
        if all(t is not None and t[0] and t[1] >= search["L"] for t in admissible):
            ended += 1
            assert search["reply"] is None
            kind, flat, _, m, _ = search["next"]
            assert kind == "step" and m > search["m"]
            assert flat.tobytes() == search["flat"].tobytes()
    assert ended > 0


def test_a_final_rung_search_tries_every_step_length_before_refusing(monkeypatch):
    # The final rung defines the fit, so its searches keep the whole sequence.
    searches, trials, alphas = _spied_fit(monkeypatch)
    refused = [s for s in searches if s["final"] and s["reply"] is None]
    assert refused
    for search in refused:
        for row, _ in _trial_rows(search, alphas):
            assert row.tobytes() in trials


def test_lockstep_raises_the_error_of_the_first_failing_start(monkeypatch):
    # Job 2 fails in the first round and job 1 in the third; the others run
    # on to their outcomes, and a fit reports its first failing start.
    def fake(opts, flat, e, L, m_target):
        k = int(m_target)
        for r in range(3):
            # Any trial beats an infinite objective, so each search ends in
            # its own round.
            yield "search", flat, np.zeros(flat.size), math.inf, 1
            if (k, r) == (2, 0):
                raise RankDeficiencyError("start 2")
            if (k, r) == (1, 2):
                raise DegenerateParameterError("start 1")
        return k

    monkeypatch.setattr(estimate, "_minimize_one", fake)
    data, spec, _ = gen_example("ex52", 100, ErrorLaw.NORMAL, rng_for(33, 0))
    layout = ParamLayout(spec)
    opts = FitOptions(loss=LAD)
    jobs = [(data, np.ones(layout.size), float(k)) for k in range(4)]
    out = estimate._lockstep(layout, opts, jobs)
    assert [out[0], out[3]] == [0, 3]
    assert isinstance(out[1], DegenerateParameterError) and str(out[1]) == "start 1"
    assert isinstance(out[2], RankDeficiencyError) and str(out[2]) == "start 2"
    with pytest.raises(DegenerateParameterError, match="start 1"):
        estimate._result(layout, None, out)


def test_a_truth_anchored_single_start_fits_no_least_squares_warm_start(monkeypatch):
    # With init_params and one start, the warm start would only be thrown
    # away; the fit must not compute it.
    data, spec, truth = gen_example("ex51", 200, ErrorLaw.T2, rng_for(1, 0))
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    fit(spec, data, FitOptions(loss=LAD, init_params=truth, multistart=1))
    assert len(calls) == 0
    fit(spec, data, FitOptions(loss=LAD, init_params=truth, multistart=2))
    assert len(calls) > 0
