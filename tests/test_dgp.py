import math

import numpy as np
import pytest
from scipy import stats

from mollifit.dgp import (
    DgpConfig,
    _var1_path,
    ErrorLaw,
    TrendKind,
    csv_text,
    dataset_from_csv,
    dataset_from_table,
    dataset_to_csv,
    gen_errors,
    gen_example,
    gen_linear_process,
    gen_trending_stationary,
    gen_unit_root,
    law_quantile,
    rng_for,
    table_from_csv,
)
from mollifit.exceptions import ConfigurationError, ShapeError
from mollifit.model import residuals


def _example_design(n, law=ErrorLaw.NORMAL):
    return DgpConfig(
        n=n, d1=2, d2=2,
        rho1=np.eye(2), sigma1=np.diag([0.2, 0.5]),
        rho2=0.5 * np.eye(2), sigma2=np.eye(2),
        trend=TrendKind.LINEAR, error_law=law, error_scale=0.5,
    )


def test_linear_process_iid_covariance():
    w = gen_linear_process([np.eye(2)], 100_000, rng_for(0, 1))
    cov = w.T @ w / len(w)
    np.testing.assert_allclose(cov, np.eye(2), atol=0.05)


def test_linear_process_zero_tap_identical():
    a = gen_linear_process([np.eye(2)], 500, rng_for(7, 0))
    b = gen_linear_process([np.eye(2), np.zeros((2, 2))], 500, rng_for(7, 0))
    np.testing.assert_array_equal(a, b)


def test_linear_process_ma1_autocovariance():
    coeffs = [np.eye(2), 0.5 * np.eye(2)]
    w = gen_linear_process(coeffs, 100_000, rng_for(1, 0))
    lag1 = w[1:].T @ w[:-1] / (len(w) - 1)
    np.testing.assert_allclose(lag1, 0.5 * np.eye(2), atol=0.05)


def test_linear_process_validation():
    with pytest.raises(ConfigurationError):
        gen_linear_process([], 10, rng_for(0, 0))
    with pytest.raises(ConfigurationError):
        gen_linear_process([0.5 * np.eye(2)], 10, rng_for(0, 0))
    # A leading tap that is only close to the identity is not the identity.
    with pytest.raises(ConfigurationError):
        gen_linear_process([1.000005 * np.eye(2)], 10, rng_for(0, 0))
    with pytest.raises(ShapeError):
        gen_linear_process([np.eye(2), np.zeros((3, 3))], 10, rng_for(0, 0))


def test_unit_root_warns_on_non_identity_rho1():
    import warnings

    cfg = _example_design(100)
    cfg.rho1 = 0.9 * np.eye(2)
    with pytest.warns(UserWarning, match="not a unit-root"):
        x = gen_unit_root(cfg, rng_for(0, 3))
    assert x.shape == (100, 2)
    # The damped recursion stays bounded while the unit root wanders.
    cfg2 = _example_design(100)
    x2 = gen_unit_root(cfg2, rng_for(0, 3))
    assert np.abs(x2[-1]).max() >= np.abs(x[-1]).max() * 0.5
    warnings.resetwarnings()


def _matrix_step_path(rho, shocks):
    """Reference VAR(1) recursion: one matrix step per row from s_{-1} = 0."""
    s = np.zeros_like(shocks)
    prev = np.zeros(shocks.shape[1])
    for t in range(len(shocks)):
        prev = rho @ prev + shocks[t]
        s[t] = prev
    return s


COUPLED_RHO = np.array([[0.5, 0.2], [-0.1, 0.3]])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.9, -0.7])
def test_var1_path_diagonal_equals_matrix_step_bitwise(r, d):
    shocks = rng_for(20, d).standard_normal((700, d)) @ np.diag(np.arange(1.0, d + 1.0))
    rho = r * np.eye(d)
    assert _var1_path(rho, shocks).tobytes() == _matrix_step_path(rho, shocks).tobytes()


def test_var1_path_coupled_equals_matrix_step_bitwise():
    shocks = rng_for(21, 0).standard_normal((700, 2))
    got = _var1_path(COUPLED_RHO, shocks)
    assert got.tobytes() == _matrix_step_path(COUPLED_RHO, shocks).tobytes()


@pytest.mark.parametrize(
    "rho1",
    [np.diag([0.8, 0.3]), COUPLED_RHO, 0.99999 * np.eye(2)],
    ids=["diagonal", "coupled", "near-identity"],
)
def test_unit_root_non_identity_rho1_runs_the_var1_recursion(rho1):
    # A near-identity rho1 (a local-to-unity design) is not the identity:
    # it must not fall back to the random walk's cumulative sum.
    cfg = _example_design(400)
    cfg.rho1 = rho1
    with pytest.warns(UserWarning, match="not a unit-root"):
        x = gen_unit_root(cfg, rng_for(0, 3))
    w = gen_linear_process([np.eye(2)], cfg.n, rng_for(0, 3)) @ cfg.sigma1.T
    assert x.tobytes() == _matrix_step_path(rho1, w).tobytes()


def test_unit_root_zero_innovation():
    cfg = _example_design(100)
    cfg.sigma1 = np.zeros((2, 2))
    x = gen_unit_root(cfg, rng_for(0, 2))
    np.testing.assert_array_equal(x, np.zeros((100, 2)))


def test_unit_root_random_walk_variance():
    cfg = DgpConfig(
        n=100_000, d1=1, d2=1, rho1=np.eye(1), sigma1=np.eye(1),
        rho2=np.zeros((1, 1)), sigma2=np.eye(1),
    )
    x = gen_unit_root(cfg, rng_for(3, 0))
    # var(x_n) = n * var(increment); the increments are iid unit normal.
    assert np.var(np.diff(x[:, 0])) == pytest.approx(1.0, rel=0.05)


def test_unit_root_example_design_variances():
    cfg = _example_design(100_000)
    x = gen_unit_root(cfg, rng_for(4, 0))
    inc = np.diff(x, axis=0)
    assert np.var(inc[:, 0]) == pytest.approx(0.04, rel=0.05)
    assert np.var(inc[:, 1]) == pytest.approx(0.25, rel=0.05)


def test_unit_root_variance_grows_linearly():
    # Regression of the ensemble variance of x_t on t has slope near the
    # increment variance.  (A single path cannot identify the slope: the
    # slope statistic of one random walk has O(1) dispersion at any n.)
    n, paths = 2000, 800
    cfg = DgpConfig(
        n=n, d1=1, d2=1, rho1=np.eye(1), sigma1=np.eye(1),
        rho2=np.zeros((1, 1)), sigma2=np.eye(1),
    )
    acc = np.zeros(n)
    for p in range(paths):
        x = gen_unit_root(cfg, rng_for(5, p))[:, 0]
        acc += x * x
    var_t = acc / paths
    t = np.arange(1.0, n + 1.0)
    slope = float(t @ var_t / (t @ t))
    assert slope == pytest.approx(1.0, rel=0.10)


def test_trending_stationary_iid_case():
    cfg = DgpConfig(
        n=50_000, d1=1, d2=2, rho1=np.eye(1), sigma1=np.eye(1),
        rho2=np.zeros((2, 2)), sigma2=np.eye(2), trend=TrendKind.NONE,
    )
    z = gen_trending_stationary(cfg, rng_for(6, 0))
    np.testing.assert_allclose(z.T @ z / len(z), np.eye(2), atol=0.05)


def test_trending_stationary_example_variance():
    cfg = _example_design(100_000)
    cfg.trend = TrendKind.NONE
    z = gen_trending_stationary(cfg, rng_for(7, 0))
    assert np.var(z[:, 0]) == pytest.approx(1 / 0.75, rel=0.05)
    assert np.var(z[:, 1]) == pytest.approx(1 / 0.75, rel=0.05)


def test_trending_stationary_pure_trend():
    cfg = _example_design(1000)
    cfg.sigma2 = np.zeros((2, 2))
    z = gen_trending_stationary(cfg, rng_for(8, 0))
    tau = np.arange(1, 1001) / 1000.0
    np.testing.assert_allclose(z, np.column_stack([tau, tau]), atol=1e-14)


def test_trending_stationary_rejects_explosive():
    cfg = _example_design(100)
    cfg.rho2 = 1.01 * np.eye(2)
    with pytest.raises(ConfigurationError):
        gen_trending_stationary(cfg, rng_for(9, 0))


def test_errors_moments():
    e = gen_errors(ErrorLaw.NORMAL, 1_000_000, 0.5, rng=rng_for(10, 0))
    assert np.var(e) == pytest.approx(0.25, rel=0.01)
    e = gen_errors(ErrorLaw.MIXED_NORMAL, 1_000_000, 1.0, rng=rng_for(10, 1))
    assert np.var(e) == pytest.approx(1.3, rel=0.02)


def test_errors_recentering():
    # Median recentering leaves symmetric normal draws unchanged.
    raw = gen_errors(ErrorLaw.NORMAL, 1000, 1.0, rng=rng_for(11, 0))
    cen = gen_errors(ErrorLaw.NORMAL, 1000, 1.0, recentering=0.5, rng=rng_for(11, 0))
    np.testing.assert_array_equal(raw, cen)
    # At tau=0.3 the recentred draws have P(e < 0) near 0.3.
    e = gen_errors(ErrorLaw.T2, 200_000, 0.5, recentering=0.3, rng=rng_for(11, 1))
    assert np.mean(e < 0) == pytest.approx(0.3, abs=0.01)


def test_law_quantiles_match_reference():
    for p in (0.05, 0.3, 0.5, 0.9):
        assert law_quantile(ErrorLaw.NORMAL, p) == pytest.approx(stats.norm.ppf(p), abs=1e-9)
        assert law_quantile(ErrorLaw.T2, p) == pytest.approx(stats.t(2).ppf(p), abs=1e-9)
        assert law_quantile(ErrorLaw.CAUCHY, p) == pytest.approx(stats.cauchy.ppf(p), abs=1e-9)
    q = law_quantile(ErrorLaw.MIXED_NORMAL, 0.3)
    assert 0.9 * stats.norm.cdf(q) + 0.1 * stats.norm.cdf(q / 2) == pytest.approx(0.3, abs=1e-10)


def test_errors_heavy_tails_ordering():
    e_t2 = gen_errors(ErrorLaw.T2, 100_000, 1.0, rng=rng_for(12, 0))
    e_cauchy = gen_errors(ErrorLaw.CAUCHY, 100_000, 1.0, rng=rng_for(12, 1))
    assert np.quantile(np.abs(e_cauchy), 0.999) > np.quantile(np.abs(e_t2), 0.999)


def test_gen_example_truth_and_roundtrip():
    data, spec, truth = gen_example("ex51", 120, ErrorLaw.NORMAL, rng_for(13, 0))
    for t in truth.theta1 + truth.theta2:
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-15)
    # Residuals at the truth reproduce the generated errors bit-exact.
    e1 = residuals(spec, truth, data)
    data2, _, _ = gen_example("ex51", 120, ErrorLaw.NORMAL, rng_for(13, 0))
    np.testing.assert_array_equal(residuals(spec, truth, data2), e1)

    data3, spec3, truth3 = gen_example("ex52", 60, ErrorLaw.NORMAL, rng_for(13, 1))
    from mollifit.model import regression_mean

    got = regression_mean(spec3, truth3, np.zeros(2), np.zeros(2))
    assert got == pytest.approx(2 * 0.3989422804014327, abs=1e-12)


def test_gen_example_validation():
    with pytest.raises(ConfigurationError):
        gen_example("ex51", 10, ErrorLaw.NORMAL, rng_for(0, 0))
    with pytest.raises(ConfigurationError):
        gen_example("ex99", 100, ErrorLaw.NORMAL, rng_for(0, 0))


def test_determinism_and_substreams():
    a, _, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(42, 5))
    b, _, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(42, 5))
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.X, b.X)
    c, _, _ = gen_example("ex51", 100, ErrorLaw.NORMAL, rng_for(42, 6))
    assert not np.array_equal(a.y, c.y)


def test_driver_substreams_uncorrelated():
    # The unit-root innovations and the stationary driver come from
    # disjoint substreams: cross-correlation within 3 standard errors of 0.
    cfg = _example_design(100_000)
    cfg.trend = TrendKind.NONE
    rng = rng_for(14, 0)
    rng_w, rng_eps, _ = rng.spawn(3)
    w = gen_linear_process([np.eye(2)], cfg.n, rng_w)
    cfg2 = DgpConfig(
        n=cfg.n, d1=2, d2=2, rho1=np.eye(2), sigma1=np.eye(2),
        rho2=np.zeros((2, 2)), sigma2=np.eye(2), trend=TrendKind.NONE,
    )
    v = gen_trending_stationary(cfg2, rng_eps)
    for i in range(2):
        for j in range(2):
            r = np.corrcoef(w[:, i], v[:, j])[0, 1]
            assert abs(r) < 3.0 / math.sqrt(cfg.n)


def test_dataset_csv_roundtrip():
    data, _, _ = gen_example("ex51", 60, ErrorLaw.CAUCHY, rng_for(15, 0))
    text = dataset_to_csv(data)
    assert text.splitlines()[0] == "y,x1,x2,z1,z2"
    back = dataset_from_csv(text)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.X, data.X)
    np.testing.assert_array_equal(back.Z, data.Z)
    # Columns are picked by name, not by position.
    order = [0, 3, 1, 4, 2]
    rows = [ln.split(",") for ln in text.splitlines()]
    permuted = "\n".join(",".join(r[i] for i in order) for r in rows) + "\n"
    assert permuted.splitlines()[0] == "y,z1,x1,z2,x2"
    back = dataset_from_csv(permuted)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.X, data.X)
    np.testing.assert_array_equal(back.Z, data.Z)


def test_csv_text_reads_back_every_float_exactly():
    floats = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1 + 0.2,
              np.float64(1) / 3, np.float64(-2.5e-300)]
    ints = [0, -7, 12, 2**53 + 1, 3, 10**17, 1, 2, 5]
    words = ["a", "2020-01-31", "", "rate:theta21", "x", "nan?", "b", "c", "d"]
    text = csv_text(["f", "i", "w"], zip(floats, ints, words))
    assert text.endswith("\n") and text.splitlines()[0] == "f,i,w"
    columns, dates = table_from_csv(text)
    assert [float(v).hex() for v in columns["f"]] == [float(v).hex() for v in floats]
    assert columns["i"].tolist() == [float(v) for v in ints]
    assert [ln.split(",")[1] for ln in text.splitlines()[1:]] == [str(v) for v in ints]
    assert dates == words


def test_table_rejects_repeated_column_names():
    # Keyed by name, the last of two same-named columns would silently win.
    with pytest.raises(ConfigurationError, match="repeated column name.*: x$"):
        table_from_csv("y,x,x\n1,2,3\n4,5,6\n")
    with pytest.raises(ConfigurationError, match="repeated"):
        dataset_from_csv("y,x1,z1,x1\n1,2,3,4\n")


def test_dataset_from_table_gives_an_empty_block_one_zero_column():
    table = {"y": np.array([1.0, 2.0, 3.0]), "a": np.array([4.0, 5.0, 6.0])}
    data = dataset_from_table(table, "y", [], ["a"])
    assert data.X.shape == (3, 1)
    np.testing.assert_array_equal(data.X, 0.0)
    np.testing.assert_array_equal(data.Z[:, 0], table["a"])
    data = dataset_from_table(table, "y", ["a"], [])
    assert data.Z.shape == (3, 1)
    np.testing.assert_array_equal(data.Z, 0.0)
