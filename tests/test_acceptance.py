"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
complete.  Every criterion is expected to pass.

Criterion 4 checks the quadratic approximation of Section 2 on the scalar
model ``y = z theta0 + e`` with LAD loss: the root-n error of the fit equals
the closed-form quadratic-surrogate minimizer ``beta_q`` plus a remainder of
order ``n^(-1/4)``.  For a nonsmooth score that order is exact and the
scaled remainder ``g = n^(1/4) |sqrt(n)(beta_hat - theta0) - beta_q|`` has a
nondegenerate limit law (Kiefer 1967; He & Shao 1996),
``|Z| sqrt(|T| E|z|^3 / f(0)) / E z^2`` with ``Z ~ N(0, 1)`` and
``T ~ N(0, a1 / (a2^2 E z^2))`` independent; for standard normal ``z`` and
``e`` it is ``2 |Z| sqrt(|T|)`` with ``T ~ N(0, pi/2)``.  So no fixed
multiple of ``n^(-1/4)`` bounds the remainder in 95% of replications unless
it sits in the tail of that law: the median is 1.08, and the 95% point
``c95`` is 4.19.  The test checks, over n in {125, 500, 2000, 8000}:

* rate: at every n the median of ``g`` lies in [0.7, 1.5] (an O(1)
  remainder would put it near 9 at n=8000);
* tail: pooled over all fits, at least 92% have ``g <= c95``, with ``c95``
  computed from the limit law by quadrature, never from fit output;
* estimator equivalence: the fit is the exact LAD minimizer (the
  |z|-weighted median of y/z) up to the smoothing: it never undercuts the
  exact objective, and ``d = n^(1/4) sqrt(n) |beta_hat - beta_exact|`` has a
  median of at most 0.05 and a maximum of at most 0.6 at every n;
* every fit reports ``converged``.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr

from mollifit.dgp import ErrorLaw
from mollifit.estimate import (
    FitOptions,
    estimate_a1,
    estimate_a2,
    fit,
)
from mollifit.forecast import ForecastConfig, pseudo_r2, rolling_forecast, report_csv, run_forecast
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
)
from mollifit.model import (
    Dataset,
    GAUSS_PDF,
    IDENTITY,
    ModelSpec,
    ParamLayout,
    regression_mean,
)
from mollifit.montecarlo import McConfig, rate_exponent, run_replications, summarize
from oracles import quadratic_minimizer, quadrature_oracle

Q3 = quantile_loss(0.3)
HUB = huber_loss(1.25)
KINK_LOSSES = (LAD, Q3, HUB)
MC_SEED = 20240


def _line(num, name, ok, t0, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {tag} ({time.time() - t0:.1f} s){extra}")


def test_criterion_01_mollifier_gap_bound():
    t0 = time.time()
    grid = np.arange(-5.0, 5.0 + 5e-4, 1e-3)
    ok = True
    for spec in KINK_LOSSES:
        for m in (1e2, 1e4, 1e6):
            gap = np.abs(mollified_eval(spec, m, grid) - eval_loss(spec, grid))
            ok &= float(gap.max()) <= gap_bound(spec, m) + 1e-12
    elapsed = time.time() - t0
    _line(1, "mollifier gap bound", ok and elapsed < 5, t0)
    assert ok
    assert elapsed < 5.0


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    us = np.concatenate(
        [np.linspace(-10, 10, 41), [-1.25, -0.01, -0.003, 0.0007, 0.004, 1.25]]
    )
    worst = 0.0
    for spec in KINK_LOSSES:
        for m in (1.0, 1e2, 1e4, 1e6):
            closed = (
                mollified_eval(spec, m, us),
                mollified_grad(spec, m, us),
                mollified_hess(spec, m, us),
            )
            for order in (0, 1, 2):
                for i, u in enumerate(us):
                    got = quadrature_oracle(spec, m, float(u), order, nodes=128).value
                    worst = max(worst, abs(got - closed[order][i]))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10
    _line(2, "oracle equivalence", ok, t0, f"worst gap {worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_03_least_squares_degeneration():
    t0 = time.time()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        n = 200
        X = rng.standard_normal((n, d1))
        Z = rng.standard_normal((n, d2))
        coef = rng.standard_normal(d1 + d2)
        y = np.hstack([X, Z]) @ coef + rng.standard_normal(n)
        data = Dataset(y, X, Z)
        ms = ModelSpec((IDENTITY,), (IDENTITY,), d1, d2)
        res = fit(ms, data, FitOptions(loss=SQUARED_ERROR))
        ols = np.linalg.lstsq(np.hstack([X, Z]), y, rcond=None)[0]
        bfit = np.concatenate(
            [res.params.gamma1[0] * res.params.theta1[0],
             res.params.gamma2[0] * res.params.theta2[0]]
        )
        worst = max(worst, float(np.max(np.abs(bfit - ols))))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10
    _line(3, "least-squares degeneration", ok, t0, f"worst gap {worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 10.0


def _remainder_limit_cdf(c):
    """P(2 |Z| sqrt(|T|) <= c) for Z ~ N(0, 1) and T ~ N(0, pi/2) independent.

    A 200,000-draw Monte Carlo of the same law agrees with the 95% point to
    within 0.05.
    """
    sd_t = math.sqrt(math.pi / 2)

    def integrand(t):  # over t = |T| > 0, half-normal density
        p_z = 2.0 * ndtr(c / (2.0 * math.sqrt(max(t, 1e-300)))) - 1.0
        return p_z * 2.0 * math.exp(-0.5 * (t / sd_t) ** 2) / (sd_t * math.sqrt(2 * math.pi))

    return quad(integrand, 0.0, math.inf)[0]


def _exact_lad_scalar(y, z):
    """Exact minimizer of sum |y - z b|: the |z|-weighted median of y/z."""
    r = y / z
    order = np.argsort(r)
    cum = np.cumsum(np.abs(z)[order])
    return float(r[order][np.searchsorted(cum, 0.5 * cum[-1])])


def test_criterion_04_quadratic_approximation_equivalence():
    t0 = time.time()
    theta0 = 1.0
    a2 = 2.0 / math.sqrt(2 * math.pi)  # 2 f(0) for standard normal errors
    c95 = brentq(lambda c: _remainder_limit_cdf(c) - 0.95, 1e-3, 100.0)
    law_median = brentq(lambda c: _remainder_limit_cdf(c) - 0.5, 1e-3, 100.0)

    ms = ModelSpec((), (IDENTITY,), 1, 1)
    n_grid, seeds = (125, 500, 2000, 8000), 200
    med_g, med_d, max_d = {}, {}, {}
    all_g = []
    undercut, unconverged = [], []
    for n in n_grid:
        g, d = [], []
        for seed in range(seeds):
            rng = np.random.default_rng(3000 + seed)
            z = rng.standard_normal((n, 1))
            e = rng.standard_normal(n)
            y = z[:, 0] * theta0 + e
            res = fit(ms, Dataset(y, np.zeros((n, 1)), z), FitOptions(loss=LAD))
            bhat = res.params.gamma2[0] * res.params.theta2[0][0]
            beta_q = quadratic_minimizer(z, np.sign(e), a2=a2, ridge=0.0)[0]
            bexact = _exact_lad_scalar(y, z[:, 0])
            g.append(n ** 0.25 * abs(math.sqrt(n) * (bhat - theta0) - beta_q))
            d.append(n ** 0.25 * math.sqrt(n) * abs(bhat - bexact))
            # bexact is the global minimizer of L_n, so a fit below it can
            # only mean the reference itself is wrong: this guards the
            # helper that the d bound is measured against.
            L_fit = float(np.sum(np.abs(y - z[:, 0] * bhat)))
            L_exact = float(np.sum(np.abs(y - z[:, 0] * bexact)))
            if L_fit < L_exact - 1e-9:
                undercut.append((n, seed))
            if not res.converged:
                unconverged.append((n, seed))
        med_g[n] = float(np.median(g))
        med_d[n], max_d[n] = float(np.median(d)), float(np.max(d))
        all_g += g
    frac = float(np.mean(np.array(all_g) <= c95))
    elapsed = time.time() - t0
    rate_ok = all(0.7 <= med_g[n] <= 1.5 for n in n_grid)
    equiv_ok = all(med_d[n] <= 0.05 and max_d[n] <= 0.6 for n in n_grid)
    ok = (rate_ok and frac >= 0.92 and equiv_ok and not undercut
          and not unconverged and elapsed < 120)
    medians = ", ".join(f"{n}: {med_g[n]:.2f}" for n in n_grid)
    _line(4, "quadratic approximation equivalence", ok, t0,
          f"median g by n {{{medians}}} in [0.7,1.5] (law {law_median:.2f}); "
          f"g <= c95={c95:.2f} in {frac:.3f} >= 0.92; "
          f"max d {max(max_d.values()):.3f} <= 0.6")
    assert elapsed < 120.0
    assert rate_ok, (
        f"median of n^1/4-scaled remainder outside [0.7, 1.5]: {med_g}; "
        f"limit-law median {law_median:.3f}"
    )
    assert frac >= 0.92, (
        f"only {frac:.3f} of {len(all_g)} scaled remainders within the "
        f"limit-law 95% point {c95:.3f}; 0.92 required"
    )
    assert not undercut, f"fit below the exact LAD minimum at (n, seed) {undercut}"
    assert equiv_ok, (
        f"n^1/4-scaled distance to the exact LAD minimizer too large: "
        f"medians {med_d} (<= 0.05), maxima {max_d} (<= 0.6)"
    )
    assert not unconverged, f"fits reported converged=False at (n, seed) {unconverged}"


def test_criterion_05_nuisance_consistency():
    t0 = time.time()
    rng = np.random.default_rng(55)
    e_lad = 0.5 * rng.standard_normal(5000)
    a1_lad = estimate_a1(e_lad, LAD)
    a2_lad = estimate_a2(e_lad, LAD, kde_mollifier_order(e_lad))
    target_a2 = 2.0 / (0.5 * math.sqrt(2 * math.pi))

    from scipy.special import ndtri

    e_q = 0.5 * rng.standard_normal(5000) - 0.5 * ndtri(0.3)
    a1_q = estimate_a1(e_q, Q3)

    e_h = rng.standard_normal(5000)
    a2_h = estimate_a2(e_h, HUB, sample_size_order(5000))
    from scipy.special import ndtr

    target_h = 2 * ndtr(1.25) - 1
    checks = {
        "a1(LAD)=1": a1_lad == 1.0,
        "a2(LAD)": abs(a2_lad - target_a2) <= 0.05 * target_a2,
        "a1(quantile)": abs(a1_q - 0.21) <= 0.05 * 0.21,
        "a2(huber)": abs(a2_h - target_h) <= 0.05 * target_h,
    }
    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed < 30
    _line(5, "nuisance consistency", ok, t0,
          f"a2_lad {a2_lad:.4f} vs {target_a2:.4f}, a1_q {a1_q:.4f}, a2_h {a2_h:.4f}")
    assert all(checks.values()), checks
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def mc_tables():
    # Shared by criteria 6, 7 and 10; truth-anchored replication protocol.
    t0 = time.time()
    tables = {}
    configs = {}
    for example in ("ex51", "ex52"):
        cfg = McConfig(
            example=example,
            n_list=[100, 200],
            reps=500,
            losses=[HUB],
            laws=[ErrorLaw.NORMAL],
            base_seed=MC_SEED,
            fit_options=FitOptions(loss=HUB),
            threads=2,
        )
        configs[example] = cfg
        tables[example] = run_replications(cfg)
    return tables, configs, time.time() - t0


def test_criterion_06_mc_error_levels(mc_tables):
    t0 = time.time()
    tables, _, build_time = mc_tables
    cell_g3 = tables["ex51"].get("gamma3", "huber:1.25", "normal", 100)
    cell_t21 = tables["ex51"].get("theta21", "huber:1.25", "normal", 100)
    ok_g3 = 0.5 * 0.00216 <= cell_g3.mse <= 1.5 * 0.00216
    ok_t21 = 0.5 * 0.00017 <= cell_t21.mse <= 1.5 * 0.00017
    ok = ok_g3 and ok_t21 and build_time < 900
    _line(6, "mc error levels", ok, t0,
          f"MSE(gamma3) {cell_g3.mse:.5f} in [{0.5*0.00216:.5f},{1.5*0.00216:.5f}], "
          f"MSE(theta21) {cell_t21.mse:.6f} in [{0.5*0.00017:.6f},{1.5*0.00017:.6f}], "
          f"tables built in {build_time:.0f} s")
    assert ok_g3 and ok_t21
    assert build_time < 900.0


def test_criterion_07_rate_diagnostics(mc_tables):
    t0 = time.time()
    tables, _, _ = mc_tables
    r51 = rate_exponent(tables["ex51"], "theta21", "huber:1.25", "normal", (100, 200))
    r52 = rate_exponent(tables["ex52"], "theta11", "huber:1.25", "normal", (100, 200))
    ok = 2.0 <= r51 <= 4.5 and 0.8 <= r52 <= 2.5
    _line(7, "rate diagnostics", ok, t0,
          f"ex51 theta21 rate {r51:.2f} in [2.0,4.5], ex52 theta11 rate {r52:.2f} in [0.8,2.5]")
    assert 2.0 <= r51 <= 4.5
    assert 0.8 <= r52 <= 2.5


def _random_instance(seed):
    rng = np.random.default_rng(7000 + seed)
    kind = seed % 3
    n = 120
    if kind == 2:
        ms = ModelSpec((GAUSS_PDF,), (IDENTITY,), 2, 2, share_theta1=True)
    else:
        ms = ModelSpec((IDENTITY,), (IDENTITY,), 2, 2)
    layout = ParamLayout(ms)
    truth = layout.unpack(rng.standard_normal(layout.size))
    X = rng.standard_normal((n, 2)) * (1.0 + kind)
    Z = rng.standard_normal((n, 2))
    y = regression_mean(ms, truth, X, Z) + 0.4 * rng.standard_normal(n)
    return ms, Dataset(y, X, Z)


def test_criterion_08_descent_and_scale_invariance():
    t0 = time.time()
    losses = (LAD, Q3, HUB, SQUARED_ERROR)
    descent_ok = True
    for seed in range(100):
        ms, data = _random_instance(seed)
        loss = losses[seed % 4]
        res = fit(ms, data, FitOptions(loss=loss, multistart=2))
        trace = np.array(res.descent_trace)
        descent_ok &= bool(
            np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
        )
    # Regression equivariance (Koenker 2005, Quantile Regression, 2.2.3):
    # with identity links the mean is linear in gamma, so the fit to c*y is
    # c times the fit to y, for Huber with its threshold scaled by c too.
    # It holds up to the smoothing and the stop rule.  Measured at c = 7.3
    # (and 0.25) on the instances below:
    # * the relative 2-norm change of the fitted mean is at most 3.1e-9
    #   (8.8e-6) for Huber and 1.7e-10 (4.6e-10) for squared error;
    # * for LAD and quantile loss the fitted mean moves by up to 9% along
    #   the flat directions of a kink loss, so the check is on L_n, whose
    #   relative change from c*L_n is at most 1.4e-4 (6.6e-4): the final
    #   rung's order m = n^(2+eps) does not scale with y.
    # Kind 2 (the gauss_pdf link) is left out: its objective has several
    # local minima, the winning start flips on up to 12 of its 33 instances
    # per loss, and L_n moves by up to 14%.
    # The bounds below keep a margin of 7x or more over these.
    c = 7.3
    checks = (  # loss, its form for c*y, what is compared, bound
        (LAD, LAD, "L_n", 1e-3),
        (Q3, Q3, "L_n", 1e-3),
        (HUB, huber_loss(1.25 * c), "mean", 1e-7),
        (SQUARED_ERROR, SQUARED_ERROR, "mean", 1e-8),
    )
    worst = [0.0] * len(checks)
    for seed in range(100):
        ms, data = _random_instance(seed)
        if seed % 3 == 2:
            continue
        scaled = Dataset(c * data.y, data.X, data.Z)
        for k, (loss, loss_c, what, _) in enumerate(checks):
            a = fit(ms, data, FitOptions(loss=loss, multistart=2))
            b = fit(ms, scaled, FitOptions(loss=loss_c, multistart=2))
            if what == "mean":
                mean_a, mean_b = c * (data.y - a.residuals), scaled.y - b.residuals
                change = np.linalg.norm(mean_b - mean_a) / np.linalg.norm(mean_a)
            else:
                L_a = c * float(np.sum(eval_loss(loss, a.residuals)))
                change = abs(float(np.sum(eval_loss(loss_c, b.residuals))) - L_a) / L_a
            worst[k] = max(worst[k], change)
    scale_ok = all(w <= check[3] for w, check in zip(worst, checks))
    elapsed = time.time() - t0
    ok = descent_ok and scale_ok and elapsed < 120
    _line(8, "descent and scale equivariance", ok, t0, "worst relative changes " + ", ".join(
        f"{loss.label()} {what} {w:.2e}" for w, (loss, _, what, _) in zip(worst, checks)))
    assert descent_ok
    assert scale_ok, worst
    assert elapsed < 120.0


def _signal_panel(seed, T=70):
    rng = np.random.default_rng(9000 + seed)
    Z = rng.standard_normal((T, 2))
    y = Z @ np.array([2.0, 1.0]) + 0.2 * rng.standard_normal(T)
    return Dataset(y=y, X=np.zeros((T, 1)), Z=Z)


def _forecast_cfg(window=30):
    return ForecastConfig(
        window=window,
        model=ModelSpec((), (IDENTITY,), 1, 2),
        fit_options=FitOptions(loss=SQUARED_ERROR),
    )


def test_criterion_09_forecast_sanity():
    t0 = time.time()
    # Perfect foresight: exact linear signal, zero noise.
    rng = np.random.default_rng(77)
    Z = rng.standard_normal((70, 2))
    perfect = Dataset(y=Z @ np.array([2.0, 1.0]), X=np.zeros((70, 1)), Z=Z)
    pred, bench, _ = rolling_forecast(perfect, _forecast_cfg())
    pr2_perfect = pseudo_r2(pred, bench, SQUARED_ERROR)

    # Benchmark-equal: constant regressors collapse the model to the mean.
    flat = Dataset(y=rng.standard_normal(70), X=np.zeros((70, 1)), Z=np.ones((70, 2)))
    pred_f, bench_f, _ = rolling_forecast(flat, _forecast_cfg())
    pr2_flat = pseudo_r2(pred_f, bench_f, SQUARED_ERROR)

    wins = 0
    n_seeds = 20
    for seed in range(n_seeds):
        p, b, _ = rolling_forecast(_signal_panel(seed), _forecast_cfg())
        wins += pseudo_r2(p, b, SQUARED_ERROR) > 0
    elapsed = time.time() - t0
    ok = (
        abs(pr2_perfect - 1.0) <= 1e-8
        and abs(pr2_flat) <= 1e-8
        and wins >= 0.9 * n_seeds
        and elapsed < 120
    )
    _line(9, "forecast sanity", ok, t0,
          f"perfect {pr2_perfect:.2e} vs 1, benchmark-equal {pr2_flat:.2e} vs 0, "
          f"signal wins {wins}/{n_seeds}")
    assert abs(pr2_perfect - 1.0) <= 1e-8
    assert abs(pr2_flat) <= 1e-8
    assert wins >= 0.9 * n_seeds
    assert elapsed < 120.0


def test_criterion_10_determinism(mc_tables):
    t0 = time.time()
    tables, configs, _ = mc_tables
    # Rerun the criterion-6 table with a different worker count and the
    # same seed: byte-identical CSV.
    cfg = configs["ex51"]
    cfg_rerun = McConfig(
        example=cfg.example, n_list=cfg.n_list, reps=cfg.reps, losses=cfg.losses,
        laws=cfg.laws, base_seed=cfg.base_seed, fit_options=cfg.fit_options,
        threads=1,
    )
    csv_a = summarize(tables["ex51"], "csv", scale=100.0)
    csv_b = summarize(run_replications(cfg_rerun), "csv", scale=100.0)
    mc_same = csv_a == csv_b

    reports_a = run_forecast(_signal_panel(0), _forecast_cfg())
    reports_b = run_forecast(_signal_panel(0), _forecast_cfg())
    fc_same = report_csv(reports_a) == report_csv(reports_b)
    ok = mc_same and fc_same
    _line(10, "determinism", ok, t0,
          f"mc rerun identical: {mc_same}, forecast rerun identical: {fc_same}")
    assert mc_same
    assert fc_same
