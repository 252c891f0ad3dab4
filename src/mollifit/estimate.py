"""Robust fitting of the additive single-index model.

The objective is ``L_n = sum_t rho(y_t - mean_t)`` for a convex loss.  The
minimizer is found by a damped Newton iteration whose derivatives come from
the Gaussian-smoothed loss: step direction
``(sum rho_m''(e_t) J_t J_t' + ridge I)^{-1} sum rho_m'(e_t) J_t`` with a
backtracking line search on the exact (unsmoothed) objective, so every
accepted step strictly decreases ``L_n``.  If the final rung refuses the
smoothed step before any step has been accepted, the iteration continues
along the exact subgradient instead.  Index vectors are renormalized to the
unit sphere after every step.

The smoothing order is annealed: early iterations use a kernel scale matched
to the current residual spread (which makes the kink losses behave like
smooth ones globally), and the final iterations run at the sample-size order
``m = floor(n^(2+eps))``, which also prices the reported curvature average.

The starts of a fit, and the fits of one :func:`fit_many` call, run in
lockstep.  Each start's iteration is a generator (``_minimize_one``) that
keeps its own control flow (rungs, budgets, the subgradient fallback, the
stall rules) and yields its work as requests; one loop (``_lockstep``)
serves the requests of all live (fit, start) jobs of one sample size with
batched calls: (S, n, P) Jacobians with one batched solve for the Newton
steps, and blocks of line-search trial points.  A call whose rows all come
from one dataset uses that dataset's (n, d) regressor blocks; a call that
mixes datasets gathers per-row (rows, n, d) blocks.  A search tries
``alpha = 1, d, d^2, ...`` (repeated multiplication by ``damping``) in
blocks of rows that double in size, and takes the first row that lowers
``L_n``.  A budget of ``_BLOCK_ELEMENTS`` elements caps the (rows, n) trial
blocks and the number of jobs per lockstep group, so at large n a fit runs
one start and one trial at a time.  Every batched operation rounds as its
one-start form, so each start follows its serial path bit for bit, and
``fit_many`` returns for each dataset what ``fit`` returns alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .exceptions import (
    ConfigurationError,
    DegenerateParameterError,
    EmptyBlockError,
    MollifitError,
    RankDeficiencyError,
    ShapeError,
)
from .losses import (
    LossKind,
    LossSpec,
    MollifierOrder,
    eval_loss,
    mollified_grad,
    mollified_hess,
    subgrad,
)
from .model import (
    Dataset,
    LinkKind,
    ModelSpec,
    ParamLayout,
    ParamVector,
    _unitize,
    link_value,
    packed_jacobian,
    packed_mean,
    packed_normalize,
    param_jacobian,
    validate_params,
)

_MAX_BACKTRACKS = 60
# Most elements in one (rows, n) block of trial residuals; also caps the
# (fit, start) jobs that run in lockstep.
_BLOCK_ELEMENTS = 2**14
_RUNG_FACTOR = 25.0
_RUNG_ITER_CAP = 15

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass
class FitOptions:
    """Optimizer knobs; defaults follow the package-wide conventions."""

    loss: LossSpec
    m_epsilon: float = 0.1
    tol: float = 1e-8
    max_iter: int = 200
    multistart: int | None = None
    damping: float = 0.5
    ridge: float = 1e-10
    loss_scale: float = 1.0
    track_descent: bool = False
    init_params: ParamVector | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigurationError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if self.multistart is not None and self.multistart < 1:
            raise ConfigurationError("multistart must be >= 1")
        if not 0 < self.damping < 1:
            raise ConfigurationError("damping must lie in (0,1)")
        if self.m_epsilon <= 0:
            raise ConfigurationError("m_epsilon must be positive")
        if self.loss_scale <= 0:
            raise ConfigurationError("loss_scale must be positive")


@dataclass
class FitResult:
    params: ParamVector
    objective: float
    a1_hat: float
    a2_hat: float
    sigma_hat: np.ndarray | None
    stat_cov: np.ndarray | None
    iterations: int
    converged: bool
    residuals: np.ndarray
    start_index: int
    mollifier_m: float
    descent_trace: list[float] | None = None


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
    return _solve_spd(H, b, context="quadratic surrogate")


def _solve_spd(H, b, context: str, names=None):
    try:
        out = np.linalg.solve(H, b)
    except np.linalg.LinAlgError:
        out = None
    if out is None or not np.all(np.isfinite(out)):
        d = np.abs(np.diag(H))
        bad = np.where(d <= d.max() * 1e-14)[0] if d.size else []
        if names is not None and len(bad):
            blocks = ", ".join(sorted({names[i] for i in bad}))
        else:
            blocks = ", ".join(str(i) for i in bad) or "unknown"
        raise RankDeficiencyError(
            f"normal matrix for {context} is singular even after ridge "
            f"(offending columns: {blocks})"
        )
    return out


def estimate_a1(residuals, loss: LossSpec) -> float:
    """Average squared subgradient (1/n) sum psi(e_t)^2."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ConfigurationError("cannot estimate a1 from an empty residual vector")
    psi = subgrad(loss, r)
    return float(np.mean(psi * psi))


def estimate_a2(residuals, loss: LossSpec, m) -> float:
    """Average smoothed curvature (1/n) sum rho_m''(e_t).

    For the squared-error loss the curvature is the constant 2 and no
    smoothing is involved.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ConfigurationError("cannot estimate a2 from an empty residual vector")
    if loss.kind is LossKind.SQUARED_ERROR:
        return 2.0
    return float(np.mean(mollified_hess(loss, m, r)))


def estimate_sigma(model: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """Sample second moment ``J_s'J_s / n`` of the stationary Jacobian columns.

    ``J_s`` holds the theta2 and gamma2 columns of :func:`param_jacobian`,
    the gradient of the regression mean that the delta method for the
    stationary block needs.
    """
    if model.p2 == 0:
        raise EmptyBlockError("model has no stationary block")
    J = param_jacobian(model, params, data)
    # A contiguous copy: the product then runs the same kernel as on a
    # freshly built design, whatever the column offset.
    J_s = np.ascontiguousarray(J[:, ParamLayout(model).gamma1_slice.stop :])
    return J_s.T @ J_s / data.n


def stationary_covariance(a1: float, a2: float, sigma_hat, n: int) -> np.ndarray:
    """Finite-sample covariance (a1/a2^2) Sigma^{-1} / n for the stationary block.

    Raises ConfigurationError unless a2^2 is positive; below ~1e-162 the
    square of a positive a2 underflows to zero.
    """
    a2_sq = a2 * a2
    if not a2_sq > 0:
        raise ConfigurationError(f"a2^2 must be positive, got a2 = {a2!r}")
    sigma_hat = np.atleast_2d(np.asarray(sigma_hat, dtype=float))
    P = sigma_hat.shape[0]
    inv = _solve_spd(
        sigma_hat + 1e-10 * np.eye(P), np.eye(P), context="stationary covariance"
    )
    return (a1 / a2_sq) * inv / n


def _sphere_point(counter: int, d: int) -> np.ndarray:
    """Deterministic low-discrepancy point on the unit sphere."""
    u = np.array(
        [0.5 + (counter + 1) * math.sqrt(_PRIMES[i % len(_PRIMES)]) for i in range(d)]
    )
    u = np.clip(u - np.floor(u), 5e-4, 1.0 - 5e-4)
    z = ndtri(u)
    if np.linalg.norm(z) < 1e-12:
        return np.eye(1, d)[0]
    return _unitize(z[None])[0][0]


def _unit_or_default(vec: np.ndarray) -> np.ndarray:
    """Unit ``vec`` with a positive lead; the first axis if ``vec`` is near zero."""
    nrm = float(np.linalg.norm(vec))
    if nrm < 1e-10 or not np.isfinite(nrm):
        return np.eye(1, vec.size)[0]
    return _unitize(vec[None])[0][0]


def _gamma_refit(layout: ParamLayout, data: Dataset, flat: np.ndarray) -> np.ndarray:
    """Least-squares coefficients given the index vectors in ``flat``, written into it."""
    G = np.column_stack([
        link_value(t.link, (data.Z if t.stationary else data.X) @ flat[t.theta])
        for t in layout.terms
    ])
    coef, *_ = np.linalg.lstsq(G, data.y, rcond=None)
    coef = np.where(np.isfinite(coef), coef, 0.0)
    for t, c in zip(layout.terms, coef):
        flat[t.gamma] = c
    return flat


def _build_starts(layout: ParamLayout, data: Dataset, n_starts: int, init: ParamVector | None = None):
    """Packed least-squares warm start plus deterministic sphere starts.

    An explicit ``init`` replaces the warm start as start 0 (used e.g. by
    the Monte Carlo harness to anchor fits at the simulation truth).  The
    sphere starts vary the index vectors used by a nonlinear link, or every
    index vector when all links are linear.
    """
    if init is not None:
        validate_params(layout.model, init)
    # Every index vector on X (then Z) starts at the unit direction of the
    # X (Z) coefficients in one least-squares fit on the blocks in use.
    used = sorted({t.stationary for t in layout.terms})
    blocks = [data.Z if stationary else data.X for stationary in used]
    coef, *_ = np.linalg.lstsq(np.hstack(blocks), data.y, rcond=None)
    direction = {}
    pos = 0
    for stationary, A in zip(used, blocks):
        direction[stationary] = _unit_or_default(coef[pos : pos + A.shape[1]])
        pos += A.shape[1]
    warm = np.zeros(layout.size)
    for t in layout.terms:
        warm[t.theta] = direction[t.stationary]
    if init is not None:
        starts = [layout.pack(init)]
    else:
        starts = [_gamma_refit(layout, data, warm.copy())]

    vary = [
        theta
        for theta, terms in layout.index_blocks
        if any(t.link.kind is not LinkKind.IDENTITY for t in terms)
    ] or [theta for theta, _ in layout.index_blocks]
    counter = 0
    for _ in range(1, n_starts):
        flat = warm.copy()
        for theta in vary:
            flat[theta] = _sphere_point(counter, theta.stop - theta.start)
            counter += 1
        starts.append(_gamma_refit(layout, data, flat))
    return starts


class _LossEngine:
    """Objective and smoothed derivatives of the (unscaled) loss.

    A positive rescaling of the loss does not move its minimizer, so the
    optimizer always works with the base loss; the ``loss_scale`` test hook
    is applied to the reported objective values only.  This keeps the
    iterates bitwise identical under rescaling.
    """

    def __init__(self, loss: LossSpec):
        self.loss = loss
        self.smooth = loss.kind is not LossKind.SQUARED_ERROR

    def objective(self, E):
        """L_n of each row of a (rows, n) residual block."""
        return np.sum(eval_loss(self.loss, E), axis=-1)

    def score(self, e, m):
        if not self.smooth:
            return subgrad(self.loss, e)
        return mollified_grad(self.loss, m, e)

    def weights(self, e, m):
        if not self.smooth:
            return np.full(e.shape, 2.0)
        return mollified_hess(self.loss, m, e)


def _rung_schedule(e0: np.ndarray, m_target: float, smooth: bool):
    if not smooth:
        return [m_target]
    med = np.median(e0)
    mad = 1.4826 * float(np.median(np.abs(e0 - med)))
    if not np.isfinite(mad) or mad < 1e-9:
        return [m_target]
    m0 = min(max(0.5 / (mad * mad), 1.0), m_target)
    rungs = []
    m = m0
    while m < m_target / _RUNG_FACTOR:
        rungs.append(m)
        m *= _RUNG_FACTOR
    rungs.append(m_target)
    return rungs


@dataclass
class _StartOutcome:
    flat: np.ndarray
    residuals: np.ndarray
    objective: float
    start_objective: float
    iterations: int
    converged: bool
    trace: list[float] = field(default_factory=list)


def _alphas(damping: float) -> np.ndarray:
    """Line-search step lengths 1, d, d^2, ... by repeated multiplication."""
    out = np.empty(_MAX_BACKTRACKS)
    alpha = 1.0
    for k in range(_MAX_BACKTRACKS):
        out[k] = alpha
        alpha *= damping
    return out


def _line_search(flat, delta, L, alphas, size):
    """First point on ``flat + alpha*delta`` that lowers the exact objective.

    A sub-generator of :func:`_minimize_one`: it yields the trial rows in
    ``alphas`` order, in blocks of ``size``, ``2*size``, ... rows, of which
    :func:`_lockstep` may evaluate a prefix only.  Returns ``(flat, residuals,
    objective, trials)`` at the first accepted, normalized row, ``trials``
    counting it, or None when every trial is refused.  A row that cannot be
    normalized before the accepted one raises, as a serial search would.
    """
    k = 0
    while k < alphas.size:
        F, E, Ls, ok = yield "eval", flat + alphas[k : k + size, None] * delta
        stop = ~ok | (Ls < L)
        if stop.any():
            i = int(stop.argmax())
            if not ok[i]:
                raise DegenerateParameterError("cannot normalize a zero index vector")
            return F[i], E[i].copy(), float(Ls[i]), k + i + 1
        k += Ls.size
        size *= 2
    return None


def _minimize_one(layout, data, opts, engine, start, m_target):
    """The annealed Newton iteration from one start, as a generator.

    It yields its batched work to :func:`_lockstep` and gets
    the results sent back: ``("eval", rows)`` the normalized rows with
    their residuals, objectives and normalization mask (:func:`_evaluate`);
    ``("step", flat, score, weights, exact_score)`` the ridged normal
    matrix, the Newton step and the gradient of ``exact_score``
    (:func:`_newton_steps`); ``("solve", H, g)`` the solution.  A failed
    solve is thrown in.  Returns the start's :class:`_StartOutcome`.
    """
    F, E, Ls, ok = yield "eval", start[None]
    if not ok[0]:
        raise DegenerateParameterError("cannot normalize a zero index vector")
    flat, e, L = F[0], E[0].copy(), float(Ls[0])
    L_start = L
    trace = [L]
    iters = 0
    accepted_any = False
    converged = False
    last_delta_sup = math.inf
    rungs = _rung_schedule(e, m_target, engine.smooth)
    alphas = _alphas(opts.damping)
    size = 1
    for ri, m in enumerate(rungs):
        last = ri == len(rungs) - 1
        rung_tol = opts.tol if last else max(opts.tol, 0.03 / math.sqrt(2.0 * m))
        budget = opts.max_iter - iters
        if not last:
            budget = min(budget, _RUNG_ITER_CAP)
        stalled = False
        exact = False
        for _ in range(budget):
            score = subgrad(engine.loss, e) if exact else engine.score(e, m)
            # Where the subgradient fallback below can follow, its gradient
            # comes with the step: the Jacobian does not outlive the step.
            can_fall_back = last and engine.smooth and not accepted_any
            H, delta, g_exact = yield (
                "step", flat, score, engine.weights(e, m),
                subgrad(engine.loss, e) if can_fall_back else None,
            )
            last_delta_sup = float(np.max(np.abs(delta)))
            if last_delta_sup < rung_tol:
                if last:
                    converged = True
                break
            found = yield from _line_search(flat, delta, L, alphas, size)
            if found is None and can_fall_back:
                # A residual within a kernel width of a kink can tip the
                # smoothed score uphill for the exact objective, which would
                # leave the start where it is.  The exact subgradient (the
                # score's m -> infinity limit) is a descent direction
                # wherever L_n is differentiable, so the final rung goes on
                # along it.  After an accepted step, a refused step is a
                # stall and ends the search (see below).
                exact = True
                delta = yield "solve", H, g_exact
                found = yield from _line_search(flat, delta, L, alphas, size)
            iters += 1
            if found is None:
                stalled = True
                break
            cand, e_c, L_c, trials = found
            # The next search opens with a block that would have held this one.
            size = 1 << (trials - 1).bit_length()
            step = float(np.max(np.abs(cand - flat)))
            flat, e, L = cand, e_c, L_c
            accepted_any = True
            trace.append(L)
            if step < rung_tol:
                if last:
                    converged = True
                break
        if last and stalled and (accepted_any or last_delta_sup < math.sqrt(opts.tol)):
            # The smoothed direction cannot improve the exact objective any
            # further; for kink losses this is the practical optimum.  A
            # stall on the very first step only counts when the proposed
            # step was already negligible (start at the optimum).
            converged = True
    return _StartOutcome(flat, e, L, L_start, iters, converged, trace)


def _regressors(datas, counts):
    """``(y, X, Z)`` for consecutive blocks of ``counts`` rows from ``datas``.

    One dataset's own arrays when it serves every row; otherwise per-row
    (rows, n) and (rows, n, d) copies, C-ordered like a dataset's blocks.
    """
    if all(d is datas[0] for d in datas):
        return datas[0].y, datas[0].X, datas[0].Z
    return tuple(
        np.repeat(np.stack([getattr(d, name) for d in datas]), counts, axis=0)
        for name in ("y", "X", "Z")
    )


def _evaluate(layout, engine, requests):
    """Normalize and evaluate ``(data, rows)`` requests in one batched call.

    The requests share one n.  At most ``_BLOCK_ELEMENTS // n`` rows go in,
    shared out smallest block first and at least one row per block, so a
    long block may be cut to a prefix.  Per request: ``(rows, residuals,
    objectives, mask)``.
    """
    datas, blocks = zip(*requests)
    budget = _BLOCK_ELEMENTS // datas[0].n
    cut = list(blocks)
    for k, j in enumerate(sorted(range(len(blocks)), key=lambda j: len(blocks[j]))):
        cut[j] = blocks[j][: max(1, budget // (len(blocks) - k))]
        budget -= len(cut[j])
    F = np.concatenate(cut)
    ok = packed_normalize(layout, F)
    y, X, Z = _regressors(datas, [len(c) for c in cut])
    E = y - packed_mean(layout, F, X, Z)
    Ls = engine.objective(E)
    bounds = np.cumsum([0] + [len(c) for c in cut])
    return [(F[a:b], E[a:b], Ls[a:b], ok[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _solve_each(H, g, names):
    """``np.linalg.solve`` on a stack of systems; a singular one gets its error."""
    try:
        steps = list(np.linalg.solve(H, g[..., None])[..., 0])
    except np.linalg.LinAlgError:
        steps = [np.full(g.shape[1], np.nan)] * len(g)
    for k, step in enumerate(steps):
        if not np.all(np.isfinite(step)):
            # Alone, to tell the singular systems from the others.
            try:
                steps[k] = _solve_spd(H[k], g[k], context="newton step", names=names)
            except RankDeficiencyError as err:
                steps[k] = err
    return steps


def _newton_steps(layout, opts, requests, names, work):
    """Newton steps for ``(data, flat, score, weights, exact_score)`` requests.

    One (S, n, P) Jacobian, stacked products and one batched solve; each
    stacked product rounds as its one-start form.  The Jacobian and its
    weighted copy are written into the two (>= S, n, P) arrays of
    ``work``.  Per request: ``(H, step, J' exact_score)``, the last None
    without an exact score, or the solver's error.
    """
    datas, flats, scores, weights, exact_scores = zip(*requests)
    _, X, Z = _regressors(datas, [1] * len(datas))
    J = packed_jacobian(layout, np.stack(flats), X, Z, out=work[0][: len(requests)])
    g = np.matmul(J.transpose(0, 2, 1), np.stack(scores)[..., None])[..., 0]
    JW = np.multiply(J, np.stack(weights)[..., None], out=work[1][: len(requests)])
    H = np.matmul(JW.transpose(0, 2, 1), J)
    # Ridge relative to the problem scale: an absolute 1e-10 is lost in
    # rounding against design blocks of size ~1e6 and leaves the LU
    # factorization exactly singular on low-rank weight states.
    # Referencing H and g (both proportional to the loss) keeps the step
    # exactly invariant under loss rescaling.  Python's max keeps its NaN rule.
    diag = np.mean(np.abs(np.diagonal(H, axis1=1, axis2=2)), axis=1)
    scale = [max(a, b, 1e-30) for a, b in zip(diag.tolist(), np.max(np.abs(g), axis=1).tolist())]
    H += (opts.ridge * np.array(scale))[:, None, None] * np.eye(layout.size)
    steps = _solve_each(H, g, names)
    return [
        s if isinstance(s, Exception) else (H[k], s, None if x is None else J[k].T @ x)
        for k, (s, x) in enumerate(zip(steps, exact_scores))
    ]


def _lockstep(layout, opts, engine, jobs):
    """Run :func:`_minimize_one` for every ``(data, start, m_target)`` job.

    The jobs share one n and run in groups of at most ``_BLOCK_ELEMENTS //
    n``, the jobs of a group in lockstep.  A round serves the group's
    requests kind by kind, steps, then solves, then evaluations, each kind
    in one batched call that carries each request's dataset, and sends each
    job its reply at once, so a request that follows in the same round's
    order (the first trial after a step) is served in the same round.
    Every job follows its serial path bitwise.  Per job, in order: its
    :class:`_StartOutcome`, or the exception it raised.
    """
    names = {col: name for name, col in layout.scalars}
    n = jobs[0][0].n
    group = max(1, _BLOCK_ELEMENTS // n)
    # The Newton steps reuse two Jacobian-sized arrays.  At large n these
    # are the largest arrays of a fit, and a fresh pair per step makes the
    # heap grow and shrink every step, page faults and all.
    work = np.empty((2, min(group, len(jobs)), n, layout.size))
    # One batched server per request kind, in the order a round serves them.
    servers = {
        "step": lambda reqs: _newton_steps(layout, opts, reqs, names, work),
        "solve": lambda reqs: _solve_each(
            np.stack([H for _, H, _ in reqs]), np.stack([g for _, _, g in reqs]), names
        ),
        "eval": lambda reqs: _evaluate(layout, engine, reqs),
    }
    outcomes = [None] * len(jobs)
    for lo in range(0, len(jobs), group):
        gens = {
            i: _minimize_one(layout, jobs[i][0], opts, engine, jobs[i][1], jobs[i][2])
            for i in range(lo, min(lo + group, len(jobs)))
        }
        requests = {}

        def send(ids, answers):
            for i, answer in zip(ids, answers):
                try:
                    if isinstance(answer, Exception):
                        requests[i] = gens[i].throw(answer)
                    else:
                        requests[i] = gens[i].send(answer)
                except StopIteration as done:
                    outcomes[i] = done.value
                    requests.pop(i, None)
                except Exception as err:
                    outcomes[i] = err
                    requests.pop(i, None)

        send(list(gens), [None] * len(gens))
        while requests:
            for kind, serve in servers.items():
                ids = [i for i, req in requests.items() if req[0] == kind]
                if ids:
                    send(ids, serve([(jobs[i][0], *requests[i][1:]) for i in ids]))
    return outcomes


def _result(layout, data, opts, m_order, outcomes) -> FitResult:
    """The fit's result from its starts' outcomes; the first start's error if any failed.

    The best start has the smallest exact objective, ties broken by the
    lowest start index.
    """
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    best: _StartOutcome | None = None
    best_index = 0
    for si, out in enumerate(outcomes):
        if best is None or out.objective < best.objective:
            best, best_index = out, si
    model = layout.model
    params = layout.unpack(best.flat)
    res = best.residuals
    a1 = estimate_a1(res, opts.loss)
    a2 = estimate_a2(res, opts.loss, m_order)
    sigma_hat = None
    stat_cov = None
    if model.p2 > 0:
        sigma_hat = estimate_sigma(model, params, data)
        if a2 * a2 > 0:  # a2 >= 0; its square underflows below ~1e-162
            stat_cov = stationary_covariance(a1, a2, sigma_hat, data.n)
    k = opts.loss_scale
    return FitResult(
        params=params,
        objective=k * (best.objective - best.start_objective),
        a1_hat=a1,
        a2_hat=a2,
        sigma_hat=sigma_hat,
        stat_cov=stat_cov,
        iterations=best.iterations,
        converged=best.converged,
        residuals=res,
        start_index=best_index,
        mollifier_m=m_order.m,
        descent_trace=[k * v for v in best.trace] if opts.track_descent else None,
    )


def fit_many(model: ModelSpec, datasets, opts: FitOptions) -> list:
    """:func:`fit` on each dataset, the independent fits run in lockstep.

    Per dataset, in input order: its :class:`FitResult`, bitwise the one
    ``fit`` returns, or the :class:`MollifitError` that ``fit`` raises.  Any
    other exception propagates.  The datasets are grouped by n, and the
    (fit, start) jobs of one n share the lockstep groups.
    """
    layout = ParamLayout(model)
    min_rows = max(t.theta.stop - t.theta.start for t in layout.terms) + len(layout.terms) + 1
    identity_only = all(t.link.kind is LinkKind.IDENTITY for t in layout.terms)
    n_starts = opts.multistart if opts.multistart is not None else (1 if identity_only else 8)
    engine = _LossEngine(opts.loss)
    out = [None] * len(datasets)
    plans = {}
    by_n = {}
    for k, data in enumerate(datasets):
        try:
            layout.check_widths(data.X, data.Z)
            if data.n < min_rows:
                raise ShapeError(f"need n >= {min_rows} rows for this model, got {data.n}")
            plans[k] = (
                MollifierOrder.from_sample_size(data.n, opts.m_epsilon),
                _build_starts(layout, data, n_starts, opts.init_params),
            )
        except MollifitError as err:
            out[k] = err
            continue
        by_n.setdefault(data.n, []).append(k)
    for ks in by_n.values():
        jobs = [(datasets[k], start, plans[k][0].m) for k in ks for start in plans[k][1]]
        outcomes = iter(_lockstep(layout, opts, engine, jobs))
        for k in ks:
            m_order, starts = plans[k]
            mine = [next(outcomes) for _ in starts]
            try:
                out[k] = _result(layout, datasets[k], opts, m_order, mine)
            except MollifitError as err:
                out[k] = err
    return out


def fit(model: ModelSpec, data: Dataset, opts: FitOptions) -> FitResult:
    """Minimize the robust objective over all model parameters.

    Runs the annealed-smoothing Newton iteration from every start (a
    least-squares warm start plus deterministic unit-sphere points for the
    nonlinear index blocks) and returns the start with the smallest exact
    objective, ties broken by the lowest start index.
    """
    (res,) = fit_many(model, [data], opts)
    if isinstance(res, MollifitError):
        raise res
    return res
