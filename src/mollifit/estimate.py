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
``m = floor(n^(2+eps))``, which also prices the curvature average that
:func:`infer` reports.

The starts of a fit, and the fits of one :func:`fit_many` call, run in
lockstep.  Each start's iteration is a generator (``_minimize_one``) that
keeps only its control flow (rungs, budgets, the subgradient fallback, the
stall rules) and yields its work as requests of two kinds: a Newton step
(the start's parameters, residuals, smoothing order and exact-score flag)
and a line search (parameters, step, objective to beat, smallest move).
One loop (``_lockstep``) serves the requests of all live (fit, start) jobs
of one sample size, each kind in one batched call per round, and owns the
arithmetic: the step server computes the scores and weights of all steps on
one (S, n) residual block, then (S, n, P) Jacobians and one batched solve;
the search server advances every pending search by one block of trial
points in one evaluation and resumes a start only when its search ends.  A
search tries ``alpha = 1, d, d^2, ...`` (repeated multiplication by
``damping``) in blocks of rows that double in size, and takes the first row
that lowers ``L_n``.  On every rung but the last it ends refused before a
trial that would move the iterate by ``alpha * max|step|`` less than the
rung's tolerance, since an accepted move that short would end the rung
anyway; the rung then ends as a stall.  A budget of ``_BLOCK_ELEMENTS``
elements caps the (rows, n) trial blocks and the number of jobs per
lockstep group, so at large n a fit runs one start and one trial at a
time.  Each group stacks the regressors of its datasets once; a call whose
rows all come from one dataset uses that dataset's own arrays, and a call
that mixes datasets gathers its rows by index.  Every batched operation
rounds as its one-start form, so each start follows its serial path bit for
bit, and ``fit_many`` returns for each dataset what ``fit`` returns alone.

A Jacobian depends only on its dataset and iterate, so a round of steps at
the datasets and iterates of the group's last Jacobian block (the first
step of a rung that follows a rung ending without a move, or the exact-score
step at an iterate whose smoothed step was refused) reuses the block.

At the late rungs of a LAD or quantile fit the smoothed curvature
``rho_m''`` is nonzero only within about ``1/sqrt(m)`` of the kink, so few
rows carry the curvature ``J'WJ``.  At n > ``_BLOCK_ELEMENTS``, where a
round holds the step of one start, a round with fewer than n/8 nonzero
weights sums ``J'WJ`` over those rows only.  That sum rounds differently
from the dense one, so such a fit can differ from the dense path in its
last digits (and, rarely, in its iteration count); the decision depends on
the one request alone, so ``fit_many`` still equals ``fit`` bitwise.  Every
fit at n <= ``_BLOCK_ELEMENTS`` keeps the dense products.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
    eval_loss,
    mollified_grad,
    mollified_hess,
    sample_size_order,
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
    packed_mean,
    packed_normalize,
    param_jacobian,
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
    init_params: ParamVector | None = None

    def __post_init__(self):
        # Comparisons fail on NaN, so each check reads "is valid", not "is bad".
        for name in ("tol", "m_epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ConfigurationError(f"ridge must be finite and >= 0, got {self.ridge!r}")
        counts = {"max_iter": self.max_iter}
        if self.multistart is not None:
            counts["multistart"] = self.multistart
        for name, value in counts.items():
            # NumPy integers are Integral too; 2.5 and inf are not.
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 < self.damping < 1:
            raise ConfigurationError("damping must lie in (0,1)")


@dataclass
class FitResult:
    """What the optimizer made; :func:`infer` derives the inference from it.

    Of the winning start: ``params``, its final iterate; ``objective``, its
    final L_n minus its starting L_n (<= 0), the final L_n being
    ``descent_trace[-1]``; ``iterations``, its Newton steps that went to a
    line search; ``converged``, whether its final rung converged;
    ``residuals``, ``y`` minus the mean at ``params``; ``start_index``, its
    place among the starts; ``mollifier_m``, the final rung's smoothing
    order; ``descent_trace``, L_n at the start and after each accepted step.
    """

    params: ParamVector
    objective: float
    iterations: int
    converged: bool
    residuals: np.ndarray
    start_index: int
    mollifier_m: float
    descent_trace: list[float]


@dataclass
class Inference:
    """Nuisance estimates at a fit, and the stationary-block covariance.

    ``sigma_hat`` and ``stat_cov`` are None for a model without a
    stationary block; ``stat_cov`` is None too when ``a2_hat**2``
    underflows.
    """

    a1_hat: float
    a2_hat: float
    sigma_hat: np.ndarray | None
    stat_cov: np.ndarray | None


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
    layout = ParamLayout(model)
    flat = layout.pack(params)
    layout.check_widths(data.X, data.Z)
    J = param_jacobian(layout, flat, data.X, data.Z)
    # A contiguous copy: the product then runs the same kernel as on a
    # freshly built design, whatever the column offset.
    J_s = np.ascontiguousarray(J[:, layout.gamma1_slice.stop :])
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
    return _unit_or_default(ndtri(u))


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
    the Monte Carlo harness to anchor fits at the simulation truth); with
    one start, the warm start is then not computed at all.  The
    sphere starts vary the index vectors used by a nonlinear link, or every
    index vector when all links are linear.
    """
    first = None if init is None else layout.pack(init)
    if first is not None and n_starts == 1:
        return [first]
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
    starts = [first if first is not None else _gamma_refit(layout, data, warm.copy())]

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


def _derivatives(loss: LossSpec, E, M, exact):
    """Scores and weights of the rows of a (rows, n) residual block.

    ``M`` is a (rows, 1) column of smoothing orders.  A row flagged in
    ``exact`` takes the exact subgradient as its score.
    """
    if loss.kind is LossKind.SQUARED_ERROR:
        return subgrad(loss, E), np.full(E.shape, 2.0)
    scores = mollified_grad(loss, M, E)
    if exact.any():
        scores = np.where(exact[:, None], subgrad(loss, E), scores)
    return scores, mollified_hess(loss, M, E)


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
    iterations: int
    converged: bool
    trace: list[float]


def _alphas(damping: float) -> np.ndarray:
    """Line-search step lengths 1, d, d^2, ... by repeated multiplication."""
    out = np.empty(_MAX_BACKTRACKS)
    alpha = 1.0
    for k in range(_MAX_BACKTRACKS):
        out[k] = alpha
        alpha *= damping
    return out


def _minimize_one(opts, flat, e, L, m_target):
    """The annealed Newton iteration from one evaluated start, as a generator.

    ``flat`` is the normalized start, ``e`` its residuals and ``L`` its
    objective.  The generator keeps the start's control flow and yields its
    work to :func:`_lockstep`, which sends the results back:
    ``("step", flat, e, m, exact)`` gets from :func:`_newton_steps` the
    Newton step of the order-``m`` smoothed score (of the exact subgradient
    if ``exact``); ``("search", flat, delta, L, size, floor)`` gets the line
    search's result from :func:`_search`.  A failed step or search is not
    sent: :func:`_lockstep` takes it as the start's outcome.  Returns the
    start's :class:`_StartOutcome`, converged if the final rung ended on a
    short step or move or in a stall at the optimum, not on its budget.

    A rung ends when a step or an accepted move is shorter than its
    tolerance, or when a search is refused (a stall).  On an annealing rung
    a search's ``floor`` is that tolerance: a shorter move would end the
    rung anyway, so the search is refused once only shorter moves are left.
    On the final rung ``floor`` is 0 and a search tries all
    ``_MAX_BACKTRACKS`` lengths.
    """
    smooth = opts.loss.kind is not LossKind.SQUARED_ERROR
    trace = [L]
    iters = 0
    accepted_any = False
    rungs = _rung_schedule(e, m_target, smooth)
    size = 1
    for ri, m in enumerate(rungs):
        last = ri == len(rungs) - 1
        rung_tol = opts.tol if last else max(opts.tol, 0.03 / math.sqrt(2.0 * m))
        floor = 0.0 if last else rung_tol
        budget = opts.max_iter - iters
        if not last:
            budget = min(budget, _RUNG_ITER_CAP)
        end = "budget"
        exact = False
        for _ in range(budget):
            delta = yield "step", flat, e, m, exact
            last_delta_sup = float(np.max(np.abs(delta)))
            if last_delta_sup < rung_tol:
                end = "short"
                break
            found = yield "search", flat, delta, L, size, floor
            if found is None and last and smooth and not accepted_any:
                # A residual within a kernel width of a kink can tip the
                # smoothed score uphill and leave the start where it is.  The
                # exact subgradient (the score's m -> infinity limit) is a
                # descent direction wherever L_n is differentiable, so the
                # final rung goes on along it.  After an accepted step, a
                # refused step is a stall and ends the search (see below).
                exact = True
                delta = yield "step", flat, e, m, exact
                found = yield "search", flat, delta, L, size, floor
            iters += 1
            if found is None:
                end = "stall"
                break
            cand, e_c, L_c, trials = found
            # The next search opens with a block that would have held this one.
            size = 1 << (trials - 1).bit_length()
            step = float(np.max(np.abs(cand - flat)))
            flat, e, L = cand, e_c, L_c
            accepted_any = True
            trace.append(L)
            if step < rung_tol:
                end = "short"
                break
    # How the final rung ended.  After a stall, the smoothed direction
    # cannot improve the exact objective any further; for kink losses this
    # is the practical optimum.  A stall on the very first step only counts
    # when the proposed step was already negligible (start at the optimum).
    converged = end == "short" or (
        end == "stall" and (accepted_any or last_delta_sup < math.sqrt(opts.tol)))
    return _StartOutcome(flat, e, iters, converged, trace)


class _Regressors:
    """The y, X and Z of a lockstep group's distinct datasets, stacked once.

    Rows from one dataset get that dataset's own (n,) and (n, d) arrays;
    rows that mix datasets get per-row (rows, n) and (rows, n, d) blocks,
    gathered by index and C-ordered like a dataset's blocks.
    """

    def __init__(self, datas):
        self.datas = datas
        self.n = datas[0].n
        if len(datas) > 1:
            self.stacked = [np.stack([getattr(d, name) for d in datas]) for name in ("y", "X", "Z")]

    def take(self, rows: np.ndarray):
        """``(y, X, Z)`` for rows from the datasets numbered ``rows``."""
        if (rows == rows[0]).all():
            data = self.datas[rows[0]]
            return data.y, data.X, data.Z
        return tuple(A[rows] for A in self.stacked)


def _evaluate(layout, loss, regs, F, rows):
    """Normalize a (rows, P) block in place and evaluate each row on its dataset.

    ``rows`` numbers the dataset of each row in ``regs``.  Returns the
    normalization mask, the (rows, n) residuals and the objectives.
    """
    ok = packed_normalize(layout, F)
    y, X, Z = regs.take(rows)
    E = y - packed_mean(layout, F, X, Z)
    return ok, E, np.sum(eval_loss(loss, E), axis=-1)


@dataclass
class _Search:
    """A pending line search on ``flat + alpha*delta`` below the objective ``L``.

    ``data`` numbers its dataset in the group's :class:`_Regressors`; ``k``
    trials are done and the next block asks for ``size`` rows.  A trial
    moves the iterate by ``alpha * max|delta|``; the search ends, refused,
    before the first trial that would move it by less than ``floor``.
    """

    data: int
    flat: np.ndarray
    delta: np.ndarray
    L: float
    size: int
    floor: float = 0.0
    k: int = 0


def _search(layout, loss, regs, searches, alphas):
    """Advance every pending line search by one block of trials, in one evaluation.

    ``searches`` maps a job to its :class:`_Search`, which tries
    ``alpha = alphas[k], alphas[k+1], ...`` in blocks of ``size``,
    ``2*size``, ... rows and takes the first row that lowers ``L``.  Its
    admissible lengths, those with ``alpha * max|delta| >= floor``, are a
    prefix of ``alphas`` that holds at least ``alphas[k]``.  At
    most ``_BLOCK_ELEMENTS // n`` rows go in, shared out shortest block
    first and at least one row per block, so a long block may be cut to a
    prefix.  Returns, per job whose search ended: ``(row, residuals,
    objective, trials)`` at the first accepted row, ``trials`` counting it;
    None when every admissible trial is refused; or a
    :class:`DegenerateParameterError` when a row that cannot be normalized
    comes first, as in a serial search.  The other searches advance in
    place.
    """
    pending = list(searches.values())
    # np.array stacks a list of equal-shape arrays as np.stack does, at a
    # fraction of the call cost, which every round pays.
    deltas = np.array([s.delta for s in pending])
    moves = alphas * np.max(np.abs(deltas), axis=1)[:, None]
    ends = np.count_nonzero(moves >= np.array([s.floor for s in pending])[:, None], axis=1).tolist()
    cut = [min(s.size, end - s.k) for s, end in zip(pending, ends)]
    budget = _BLOCK_ELEMENTS // regs.n
    if sum(cut) > budget:
        for k, j in enumerate(sorted(range(len(cut)), key=cut.__getitem__)):
            cut[j] = min(cut[j], max(1, budget // (len(cut) - k)))
            budget -= cut[j]
    bounds = np.cumsum([0] + cut)
    owner = np.repeat(np.arange(len(pending)), cut)
    trial = np.arange(bounds[-1]) - np.repeat(bounds[:-1] - [s.k for s in pending], cut)
    flats = np.array([s.flat for s in pending])
    F = flats[owner] + alphas[trial, None] * deltas[owner]
    ok, E, Ls = _evaluate(layout, loss, regs, F, np.array([s.data for s in pending])[owner])
    stop = ~ok | (Ls < np.array([s.L for s in pending])[owner])
    first = np.minimum.reduceat(np.where(stop, np.arange(stop.size), stop.size), bounds[:-1])
    out = {}
    rounds = zip(searches.items(), bounds.tolist(), bounds[1:].tolist(), first.tolist(), cut, ends)
    for (i, s), a, b, r, n_cut, end in rounds:
        if r < b:
            if ok[r]:
                out[i] = F[r], E[r].copy(), float(Ls[r]), s.k + r - a + 1
            else:
                out[i] = DegenerateParameterError("cannot normalize a zero index vector")
            continue
        s.k += n_cut
        s.size *= 2
        if s.k == end:
            out[i] = None
    return out


def _solve_each(H, g, names):
    """``np.linalg.solve`` on a stack of systems; a singular one gets its error."""
    try:
        X = np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        X = np.full(g.shape, np.nan)
    steps = list(X)
    for k in np.flatnonzero(~np.isfinite(X).all(axis=1)):
        # Alone, to tell the singular systems from the others.
        try:
            steps[k] = _solve_spd(H[k], g[k], context="newton step", names=names)
        except RankDeficiencyError as err:
            steps[k] = err
    return steps


def _live_curvature(J, w, live):
    """``J' diag(w) J`` of one (n, P) Jacobian from the rows ``live`` that hold w's nonzeros."""
    J_live = J[live]
    return (J_live * w[live, None]).T @ J_live


def _newton_steps(layout, opts, regs, requests, names, work, held):
    """Newton steps for ``(data, flat, e, m, exact)`` requests.

    The scores and weights of all requests come from one (S, n) residual
    block, the Jacobians from one (S, n, P) block, then stacked products
    and one batched solve; each stacked product rounds as its one-start
    form.  The Jacobian is written into ``work[0]``, through a column
    scratch in ``work[1]`` that the dense weighted copy overwrites; both are
    (>= S, n, P) arrays.  ``held[0]`` keys the Jacobian block in
    ``work[0]`` by its rows' datasets and iterates; a round that asks for
    exactly those rows, in that order, uses the block as it is.

    At n > ``_BLOCK_ELEMENTS`` a round holds one request, so whether it
    gathers depends on that request alone.  When fewer than n/8 of its
    weights are nonzero (a NaN counts), as at the late rungs of a LAD or
    quantile fit, its curvature ``J'WJ`` comes from those rows alone
    (:func:`_live_curvature`): it then sums k products per entry instead
    of n, so it rounds differently from the dense product.  The score
    product ``J'psi`` stays dense, and at n <= ``_BLOCK_ELEMENTS`` so does
    every product.  Per request: the step, or the solver's error.
    """
    rows, flats, es, ms, exact = zip(*requests)
    scores, weights = _derivatives(opts.loss, np.array(es), np.array(ms)[:, None], np.array(exact))
    F = np.array(flats)
    # J depends only on the datasets and the iterates: a step at a new
    # smoothing order, or from an iterate that did not move, finds its
    # block in place.  Iterates compare by their bytes, so a reused block
    # is the one param_jacobian would write.
    key = rows, F.tobytes()
    if key == held[0]:
        J = work[0][: len(requests)]
    else:
        _, X, Z = regs.take(np.array(rows))
        scratch = work[1][: len(requests)].reshape(len(requests), layout.size, -1)
        J = param_jacobian(layout, F, X, Z, out=work[0][: len(requests)], scratch=scratch)
        held[0] = key
    g = np.matmul(J.transpose(0, 2, 1), scores[..., None])[..., 0]
    # ``!= 0`` keeps a NaN weight live, and nonzero on the mask is several
    # times faster than on the floats.
    live = np.flatnonzero(weights[0] != 0) if regs.n > _BLOCK_ELEMENTS else None
    if live is not None and 8 * live.size < regs.n:
        H = _live_curvature(J[0], weights[0], live)[None]
    else:
        JW = np.multiply(J, weights[..., None], out=work[1][: len(requests)])
        H = np.matmul(JW.transpose(0, 2, 1), J)
    # Ridge relative to the problem scale: an absolute 1e-10 is lost in
    # rounding against design blocks of size ~1e6 and leaves the LU
    # factorization exactly singular on low-rank weight states.
    # Referencing H and g (both proportional to the loss) keeps the step
    # exactly invariant under loss rescaling.  The scale is Python's
    # max(diag, max|g|, 1e-30) per row, NaN rule included: a later value
    # wins only where it compares greater.
    scale = np.mean(np.abs(np.diagonal(H, axis1=1, axis2=2)), axis=1)
    gmax = np.max(np.abs(g), axis=1)
    scale = np.where(gmax > scale, gmax, scale)
    scale = np.where(1e-30 > scale, 1e-30, scale)
    H += (opts.ridge * scale)[:, None, None] * np.eye(layout.size)
    return _solve_each(H, g, names)


def _lockstep(layout, opts, jobs):
    """Run :func:`_minimize_one` for every ``(data, start, m_target)`` job.

    The jobs share one n and run in groups of at most ``_BLOCK_ELEMENTS //
    n``, the jobs of a group in lockstep over the group's
    :class:`_Regressors`.  The group's starts are normalized and evaluated
    in one call; a start that cannot be normalized fails its job.  A round
    then serves the group's requests in two batched calls: the Newton steps,
    then one block of every pending line search.  A job gets its reply at
    once, so the search after a step is served in the same round, and a
    search resumes its job only when it ends.  Every job follows its serial
    path bitwise.  Per job, in order: its :class:`_StartOutcome`, or its
    error: a failed normalization, step or search, or an exception it raised.
    """
    names = {col: name for name, col in layout.scalars}
    n = jobs[0][0].n
    group = max(1, _BLOCK_ELEMENTS // n)
    # The Newton steps reuse two Jacobian-sized arrays.  At large n these
    # are the largest arrays of a fit, and a fresh pair per step makes the
    # heap grow and shrink every step, page faults and all.
    work = np.empty((2, min(group, len(jobs)), n, layout.size))
    alphas = _alphas(opts.damping)
    outcomes = [None] * len(jobs)
    for lo in range(0, len(jobs), group):
        members = range(lo, min(lo + group, len(jobs)))
        datas = list({id(jobs[i][0]): jobs[i][0] for i in members}.values())
        number = {id(data): k for k, data in enumerate(datas)}
        src = {i: number[id(jobs[i][0])] for i in members}
        regs = _Regressors(datas)
        F = np.stack([jobs[i][1] for i in members])
        ok, E, Ls = _evaluate(layout, opts.loss, regs, F, np.array([src[i] for i in members]))
        gens = {}
        for r, i in enumerate(members):
            if ok[r]:
                gens[i] = _minimize_one(opts, F[r], E[r].copy(), float(Ls[r]), jobs[i][2])
            else:
                outcomes[i] = DegenerateParameterError("cannot normalize a zero index vector")
        steps, searches = {}, {}
        # The key of the Jacobian block in work[0]; the dataset numbers of
        # a key are this group's, so each group starts without one.
        held = [None]

        def send(answers):
            for i, answer in answers.items():
                steps.pop(i, None)
                searches.pop(i, None)
                if isinstance(answer, Exception):
                    outcomes[i] = answer
                    continue
                try:
                    request = gens[i].send(answer)
                except StopIteration as done:
                    outcomes[i] = done.value
                    continue
                except Exception as err:
                    outcomes[i] = err
                    continue
                if request[0] == "search":
                    searches[i] = _Search(src[i], *request[1:])
                else:
                    steps[i] = (src[i], *request[1:])

        send(dict.fromkeys(gens))
        while steps or searches:
            if steps:
                requests = list(steps.values())
                send(dict(zip(steps, _newton_steps(layout, opts, regs, requests, names, work, held))))
            if searches:
                send(_search(layout, opts.loss, regs, searches, alphas))
    return outcomes


def _result(layout, m, outcomes) -> FitResult:
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
        if best is None or out.trace[-1] < best.trace[-1]:
            best, best_index = out, si
    return FitResult(
        params=layout.unpack(best.flat),
        objective=best.trace[-1] - best.trace[0],
        iterations=best.iterations,
        converged=best.converged,
        residuals=best.residuals,
        start_index=best_index,
        mollifier_m=m,
        descent_trace=best.trace,
    )


def infer(model: ModelSpec, data: Dataset, result: FitResult, loss: LossSpec) -> Inference:
    """``a1``, ``a2`` at the fit's order, ``Sigma-hat`` and the stationary covariance.

    ``result`` is the fit of ``model`` to ``data`` under ``loss``.  The
    curvature average is taken at the fit's final smoothing order; without
    a stationary block, or when ``a2^2`` underflows, the covariance is
    None.
    """
    res = result.residuals
    a1 = estimate_a1(res, loss)
    a2 = estimate_a2(res, loss, result.mollifier_m)
    sigma_hat = None
    stat_cov = None
    if model.p2 > 0:
        sigma_hat = estimate_sigma(model, result.params, data)
        if a2 * a2 > 0:  # a2 >= 0; its square underflows below ~1e-162
            stat_cov = stationary_covariance(a1, a2, sigma_hat, data.n)
    return Inference(a1_hat=a1, a2_hat=a2, sigma_hat=sigma_hat, stat_cov=stat_cov)


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
    out = [None] * len(datasets)
    plans = {}
    by_n = {}
    for k, data in enumerate(datasets):
        try:
            layout.check_widths(data.X, data.Z)
            if data.n < min_rows:
                raise ShapeError(f"need n >= {min_rows} rows for this model, got {data.n}")
            plans[k] = (
                sample_size_order(data.n, opts.m_epsilon),
                _build_starts(layout, data, n_starts, opts.init_params),
            )
        except MollifitError as err:
            out[k] = err
            continue
        by_n.setdefault(data.n, []).append(k)
    for ks in by_n.values():
        jobs = [(datasets[k], start, plans[k][0]) for k in ks for start in plans[k][1]]
        outcomes = iter(_lockstep(layout, opts, jobs))
        for k in ks:
            m, starts = plans[k]
            mine = [next(outcomes) for _ in starts]
            try:
                out[k] = _result(layout, m, mine)
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
