"""Command-line interface: simulate, fit, mc, forecast, loss-probe.

Exit codes: 0 success, 1 fit did not converge, 2 usage/configuration
error, 3 I/O failure.  Every run echoes its fully resolved configuration
into the output metadata so the exact run can be reproduced from the
sidecar alone.  Primary outputs are byte-deterministic given (flags,
config file, seed); progress goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dgp import (
    DgpConfig,
    ErrorLaw,
    TrendKind,
    dataset_from_csv,
    dataset_to_csv,
    example_model,
    gen_example,
    rng_for,
    simulate_generic,
    table_from_csv,
)
from .estimate import FitOptions, fit
from .exceptions import ConfigurationError, MollifitError
from .forecast import ForecastConfig, error_dump_csv, report_csv, run_forecast
from .losses import (
    LossKind,
    LossSpec,
    MollifierOrder,
    eval_loss,
    gap_bound,
    mollified_eval,
    mollified_grad,
    mollified_hess,
)
from .model import (
    LinkKind,
    LinkSpec,
    ModelSpec,
    ParamVector,
    power_link,
    regression_mean,
)
from .montecarlo import McConfig, rate_exponent, run_replications, summarize

BUILD_ID = f"mollifit {__version__}"

_LOSS_ALIASES = {"l1": "huber:1.25", "l2": "lad", "l3": "quantile:0.3"}
_LAW_ALIASES = {"d1": "normal", "d2": "mixednormal", "d3": "t2", "d4": "cauchy"}


def parse_loss(token: str) -> LossSpec:
    token = _LOSS_ALIASES.get(token.lower().strip(), token.lower().strip())
    name, _, param = token.partition(":")
    if name in ("lad", "ae"):
        return LossSpec(LossKind.LAD)
    if name in ("se", "squarederror", "squared_error"):
        return LossSpec(LossKind.SQUARED_ERROR)
    if name in ("huber", "hl"):
        return LossSpec(LossKind.HUBER, float(param) if param else 1.25)
    if name in ("quantile", "ql"):
        if not param:
            raise ConfigurationError("quantile loss needs a level, e.g. quantile:0.3")
        return LossSpec(LossKind.QUANTILE, float(param))
    raise ConfigurationError(f"unknown loss token: {token!r}")


def parse_law(token: str) -> ErrorLaw:
    token = _LAW_ALIASES.get(token.lower().strip(), token.lower().strip())
    for law in ErrorLaw:
        if law.value == token:
            return law
    raise ConfigurationError(f"unknown error law token: {token!r}")


def parse_link(token: str) -> LinkSpec:
    token = token.lower().strip()
    name, _, param = token.partition(":")
    if name == "identity":
        return LinkSpec(LinkKind.IDENTITY)
    if name == "power":
        return power_link(int(param))
    if name in ("gauss_pdf", "gausspdf"):
        return LinkSpec(LinkKind.GAUSS_PDF)
    if name in ("hermite_exp", "hermiteexp"):
        return LinkSpec(LinkKind.HERMITE_EXP)
    if name in ("hermite_exp_linear", "hermiteexplinear"):
        return LinkSpec(LinkKind.HERMITE_EXP_LINEAR)
    raise ConfigurationError(f"unknown link token: {token!r}")


_TOP_KEYS = {"seed", "model", "loss", "dgp", "fit", "mc", "forecast"}
_MODEL_KEYS = {"nonstat_links", "stat_links", "d1", "d2", "share_theta1", "params"}
_PARAM_KEYS = {"theta1", "gamma1", "theta2", "gamma2"}
_DGP_KEYS = {
    "n", "law", "error_scale", "rho1", "sigma1", "rho2", "sigma2",
    "trend", "recenter_tau", "example", "lin_proc_coeffs",
}
_FIT_KEYS = {"m_epsilon", "tol", "max_iter", "multistart", "damping", "ridge"}
_MC_KEYS = {
    "example", "n_list", "reps", "losses", "laws", "scale",
    "rate_params", "start_at_truth", "threads",
}
_FORECAST_KEYS = {"window", "x_cols", "z_cols", "y_col", "quantiles"}


def _check_keys(section: dict, allowed: set, path: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {path}: {', '.join(sorted(unknown))}"
        )


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = json.loads(_read_text(path, "config file"))
    _check_keys(cfg, _TOP_KEYS, "config")
    if "model" in cfg:
        _check_keys(cfg["model"], _MODEL_KEYS, "config.model")
        if "params" in cfg["model"]:
            _check_keys(cfg["model"]["params"], _PARAM_KEYS, "config.model.params")
    if "dgp" in cfg:
        _check_keys(cfg["dgp"], _DGP_KEYS, "config.dgp")
    if "fit" in cfg:
        _check_keys(cfg["fit"], _FIT_KEYS, "config.fit")
    if "mc" in cfg:
        _check_keys(cfg["mc"], _MC_KEYS, "config.mc")
    if "forecast" in cfg:
        _check_keys(cfg["forecast"], _FORECAST_KEYS, "config.forecast")
    return cfg


def model_from_config(section: dict) -> ModelSpec:
    try:
        return ModelSpec(
            nonstat_links=tuple(parse_link(t) for t in section.get("nonstat_links", [])),
            stat_links=tuple(parse_link(t) for t in section.get("stat_links", [])),
            d1=int(section.get("d1", 1)),
            d2=int(section.get("d2", 1)),
            share_theta1=bool(section.get("share_theta1", False)),
        )
    except KeyError as exc:
        raise ConfigurationError(f"model config missing field {exc}") from exc


def params_from_config(section: dict) -> ParamVector:
    return ParamVector(
        [np.asarray(t, dtype=float) for t in section.get("theta1", [])],
        np.asarray(section.get("gamma1", []), dtype=float),
        [np.asarray(t, dtype=float) for t in section.get("theta2", [])],
        np.asarray(section.get("gamma2", []), dtype=float),
    )


def model_to_config(model: ModelSpec) -> dict:
    return {
        "nonstat_links": [l.label() for l in model.nonstat_links],
        "stat_links": [l.label() for l in model.stat_links],
        "d1": model.d1,
        "d2": model.d2,
        "share_theta1": model.share_theta1,
    }


def params_to_config(params: ParamVector) -> dict:
    return {
        "theta1": [t.tolist() for t in params.theta1],
        "gamma1": params.gamma1.tolist(),
        "theta2": [t.tolist() for t in params.theta2],
        "gamma2": params.gamma2.tolist(),
    }


def fit_options_from_config(section: dict, loss: LossSpec) -> FitOptions:
    kwargs = {k: section[k] for k in _FIT_KEYS if k in section}
    if kwargs.get("multistart") is not None:
        kwargs["multistart"] = int(kwargs["multistart"])
    return FitOptions(loss=loss, **kwargs)


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise IOError(f"cannot read {what} {path}: {exc}") from exc


def _write_text(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_sidecar(out: str, seed, resolved_config: dict, **extra) -> dict:
    """Write ``<out>.meta.json`` and return its content.

    The sidecar carries the build id, the seed (omitted by commands that
    draw no random numbers), the resolved configuration and any extras.
    """
    meta = {"version": BUILD_ID, "resolved_config": resolved_config, **extra}
    if seed is not None:
        meta["seed"] = seed
    _write_json(str(Path(out).with_suffix(Path(out).suffix + ".meta.json")), meta)
    return meta


def _sample_kurtosis(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    c = x - x.mean()
    m2 = float(np.mean(c * c))
    if m2 <= 0:
        return 0.0
    return float(np.mean(c**4) / m2**2)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    dgp_cfg = dict(cfg.get("dgp", {}))
    example = args.example or dgp_cfg.get("example")
    n = args.n or dgp_cfg.get("n")
    law = parse_law(args.law or dgp_cfg.get("law", "normal"))
    scale = args.scale if args.scale is not None else dgp_cfg.get("error_scale", 0.5)
    recenter = (
        args.recenter_tau
        if args.recenter_tau is not None
        else dgp_cfg.get("recenter_tau")
    )
    if n is None:
        raise ConfigurationError("simulate needs --n (or dgp.n in the config)")
    n = int(n)
    rng = rng_for(seed, 0)
    lin_proc = dgp_cfg.get("lin_proc_coeffs")
    if example:
        if lin_proc is not None:
            raise ConfigurationError(
                "dgp.lin_proc_coeffs cannot be combined with a packaged example: "
                "the examples fix their regressor processes"
            )
        data, model, truth = gen_example(
            example, n, law, rng, recenter_tau=recenter, error_scale=scale
        )
        resolved_dgp = {
            "example": example, "n": n, "law": law.value,
            "error_scale": scale, "recenter_tau": recenter,
        }
        model_echo = model_to_config(model)
        model_echo["params"] = params_to_config(truth)
    else:
        if "model" not in cfg or "params" not in cfg.get("model", {}):
            raise ConfigurationError(
                "generic simulation needs config sections model (with params) and dgp"
            )
        model = model_from_config(cfg["model"])
        truth = params_from_config(cfg["model"]["params"])
        dcfg = DgpConfig(
            n=n,
            d1=model.d1,
            d2=model.d2,
            rho1=np.asarray(dgp_cfg.get("rho1", np.eye(model.d1).tolist())),
            sigma1=np.asarray(dgp_cfg.get("sigma1", np.eye(model.d1).tolist())),
            rho2=np.asarray(dgp_cfg.get("rho2", (0.5 * np.eye(model.d2)).tolist())),
            sigma2=np.asarray(dgp_cfg.get("sigma2", np.eye(model.d2).tolist())),
            trend=TrendKind(dgp_cfg.get("trend", "none")),
            error_law=law,
            error_scale=scale,
            lin_proc_coeffs=lin_proc,
            quantile_recentering=recenter,
        )
        data = simulate_generic(dcfg, model, truth, rng)
        resolved_dgp = {
            "n": n, "law": law.value, "error_scale": scale,
            "recenter_tau": recenter,
            "rho1": dcfg.rho1.tolist(), "sigma1": dcfg.sigma1.tolist(),
            "rho2": dcfg.rho2.tolist(), "sigma2": dcfg.sigma2.tolist(),
            "trend": dcfg.trend.value,
        }
        if lin_proc is not None:
            resolved_dgp["lin_proc_coeffs"] = [a.tolist() for a in dcfg.lin_proc_coeffs]
        model_echo = model_to_config(model)
        model_echo["params"] = params_to_config(truth)
    _write_text(args.out, dataset_to_csv(data))
    # Residuals at the truth are exactly the generated errors.
    errors = data.y - regression_mean(model, truth, data.X, data.Z)
    kurt = _sample_kurtosis(errors)
    _write_sidecar(
        args.out, seed, {"seed": seed, "model": model_echo, "dgp": resolved_dgp},
        error_kurtosis=kurt, heavy_tail_flag=bool(kurt > 9.0), rows=data.n,
    )
    return 0


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    loss = parse_loss(args.loss or cfg.get("loss", "lad"))
    if args.example_model:
        model, _ = example_model(args.example_model)
    elif "model" in cfg:
        model = model_from_config(cfg["model"])
    else:
        raise ConfigurationError("fit needs --example-model or a model config section")
    data = dataset_from_csv(_read_text(args.data, "dataset"))
    opts = fit_options_from_config(cfg.get("fit", {}), loss)
    res = fit(model, data, opts)
    resolved = {
        "seed": seed,
        "loss": loss.label(),
        "model": model_to_config(model),
        "fit": cfg.get("fit", {}),
    }
    meta = _write_sidecar(
        args.out, seed, resolved,
        start_index=res.start_index, mollifier_m=res.mollifier_m,
    )
    doc = {
        "params": params_to_config(res.params),
        "a1_hat": res.a1_hat,
        "a2_hat": res.a2_hat,
        "sigma_hat": None if res.sigma_hat is None else res.sigma_hat.tolist(),
        "stat_cov": None if res.stat_cov is None else res.stat_cov.tolist(),
        "objective": res.objective,
        "iterations": res.iterations,
        "converged": res.converged,
        "meta": meta,
    }
    _write_json(args.out, doc)
    return 0 if res.converged else 1


def cmd_mc(args) -> int:
    cfg = load_config(args.config)
    mc_cfg = dict(cfg.get("mc", {}))
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    example = args.example or mc_cfg.get("example")
    if not example:
        raise ConfigurationError("mc needs --example (or mc.example in the config)")
    n_list = (
        [int(v) for v in args.n.split(",")]
        if args.n
        else [int(v) for v in mc_cfg.get("n_list", [])]
    )
    reps = args.reps if args.reps is not None else mc_cfg.get("reps", 500)
    losses = [
        parse_loss(t)
        for t in (args.losses.split(",") if args.losses else mc_cfg.get("losses", ["l1"]))
    ]
    laws = [
        parse_law(t)
        for t in (args.laws.split(",") if args.laws else mc_cfg.get("laws", ["d1"]))
    ]
    scale = args.table_scale if args.table_scale is not None else mc_cfg.get("scale", 1.0)
    start_at_truth = mc_cfg.get("start_at_truth", True)
    if args.global_starts:
        start_at_truth = False
    threads = args.threads if args.threads is not None else mc_cfg.get("threads", 1)
    fit_opts = fit_options_from_config(cfg.get("fit", {}), losses[0])
    config = McConfig(
        example=example,
        n_list=n_list,
        reps=int(reps),
        losses=losses,
        laws=laws,
        base_seed=seed,
        fit_options=fit_opts,
        start_at_truth=start_at_truth,
        threads=int(threads),
    )
    print(
        f"mc: {example} n={n_list} reps={reps} losses={[l.label() for l in losses]} "
        f"laws={[l.value for l in laws]} threads={threads}",
        file=sys.stderr,
    )
    table = run_replications(config)
    text = summarize(table, "csv", scale=scale)
    rate_params = (
        args.rate.split(",") if args.rate else mc_cfg.get("rate_params", [])
    )
    if rate_params:
        extra = []
        for pname in rate_params:
            for loss in table.loss_labels:
                for law in table.law_tokens:
                    for n_a, n_b in zip(n_list[:-1], n_list[1:]):
                        r = rate_exponent(table, pname.strip(), loss, law, (n_a, n_b))
                        extra.append(
                            f"rate:{pname.strip()},{loss},{law},{n_a}->{n_b},,,{r:.17g},,"
                        )
        text = text + "\n".join(extra) + "\n"
    _write_text(args.out, text)
    if args.markdown:
        _write_text(args.markdown, summarize(table, "markdown", scale=scale))
    resolved = {
        "seed": seed,
        "mc": {
            "example": example, "n_list": n_list, "reps": int(reps),
            "losses": [l.label() for l in losses],
            "laws": [l.value for l in laws],
            "scale": scale, "rate_params": rate_params,
            "start_at_truth": start_at_truth, "threads": int(threads),
        },
        "fit": cfg.get("fit", {}),
    }
    _write_sidecar(args.out, seed, resolved)
    return 0


def cmd_forecast(args) -> int:
    cfg = load_config(args.config)
    fc_cfg = dict(cfg.get("forecast", {}))
    loss = parse_loss(args.loss or cfg.get("loss", "se"))
    window = args.window if args.window is not None else fc_cfg.get("window")
    if window is None:
        raise ConfigurationError("forecast needs --window")
    x_cols = args.x_cols.split(",") if args.x_cols else fc_cfg.get("x_cols", [])
    z_cols = args.z_cols.split(",") if args.z_cols else fc_cfg.get("z_cols", [])
    y_col = args.y_col or fc_cfg.get("y_col", "y")
    x_cols = [c for c in x_cols if c]
    z_cols = [c for c in z_cols if c]
    if "model" in cfg:
        model = model_from_config(cfg["model"])
    else:
        nonstat = (LinkSpec(LinkKind.IDENTITY),) if x_cols else ()
        stat = (LinkSpec(LinkKind.IDENTITY),) if z_cols else ()
        if not nonstat and not stat:
            raise ConfigurationError("forecast needs at least one of --x-cols/--z-cols")
        model = ModelSpec(
            nonstat_links=nonstat,
            stat_links=stat,
            d1=max(1, len(x_cols)),
            d2=max(1, len(z_cols)),
        )
    quantiles = (
        [float(q) for q in args.quantiles.split(",")]
        if args.quantiles
        else fc_cfg.get("quantiles")
    )
    table, dates = table_from_csv(_read_text(args.data, "table"))
    config = ForecastConfig(
        window=int(window),
        loss=loss,
        model=model,
        x_cols=x_cols,
        z_cols=z_cols,
        y_col=y_col,
        fit_options=fit_options_from_config(cfg.get("fit", {}), loss),
        quantile_levels=quantiles,
    )
    reports = run_forecast(table, config, threads=args.threads or 1)
    _write_text(args.out, report_csv(reports))
    if args.dump:
        offset = int(window)
        dump_dates = dates[offset:] if dates else None
        _write_text(args.dump, error_dump_csv(reports[0], dump_dates))
    resolved = {
        "loss": loss.label(),
        "model": model_to_config(model),
        "forecast": {
            "window": int(window), "x_cols": x_cols, "z_cols": z_cols,
            "y_col": y_col, "quantiles": quantiles,
        },
    }
    _write_sidecar(args.out, None, resolved)
    return 0


def cmd_loss_probe(args) -> int:
    loss = parse_loss(args.loss)
    if loss.kind is LossKind.SQUARED_ERROR:
        raise ConfigurationError(
            "loss-probe reports smoothing gaps, which are undefined for squared error"
        )
    try:
        lo, hi, step = (float(v) for v in args.grid.split(":"))
    except ValueError as exc:
        raise ConfigurationError("grid must be lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise ConfigurationError("grid must satisfy lo <= hi and step > 0")
    m_list = [float(v) for v in args.m.split(",")]
    grid = np.arange(lo, hi + 0.5 * step, step)
    lines = ["u,rho,rho_m,rho_m_prime,rho_m_second,gap,gap_bound"]
    for m in m_list:
        order = MollifierOrder(m)
        bound = gap_bound(loss, order)
        rho = eval_loss(loss, grid)
        rho_m = mollified_eval(loss, order, grid)
        rho_p = mollified_grad(loss, order, grid)
        rho_pp = mollified_hess(loss, order, grid)
        for i, u in enumerate(grid):
            gap = abs(rho_m[i] - rho[i])
            lines.append(
                f"{u:.17g},{rho[i]:.17g},{rho_m[i]:.17g},{rho_p[i]:.17g},"
                f"{rho_pp[i]:.17g},{gap:.17g},{bound:.17g}"
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    resolved = {"loss": loss.label(), "m": m_list, "grid": args.grid}
    _write_sidecar(args.out, None, resolved)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mollifit",
        description="Robust M-estimation toolkit for additive single-index models",
    )
    p.add_argument("--version", action="version", version=BUILD_ID)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a dataset CSV plus metadata sidecar")
    ps.add_argument("--example", choices=["ex51", "ex52"])
    ps.add_argument("--n", type=int)
    ps.add_argument("--law")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--scale", type=float)
    ps.add_argument("--recenter-tau", type=float, dest="recenter_tau")
    ps.add_argument("--config")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fit", help="fit a model to a dataset CSV")
    pf.add_argument("--data", required=True)
    pf.add_argument("--loss")
    pf.add_argument("--example-model", choices=["ex51", "ex52"], dest="example_model")
    pf.add_argument("--config")
    pf.add_argument("--seed", type=int)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_fit)

    pm = sub.add_parser("mc", help="Monte Carlo bias/sd/MSE table")
    pm.add_argument("--example", choices=["ex51", "ex52"])
    pm.add_argument("--n")
    pm.add_argument("--reps", type=int)
    pm.add_argument("--losses")
    pm.add_argument("--laws")
    pm.add_argument("--seed", type=int)
    pm.add_argument("--rate")
    pm.add_argument("--scale", type=float, dest="table_scale")
    pm.add_argument("--threads", type=int)
    pm.add_argument("--global-starts", action="store_true", dest="global_starts",
                    help="use the estimator's own multistart instead of truth-anchored fits")
    pm.add_argument("--markdown")
    pm.add_argument("--config")
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_mc)

    pc = sub.add_parser("forecast", help="rolling out-of-sample forecast report")
    pc.add_argument("--data", required=True)
    pc.add_argument("--window", type=int)
    pc.add_argument("--loss")
    pc.add_argument("--x-cols", dest="x_cols")
    pc.add_argument("--z-cols", dest="z_cols")
    pc.add_argument("--y-col", dest="y_col")
    pc.add_argument("--quantiles")
    pc.add_argument("--threads", type=int)
    pc.add_argument("--config")
    pc.add_argument("--dump", help="per-window error CSV of the first quantile level "
                    "(of the loss itself without --quantiles)")
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_forecast)

    pl = sub.add_parser("loss-probe", help="tabulate a loss and its smoothed versions")
    pl.add_argument("--loss", required=True)
    pl.add_argument("--m", required=True, help="comma-separated smoothing orders")
    pl.add_argument("--grid", required=True, help="lo:hi:step")
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_loss_probe)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MollifitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
