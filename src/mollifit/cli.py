"""Command-line interface: simulate, fit, mc, forecast, loss-probe.

Exit codes: 0 success, 1 fit did not converge, 2 usage/configuration
error, 3 I/O failure.  Every option a command takes from a flag or a
config key is one row of ``OPTIONS``; ``resolve`` settles each row and
every run echoes the resolved options into the output metadata, so the
exact run can be reproduced from the sidecar alone.  Primary outputs are
byte-deterministic given (flags, config file, seed); progress goes to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

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
    LAD,
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
    ParamLayout,
    ParamVector,
    power_link,
    regression_mean,
)
from .montecarlo import McConfig, rate_exponent, run_replications, summarize

BUILD_ID = f"mollifit {__version__}"

_EXAMPLES = ("ex51", "ex52")
_LOSS_ALIASES = {"l1": "huber:1.25", "l2": "lad", "l3": "quantile:0.3"}
_LAW_ALIASES = {"d1": "normal", "d2": "mixednormal", "d3": "t2", "d4": "cauchy"}


def parse_loss(token: str) -> LossSpec:
    token = _str(token).lower().strip()
    token = _LOSS_ALIASES.get(token, token)
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
    token = _str(token).lower().strip()
    token = _LAW_ALIASES.get(token, token)
    for law in ErrorLaw:
        if law.value == token:
            return law
    raise ConfigurationError(f"unknown error law token: {token!r}")


def parse_link(token: str) -> LinkSpec:
    token = _str(token).lower().strip()
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


def _typed(kind: type, *also: type) -> Callable:
    """Item parser that takes a JSON value of type ``kind`` (or ``also``) as ``kind``."""

    def parse(value):
        if type(value) not in (kind, *also):
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)

    return parse


def _items(parse: Callable, value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return [parse(v) for v in value]


# A JSON number may be an int where a float is expected, but a bool is
# neither; a matrix is a list of rows of numbers.
_int, _float, _str, _bool = _typed(int), _typed(float, int), _typed(str), _typed(bool)
_matrix = partial(_items, partial(_items, _float))


def _workers(value) -> int:
    """A worker count: a JSON integer of at least 1."""
    value = _int(value)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _example(value) -> str:
    if value not in _EXAMPLES:
        raise ValueError(f"expected one of {', '.join(_EXAMPLES)}, got {value!r}")
    return value


def _checked(parse: Callable, value, where: str):
    """``parse(value)``, with a parse failure reported against ``where``."""
    try:
        return parse(value)
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


class Option(NamedTuple):
    """One config key, the commands that read it and the flag that overrides it."""

    path: str  # "key" or "section.key" in the config file
    commands: tuple[str, ...]
    flag: str | None
    parse: Callable  # item parser
    default: object = None  # a JSON value, parsed like a config value
    is_list: bool = False  # a JSON list, or a comma-separated flag
    required: bool = False
    help: str | None = None


# How argparse reads one item of a flag: an int or float option's flag
# text is typed, any other option's is a string.
_FLAG_TYPES = {_int: int, _workers: int, _float: float}

# dgp keys that only a generic simulation reads: a packaged example fixes
# its regressor processes.
_GENERIC_DGP_KEYS = ("rho1", "sigma1", "rho2", "sigma2", "trend", "lin_proc_coeffs")

OPTIONS = (
    Option("seed", ("simulate", "fit", "mc"), "--seed", _int, 0),
    Option("loss", ("fit",), "--loss", parse_loss, "lad"),
    Option("loss", ("forecast",), "--loss", parse_loss, "se"),
    Option("dgp.example", ("simulate",), "--example", _example),
    Option("dgp.n", ("simulate",), "--n", _int, required=True),
    Option("dgp.law", ("simulate",), "--law", parse_law, "normal"),
    Option("dgp.error_scale", ("simulate",), "--scale", _float, 0.5),
    Option("dgp.recenter_tau", ("simulate",), "--recenter-tau", _float),
    *(Option(f"dgp.{key}", ("simulate",), None, _matrix)
      for key in ("rho1", "sigma1", "rho2", "sigma2")),
    Option("dgp.trend", ("simulate",), None, lambda v: TrendKind(_str(v))),
    Option("dgp.lin_proc_coeffs", ("simulate",), None, _matrix, is_list=True),
    *(Option(f"fit.{name}", ("fit", "mc", "forecast"), None, parse, getattr(FitOptions, name))
      for name, parse in (("m_epsilon", _float), ("tol", _float), ("max_iter", _int),
                          ("multistart", _int), ("damping", _float), ("ridge", _float))),
    Option("mc.example", ("mc",), "--example", _example, required=True),
    Option("mc.n_list", ("mc",), "--n", _int, [], is_list=True),
    Option("mc.reps", ("mc",), "--reps", _int, 500),
    Option("mc.losses", ("mc",), "--losses", parse_loss, ["l1"], is_list=True),
    Option("mc.laws", ("mc",), "--laws", parse_law, ["d1"], is_list=True),
    Option("mc.scale", ("mc",), "--scale", _float, 1.0),
    Option("mc.rate_params", ("mc",), "--rate", _str, [], is_list=True),
    Option("mc.start_at_truth", ("mc",), "--global-starts", _bool, True,
           help="use the estimator's own multistart instead of truth-anchored fits"),
    Option("mc.threads", ("mc",), "--threads", _workers, 1),
    Option("forecast.window", ("forecast",), "--window", _int, required=True),
    Option("forecast.x_cols", ("forecast",), "--x-cols", _str, [], is_list=True),
    Option("forecast.z_cols", ("forecast",), "--z-cols", _str, [], is_list=True),
    Option("forecast.y_col", ("forecast",), "--y-col", _str, "y"),
    Option("forecast.quantiles", ("forecast",), "--quantiles", _float, is_list=True),
)


def resolve(args: argparse.Namespace, cfg: dict) -> dict:
    """The options of ``args.command``, nested like the config file.

    Each option takes its flag, else its config key, else its default; a
    null config value counts as absent, and a required option has no default.
    """
    resolved = {}
    for opt in OPTIONS:
        if args.command not in opt.commands:
            continue
        section, _, key = opt.path.rpartition(".")
        value, where = getattr(args, opt.path, None), opt.flag
        if value is None:
            value = (cfg.get(section, {}) if section else cfg).get(key)
            where = f"config key {opt.path}"
        if value is None and opt.required:
            raise ConfigurationError(
                f"{args.command} needs {opt.flag} (or {opt.path} in the config)")
        if value is None:
            value = opt.default
        if value is not None:
            value = _checked(lambda v: _items(opt.parse, v) if opt.is_list else opt.parse(v),
                             value, where)
        (resolved.setdefault(section, {}) if section else resolved)[key] = value
    return resolved


def _check_keys(section, allowed: dict, path: str):
    if not isinstance(section, dict):
        raise ConfigurationError(f"{path} must be a JSON object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {path}: {', '.join(sorted(unknown))}")
    for key, sub in allowed.items():
        if sub is not None and key in section:
            _check_keys(section[key], sub, f"{path}.{key}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    # Nested allowed keys, a leaf key mapping to None: the option table's
    # and the model section's, which is read whole by model_from_config.
    allowed = {"model": {**dict.fromkeys(f.name for f in fields(ModelSpec)),
                         "params": dict.fromkeys(f.name for f in fields(ParamVector))}}
    for opt in OPTIONS:
        section, _, key = opt.path.rpartition(".")
        (allowed.setdefault(section, {}) if section else allowed)[key] = None
    cfg = json.loads(_read_text(path, "config file"))
    _check_keys(cfg, allowed, "config")
    return cfg


def model_from_config(section: dict) -> ModelSpec:
    def read(key, parse, default):
        return _checked(parse, section.get(key, default), f"config key model.{key}")

    links = partial(_items, parse_link)
    return ModelSpec(
        nonstat_links=read("nonstat_links", links, []),
        stat_links=read("stat_links", links, []),
        d1=read("d1", _int, 1),
        d2=read("d2", _int, 1),
        share_theta1=read("share_theta1", _bool, False),
    )


def params_from_config(section: dict) -> ParamVector:
    return ParamVector(**section)


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


def _json_value(obj):
    """JSON form of a parsed option: a loss by its label, an enum by its value."""
    return obj.label() if isinstance(obj, LossSpec) else obj.value


def _write_json(path: str, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_value) + "\n")


def _write_sidecar(out: str, resolved_config: dict, **extra) -> dict:
    """Write ``<out>.meta.json`` and return its content.

    The sidecar carries the build id, the resolved configuration, its seed
    (absent for commands that draw no random numbers) and any extras.
    """
    meta = {"version": BUILD_ID, "resolved_config": resolved_config, **extra}
    if "seed" in resolved_config:
        meta["seed"] = resolved_config["seed"]
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
    opts = resolve(args, cfg)
    dgp = opts["dgp"]
    rng = rng_for(opts["seed"], 0)
    if dgp["example"] is not None:
        given = [key for key in _GENERIC_DGP_KEYS if dgp.pop(key) is not None]
        if given:
            raise ConfigurationError(
                f"dgp.{', dgp.'.join(given)} cannot be combined with a packaged "
                "example: the examples fix their regressor processes"
            )
        data, model, truth = gen_example(
            dgp["example"], dgp["n"], dgp["law"], rng,
            recenter_tau=dgp["recenter_tau"], error_scale=dgp["error_scale"],
        )
    else:
        if "params" not in cfg.get("model", {}):
            raise ConfigurationError(
                "generic simulation needs config sections model (with params) and dgp"
            )
        model = model_from_config(cfg["model"])
        truth = params_from_config(cfg["model"]["params"])
        del dgp["example"]
        eye1, eye2 = np.eye(model.d1).tolist(), np.eye(model.d2).tolist()
        half2 = (0.5 * np.eye(model.d2)).tolist()
        for key, default in (("rho1", eye1), ("sigma1", eye1), ("rho2", half2),
                             ("sigma2", eye2), ("trend", TrendKind.NONE)):
            if dgp[key] is None:
                dgp[key] = default
        # The generic-only keys are named after their DgpConfig fields.
        dcfg = DgpConfig(
            n=dgp["n"], d1=model.d1, d2=model.d2, error_law=dgp["law"],
            error_scale=dgp["error_scale"], quantile_recentering=dgp["recenter_tau"],
            **{key: dgp[key] for key in _GENERIC_DGP_KEYS},
        )
        if dgp["lin_proc_coeffs"] is None:
            del dgp["lin_proc_coeffs"]
        data = simulate_generic(dcfg, model, truth, rng)
    _write_text(args.out, dataset_to_csv(data))
    # Residuals at the truth are exactly the generated errors.
    errors = data.y - regression_mean(model, truth, data.X, data.Z)
    kurt = _sample_kurtosis(errors)
    model_echo = {**model_to_config(model), "params": params_to_config(truth)}
    _write_sidecar(
        args.out, {**opts, "model": model_echo},
        error_kurtosis=kurt, heavy_tail_flag=bool(kurt > 9.0), rows=data.n,
    )
    return 0


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    opts = resolve(args, cfg)
    if args.example_model:
        model, _ = example_model(args.example_model)
    elif "model" in cfg:
        model = model_from_config(cfg["model"])
    else:
        raise ConfigurationError("fit needs --example-model or a model config section")
    data = dataset_from_csv(_read_text(args.data, "dataset"))
    res = fit(model, data, FitOptions(loss=opts["loss"], **opts["fit"]))
    meta = _write_sidecar(
        args.out, {**opts, "model": model_to_config(model)},
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
    opts = resolve(args, load_config(args.config))
    mc = opts["mc"]
    config = McConfig(
        base_seed=opts["seed"],
        # The replications replace this loss with their cell's.
        fit_options=FitOptions(loss=LAD, **opts["fit"]),
        # Every mc key but the two that shape the table is a McConfig field.
        **{key: value for key, value in mc.items() if key not in ("scale", "rate_params")},
    )
    names = ParamLayout(example_model(config.example)[0]).param_names()
    unknown = [p for p in mc["rate_params"] if p.strip() not in names]
    if unknown:
        raise ConfigurationError(
            f"mc.rate_params: {', '.join(unknown)} not a parameter of {config.example} "
            f"(one of {', '.join(names)})"
        )
    print(f"mc: {json.dumps(mc, default=_json_value)}", file=sys.stderr)
    table = run_replications(config)
    text = summarize(table, "csv", scale=mc["scale"])
    if mc["rate_params"]:
        extra = []
        for pname in mc["rate_params"]:
            for loss in table.loss_labels:
                for law in table.law_tokens:
                    for n_a, n_b in zip(mc["n_list"][:-1], mc["n_list"][1:]):
                        r = rate_exponent(table, pname.strip(), loss, law, (n_a, n_b))
                        extra.append(
                            f"rate:{pname.strip()},{loss},{law},{n_a}->{n_b},,,{r:.17g},,"
                        )
        text = text + "\n".join(extra) + "\n"
    _write_text(args.out, text)
    if args.markdown:
        _write_text(args.markdown, summarize(table, "markdown", scale=mc["scale"]))
    _write_sidecar(args.out, opts)
    return 0


def cmd_forecast(args) -> int:
    cfg = load_config(args.config)
    opts = resolve(args, cfg)
    fc = opts["forecast"]
    if "model" in cfg:
        model = model_from_config(cfg["model"])
    else:
        nonstat = (LinkSpec(LinkKind.IDENTITY),) if fc["x_cols"] else ()
        stat = (LinkSpec(LinkKind.IDENTITY),) if fc["z_cols"] else ()
        if not nonstat and not stat:
            raise ConfigurationError("forecast needs at least one of --x-cols/--z-cols")
        model = ModelSpec(nonstat_links=nonstat, stat_links=stat,
                          d1=max(1, len(fc["x_cols"])), d2=max(1, len(fc["z_cols"])))
    table, dates = table_from_csv(_read_text(args.data, "table"))
    config = ForecastConfig(
        window=fc["window"],
        loss=opts["loss"],
        model=model,
        x_cols=fc["x_cols"],
        z_cols=fc["z_cols"],
        y_col=fc["y_col"],
        fit_options=FitOptions(loss=opts["loss"], **opts["fit"]),
        quantile_levels=fc["quantiles"],
    )
    threads = 1 if args.threads is None else _checked(_workers, args.threads, "--threads")
    reports = run_forecast(table, config, threads=threads)
    _write_text(args.out, report_csv(reports))
    if args.dump:
        dump_dates = dates[fc["window"]:] if dates else None
        _write_text(args.dump, error_dump_csv(reports[0], dump_dates))
    _write_sidecar(args.out, {**opts, "model": model_to_config(model)})
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
    _write_sidecar(args.out, {"loss": loss.label(), "m": m_list, "grid": args.grid})
    return 0


def _comma_list(token: Callable) -> Callable:
    def comma_list(text: str) -> list:
        return [token(t) for t in text.split(",") if t]

    return comma_list


def _add_options(parser: argparse.ArgumentParser, command: str):
    """Add the flag of every option of ``command``, stored under its config path."""
    for opt in OPTIONS:
        if command not in opt.commands or opt.flag is None:
            continue
        if opt.parse is _bool:  # the flag sets the opposite of the default
            kwargs = {"action": "store_const", "const": not opt.default}
        else:
            token = _FLAG_TYPES.get(opt.parse, str)
            kwargs = {"type": _comma_list(token) if opt.is_list else token}
        parser.add_argument(opt.flag, dest=opt.path, help=opt.help, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mollifit",
        description="Robust M-estimation toolkit for additive single-index models",
    )
    p.add_argument("--version", action="version", version=BUILD_ID)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a dataset CSV plus metadata sidecar")
    _add_options(ps, "simulate")
    ps.add_argument("--config")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fit", help="fit a model to a dataset CSV")
    pf.add_argument("--data", required=True)
    pf.add_argument("--example-model", choices=_EXAMPLES, dest="example_model")
    _add_options(pf, "fit")
    pf.add_argument("--config")
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_fit)

    pm = sub.add_parser("mc", help="Monte Carlo bias/sd/MSE table")
    _add_options(pm, "mc")
    pm.add_argument("--markdown")
    pm.add_argument("--config")
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_mc)

    pc = sub.add_parser("forecast", help="rolling out-of-sample forecast report")
    pc.add_argument("--data", required=True)
    _add_options(pc, "forecast")
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
