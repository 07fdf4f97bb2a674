"""Command-line orchestration of the verification families.

One binary, one subcommand per verification family:

    verify-bellman   sampled size / concavity / monotonicity suite
    aux-bounds       auxiliary-function certificates on an (r, s) grid
    a2               Poisson flow characteristic of a weight
    riesz-norm       weighted operator norm of the Riesz shift
    embedding        bilinear space-time estimate for one (f, g, weight)
    repr-check       Riesz representation identity
    sweep            weight-family sweep (CSV rows, or the JSON report)

Configuration precedence: built-in defaults, then an optional JSON config
file (--config), then explicit flags.  Unknown config keys are rejected.
Reports embed the fully resolved configuration; identical configurations
(same seed) reproduce identical reports except for the timestamp.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error (nothing is written in that case).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import __version__
from .bellman import DomainError, QContext
from .estimates import (
    EstimateError,
    bilinear_lhs,
    representation_check,
    rows_to_csv,
    sweep_problems,
    sweep_report,
    weighted_riesz_norm,
)
from .gauss import (
    FLOW_GRID_DEFAULTS,
    HermiteFunction,
    ModelError,
    OneForm,
    QuadratureError,
    WeightSpec,
    flow_grid,
    q2_characteristic,
)
from .report import CheckResult, Measurement, VerificationReport
from .verify import SuiteConfig, run_aux_grid, run_suite

EMBED_TOL = 1e-6
REPR_TOL = 1e-6
RIESZ_NORM_TOL = 1e-6


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _numbers(text: str, kind=float) -> list:
    """A nonempty comma list of numbers of type kind."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}") from exc
    if not values:
        raise UsageError(f"empty number list {text!r}")
    return values


def _hermite_sum(text: str) -> HermiteFunction:
    """Parse h<k>[+h<k>]* into a coefficient vector."""
    idx = []
    for part in text.split("+"):
        part = part.strip()
        if not part.startswith("h") or not part[1:].isdigit():
            raise UsageError(f"cannot parse Hermite sum {text!r}; use e.g. h1+h3")
        idx.append(int(part[1:]))
    size = max(idx) + 1
    coeffs = [0.0] * size
    for i in idx:
        coeffs[i] += 1.0
    return HermiteFunction(tuple(coeffs))


# SuiteConfig fields whose verify-bellman flag has another name
_SUITE_FLAGS = {"q_list": "q", "samples_per_q": "samples",
                "directions_per_point": "directions"}
_SUITE_DEFAULTS = {_SUITE_FLAGS.get(k, k): v for k, v in SuiteConfig().as_dict().items()}
_SUITE_DEFAULTS["q"] = ",".join(f"{q:g}" for q in _SUITE_DEFAULTS["q"])


def _suite_config(cfg: dict) -> SuiteConfig:
    """The SuiteConfig of a resolved verify-bellman configuration."""
    fields = {k: cfg[_SUITE_FLAGS.get(k, k)] for k in SuiteConfig().as_dict() if k != "q_list"}
    return SuiteConfig(q_list=tuple(_numbers(cfg["q"])), **fields)


DEFAULTS = {
    "verify-bellman": _SUITE_DEFAULTS,
    "aux-bounds": {"q": _SUITE_DEFAULTS["q"], "grid_n": 200,
                   "fd_step": _SUITE_DEFAULTS["fd_step"]},
    "a2": {"weight": "exp:a=1", **FLOW_GRID_DEFAULTS},
    "riesz-norm": {"weight": "const:c=1", "n": 32},
    "embedding": {"f": "h1", "g": "h0", "weight": "const:c=1"},
    "repr-check": {"n": "1,2,4,9"},
    "sweep": {"family": "exp", "params": "0,0.5,1,1.5,2", "n": 32},
}


_HELP = {
    "verify-bellman": "sampled Bellman property suite",
    "aux-bounds": "auxiliary-function certificates",
    "a2": "Poisson flow characteristic",
    "riesz-norm": "weighted Riesz operator norm",
    "embedding": "bilinear space-time estimate",
    "repr-check": "representation identity",
    "sweep": "weight-family sweep (CSV rows or the JSON report)",
}


def build_parser() -> argparse.ArgumentParser:
    """One --<key> flag per DEFAULTS key, typed like its default."""
    parser = argparse.ArgumentParser(
        prog="gaussbell",
        description="Bellman-function and Gauss-space weighted-estimate "
                    "verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for cmd, defaults in DEFAULTS.items():
        p = sub.add_parser(cmd, help=_HELP[cmd])
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))
        p.add_argument("--config", help="JSON config file (defaults < file < flags)")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"))
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, unknown keys rejected.

    A config-file value must have its default's type (argparse types the
    flags); an int is accepted for a float setting and converted.
    """
    cmd = args.subcommand
    merged = dict(DEFAULTS[cmd])
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)} "
                             f"for {cmd}")
        for key, val in file_cfg.items():
            want = type(merged[key])
            if want is float and type(val) is int and abs(val) <= sys.float_info.max:
                val = float(val)
            if type(val) is not want:
                raise UsageError(f"config key {key!r} must be {want.__name__}, got {val!r}")
            merged[key] = val
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    merged["subcommand"] = cmd
    merged["out"] = args.out
    merged["format"] = args.format or ("csv" if cmd == "sweep" else "json")
    if merged["format"] == "csv" and cmd != "sweep":
        raise UsageError("csv output is only defined for the sweep subcommand")
    return merged


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gaussbell-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report(cfg: dict, checks, measurements) -> VerificationReport:
    echo = {k: v for k, v in cfg.items() if k not in ("out",)}
    return VerificationReport(tool_version=__version__, config_echo=echo,
                              checks=checks, measurements=measurements)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_bellman(cfg: dict) -> VerificationReport:
    report = run_suite(_suite_config(cfg))
    return _report(cfg, report.checks, report.measurements)


def _cmd_aux_bounds(cfg: dict) -> VerificationReport:
    checks = []
    for q in _numbers(cfg["q"]):
        checks.extend(run_aux_grid(QContext(q), cfg["grid_n"], cfg["fd_step"], f"Q={q:g}"))
    return _report(cfg, checks, [])


def _cmd_a2(cfg: dict) -> VerificationReport:
    w = WeightSpec.parse(cfg["weight"])
    if not (math.isfinite(cfg["x_max"]) and cfg["t_nodes"] >= 1
            and all(0 < cfg[k] < math.inf for k in ("x_step", "t_min", "t_max"))):
        raise UsageError("a2 needs a finite x_max, finite x_step, t_min and t_max > 0, "
                         "and t_nodes >= 1")
    res = q2_characteristic(w, flow_grid(**{k: cfg[k] for k in FLOW_GRID_DEFAULTS}))
    argt = "inf" if math.isinf(res.argmax_t) else res.argmax_t
    checks = [CheckResult(
        name="flow_product_ge_1", count=res.node_count,
        failures=res.below_one_count,
        worst_margin=res.min_product - 1.0,
    )]
    measurements = [
        Measurement("q2_lower", res.value,
                    {"x": res.argmax_x, "t": argt}),
        Measurement("q2_t_limit", res.limit),
    ]
    return _report(cfg, checks, measurements)


def _cmd_riesz_norm(cfg: dict) -> VerificationReport:
    w = WeightSpec.parse(cfg["weight"])
    res = weighted_riesz_norm(w, cfg["n"])
    slack = 80.0 * res.q2 + RIESZ_NORM_TOL - res.weighted_norm
    checks = [CheckResult(name="riesz_norm_bound", count=1,
                          failures=int(slack < 0), worst_margin=slack)]
    measurements = [Measurement("weighted_norm", res.weighted_norm),
                    Measurement("q2_lower", res.q2),
                    Measurement("bound_ratio", res.bound_ratio)]
    return _report(cfg, checks, measurements)


def _cmd_embedding(cfg: dict) -> VerificationReport:
    w = WeightSpec.parse(cfg["weight"])
    f = _hermite_sum(cfg["f"])
    g = OneForm(_hermite_sum(cfg["g"]).coeffs)
    res = bilinear_lhs(f, g, w)
    slack = res.bound + EMBED_TOL - res.lhs
    checks = [CheckResult(name="embedding_bound", count=1,
                          failures=int(slack < 0), worst_margin=slack)]
    measurements = [Measurement(k, v) for k, v in res.as_dict().items()]
    cfg = dict(cfg)
    cfg["f_coeffs"] = list(f.coeffs)      # functions serialize as arrays
    cfg["g_coeffs"] = list(g.coeffs)
    return _report(cfg, checks, measurements)


def _cmd_repr_check(cfg: dict) -> VerificationReport:
    checks = []
    measurements = []
    for n in _numbers(cfg["n"], int):
        res = representation_check(n)
        checks.append(CheckResult(
            name=f"representation[n={n}]", count=1,
            failures=int(res["abs_gap"] > REPR_TOL),
            worst_margin=REPR_TOL - res["abs_gap"]))
        measurements.append(Measurement(f"repr_rhs[n={n}]", res["rhs"],
                                        {"tail_bound": res["tail_bound"]}))
    return _report(cfg, checks, measurements)


def _cmd_sweep(cfg: dict) -> VerificationReport:
    rows = sweep_report(cfg["family"], _numbers(cfg["params"]), cfg["n"])
    problems = sweep_problems(rows)
    for p in problems:
        print(f"sweep: {p}", file=sys.stderr)
    checks = [CheckResult(name="sweep_properties", count=len(rows),
                          failures=len(problems))]
    measurements = [Measurement(f"q2_trunc[param={r['param']:g},n={r['trunc_n']}]",
                                r["q2_trunc"], r) for r in rows]
    return _report(cfg, checks, measurements)


_HANDLERS = {
    "verify-bellman": _cmd_verify_bellman,
    "aux-bounds": _cmd_aux_bounds,
    "a2": _cmd_a2,
    "riesz-norm": _cmd_riesz_norm,
    "embedding": _cmd_embedding,
    "repr-check": _cmd_repr_check,
    "sweep": _cmd_sweep,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        report = _HANDLERS[args.subcommand](cfg)
    except (UsageError, DomainError, ModelError, QuadratureError, EstimateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg["format"] == "csv":
        text = rows_to_csv([m.location for m in report.measurements])
    else:
        text = report.dumps()
    _write_output(text, cfg["out"])
    return 0 if report.total_failures == 0 else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
