"""Command-line front door: figure-data reproduction, root tables,
validation reports, CSV/JSON persistence.

Exit codes: 0 success, 1 validation check failure, 2 numerical
non-convergence, 3 invalid input.

Configuration is a flat `key = value` file (# comments); flags override
file values and the shipped defaults are the reference parameter set
R1=1, R2=4, Omega1=3, Omega2=1.5, rho=1260, alpha1=11.34, mu=1.48.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import fdsolver
from .controls import SeriesControls, Strategy
from .eigenvalues import EigenvalueSet, approx_roots, find_roots
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    GeometryError,
    ModeEvaluationError,
    NonConvergenceError,
    RootScanError,
)
from .solution import AnnulusGeometry, FluidParams, shear_stress, velocity, velocity_sg_closed
from .validate import run_validation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NON_CONVERGENCE = 2
EXIT_INVALID_INPUT = 3

# beta tag for the Newtonian curve in long-format output: with alpha1 = 0 the
# fractional order is immaterial, and 0 is outside the model's (0, 1] range
# so it cannot collide with a real curve.
NEWTONIAN_TAG = 0.0

DEFAULTS = {
    "r1": 1.0,
    "r2": 4.0,
    "omega1": 3.0,
    "omega2": 1.5,
    "rho": 1260.0,
    "alpha1": 11.34,
    "mu": 1.48,
    "beta": 0.5,
    "n_modes": 50,
    "tol_rel": 1e-12,
    "max_terms": 10_000,
    "strategy": "auto",
    "nr": 400,
    "dt": 1e-3,
    "t_end": 10.0,
}

_STRATEGIES = {
    "auto": Strategy.AUTO,
    "series": Strategy.DOUBLE_SERIES,
    "gseries": Strategy.G_SERIES,
    "laplace": Strategy.MODE_LAPLACE,
}


@dataclass
class RunConfig:
    params: FluidParams
    geometry: AnnulusGeometry
    controls: SeriesControls
    grid: fdsolver.GridSpec
    approx_roots: bool = False
    timestamp: bool = True

    def eigenvalues(self, n: Optional[int] = None) -> EigenvalueSet:
        if n is None:
            n = self.controls.n_modes
        if self.approx_roots:
            return approx_roots(self.geometry.R1, self.geometry.R2, n)
        return find_roots(self.geometry.R1, self.geometry.R2, n)


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val
    return values


def build_config(args) -> RunConfig:
    raw = dict(DEFAULTS)
    if args.config:
        raw.update(parse_config_file(args.config))

    def num(key, cast=float):
        try:
            return cast(raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc

    strategy_name = str(raw["strategy"]).lower()
    if args.strategy:
        strategy_name = args.strategy
    if strategy_name not in _STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy_name!r}")

    try:
        params = FluidParams(mu=num("mu"), alpha1=num("alpha1"), rho=num("rho"),
                             beta=num("beta"))
        geometry = AnnulusGeometry(R1=num("r1"), R2=num("r2"),
                                   Omega1=num("omega1"), Omega2=num("omega2"))
        controls = SeriesControls(
            n_modes=num("n_modes", int) if args.modes is None else args.modes,
            tol_rel=num("tol_rel") if args.tol is None else args.tol,
            max_terms=num("max_terms", int),
            strategy=_STRATEGIES[strategy_name],
        )
        grid = fdsolver.GridSpec(nr=num("nr", int), dt=num("dt"), t_end=num("t_end"))
    except (ValueError, GeometryError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(params=params, geometry=geometry, controls=controls, grid=grid,
                     approx_roots=args.approx_roots, timestamp=not args.no_timestamp)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path: Optional[str], fmt: str, columns: list, rows: list,
                 timestamp: bool) -> None:
    out = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        if fmt == "csv":
            if timestamp:
                out.write(f"# generated = {datetime.now(timezone.utc).isoformat()}\n")
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")
        else:
            doc = {"columns": columns, "rows": [[None if v is None else float(v) for v in row] for row in rows]}
            if timestamp:
                doc["generated"] = datetime.now(timezone.utc).isoformat()
            json.dump(doc, out, indent=2)
            out.write("\n")
    finally:
        if path:
            out.close()


def _beta_list(arg: Optional[str]) -> list:
    if not arg:
        return [0.3, 0.6, 0.9]
    try:
        betas = [float(x) for x in arg.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad beta list {arg!r}") from exc
    for b in betas:
        if not 0.0 < b <= 1.0:
            raise ConfigError(f"beta {b!r} outside (0, 1]")
    return betas


def _float_list(arg: str, name: str) -> list:
    try:
        return [float(x) for x in arg.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {name} list {arg!r}") from exc


def _curve_family(config: RunConfig, betas: list) -> list:
    """(beta_tag, params) pairs: requested betas, second grade, Newtonian."""
    fam = []
    base = config.params
    for b in betas:
        fam.append((b, FluidParams(mu=base.mu, alpha1=base.alpha1, rho=base.rho, beta=b)))
    if 1.0 not in betas:
        fam.append((1.0, FluidParams(mu=base.mu, alpha1=base.alpha1, rho=base.rho, beta=1.0)))
    fam.append((NEWTONIAN_TAG, FluidParams(mu=base.mu, alpha1=0.0, rho=base.rho, beta=1.0)))
    return fam


def _velocity_for(params: FluidParams, config: RunConfig, eig, r: np.ndarray,
                  t: float) -> np.ndarray:
    """omega at the radii r at time t: one block, so the kernels are built once."""
    if params.beta == 1.0:
        return velocity_sg_closed(params, config.geometry, eig, r, t, config.controls).omega
    return velocity(params, config.geometry, eig, r, t, config.controls).omega


# ---------------------------------------------------------------------------
# subcommands


def cmd_roots(config: RunConfig, args) -> int:
    n_max = args.n_max
    eig = config.eigenvalues(n_max)
    rows = []
    for i, root in enumerate(eig.roots, start=1):
        residual = None if config.approx_roots else eig.residuals[i - 1]
        rows.append((i, root, residual))
    _write_table(args.out, args.format, ["n", "r_n", "residual"], rows, config.timestamp)
    return EXIT_OK


def cmd_profile(config: RunConfig, args) -> int:
    t = args.t
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"t must be finite and >= 0, got {t!r}")
    betas = _beta_list(args.betas)
    if args.r_steps < 2:
        raise ConfigError("r-steps must be >= 2")
    r_values = np.linspace(config.geometry.R1, config.geometry.R2, args.r_steps)
    family = _curve_family(config, betas)
    eig = config.eigenvalues()
    curves = [_velocity_for(params, config, eig, r_values, t) for _, params in family]
    rows = [(r, tag, omega[i]) for i, r in enumerate(r_values)
            for (tag, _), omega in zip(family, curves)]
    _write_table(args.out, args.format, ["r", "beta", "omega"], rows, config.timestamp)
    return EXIT_OK


def cmd_history(config: RunConfig, args) -> int:
    r_list = _float_list(args.r_list, "r")
    for r in r_list:
        if not config.geometry.R1 <= r <= config.geometry.R2:
            raise ConfigError(f"r={r} outside the annulus")
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise ConfigError(f"t-max must be finite and > 0, got {args.t_max!r}")
    if args.t_steps < 1:
        raise ConfigError("t-steps must be >= 1")
    betas = _beta_list(args.betas)
    t_values = np.linspace(0.0, args.t_max, args.t_steps + 1)
    if not args.include_t0:
        t_values = t_values[1:]
    family = _curve_family(config, betas)
    eig = config.eigenvalues()
    radii = np.array(r_list)
    rows = []
    for t in t_values:
        curves = [_velocity_for(params, config, eig, radii, float(t)) for _, params in family]
        rows.extend((t, r, tag, omega[i]) for i, r in enumerate(r_list)
                    for (tag, _), omega in zip(family, curves))
    _write_table(args.out, args.format, ["t", "r", "beta", "omega"], rows, config.timestamp)
    return EXIT_OK


def cmd_stress(config: RunConfig, args) -> int:
    betas = _beta_list(args.betas)
    eig = config.eigenvalues()
    rows = []
    if args.t_max is not None:
        if not (math.isfinite(args.t_max) and args.t_max > 0.0):
            raise ConfigError(f"t-max must be finite and > 0, got {args.t_max!r}")
        radii = np.array(_float_list(args.r_list, "r"))
        if args.t_steps < 1:
            raise ConfigError("t-steps must be >= 1")
        t_values = [float(t) for t in np.linspace(0.0, args.t_max, args.t_steps + 1)[1:]]
    else:
        if not (math.isfinite(args.t) and args.t >= 0.0):
            raise ConfigError(f"t must be finite and >= 0, got {args.t!r}")
        if args.r_steps < 2:
            raise ConfigError("r-steps must be >= 2")
        radii = np.linspace(config.geometry.R1, config.geometry.R2, args.r_steps)
        t_values = [args.t]
    if any(beta < 1.0 for beta in betas) and 0.0 in t_values:
        raise ConfigError("shear stress requires t > 0 for beta < 1")
    family = [FluidParams(mu=config.params.mu, alpha1=config.params.alpha1,
                          rho=config.params.rho, beta=beta) for beta in betas]
    for t in t_values:
        curves = [shear_stress(params, config.geometry, eig, radii, t, config.controls).tau
                  for params in family]
        rows.extend((r, t, beta, tau[i]) for i, r in enumerate(radii)
                    for beta, tau in zip(betas, curves))
    _write_table(args.out, args.format, ["r", "t", "beta", "tau"], rows, config.timestamp)
    return EXIT_OK


def cmd_validate(config: RunConfig, args) -> int:
    report = run_validation(config.params, config.geometry, level=args.level,
                            grid=config.grid)
    doc = report.to_dict()
    if config.timestamp:
        doc["generated"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_fig1(config: RunConfig, args) -> int:
    args.t = 5.0
    args.betas = "0.3,0.6,0.9"
    args.r_steps = 61
    return cmd_profile(config, args)


def cmd_fig2(config: RunConfig, args) -> int:
    args.r_list = "1.3,2.5,3.8"
    args.t_max = 10.0
    args.betas = "0.3,0.6,0.9"
    args.t_steps = 50
    args.include_t0 = True
    return cmd_history(config, args)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which this CLI reserves for
    # numerical non-convergence; bad usage is invalid input instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INVALID_INPUT)


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--modes", type=int, help="override the number of series modes")
    parser.add_argument("--tol", type=float,
                        help="override the stopping tolerance of the series strategies")
    parser.add_argument("--strategy", choices=sorted(_STRATEGIES),
                        help="kernel evaluation strategy: auto and laplace invert on a "
                             "Talbot contour, series and gseries sum the paper's series")
    parser.add_argument("--approx-roots", action="store_true",
                        help="use the asymptotic roots n*pi/(R2-R1) instead of solved roots")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation timestamp for byte-identical reruns")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gsgflow",
                     description="Start-up rotational flow of a generalized second "
                                 "grade fluid between coaxial cylinders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[], help="tabulate eigenvalues")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("profile", help="velocity profile omega(r) at fixed t")
    _add_common(p)
    p.add_argument("--t", type=float, default=5.0)
    p.add_argument("--betas", help="comma list of fractional orders (default 0.3,0.6,0.9)")
    p.add_argument("--r-steps", type=int, default=41)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("history", help="velocity history omega(t) at fixed radii")
    _add_common(p)
    p.add_argument("--r-list", default="1.3,2.5,3.8")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-steps", type=int, default=50)
    p.add_argument("--betas", help="comma list of fractional orders")
    p.add_argument("--include-t0", action="store_true",
                   help="start the t column at 0 instead of t_max/t_steps")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("stress", help="shear stress sweep")
    _add_common(p)
    p.add_argument("--t", type=float, default=5.0, help="fixed time for an r sweep")
    p.add_argument("--r-steps", type=int, default=41)
    p.add_argument("--t-max", type=float, help="sweep t instead, at --r-list radii")
    p.add_argument("--t-steps", type=int, default=50)
    p.add_argument("--r-list", default="1.3,2.5,3.8")
    p.add_argument("--betas", help="comma list of fractional orders")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("validate", help="run the cross-oracle check suite")
    _add_common(p)
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fig1", help="velocity profiles preset (all five curves)")
    _add_common(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", help="velocity histories preset at r = 1.3, 2.5, 3.8")
    _add_common(p)
    p.set_defaults(func=cmd_fig2)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = build_config(args)
        return args.func(config, args)
    except (ConfigError, DomainError, GeometryError, ContractError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (NonConvergenceError, ModeEvaluationError, RootScanError) as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
