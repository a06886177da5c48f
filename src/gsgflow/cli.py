"""Command-line front door: figure-data reproduction, root tables,
validation reports, CSV/JSON persistence.

Subcommands:
  roots     eigenvalue table r_n with residuals
  profile   velocity omega(r) at one t: the requested orders, beta = 1 and
            the Newtonian curve
  history   velocity omega(t) at fixed radii, the same curves
  stress    shear stress tau(r) at one t, or tau(t) at fixed radii with --t-max
  validate  cross-oracle check suite as a JSON report
  fig1      preset of profile: --t 5 --betas 0.3,0.6,0.9 --r-steps 61
  fig2      preset of history: --r-list 1.3,2.5,3.8 --t-max 10 --t-steps 50
            --betas 0.3,0.6,0.9 --include-t0

Options, by subcommand:
  every subcommand      --config, --out, --no-timestamp
  all but validate      --format csv|json (validate always writes JSON)
  profile, history, stress, fig1, fig2
                        --modes, --tol, --strategy
  roots                 --n-max, --approx-roots
  profile               --t, --betas, --r-steps
  history               --r-list, --t-max, --t-steps, --betas, --include-t0
  stress                --t, --r-steps, --t-max, --t-steps, --r-list, --betas
  validate              --level fast|full
An option the subcommand does not take, or an abbreviated one, is invalid
input.

The argument parser is built once per process and reused by every call of
main.

Exit codes: 0 success, 1 validation check failure, 2 numerical
non-convergence, 3 invalid input.

Configuration is a flat `key = value` file (# comments); flags override
file values and the shipped defaults are the reference parameter set
R1=1, R2=4, Omega1=3, Omega2=1.5, rho=1260, alpha1=11.34, mu=1.48.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
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
from .solution import AnnulusGeometry, FluidParams, field_block
# unused here but traced on this module by perfbench/spans.py; ROADMAP item 1 removes the need
from .solution import shear_stress, velocity, velocity_sg_closed  # noqa: F401
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
    timestamp: bool = True

    def eigenvalues(self) -> EigenvalueSet:
        return find_roots(self.geometry.R1, self.geometry.R2, self.controls.n_modes)


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
    """RunConfig from the defaults, the --config file and the flags; only the
    field commands take --modes, --tol and --strategy, the others read them
    from the file or the defaults."""
    raw = dict(DEFAULTS)
    if args.config:
        raw.update(parse_config_file(args.config))
    modes = getattr(args, "modes", None)
    tol = getattr(args, "tol", None)

    def num(key, cast=float):
        try:
            return cast(raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc

    strategy_name = getattr(args, "strategy", None) or str(raw["strategy"]).lower()
    if strategy_name not in _STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy_name!r}")

    try:
        params = FluidParams(mu=num("mu"), alpha1=num("alpha1"), rho=num("rho"),
                             beta=num("beta"))
        geometry = AnnulusGeometry(R1=num("r1"), R2=num("r2"),
                                   Omega1=num("omega1"), Omega2=num("omega2"))
        controls = SeriesControls(
            n_modes=num("n_modes", int) if modes is None else modes,
            tol_rel=num("tol_rel") if tol is None else tol,
            max_terms=num("max_terms", int),
            strategy=_STRATEGIES[strategy_name],
        )
        grid = fdsolver.GridSpec(nr=num("nr", int), dt=num("dt"), t_end=num("t_end"))
    except (ValueError, GeometryError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(params=params, geometry=geometry, controls=controls, grid=grid,
                     timestamp=not args.no_timestamp)


# ---------------------------------------------------------------------------
# output helpers


def _write_table(path: Optional[str], fmt: str, columns: list, table: np.ndarray,
                 timestamp: bool) -> None:
    """Write the rows of a 2-D float table under the named columns.

    Values are written to 17 significant digits in CSV and as JSON floats.
    Named columns beyond the table's width are written empty (JSON null).
    """
    rows = np.asarray(table, dtype=float).tolist()
    empty = len(columns) - len(rows[0]) if rows else 0
    out = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        if fmt == "csv":
            if timestamp:
                out.write(f"# generated = {datetime.now(timezone.utc).isoformat()}\n")
            out.write(",".join(columns) + "\n")
            line = ",".join(["%.17g"] * (len(columns) - empty) + [""] * empty) + "\n"
            out.writelines(line % tuple(row) for row in rows)
        else:
            doc = {"columns": columns, "rows": [row + [None] * empty for row in rows]}
            if timestamp:
                doc["generated"] = datetime.now(timezone.utc).isoformat()
            json.dump(doc, out, indent=2)
            out.write("\n")
    finally:
        if path:
            out.close()


def _float_list(arg: str, name: str) -> list:
    try:
        values = [float(x) for x in arg.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {name} list {arg!r}") from exc
    if not values:
        raise ConfigError(f"{name} list {arg!r} holds no values")
    return values


def _beta_list(arg: Optional[str]) -> list:
    if not arg:
        return [0.3, 0.6, 0.9]
    betas = _float_list(arg, "beta")
    for b in betas:
        if not 0.0 < b <= 1.0:
            raise ConfigError(f"beta {b!r} outside (0, 1]")
    return betas


def _radii(config: RunConfig, r_steps: int) -> np.ndarray:
    if r_steps < 2:
        raise ConfigError("r-steps must be >= 2")
    return np.linspace(config.geometry.R1, config.geometry.R2, r_steps)


def _times(args, include_t0: bool = False) -> np.ndarray:
    """The t column t_max/t_steps, ..., t_max, from 0 with include_t0."""
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise ConfigError(f"t-max must be finite and > 0, got {args.t_max!r}")
    if args.t_steps < 1:
        raise ConfigError("t-steps must be >= 1")
    t_values = np.linspace(0.0, args.t_max, args.t_steps + 1)
    return t_values if include_t0 else t_values[1:]


def _orders(config: RunConfig, betas: list) -> list:
    """(beta, params) pairs for the requested fractional orders."""
    return [(b, replace(config.params, beta=b)) for b in betas]


def _curve_family(config: RunConfig, betas: list) -> list:
    """(beta_tag, params) pairs: requested betas, second grade, Newtonian."""
    fam = _orders(config, betas)
    if 1.0 not in betas:
        fam.append((1.0, replace(config.params, beta=1.0)))
    fam.append((NEWTONIAN_TAG, replace(config.params, alpha1=0.0, beta=1.0)))
    return fam


def _sweep(config: RunConfig, args, columns: list, family: list, r, t,
           stress: bool = False) -> int:
    """Write one field_block per curve of family on the block r x t.

    Rows run over time, then radius, then curve; each row holds the named
    coordinates t, r, beta and the field value in the order of columns,
    whose last entry names the value.
    """
    eig = config.eigenvalues()
    blocks = [field_block(params, config.geometry, eig, r, t, config.controls, stress=stress)
              for _, params in family]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r = np.asarray(r, dtype=float)
    # values[j, i, c]: time t_j, radius r_i, curve c
    values = np.stack([np.reshape(b.tau if stress else b.omega, (len(r), len(t))).T
                       for b in blocks], axis=-1)
    named = {"t": t[:, None, None], "r": r[None, :, None],
             "beta": np.array([tag for tag, _ in family])[None, None, :],
             columns[-1]: values}
    table = np.stack([np.broadcast_to(named[c], values.shape).ravel() for c in columns],
                     axis=1)
    _write_table(args.out, args.format, columns, table, config.timestamp)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_roots(config: RunConfig, args) -> int:
    solve = approx_roots if args.approx_roots else find_roots
    eig = solve(config.geometry.R1, config.geometry.R2, args.n_max)
    # solved roots carry their residuals; the asymptotic ones leave that column empty
    table = [np.arange(1, len(eig) + 1), eig.roots]
    if not args.approx_roots:
        table.append(eig.residuals)
    _write_table(args.out, args.format, ["n", "r_n", "residual"], np.column_stack(table),
                 config.timestamp)
    return EXIT_OK


def cmd_profile(config: RunConfig, args) -> int:
    family = _curve_family(config, _beta_list(args.betas))
    return _sweep(config, args, ["r", "beta", "omega"], family,
                  _radii(config, args.r_steps), args.t)


def cmd_history(config: RunConfig, args) -> int:
    r_list = _float_list(args.r_list, "r")
    t_values = _times(args, args.include_t0)
    family = _curve_family(config, _beta_list(args.betas))
    return _sweep(config, args, ["t", "r", "beta", "omega"], family, r_list, t_values)


def cmd_stress(config: RunConfig, args) -> int:
    family = _orders(config, _beta_list(args.betas))
    if args.t_max is None:
        radii, t_values = _radii(config, args.r_steps), args.t
    else:
        radii, t_values = _float_list(args.r_list, "r"), _times(args)
    return _sweep(config, args, ["r", "t", "beta", "tau"], family, radii, t_values,
                  stress=True)


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


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # No prefix matching: it would read fig1's "--t" as "--tol". The
    # subparsers are made by this class and inherit the setting.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 by default, which this CLI reserves for
    # numerical non-convergence; bad usage is invalid input instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"gsgflow: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_INPUT)


_FIG1 = "preset of profile: --t 5 --betas 0.3,0.6,0.9 --r-steps 61"
_FIG2 = ("preset of history: --r-list 1.3,2.5,3.8 --t-max 10 --t-steps 50 "
         "--betas 0.3,0.6,0.9 --include-t0")


@functools.lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The gsgflow argument parser, built on the first call and shared after.

    Parsing keeps no state in the parser: each parse_args call returns a
    fresh namespace, and a refused command line only raises SystemExit.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation timestamp for byte-identical reruns")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--modes", type=int, help="override the number of series modes")
    series.add_argument("--tol", type=float,
                        help="override the stopping tolerance of the series strategies")
    series.add_argument("--strategy", choices=sorted(_STRATEGIES),
                        help="kernel evaluation strategy for every curve, the beta = 1 and "
                             "Newtonian ones included: laplace inverts on a Talbot contour, "
                             "series and gseries sum the paper's series, auto takes the "
                             "exact exponential kernel at beta = 1 and the contour otherwise")
    field = [common, table, series]

    parser = _Parser(prog="gsgflow",
                     description="Start-up rotational flow of a generalized second "
                                 "grade fluid between coaxial cylinders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common, table], help="tabulate eigenvalues")
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--approx-roots", action="store_true",
                   help="use the asymptotic roots n*pi/(R2-R1) instead of solved roots")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("profile", parents=field, help="velocity profile omega(r) at fixed t")
    p.add_argument("--t", type=float, default=5.0)
    p.add_argument("--betas", help="comma list of fractional orders (default 0.3,0.6,0.9)")
    p.add_argument("--r-steps", type=int, default=41)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("history", parents=field,
                       help="velocity history omega(t) at fixed radii")
    p.add_argument("--r-list", default="1.3,2.5,3.8")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-steps", type=int, default=50)
    p.add_argument("--betas", help="comma list of fractional orders")
    p.add_argument("--include-t0", action="store_true",
                   help="start the t column at 0 instead of t_max/t_steps")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("stress", parents=field, help="shear stress sweep")
    p.add_argument("--t", type=float, default=5.0, help="fixed time for an r sweep")
    p.add_argument("--r-steps", type=int, default=41)
    p.add_argument("--t-max", type=float, help="sweep t instead, at --r-list radii")
    p.add_argument("--t-steps", type=int, default=50)
    p.add_argument("--r-list", default="1.3,2.5,3.8")
    p.add_argument("--betas", help="comma list of fractional orders")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("validate", parents=[common], help="run the cross-oracle check suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fig1", parents=field, help=_FIG1, description=_FIG1)
    p.set_defaults(func=cmd_profile, t=5.0, betas="0.3,0.6,0.9", r_steps=61)

    p = sub.add_parser("fig2", parents=field, help=_FIG2, description=_FIG2)
    p.set_defaults(func=cmd_history, r_list="1.3,2.5,3.8", t_max=10.0, betas="0.3,0.6,0.9",
                   t_steps=50, include_t0=True)
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
    except OSError as exc:
        # an unreadable --config or unwritable --out; str(exc) names the path
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
