"""Generate reference.json, the high-mode reference behind max_err.

    PYTHONPATH=src python3 perfbench/reference.py

For every probe that a workload's grid produces, it records:
  ref        the plain AUTO mode sum at N = 3200 (closed kernels for the
             beta = 1 and Newtonian curves), assembled like the package does;
  self_diff  |sum at N = 1600 - sum at N = 3200|, the reference's own error;
  seed_err   |seed output - ref|, the output of one cycle of the workload's
             requests on the package as it stands when the table is made;
  floor      the absolute floor of validate.mixed_relative_error: for omega
             2e-4 * (R2|Omega2| + R1|Omega1|) * t, validate's FD floor; for tau
             2e-4 * |steady wall shear at R1|, 2e-4 of the stress scale at t;
  eligible   self_diff < seed_err / 10: only these probes enter max_err.

The kernels of each (quantity, beta, t) are computed once and shared by all
radii, at about 6 s per pair for velocity on one core. The table records the
AUTO route as it was when generated, so it reuses that route's private
helpers; regenerate it only with the benchmark, never with a change that
claims a gain.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from gsgflow import (AnnulusGeometry, FluidParams, SeriesControls, cross_b, cross_b1,
                     find_roots, mode_coefficients, solution, steady_part)

import workloads as wl

N_REF, N_SELF = 3200, 1600
N_SEED = 50  # the CLI default; checks that the assembly here is the package's
FLOOR = 2e-4
OUT = Path(__file__).resolve().parent / "reference.json"


def fluid(beta_tag: float) -> FluidParams:
    if beta_tag == wl.NEWTONIAN:
        return FluidParams(mu=wl.MU, alpha1=0.0, rho=wl.RHO, beta=1.0)
    return FluidParams(mu=wl.MU, alpha1=wl.ALPHA1, rho=wl.RHO, beta=beta_tag)


def kernels(quantity, params, eig, t) -> np.ndarray:
    if params.beta == 1.0:
        if quantity != "omega":
            raise ValueError("no workload asks for beta = 1 stress")
        rn2 = eig.roots**2
        return -np.expm1(-params.nu * rn2 * t / (1.0 + params.alpha * rn2)) / (params.nu * rn2)
    controls = SeriesControls(n_modes=len(eig))
    return solution._mode_kernels(params, eig, t, controls, stress=quantity == "tau")[0]


def mode_sums(quantity, params, geometry, eig, t, r, kern, coeffs) -> dict:
    """{N: field value} for the partial mode sums N_SEED, N_SELF and N_REF."""
    rn = eig.roots
    if quantity == "omega":
        terms = coeffs * np.array([cross_b1(r, x, geometry.R2) for x in rn]) * kern
        base, sign = steady_part(geometry, r, t), -1.0
    else:
        geom = np.array([2.0 * cross_b1(r, x, geometry.R2) / r - x * cross_b(r, x, geometry.R2)
                         for x in rn])
        terms = geom * coeffs * kern
        base, sign = solution._stress_first_term(params, geometry, r, t), 1.0
    return {n: base + sign * math.pi * math.fsum(terms[:n]) for n in (N_SEED, N_SELF, N_REF)}


def floor(quantity, params, geometry, t) -> float:
    if quantity == "omega":
        return FLOOR * (geometry.R2 * abs(geometry.Omega2) + geometry.R1 * abs(geometry.Omega1)) * t
    return FLOOR * abs(solution._stress_first_term(params, geometry, geometry.R1, t))


def seed_outputs(workload, workdir: Path) -> dict:
    probes = {}
    for cell in workload.cells:
        outcome = workload.run(cell, workdir)
        if outcome.failed:
            raise RuntimeError(f"{workload.name} {cell}: {outcome.messages}")
        probes.update(outcome.probes)
    return probes


def main() -> int:
    geometry = AnnulusGeometry(R1=wl.R1, R2=wl.R2, Omega1=wl.OMEGA1, Omega2=wl.OMEGA2)
    eig = find_roots(geometry.R1, geometry.R2, N_REF)
    coeffs = mode_coefficients(geometry, eig)
    seeds = {}
    with tempfile.TemporaryDirectory() as workdir:
        for cls in wl.WORKLOADS.values():
            workload = cls()
            seeds[workload.name] = seed_outputs(workload, Path(workdir))
    # interior radii only: wall values are exact and checked on every request
    groups = {}
    for probes in seeds.values():
        for (quantity, beta, t, r) in probes:
            if wl.R1 < r < wl.R2:
                groups.setdefault((quantity, beta, t), set()).add(r)
    sums = {}
    for i, ((quantity, beta, t), radii) in enumerate(sorted(groups.items())):
        start = perf_counter()
        params = fluid(beta)
        kern = kernels(quantity, params, eig, t)
        for r in radii:
            sums[(quantity, beta, t, r)] = mode_sums(quantity, params, geometry, eig, t, r,
                                                     kern, coeffs)
        print(f"[{i + 1}/{len(groups)}] {quantity} beta={beta:g} t={t:g}: {len(radii)} radii "
              f"in {perf_counter() - start:.1f} s", file=sys.stderr)
    table = {}
    for name, probes in seeds.items():
        entries = {}
        for probe, seed_value in sorted(probes.items()):
            if probe not in sums:
                continue
            quantity, beta, t, _ = probe
            ref = sums[probe][N_REF]
            self_diff = abs(sums[probe][N_SELF] - ref)
            seed_err = abs(seed_value - ref)
            entries[wl.probe_key(*probe)] = {
                "ref": ref, "self_diff": self_diff, "seed_err": seed_err,
                "floor": floor(quantity, fluid(beta), geometry, t),
                "eligible": self_diff < seed_err / 10.0,
            }
        table[name] = entries
    own = max(abs(sums[p][N_SEED] - v) / abs(v) for name in ("profile", "history")
              for p, v in seeds[name].items() if p in sums)
    print(f"seed CLI output vs this assembly at N={N_SEED}: max relative deviation {own:.2e}",
          file=sys.stderr)
    doc = {"n_ref": N_REF, "n_self": N_SELF, "floor_coefficient": FLOOR, "workloads": table}
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, entries in table.items():
        eligible = sum(e["eligible"] for e in entries.values())
        print(f"{name}: {eligible}/{len(entries)} probes eligible", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
