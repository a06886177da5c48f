"""Workloads of the gsgflow benchmark.

Each workload is a fixed grid of request cells. A seed only orders the
cells: every cycle of requests covers the whole grid once, in an order drawn
from the seed, so every run measures the same mix of work and the committed
reference covers every probe. A request is handed to the program as nothing
but program inputs: a `gsgflow` command line for the field sweeps, or
(FluidParams, AnnulusGeometry, GridSpec) for the finite-difference oracle.

Every request's output is checked inside the timed run: the set of rows or
nodes must match the request, every value must be finite, and wall values
must equal R*Omega*t to 1e-9 relative, as validate's boundary_conditions
check demands.
"""

from __future__ import annotations

import csv
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gsgflow
from gsgflow import cli

# The CLI's shipped reference parameter set; requests never override it.
R1, R2, OMEGA1, OMEGA2 = 1.0, 4.0, 3.0, 1.5
MU, ALPHA1, RHO = 1.48, 11.34, 1260.0
# The CLI tags the Newtonian curve (alpha1 = 0, beta = 1) with beta = 0.
NEWTONIAN = 0.0
WALL_RTOL = 1e-9
MAX_MESSAGES = 5


@dataclass(frozen=True)
class Cell:
    """One request of a workload grid.

    command is the CLI subcommand, or "fd" for a direct solver call; t is
    the profile time, the sweep's t-max, or the FD horizon.
    """

    command: str
    beta: float
    t: float


@dataclass
class Outcome:
    """Result of one request: its latency, its checked values and its probes."""

    latency: float
    values: int
    failed: int = 0
    cell: Cell = None
    messages: list = field(default_factory=list)
    # (quantity, beta tag, t, r) -> value, compared with the reference
    probes: dict = field(default_factory=dict)


def probe_key(quantity: str, beta: float, t: float, r: float) -> str:
    return f"{quantity}:b={beta:g}:t={t:g}:r={r:.10g}"


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _coord(values) -> tuple:
    # rows are matched by their coordinates, rounded well below any grid step
    return tuple(round(float(v), 9) for v in values)


class Workload:
    """A fixed grid of cells, cycled in seed-drawn order."""

    name = ""

    def __init__(self, cells: list):
        self.cells = cells

    def cycles(self, seed: int):
        """Endless cycles; each holds every cell once. Cells of different
        commands alternate, each command's cells in its own shuffled order."""
        rng = random.Random(seed)
        groups = {}
        for cell in self.cells:
            groups.setdefault(cell.command, []).append(cell)
        while True:
            shuffled = [rng.sample(g, len(g)) for g in groups.values()]
            yield [cell for batch in zip(*shuffled) for cell in batch]

    def run(self, cell: Cell, workdir: Path) -> Outcome:
        """Time one request and check its output; never raises."""
        start = perf_counter()
        try:
            outcome = self._run(cell, workdir)
        except Exception:  # the measuring loop must keep running
            outcome = Outcome(latency=perf_counter() - start, values=self.expected_values(cell),
                              failed=self.expected_values(cell),
                              messages=[f"{cell}: {traceback.format_exc()}"])
        outcome.cell = cell
        return outcome

    def expected_values(self, cell: Cell) -> int:
        raise NotImplementedError

    def _run(self, cell: Cell, workdir: Path) -> Outcome:
        raise NotImplementedError

    def warm_up(self, workdir: Path) -> None:
        raise NotImplementedError


class CliWorkload(Workload):
    """Requests are `gsgflow` command lines run in-process through cli.main."""

    columns = {
        "profile": ("r", "beta", "omega"),
        "history": ("t", "r", "beta", "omega"),
        "stress": ("r", "t", "beta", "tau"),
    }

    def argv(self, cell: Cell, out: Path) -> list:
        raise NotImplementedError

    def expected_rows(self, cell: Cell) -> list:
        """Dicts of the coordinate columns of every row the request asks for."""
        raise NotImplementedError

    def expected_values(self, cell: Cell) -> int:
        return len(self.expected_rows(cell))

    def _run(self, cell: Cell, workdir: Path) -> Outcome:
        out = workdir / "request.csv"
        argv = self.argv(cell, out)
        start = perf_counter()
        code = cli.main(argv)
        latency = perf_counter() - start
        expected = self.expected_rows(cell)
        outcome = Outcome(latency=latency, values=len(expected))
        if code != 0:
            outcome.failed = len(expected)
            outcome.messages.append(f"{' '.join(argv)}: exit code {code}")
            return outcome
        columns = self.columns[cell.command]
        with open(out, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
        header, body = (tuple(rows[0]), rows[1:]) if rows else ((), [])
        want = {_coord(row[c] for c in columns[:-1]) for row in expected}
        got = {}
        if header == columns:
            for row in body:
                if len(row) == len(columns):
                    values = [float(v) for v in row]
                    got[_coord(values[:-1])] = dict(zip(columns, values))
        if header != columns or len(body) != len(expected) or set(got) != want:
            outcome.failed = len(expected)
            outcome.messages.append(
                f"{' '.join(argv)}: header {list(header)}, {len(body)} rows; "
                f"expected {list(columns)} with {len(expected)} rows")
            return outcome
        quantity = columns[-1]
        for rec in got.values():
            value = rec[quantity]
            problem = None
            if not math.isfinite(value):
                problem = "non-finite"
            elif quantity == "omega" and rec["r"] in (R1, R2):
                t = rec.get("t", cell.t)
                wall = R1 * OMEGA1 * t if rec["r"] == R1 else R2 * OMEGA2 * t
                if not _close(value, wall, WALL_RTOL):
                    problem = f"wall value, want {wall!r}"
            if problem:
                outcome.failed += 1
                if len(outcome.messages) < MAX_MESSAGES:
                    outcome.messages.append(f"{' '.join(argv)}: {rec} {problem}")
            else:
                outcome.probes[(quantity, rec["beta"], rec.get("t", cell.t), rec["r"])] = value
        return outcome


def _family(beta: float) -> list:
    # the CLI adds the beta = 1 and Newtonian curves to every velocity request
    return [beta] + ([1.0] if beta != 1.0 else []) + [NEWTONIAN]


class ProfileWorkload(CliWorkload):
    """`gsgflow profile` at one fractional order: the kernels of a request are
    shared by all its radii, so reusing them across radii shows here."""

    name = "profile"

    def __init__(self, betas=(0.3, 0.6, 0.9), times=(3.0, 4.0, 5.0, 6.0), r_steps=21):
        super().__init__([Cell("profile", b, t) for b in betas for t in times])
        self.r_steps = r_steps

    def argv(self, cell, out):
        return ["profile", "--t", f"{cell.t:g}", "--betas", f"{cell.beta:g}",
                "--r-steps", str(self.r_steps), "--no-timestamp", "--out", str(out)]

    def expected_rows(self, cell):
        return [{"r": r, "beta": b} for r in np.linspace(R1, R2, self.r_steps)
                for b in _family(cell.beta)]

    def warm_up(self, workdir):
        cli.main(["profile", "--t", "2", "--betas", "0.6", "--r-steps", "2",
                  "--no-timestamp", "--out", str(workdir / "warm-up.csv")])


class HistoryWorkload(CliWorkload):
    """`gsgflow history` and `gsgflow stress` t-sweeps, alternating: every
    time step needs fresh kernels, so per-kernel cost dominates. A stress
    point costs about twice a velocity point, so stress sweeps take half the
    time steps and both kinds of request cost about the same."""

    name = "history"

    def __init__(self, betas=(0.3, 0.6, 0.9), t_maxes=(4.0, 6.0, 8.0, 10.0),
                 t_steps=(("history", 4), ("stress", 2)), r_list=(1.3, 2.5, 3.8)):
        self.t_steps = dict(t_steps)
        super().__init__([Cell(cmd, b, tm) for cmd in self.t_steps
                          for b in betas for tm in t_maxes])
        self.r_list = r_list

    def argv(self, cell, out):
        return [cell.command, "--r-list", ",".join(f"{r:g}" for r in self.r_list),
                "--t-max", f"{cell.t:g}", "--t-steps", str(self.t_steps[cell.command]),
                "--betas", f"{cell.beta:g}", "--no-timestamp", "--out", str(out)]

    def expected_rows(self, cell):
        times = np.linspace(0.0, cell.t, self.t_steps[cell.command] + 1)[1:]
        betas = _family(cell.beta) if cell.command == "history" else [cell.beta]
        return [{"t": t, "r": r, "beta": b} for t in times for r in self.r_list for b in betas]

    def warm_up(self, workdir):
        cli.main(["stress", "--r-list", "2.5", "--t-max", "1", "--t-steps", "1",
                  "--betas", "0.6", "--no-timestamp", "--out", str(workdir / "warm-up.csv")])


class FdOracleWorkload(Workload):
    """`gsgflow.solve` on the validate grid, then FieldGrid.at at the probes:
    the only workload that runs the finite-difference oracle."""

    name = "fd_oracle"
    nr = 400
    dt = 1e-3
    probe_r = (1.3, 2.5, 3.8)

    def __init__(self, betas=(0.5, 0.8, 1.0), t_ends=(4.0, 5.0, 6.0, 8.0)):
        super().__init__([Cell("fd", b, t) for b in betas for t in t_ends])

    def program_input(self, cell: Cell) -> tuple:
        params = gsgflow.FluidParams(mu=MU, alpha1=ALPHA1, rho=RHO, beta=cell.beta)
        geometry = gsgflow.AnnulusGeometry(R1=R1, R2=R2, Omega1=OMEGA1, Omega2=OMEGA2)
        return params, geometry, gsgflow.GridSpec(nr=self.nr, dt=self.dt, t_end=cell.t)

    def _levels(self, cell: Cell) -> int:
        return int(round(cell.t / self.dt)) + 1

    def expected_values(self, cell):
        return self._levels(cell) * (self.nr + 2)

    def _run(self, cell, workdir):
        args = self.program_input(cell)
        probe_t = (cell.t / 2.0, cell.t)
        start = perf_counter()
        grid = gsgflow.solve(*args)
        probes = {("omega", cell.beta, t, r): grid.at(r, t) for t in probe_t for r in self.probe_r}
        latency = perf_counter() - start
        outcome = Outcome(latency=latency, values=self.expected_values(cell))
        levels = self._levels(cell)
        omega = np.asarray(grid.omega)
        t = np.asarray(grid.t)
        if omega.shape != (levels, self.nr + 2) or t.shape != (levels,) \
                or not np.allclose(t, np.arange(levels) * self.dt, rtol=0.0, atol=1e-12):
            outcome.failed = outcome.values
            outcome.messages.append(f"{cell}: field shape {omega.shape}, "
                                    f"want ({levels}, {self.nr + 2})")
            return outcome
        bad = ~np.isfinite(omega)
        for col, wall in ((0, R1 * OMEGA1 * t), (-1, R2 * OMEGA2 * t)):
            off = np.abs(omega[:, col] - wall) > WALL_RTOL * np.abs(wall)
            bad[:, col] |= off
        outcome.failed = int(bad.sum())
        if outcome.failed:
            level, node = np.argwhere(bad)[0]
            outcome.messages.append(f"{cell}: {outcome.failed} bad nodes, first at "
                                    f"t={t[level]!r} node {node}: {omega[level, node]!r}")
        for key, value in probes.items():
            if math.isfinite(value):
                outcome.probes[key] = value
            else:
                outcome.failed += 1
                outcome.messages.append(f"{cell}: non-finite probe {key}")
        return outcome

    def warm_up(self, workdir):
        gsgflow.solve(*self.program_input(Cell("fd", 0.5, 0.05)))


WORKLOADS = {w.name: w for w in (ProfileWorkload, HistoryWorkload, FdOracleWorkload)}
