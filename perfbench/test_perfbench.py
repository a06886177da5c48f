"""Tests of the benchmark itself (not of gsgflow).

    PYTHONPATH=src python3 -m pytest -q perfbench

The end-to-end tests run the real command in-process on shrunken grids, so
they take seconds rather than a full run.
"""

from __future__ import annotations

import importlib
import json
import math

import pytest

import run
import spans
import workloads as wl
from gsgflow import AnnulusGeometry, FluidParams, GridSpec, cli

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["workloads"]

# shrunken grids whose every probe is still in the committed reference
SMALL = {
    "profile": lambda: wl.ProfileWorkload(betas=(0.9,), times=(4.0,), r_steps=3),
    "history": lambda: wl.HistoryWorkload(betas=(0.9,), t_maxes=(4.0,),
                                          t_steps=(("history", 1), ("stress", 1)),
                                          r_list=(2.5,)),
    "fd_oracle": lambda: wl.FdOracleWorkload(betas=(1.0,), t_ends=(5.0,)),
}


def test_workload_and_layer_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)
    assert sorted(spans.MOVES) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_is_deterministic_and_passes_only_program_inputs(name, tmp_path):
    workload = wl.WORKLOADS[name]()

    def first_cycles(seed):
        gen = workload.cycles(seed)
        return [next(gen) for _ in range(4)]

    assert first_cycles(11) == first_cycles(11)
    assert first_cycles(11) != first_cycles(12)
    for cycle in first_cycles(11):
        assert sorted(cycle, key=repr) == sorted(workload.cells, key=repr)
    parser = cli.make_parser()
    for cell in workload.cells:
        if isinstance(workload, wl.CliWorkload):
            argv = workload.argv(cell, tmp_path / "out.csv")
            assert all(isinstance(a, str) for a in argv)
            parser.parse_args(argv)  # exits with code 3 on anything the CLI does not take
        else:
            params, geometry, grid = workload.program_input(cell)
            assert (type(params), type(geometry), type(grid)) == (
                FluidParams, AnnulusGeometry, GridSpec)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reference_covers_every_probe(name):
    workload = wl.WORKLOADS[name]()
    table = REFERENCE[name]
    keys = set()
    for cell in workload.cells:
        if isinstance(workload, wl.CliWorkload):
            quantity = workload.columns[cell.command][-1]
            keys |= {wl.probe_key(quantity, row["beta"], row.get("t", cell.t), row["r"])
                     for row in workload.expected_rows(cell) if wl.R1 < row["r"] < wl.R2}
        else:
            keys |= {wl.probe_key("omega", cell.beta, t, r)
                     for t in (cell.t / 2.0, cell.t) for r in workload.probe_r}
    assert keys <= set(table)
    assert any(table[k]["eligible"] for k in keys)
    for k in keys:
        e = table[k]
        assert e["eligible"] == (e["self_diff"] < e["seed_err"] / 10.0)


def _fake_cli(rows_for, code=0):
    def main(argv):
        out = argv[argv.index("--out") + 1]
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("r,beta,omega\n")
            for r, beta, omega in rows_for(argv):
                fh.write(f"{r!r},{beta!r},{omega!r}\n")
        return code
    return main


def _profile_rows(bad_wall=False, nan=False, drop=False):
    def rows(argv):
        workload = wl.ProfileWorkload(betas=(0.9,), times=(4.0,), r_steps=3)
        cell = workload.cells[0]
        out = []
        for row in workload.expected_rows(cell):
            r = row["r"]
            value = wl.R1 * wl.OMEGA1 * 4.0 if r == wl.R1 else (
                wl.R2 * wl.OMEGA2 * 4.0 if r == wl.R2 else 0.5)
            out.append([float(r), row["beta"], value])
        if bad_wall:
            out[0][2] *= 1.0 + 1e-7
        if nan:
            out[4][2] = math.nan
        return out[:-1] if drop else out
    return rows


@pytest.mark.parametrize("fake, failed", [
    (_fake_cli(_profile_rows()), 0),
    (_fake_cli(_profile_rows(bad_wall=True, nan=True)), 2),
    (_fake_cli(_profile_rows(drop=True)), 9),
    (_fake_cli(_profile_rows(), code=2), 9),
])
def test_output_checks_count_failed_values(fake, failed, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "main", fake)
    workload = wl.ProfileWorkload(betas=(0.9,), times=(4.0,), r_steps=3)
    outcome = workload.run(workload.cells[0], tmp_path)
    assert (outcome.values, outcome.failed) == (9, failed)
    assert bool(outcome.messages) == bool(failed)


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40, 0, -1)])
    assert value == 30.0 and pct == 75.0


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in spans.TARGETS}


def test_tracer_removes_every_wrapper_and_reports_absent_names():
    before = _originals()
    tracer = spans.Tracer(spans.TARGETS + (("gsgflow.cli", "no_such_name", "x", None),))
    tracer.install()
    try:
        for (m, a), fn in before.items():
            assert getattr(importlib.import_module(m), a).__perfbench_wrapped__ is fn
    finally:
        tracer.remove()
    assert tracer.absent == ["gsgflow.cli.no_such_name"]
    assert _originals() == before


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_one_command_prints_every_metric(name, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(wl.WORKLOADS, name, SMALL[name])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    before = _originals()
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert _originals() == before
    saved = json.loads((run.OUT_DIR / f"{name}-seed3-trace{trace}.json").read_text())
    assert set(saved["provenance"]) >= {"git_commit", "seed", "nproc", "cpu_model", "python",
                                        "numpy", "scipy", "mpmath", "thread_cap"}
    if trace:
        layers = result["metrics"]
        if name == "fd_oracle":
            assert layers["laplace.velocity_kernel.calls"]["value"] == 0
            assert layers["fdsolver.solve.busy_s"]["value"] > 0
        else:
            assert layers["fdsolver.solve.busy_s"]["value"] == 0
            assert layers["eigenvalues.find_roots.calls"]["value"] == 1
    else:
        assert saved["details"]["requests"] >= run.TAIL_BEYOND + 1


def test_refuses_without_the_package(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "profile",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
