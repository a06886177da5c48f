"""gsgflow benchmark: one closed-loop client driving the package through the
entry points a user calls.

    python3 perfbench/run.py --workload {profile,history,fd_oracle} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, from a traced phase that follows an untraced one of the
same length. A result file with provenance (and, traced, the spans) is
written under ./.perfbench_out.

A run measures whole cycles of the workload grid (see workloads.py), at
least enough for eleven requests so that request_s_tail has ten samples
beyond it, and starts another cycle only while it fits in --seconds.
setup_s is the median of SETUP_REPEATS fresh interpreters, each importing
the package and serving one untimed warm-up request, spread over the run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 5
TAIL_BEYOND = 10
SPAN_CAP = 500_000  # about 100 MB of spans
THREAD_CAP = 1
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD = 1 << 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, warm up, print 'ready' and exit")
    return p.parse_args(argv)


def fix_mmap_threshold() -> str:
    """Have glibc serve every block of MMAP_THRESHOLD bytes or more by mmap.

    By default glibc raises that threshold as large blocks are freed, after
    which freed arrays stay resident and peak_rss_mb depends on the order of
    requests. A fixed threshold keeps the resident set to live memory.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        if libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1:
            return str(MMAP_THRESHOLD)
    except (OSError, AttributeError):
        pass
    return "unchanged (no glibc mallopt)"


def prepare_interpreter() -> None:
    """Cap BLAS/OpenMP threads before numpy loads, fix the mmap threshold and
    put ./src first on the path; refuse to run against anything but the
    checkout's own package."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    fix_mmap_threshold()
    if not (SRC / "gsgflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no gsgflow package under {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gsgflow

    if Path(gsgflow.__file__).resolve().parent != SRC / "gsgflow":
        raise SystemExit(f"error: imported gsgflow from {gsgflow.__file__}, not {SRC}")


def time_setup(workload: str) -> float:
    """Wall time from a fresh interpreter until a warmed-up client is ready."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def measure(workload, cycles, budget: float, min_requests: int, workdir: Path,
            tracer=None, setup_at=()):
    """Run whole cycles: at least min_requests requests, then more cycles
    while another one is expected to end within budget seconds (and, traced,
    while the spans stay under SPAN_CAP).

    Before the i-th request for each i in setup_at, a set-up probe runs; its
    time is left out of the budget. The probes are spread over the run
    because the host's speed drifts over tens of seconds.

    Returns (outcomes, cycles run, reference probes, set-up times). A
    reference probe always has the same value, so they are merged into one
    dict instead of kept per request.
    """
    outcomes, probes, setup = [], {}, []
    start = perf_counter()
    paused = 0.0
    done = 0
    while True:
        for cell in next(cycles):
            if len(outcomes) in setup_at:
                paused -= perf_counter()
                setup.append(time_setup(workload.name))
                paused += perf_counter()
            if tracer is not None:
                tracer.request = len(outcomes)
            outcome = workload.run(cell, workdir)
            probes.update(outcome.probes)
            outcome.probes.clear()
            outcomes.append(outcome)
        done += 1
        elapsed = perf_counter() - start - paused
        if len(outcomes) >= min_requests and (
                elapsed * (done + 1) / done > budget
                or (tracer is not None and len(tracer.spans) >= SPAN_CAP)):
            return outcomes, done, probes, setup


def throughput(outcomes) -> float:
    good = sum(o.values - o.failed for o in outcomes)
    return good / sum(o.latency for o in outcomes)


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def max_error(workload_name: str, probes: dict) -> tuple:
    """Worst validate.mixed_relative_error over the eligible reference probes
    the run produced: (error, probe key, probes compared)."""
    from gsgflow.validate import mixed_relative_error
    from workloads import probe_key

    table = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload_name]
    worst, worst_key, compared = -1.0, None, 0
    for probe, value in probes.items():
        entry = table.get(probe_key(*probe))
        if entry is None or not entry["eligible"]:
            continue
        compared += 1
        err = mixed_relative_error(value, entry["ref"], entry["floor"])
        if err > worst:
            worst, worst_key = err, probe_key(*probe)
    if compared == 0:
        raise RuntimeError(f"no eligible reference probe in the {workload_name} run")
    return worst, worst_key, compared


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "malloc_mmap_threshold": fix_mmap_threshold(),  # idempotent
    }


def units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args, workdir: Path) -> int:
    import resource

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.warm_up(workdir)
    cycles = workload.cycles(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {}

    if args.trace == 0:
        spread = max(len(workload.cells), SETUP_REPEATS)
        setup_at = {j * spread // SETUP_REPEATS for j in range(SETUP_REPEATS)}
        outcomes, done, probes, setup_times = measure(
            workload, cycles, args.seconds, TAIL_BEYOND + 1, workdir, setup_at=setup_at)
        details["setup_s_samples"] = setup_times
        latencies = [o.latency for o in outcomes]
        tail_value, tail_pct = tail(latencies)
        err, err_key, compared = max_error(args.workload, probes)
        attempted = sum(o.values for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        values = {
            "setup_s": statistics.median(setup_times),
            "points_per_s": throughput(outcomes),
            "request_s_p50": statistics.median(latencies),
            "request_s_tail": tail_value,
            "max_err": err,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details.update({
            "requests": len(outcomes), "cycles": done,
            "request_s_tail_percentile": tail_pct,
            "request_s_tail_samples_beyond": TAIL_BEYOND,
            "failed_frac": failed / attempted,
            "max_err_probe": err_key, "max_err_probes_compared": compared,
            "requests_s": [[o.cell.command, o.cell.beta, o.cell.t, o.latency]
                           for o in outcomes],
        })
    else:
        half = args.seconds / 2.0
        plain, done_plain, _, _ = measure(workload, cycles, half, 1, workdir)
        tracer = spans.Tracer()
        try:
            tracer.install()
            traced, done_traced, _, _ = measure(workload, cycles, half, 1, workdir, tracer)
        finally:
            tracer.remove()
        outcomes = plain + traced
        attempted = sum(o.values for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        values = spans.layer_metrics(tracer.spans, len(traced), sum(o.values for o in traced))
        values["trace.overhead"] = throughput(plain) / throughput(traced)
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
        details.update({"untraced_requests": len(plain), "traced_requests": len(traced),
                        "cycles": [done_plain, done_traced], "spans": len(tracer.spans),
                        "absent": tracer.absent})
        for name in tracer.absent:
            print(f"absent: {name} (its layer metrics read 0)")

    messages = [m for o in outcomes for m in o.messages]
    correct = failed == 0 and not messages
    unit = units()
    metrics = {name: {"value": v, "unit": unit[name]} for name, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    doc = dict(result, workload=args.workload, provenance=provenance(args.seed),
               details=details, failures=messages[:50])
    if args.trace:
        doc["moves"] = spans.MOVES
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for m in messages[:20]:
        print(f"FAILED: {m}")
    for name, m in metrics.items():
        note = f"  ({spans.MOVES[name]})" if args.trace else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    if args.trace == 0:
        print(f"{args.workload} request_s_tail is p{details['request_s_tail_percentile']:.4g} "
              f"of {details['requests']} requests; failed_frac = {details['failed_frac']:.3g}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_interpreter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            workloads.WORKLOADS[args.workload]().warm_up(Path(workdir))
            print("ready", flush=True)
        return 0
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            return run(args, Path(workdir))
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
