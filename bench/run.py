"""adasamp benchmark: the README's CLI runs, timed end to end in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run calls ``adasamp.cli.main(argv)`` in-process, as a closed loop with
one client: a call starts only after the previous one ended. ``--seed N``
selects a panel of CLI seeds ``N*P .. N*P+P-1`` (P per workload). A CLI seed
fixes the problem instance and its whole trajectory, and the cost of a
trajectory varies by up to 3x between seeds, so each run measures a panel
and reports work-normalised figures; see README.md. Every call's outputs are
checked (checks.py), and every seed's trajectory fingerprint is printed.

``--trace 0`` measures whole passes over the panel for about ``--seconds``
and reports the end-to-end metrics. ``--trace 1`` takes the first quarter
of the panel through one untraced pass, one pass with spans (tracing.py) and
one call under ``tracemalloc``, and reports the per-layer metrics. The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 5
# With two BLAS threads on a two-CPU machine, any other busy process slows
# the portfolio runs up to 5x (measured); one thread keeps a run steady.
BLAS_THREADS = "1"
# The traced call may spend at most this share of its wall time outside
# every span (argument parsing and config resolution take ~1 ms).
UNATTRIBUTED_LIMIT = 0.05


@dataclass(frozen=True)
class Workload:
    flags: tuple
    panel: int  # CLI seeds per run; one pass takes ~10-50 s on 2 Xeon CPUs
    check: str  # name of the final-point check in checks.py
    why: str


WORKLOADS = {
    "basic-spgd": Workload(
        ("--problem", "basic", "--algorithm", "spgd", "--alpha", "0.025", "--theta", "0.5",
         "--s0", "10", "--max-iters", "150", "--max-sample-size", "200000"),
        5, "error_decay",
        "sample-bound: a third of its iterations sit at the 2e5 cap; control for geometry and risk"),
    "portfolio-cvar-extended": Workload(
        ("--problem", "portfolio", "--algorithm", "cvar-extended", "--beta", "0.9",
         "--epsilon", "0.1", "--alpha", "0.02", "--theta", "1.5", "--max-iters", "100"),
        18, "portfolio_set",
        "draw-bound at n~1e4, d=100; ExtendedProblem double value pass and Dykstra every step"),
    "portfolio-cvar-nested": Workload(
        ("--problem", "portfolio", "--algorithm", "cvar-nested", "--beta", "0.9",
         "--epsilon", "0.1", "--alpha", "0.2", "--theta", "4.0", "--max-iters", "150"),
        64, "portfolio_set",
        "n stays small: fixed per-iteration costs (Dykstra, bisection, meta/CSV I/O); control for model"),
    "basic-sqp": Workload(
        ("--problem", "basic", "--algorithm", "sqp", "--max-iters", "150"),
        4, "unit_sphere",
        "only in-iteration augmentation and SQP direction test; reaches the 1e6 default cap"),
}


# ---- statistics ---------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int):
    """The highest of p90, p99, p99.9 with at least ten samples beyond it,
    or None when even p90 has fewer."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


# ---- one CLI call -------------------------------------------------------

@dataclass
class Call:
    seed: int
    wall: float
    failure: str | None
    fingerprint: dict | None = None
    iter_ms: list = field(default_factory=list)
    grad_evals: int = 0


class Runner:
    """Runs and checks CLI calls for one workload; remembers each seed's
    first fingerprint, and fails any later call of that seed that differs."""

    def __init__(self, name: str, work_dir: Path):
        from adasamp import cli

        import checks

        self.workload = WORKLOADS[name]
        self.work_dir = work_dir
        self.cli = cli
        self.checks = checks
        self.final_check = getattr(checks, self.workload.check)
        self.fingerprints = {}
        self.calls = []
        self._serial = 0

    def argv(self, seed: int, out: Path, max_iters=None):
        flags = list(self.workload.flags)
        if max_iters is not None:
            flags[flags.index("--max-iters") + 1] = str(max_iters)
        return ["run", *flags, "--seed", str(seed), "--output", str(out)]

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                rc, error = self.cli.main(argv), None
            except Exception as exc:  # a crashing run is a failed run, not a crashed benchmark
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
            return time.perf_counter() - start, rc, error

    def warm_up(self, seed: int) -> None:
        out = self.work_dir / "warmup.csv"
        self._main(self.argv(seed, out, max_iters=2))

    def __call__(self, seed: int) -> Call:
        self._serial += 1
        out = self.work_dir / f"{seed}_{self._serial}.csv"
        wall, rc, error = self._main(self.argv(seed, out))
        call = Call(seed, wall, error)
        if error is None:
            call.failure, meta, records = self.checks.check_run(rc, out, self.final_check)
            if meta is not None and records:
                call.fingerprint = self.checks.fingerprint(out, meta)
                call.iter_ms = [r.wall_time_ms for r in records]
                call.grad_evals = meta["cumulative_grad_evals"]
        if call.failure is None:
            first = self.fingerprints.setdefault(seed, call.fingerprint)
            if first != call.fingerprint:
                call.failure = "trajectory differs from this seed's first run"
        for path in (out, Path(str(out) + ".meta.json")):
            path.unlink(missing_ok=True)
        self.calls.append(call)
        return call


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def end_to_end(calls) -> dict:
    """End-to-end metrics over the successful calls, as ``{name: (value, unit)}``.

    Per seed, the call with the median wall time stands for the seed.
    ``wall_s`` and ``grad_evals_per_s`` are geometric means over the panel's
    seeds: per-seed costs spread over a factor of 3 or more with a long
    upper tail, which a sum or an arithmetic mean lets one seed dominate.
    The iteration percentiles pool every iteration of those calls.
    """
    by_seed = {}
    for call in calls:
        if call.failure is None:
            by_seed.setdefault(call.seed, []).append(call)
    chosen = [sorted(c, key=lambda call: call.wall)[(len(c) - 1) // 2] for c in by_seed.values()]
    iter_ms = [ms for c in chosen for ms in c.iter_ms]
    m = {
        "wall_s": (geometric_mean([c.wall for c in chosen]), "s"),
        "grad_evals_per_s": (geometric_mean([c.grad_evals / c.wall for c in chosen]), "1/s"),
        "iter_ms_p50": (percentile(iter_ms, 50) if iter_ms else 0.0, "ms"),
        "iter_ms_p90": (percentile(iter_ms, 90) if iter_ms else 0.0, "ms"),
    }
    tail = tail_percentile(len(iter_ms))
    if tail is not None and tail > 90:
        m[f"iter_ms_p{tail:g}"] = (percentile(iter_ms, tail), "ms")
    m["iterations_counted"] = (len(iter_ms), "count")
    m["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    failed = sum(c.failure is not None for c in calls)
    m["failed_runs_share"] = (failed / len(calls) if calls else 1.0, "ratio")
    return m


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``adasamp.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import adasamp.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


# ---- runs ---------------------------------------------------------------

def measure(runner: Runner, seeds, seconds: float):
    """Whole passes over the panel until the next pass would end after
    ``seconds``; always at least one."""
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for seed in seeds:
            runner(seed)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return


def traced(runner: Runner, seeds, name: str, seed: int):
    """One untraced pass, one traced pass, and one call of the first seed
    under ``tracemalloc``, over the first quarter of the panel (at least one
    seed), which keeps a traced run to about a minute. Returns the per-layer
    metrics."""
    import tracing

    seeds = seeds[:math.ceil(len(seeds) / 4)]

    untraced = [runner(s) for s in seeds]
    run = end_to_end(untraced)

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        spans_traced = [runner(s) for s in seeds]
    traced_wall = sum(c.wall for c in spans_traced)
    remainder = tracing.unattributed(tracer.spans, traced_wall)
    if not 0.0 <= remainder <= UNATTRIBUTED_LIMIT * traced_wall:
        spans_traced[-1].failure = (
            f"self times leave {remainder:.6f} s of {traced_wall:.6f} s unattributed")

    # tracemalloc slows a call by up to 2x, so it sees one seed only
    tracemalloc.start()
    try:
        runner(seeds[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    calls = len(seeds)
    metrics = tracing.layer_metrics(tracer, calls)
    metrics.update({
        "trace.wall_s": (traced_wall / calls, "s"),
        "trace.unattributed_s": (remainder / calls, "s"),
        "trace.overhead_s": ((traced_wall - sum(c.wall for c in untraced)) / calls, "s"),
        "trace.peak_traced_mib": (peak / 2**20, "MiB"),
    })
    for key in ("wall_s", "grad_evals_per_s", "iter_ms_p50", "iter_ms_p90", "peak_rss_mib"):
        metrics[f"run.{key}"] = run[key]

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{name}_seed{seed}_spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def load_program():
    """Import ``adasamp`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "adasamp" / "cli.py").is_file():
        raise RuntimeError(f"no adasamp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adasamp

    if Path(adasamp.__file__).resolve().parent != (SRC / "adasamp").resolve():
        raise RuntimeError(f"imported adasamp from {adasamp.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # read when numpy loads
    try:
        load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seeds = [args.seed * workload.panel + j for j in range(workload.panel)]
    desc = machine()
    print(f"machine {json.dumps(desc, sort_keys=True)}")
    print(f"workload {args.workload}: cli seeds {seeds}; {workload.why}")

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="calls-", dir=OUT))
    try:
        runner = Runner(args.workload, work_dir)
        setup = setup_seconds() if not args.trace else None
        runner.warm_up(seeds[0])
        if args.trace:
            metrics = traced(runner, seeds, args.workload, args.seed)
        else:
            measure(runner, seeds, args.seconds)
            metrics = end_to_end(runner.calls)
            metrics["setup_s"] = (setup, "s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    calls = runner.calls
    failed = sum(c.failure is not None for c in calls)
    for call in calls:
        if call.failure is not None:
            print(f"FAILED {args.workload} seed={call.seed}: {call.failure}")
    for s, fp in sorted(runner.fingerprints.items()):
        print(f"fingerprint {args.workload} seed={s} grad_evals={fp['grad_evals']} "
              f"final_sample_size={fp['final_sample_size']} csv_sha256={fp['csv_sha256']}")
    for key, (value, unit) in metrics.items():
        print(f"metric {args.workload} {key} = {value:.6g} {unit}")
    print(f"calls {len(calls)}, failed {failed}")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cli_seeds": seeds, "machine": desc,
        "fingerprints": {str(s): fp for s, fp in sorted(runner.fingerprints.items())},
        "calls": [{"seed": c.seed, "wall_s": c.wall, "failure": c.failure} for c in calls],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
