"""Print the SHA-256 of ``records.csv_body`` and of the ``.meta.json``
sidecar for every CLI problem x algorithm pair at seeds 0-2, 100 iterations
each. At that length the sample-bound runs reach 10^4-10^5 samples per
iteration (basic spgd reaches its 2*10^5 cap), so the batched evaluators
run at full size. One pass takes about 80 s on two Xeon cores.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/csv_fingerprints.py > after.txt

The CSV body leaves out the wall-clock column, and the sidecar is hashed
without ``config.output`` (the only field that names the run's temporary
directory), so two versions of the library that compute the same
trajectories and final states print the same lines. To check that a change
keeps every trajectory and sidecar byte-identical, run the script once
against each version's ``src`` and diff the outputs:

    export OPENBLAS_NUM_THREADS=1
    PYTHONPATH=/path/to/old/src python tools/csv_fingerprints.py > before.txt
    PYTHONPATH=src python tools/csv_fingerprints.py > after.txt
    diff before.txt after.txt

The output is the same at one and two BLAS threads and at any CPU count,
because the large matrix-vector products run in fixed 512-row blocks, whose
bits do not change with the thread count, and the sample rows come from
keyed blocks (stream version 2). One thread is still needed to compare
against versions that ran the portfolio's ``xis @ x`` as one call: its rows
at the thread split change in the last bit.

A change that draws other samples, such as a new stream version, changes
every line. Such a change is gated on distributions instead:

    PYTHONPATH=src python tools/csv_fingerprints.py --compare /path/to/old/src

runs the same pairs on seeds 0-39 against both trees, each tree in its own
subprocess (the two trees of a pair at once). For every pair it prints, for
the final ``cumulative_grad_evals`` and the final ``objective_estimate``,
each side's quartiles and median and the two-sided Mann-Whitney p-value
(normal approximation with tie and continuity corrections). The gate passes,
and the script exits 0, when every p-value is at least 0.01. One comparison
took 17 minutes on two Xeon cores.

Uses the standard library and ``adasamp`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

import adasamp
from adasamp import cli
from adasamp.records import csv_body, read_csv

SEEDS = (0, 1, 2)
MAX_ITERS = 100
COMPARE_SEEDS = range(40)
GATE_P = 0.01

# Step sizes and test parameters of the README's CLI runs, per algorithm.
ALGORITHM_FLAGS = {
    "spgd": ("--alpha", "0.025", "--theta", "0.5", "--s0", "10", "--max-sample-size", "200000"),
    "spgd-fixed": ("--fixed-sample-size", "1000"),
    "cvar-extended": ("--beta", "0.9", "--epsilon", "0.1", "--alpha", "0.02", "--theta", "1.5"),
    "cvar-nested": ("--beta", "0.9", "--epsilon", "0.1", "--alpha", "0.2", "--theta", "4.0"),
    "sqp": (),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def meta_body(path: str) -> str:
    """The sidecar as the CLI writes it, with ``config.output`` removed."""
    with open(path) as fh:
        meta = json.load(fh)
    del meta["config"]["output"]
    return json.dumps(meta, indent=2)


def run(problem: str, algorithm: str, seed: int, workdir: str) -> str:
    """Run one CLI pair at one seed; return the path of its CSV log."""
    out = os.path.join(workdir, f"{problem}_{algorithm}_{seed}.csv")
    argv = ["run", "--problem", problem, "--algorithm", algorithm,
            *ALGORITHM_FLAGS[algorithm],
            "--max-iters", str(MAX_ITERS), "--seed", str(seed), "--output", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"adasamp {' '.join(argv)} exited with {code}")
    return out


def fingerprint(problem: str, algorithm: str, seed: int, workdir: str) -> str:
    out = run(problem, algorithm, seed, workdir)
    return f"csv={sha256(csv_body(out))} meta={sha256(meta_body(out + '.meta.json'))}"


def finals(problem: str, algorithm: str) -> int:
    """Print, as one JSON list, the final ``[cumulative_grad_evals,
    objective_estimate]`` of the pair at every seed of ``COMPARE_SEEDS``."""
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in COMPARE_SEEDS:
            last = read_csv(run(problem, algorithm, seed, workdir))[-1]
            rows.append([last.cumulative_grad_evals, last.objective_estimate])
    print(json.dumps(rows))
    return 0


def mann_whitney_p(a, b) -> float:
    """Two-sided p-value of the Mann-Whitney U test of samples a and b, by
    the normal approximation with tie and continuity corrections; 1.0 when
    every value ties."""
    n1, n2 = len(a), len(b)
    n = n1 + n2
    pooled = sorted(list(a) + list(b))
    rank, ties, i = {}, 0.0, 0
    while i < n:
        j = i
        while j < n and pooled[j] == pooled[i]:
            j += 1
        rank[pooled[i]] = (i + 1 + j) / 2.0  # the mean of ranks i+1 .. j
        ties += (j - i) ** 3 - (j - i)
        i = j
    u = sum(rank[v] for v in a) - n1 * (n1 + 1) / 2.0
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    if var <= 0.0:
        return 1.0
    z = (abs(u - n1 * n2 / 2.0) - 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * (1.0 - statistics.NormalDist().cdf(z)))


def quartiles(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q1:.6g}/{q2:.6g}/{q3:.6g}"


def compare(old_src: str) -> int:
    """Gate a change that draws other samples: see the module docstring."""
    new_src = os.path.dirname(os.path.dirname(os.path.abspath(adasamp.__file__)))
    print(f"old: {os.path.abspath(old_src)}  new: {new_src}  seeds: "
          f"{COMPARE_SEEDS.start}-{COMPARE_SEEDS.stop - 1}  (q1/median/q3)", flush=True)
    passed = True
    for problem in cli.PROBLEMS:
        for algorithm in cli.ALGORITHMS:
            procs = []
            for src in (old_src, new_src):
                env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
                procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--finals", problem, algorithm],
                    stdout=subprocess.PIPE, text=True, env=env,
                ))
            sides = []
            for proc in procs:
                stdout, _ = proc.communicate()
                if proc.returncode != 0:
                    raise SystemExit(f"{problem} {algorithm}: a run exited with {proc.returncode}")
                sides.append(json.loads(stdout.strip().splitlines()[-1]))
            old, new = sides
            for col, name in enumerate(("grad_evals", "objective")):
                a = [row[col] for row in old]
                b = [row[col] for row in new]
                p = mann_whitney_p(a, b)
                passed &= p >= GATE_P
                print(f"{problem} {algorithm} {name}: old {quartiles(a)} new {quartiles(b)} "
                      f"p={p:.3g}{'' if p >= GATE_P else ' FAIL'}", flush=True)
    print(f"gate: {'pass' if passed else 'FAIL'} (every p >= {GATE_P})")
    return 0 if passed else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--finals"] and len(argv) == 3:
        return finals(argv[1], argv[2])
    if argv[:1] == ["--compare"] and len(argv) == 2:
        return compare(argv[1])
    if argv:
        raise SystemExit("usage: csv_fingerprints.py [--compare OLD_SRC]")
    print(f"adasamp from {os.path.dirname(adasamp.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        for problem in cli.PROBLEMS:
            for algorithm in cli.ALGORITHMS:
                for seed in SEEDS:
                    digests = fingerprint(problem, algorithm, seed, workdir)
                    print(f"{problem} {algorithm} seed={seed} {digests}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
