"""Print the SHA-256 of ``records.csv_body`` and of the ``.meta.json``
sidecar for every CLI problem x algorithm pair at seeds 0-2, 100 iterations
each. At that length the sample-bound runs reach 10^4-10^5 samples per
iteration (basic spgd reaches its 2*10^5 cap), so the batched evaluators
run at full size. One pass took 24 s on two Xeon cores.

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
because every per-row product (the portfolio draw's correlate, the value
passes, the SQP directions) runs in BLAS calls of 128 rows with the partial
block zero-padded, so a row's bits depend on that row alone, and the sample
rows come from keyed blocks (stream version 2).

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

Below each pair's p-values, one line per seed compares the two runs column
by column, for a change that only moves last bits (such as a new summation
order): the first iteration at which ``sample_size`` differs, if any; the
ratio new/old of the final ``cumulative_grad_evals``; and, over the rows
before that iteration, the columns that are identical and the max absolute
and max relative difference of the others. A closing line gives the largest
relative difference of the objective, error and t columns while the sizes
agree, against the 1e-9 of a last-bits change (a change that draws other
samples differs from the first row on), and the number of runs whose sizes
diverge. A last line gives rho's largest difference while the sizes agree,
relative to max(|rho|, 1), the test's threshold: a rho far below 1, such as
the 1e-27 of rows that agree to rounding, is itself rounding noise, and its
plain relative difference says nothing.

Each seed's line ends with the ``final_objective_rel_delta`` that
``adasamp compare`` reports for the two runs: both trajectories are written
as CSV logs and compared with ``records.compare_runs``. A closing line gives
its largest value over all runs and over the runs whose sizes diverge. The
exit code depends on the p-values only.

Every pair runs the README's flags for its algorithm, except basic
cvar-extended, which runs at ``--theta 0.01`` (``PAIR_FLAGS``): at theta 1.5
its variance test passes at 10 rows on every gate seed, whereas at 0.01 its
sets exceed two 2048-row blocks from iteration 1 on at seeds 0-2, so that
the pair covers the blocked passes and the moment kernel's merge.

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
from adasamp.records import CSV_COLUMNS, RunRecord, compare_runs, csv_body, read_csv, write_csv

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
# Flags of single pairs, after the algorithm's (the later flag wins); see
# the module docstring.
PAIR_FLAGS = {("basic", "cvar-extended"): ("--theta", "0.01")}
# The columns the per-run report compares: all but the wall clock.
COLUMNS = CSV_COLUMNS[:-1]
SIZE = COLUMNS.index("sample_size")
GRAD_EVALS = COLUMNS.index("cumulative_grad_evals")
OBJECTIVE = COLUMNS.index("objective_estimate")
RHO = COLUMNS.index("rho")
# the columns the 1e-9 verdict covers
GATED = tuple(COLUMNS.index(name) for name in ("objective_estimate", "error_norm", "t_aux"))
LAST_BITS_REL = 1e-9


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
            *ALGORITHM_FLAGS[algorithm], *PAIR_FLAGS.get((problem, algorithm), ()),
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
    """Print, as one JSON list, the records of the pair at every seed of
    ``COMPARE_SEEDS``: per seed a list of rows of the ``COLUMNS`` values
    (null for an empty field). The gate reads the finals from the last rows."""
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in COMPARE_SEEDS:
            records = read_csv(run(problem, algorithm, seed, workdir))
            runs.append([[getattr(rec, col) for col in COLUMNS] for rec in records])
    print(json.dumps(runs))
    return 0


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # two empty fields, or two NaNs


def column_report(old, new):
    """One seed's runs compared column by column: returns the report text
    (see the module docstring), the largest relative difference of the
    ``GATED`` columns and the largest difference of rho relative to
    max(|rho|, 1) while the sizes agree, and whether the sizes diverge."""
    common = min(len(old), len(new))
    diverge = next((i for i in range(common) if old[i][SIZE] != new[i][SIZE]), None)
    agree = common if diverge is None else diverge
    identical, parts, worst, rho_diff = [], [], 0.0, 0.0
    for j, name in enumerate(COLUMNS):
        pairs = [(a[j], b[j]) for a, b in zip(old[:agree], new[:agree]) if not _same(a[j], b[j])]
        if not pairs:
            identical.append(name)
            continue
        abs_d = rel_d = floored = math.inf  # a field empty or NaN on one side only
        if all(v is not None and v == v for pair in pairs for v in pair):
            abs_d = max(abs(a - b) for a, b in pairs)
            rel_d = max(abs(a - b) / max(abs(a), abs(b)) for a, b in pairs)
            floored = max(abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in pairs)
        if j in GATED:
            worst = max(worst, rel_d)
        elif j == RHO:
            rho_diff = floored
        parts.append(f"{name} abs={abs_d:.3g} rel={rel_d:.3g}")
    sizes = "sizes agree" if diverge is None else f"sizes diverge at iteration {old[diverge][0]}"
    ratio = new[-1][GRAD_EVALS] / old[-1][GRAD_EVALS]
    same = "all columns" if not parts else ",".join(identical) or "none"
    text = f"{sizes}; grad_evals ratio {ratio:.6g}; identical: {same}"
    return "; ".join([text, *parts]), worst, rho_diff, diverge is not None


def final_objective_rel_delta(old, new) -> float:
    """The ``final_objective_rel_delta`` of ``adasamp compare`` for one seed's
    runs, given as rows of the ``COLUMNS`` values: both are written as CSV
    logs and compared with ``records.compare_runs``."""
    with tempfile.TemporaryDirectory() as workdir:
        paths = [os.path.join(workdir, "old.csv"), os.path.join(workdir, "new.csv")]
        for rows, path in zip((old, new), paths):
            write_csv([RunRecord(*row) for row in rows], path)
        return compare_runs(*paths).final_objective_rel_delta


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
    passed, worst, rho_worst, diverged, runs = True, 0.0, 0.0, 0, 0
    final_worst = final_worst_diverged = 0.0
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
            for col, name in ((GRAD_EVALS, "grad_evals"), (OBJECTIVE, "objective")):
                a = [run_rows[-1][col] for run_rows in old]
                b = [run_rows[-1][col] for run_rows in new]
                p = mann_whitney_p(a, b)
                passed &= p >= GATE_P
                print(f"{problem} {algorithm} {name}: old {quartiles(a)} new {quartiles(b)} "
                      f"p={p:.3g}{'' if p >= GATE_P else ' FAIL'}", flush=True)
            for seed, old_rows, new_rows in zip(COMPARE_SEEDS, old, new):
                text, rel, rho_diff, diverges = column_report(old_rows, new_rows)
                final_rel = final_objective_rel_delta(old_rows, new_rows)
                worst, rho_worst = max(worst, rel), max(rho_worst, rho_diff)
                final_worst = max(final_worst, final_rel)
                if diverges:
                    final_worst_diverged = max(final_worst_diverged, final_rel)
                diverged += diverges
                runs += 1
                print(f"  {problem} {algorithm} seed={seed}: {text}; "
                      f"final_objective_rel_delta {final_rel:.3g}", flush=True)
    gated = ", ".join(COLUMNS[j] for j in GATED)
    print(f"{gated} while the sizes agree: max rel difference {worst:.3g} "
          f"({'within' if worst <= LAST_BITS_REL else 'above'} {LAST_BITS_REL:g}); "
          f"sizes diverge in {diverged} of {runs} runs")
    print(f"rho while the sizes agree: max difference {rho_worst:.3g} relative to max(|rho|, 1)")
    print(f"final_objective_rel_delta: max {final_worst:.3g} over all runs, "
          f"{final_worst_diverged:.3g} over the runs whose sizes diverge")
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
