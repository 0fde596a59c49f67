"""Print the SHA-256 of ``records.csv_body`` for every CLI problem x algorithm
pair at seeds 0-2, 100 iterations each. At that length the sample-bound runs
reach 10^4-10^5 samples per iteration (basic spgd reaches its 2*10^5 cap),
so the batched evaluators run at full size. One pass takes about 80 s on
two Xeon cores.

    PYTHONPATH=src python tools/csv_fingerprints.py > after.txt

The CSV body leaves out the wall-clock column, so two versions of the
library that compute the same trajectories print the same lines. To check
that a change keeps every trajectory byte-identical, run the script once
against each version's ``src`` and diff the outputs:

    PYTHONPATH=/path/to/old/src python tools/csv_fingerprints.py > before.txt
    PYTHONPATH=src python tools/csv_fingerprints.py > after.txt
    diff before.txt after.txt

Uses the standard library and ``adasamp`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import adasamp
from adasamp import cli
from adasamp.records import csv_body

SEEDS = (0, 1, 2)
MAX_ITERS = 100

# Step sizes and test parameters of the README's CLI runs, per algorithm.
ALGORITHM_FLAGS = {
    "spgd": ("--alpha", "0.025", "--theta", "0.5", "--s0", "10", "--max-sample-size", "200000"),
    "spgd-fixed": ("--fixed-sample-size", "1000"),
    "cvar-extended": ("--beta", "0.9", "--epsilon", "0.1", "--alpha", "0.02", "--theta", "1.5"),
    "cvar-nested": ("--beta", "0.9", "--epsilon", "0.1", "--alpha", "0.2", "--theta", "4.0"),
    "sqp": (),
}


def fingerprint(problem: str, algorithm: str, seed: int, workdir: str) -> str:
    out = os.path.join(workdir, f"{problem}_{algorithm}_{seed}.csv")
    argv = ["run", "--problem", problem, "--algorithm", algorithm,
            *ALGORITHM_FLAGS[algorithm],
            "--max-iters", str(MAX_ITERS), "--seed", str(seed), "--output", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"adasamp {' '.join(argv)} exited with {code}")
    return hashlib.sha256(csv_body(out).encode()).hexdigest()


def main() -> int:
    print(f"adasamp from {os.path.dirname(adasamp.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        for problem in cli.PROBLEMS:
            for algorithm in cli.ALGORITHMS:
                for seed in SEEDS:
                    digest = fingerprint(problem, algorithm, seed, workdir)
                    print(f"{problem} {algorithm} seed={seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
