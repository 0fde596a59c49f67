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

The output is the same at one and two BLAS threads, because the large
matrix-vector products run in fixed 512-row blocks, whose bits do not
change with the thread count. One thread is still needed to compare against versions
that ran the portfolio's ``xis @ x`` as one call: its rows at the thread
split change in the last bit.

Uses the standard library and ``adasamp`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def meta_body(path: str) -> str:
    """The sidecar as the CLI writes it, with ``config.output`` removed."""
    with open(path) as fh:
        meta = json.load(fh)
    del meta["config"]["output"]
    return json.dumps(meta, indent=2)


def fingerprint(problem: str, algorithm: str, seed: int, workdir: str) -> str:
    out = os.path.join(workdir, f"{problem}_{algorithm}_{seed}.csv")
    argv = ["run", "--problem", problem, "--algorithm", algorithm,
            *ALGORITHM_FLAGS[algorithm],
            "--max-iters", str(MAX_ITERS), "--seed", str(seed), "--output", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"adasamp {' '.join(argv)} exited with {code}")
    return f"csv={sha256(csv_body(out))} meta={sha256(meta_body(out + '.meta.json'))}"


def main() -> int:
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
