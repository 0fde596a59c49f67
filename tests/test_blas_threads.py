"""The portfolio sampler's correlate, its value pass and the SQP directions
are blocked products: one BLAS call per 128 rows, the partial block
zero-padded. So their bits are those of one padded call per block, and do
not depend on the BLAS thread count. One large call is split across threads,
and the rows at the split change in the last bit; the OpenBLAS thread count
is read once at start-up, hence one subprocess per setting. The sampler's
keyed blocks are drawn and correlated on pool threads, so its digest also
covers that split."""

import json
import os
import subprocess
import sys
from pathlib import Path

import adasamp

# 129, 513 and 1025 end in a one-row block; at 6003 and 20003 rows one large
# call runs on two threads (with OpenBLAS, above a few thousand rows of 100)
# and splits the rows unevenly.
SIZES = (129, 513, 1025, 6003, 20003)

SCRIPT = r"""
import hashlib
import json
import sys

import numpy as np

from adasamp.algorithms import sqp_directions
from adasamp.model import _BLOCK_ROWS, _STREAM_BLOCK_ROWS, draw_samples
from adasamp.problems import make_portfolio

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

def blocks(m, w):
    # one call per _BLOCK_ROWS rows of m, zero-padded to whole blocks
    n, d = m.shape
    padded = np.zeros((-(-n // _BLOCK_ROWS) * _BLOCK_ROWS, d))
    padded[:n] = m
    return np.concatenate([b @ w for b in padded.reshape(-1, _BLOCK_ROWS, d)])[:n]

problem, _ = make_portfolio(0)
A, B = problem.params["A"], problem.params["B"]
x = np.full(problem.dim, 1.0 / np.sqrt(problem.dim))
grad_G, G_val, alpha = 2.0 * x, 0.25, 0.025
g_sq = float(grad_G @ grad_G)
out = {}
for n in json.loads(sys.argv[1]):
    xis = draw_samples(problem, n, 3, 0).realizations
    u = np.empty((n, 100))
    for b, start in enumerate(range(0, n, _STREAM_BLOCK_ROWS)):
        seq = np.random.SeedSequence(entropy=0, spawn_key=(0, 3, b))
        rows = min(_STREAM_BLOCK_ROWS, n - start)
        u[start : start + rows] = np.random.Generator(np.random.SFC64(seq)).standard_normal((rows, 100))
    grads = -xis
    lams = (G_val - alpha * blocks(grads, grad_G)) / (alpha * g_sq)
    out[n] = {
        "sampler": digest(xis),
        "sampler_blocks": digest(A + blocks(u, B.T)),
        "values": digest(problem.value_many(x, xis)),
        "values_blocks": digest(-blocks(xis, x)),
        "directions": digest(sqp_directions(grads, grad_G, G_val, alpha)),
        "directions_blocks": digest(-alpha * (grads + lams[:, None] * grad_G)),
    }
print(json.dumps(out))
"""


def digests(threads: int) -> dict:
    src = str(Path(adasamp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(SIZES)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_value_pass_and_sqp_directions_do_not_depend_on_blas_threads():
    one, two = digests(1), digests(2)
    for n in map(str, SIZES):
        # the same bits as one padded call per block ...
        assert one[n]["sampler"] == one[n]["sampler_blocks"], n
        assert one[n]["values"] == one[n]["values_blocks"], n
        assert one[n]["directions"] == one[n]["directions_blocks"], n
        # ... at any thread count
        assert two[n]["sampler"] == one[n]["sampler"], n
        assert two[n]["values"] == one[n]["values"], n
        assert two[n]["directions"] == one[n]["directions"], n
