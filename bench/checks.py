"""Output checks and trajectory fingerprints for one CLI run.

A run passes when the CLI returned 0, its CSV parses, its status is one of
the drivers' named terminal statuses, the CSV agrees with the metadata
sidecar, and its final point passes the workload's own check.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from adasamp.records import csv_body, read_csv

TERMINAL_STATUSES = frozenset(
    {"completed", "stationary", "budget-exhausted", "sample-budget-exhausted"}
)
RETURN_THRESHOLD = 1.05


def error_decay(records, meta):
    """basic-spgd: the final error is at most 1e-2 times the initial one."""
    first, last = records[0].error_norm, records[-1].error_norm
    if first is None or last is None:
        return "error_norm column is empty"
    if not last <= 1e-2 * first:
        return f"final error_norm {last!r} is above 1e-2 x initial {first!r}"
    return None


def portfolio_set(records, meta):
    """Portfolio runs: final_x lies in simplex ∩ {<A, x> >= 1.05} within 1e-8."""
    x = np.asarray(meta["final_x"], dtype=float)
    A = np.asarray(meta["problem_params"]["A"], dtype=float)
    violation = max(-float(x.min()), abs(float(x.sum()) - 1.0), RETURN_THRESHOLD - float(A @ x))
    if not violation <= 1e-8:
        return f"final_x leaves the feasible set by {violation!r}"
    return None


def unit_sphere(records, meta):
    """sqp: the final point satisfies | ||x||^2 - 1 | <= 1e-6."""
    x = np.asarray(meta["final_x"], dtype=float)
    gap = abs(float(x @ x) - 1.0)
    if not gap <= 1e-6:
        return f"| ||x||^2 - 1 | = {gap!r} is above 1e-6"
    return None


def check_run(rc, csv_path, final_check):
    """Check one finished CLI run. Returns ``(failure, meta, records)`` with
    ``failure`` None when every check passes."""
    if rc != 0:
        return f"main returned {rc}", None, None
    try:
        records = read_csv(csv_path)
        with open(str(csv_path) + ".meta.json") as fh:
            meta = json.load(fh)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}", None, None
    if meta.get("status") not in TERMINAL_STATUSES:
        return f"status {meta.get('status')!r} is not a terminal status", meta, records
    if not records or len(records) != meta["iterations"]:
        return "CSV rows disagree with the metadata iteration count", meta, records
    if records[-1].cumulative_grad_evals != meta["cumulative_grad_evals"]:
        return "CSV and metadata disagree on gradient evaluations", meta, records
    return final_check(records, meta), meta, records


def fingerprint(csv_path, meta) -> dict:
    """What a fixed-seed trajectory must keep across a speed change."""
    body = csv_body(csv_path).encode()
    return {
        "grad_evals": meta["cumulative_grad_evals"],
        "final_sample_size": meta["final_sample_size"],
        "csv_sha256": hashlib.sha256(body).hexdigest(),
    }
