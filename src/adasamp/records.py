"""Per-iteration run records, their CSV serialization, and run comparison.

The CSV schema is fixed: one header line, then one row per iteration in the
column order of CSV_COLUMNS. Floats are written with shortest round-trip
representation (>= 15 significant digits survive a parse). Missing values
(no known optimum, test disabled, not a CVaR run) are empty fields.

wall_time_ms is wall-clock and therefore the one column excluded from
determinism comparisons; ``csv_body`` strips it for that purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = [
    "CSV_COLUMNS",
    "RunRecord",
    "write_csv",
    "read_csv",
    "csv_body",
    "ComparisonReport",
    "compare_runs",
]

CSV_COLUMNS = (
    "iteration",
    "sample_size",
    "cumulative_grad_evals",
    "objective_estimate",
    "error_norm",
    "rho",
    "t_aux",
    "wall_time_ms",
)


@dataclass(frozen=True)
class RunRecord:
    iteration: int
    sample_size: int
    cumulative_grad_evals: int
    objective_estimate: float
    error_norm: Optional[float] = None
    rho: Optional[float] = None
    t_aux: Optional[float] = None
    wall_time_ms: float = 0.0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _row(rec: RunRecord) -> str:
    return ",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS)


def write_csv(records: List[RunRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(_row(rec) + "\n")


def _parse_opt(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def read_csv(path) -> List[RunRecord]:
    with open(path) as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV schema in {path}: {header!r}")
        records = []
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(
                    f"{path}, line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                    f"got {len(parts)}"
                )
            # three counts, the objective, three optional columns, the wall clock
            records.append(RunRecord(*map(int, parts[:3]), float(parts[3]),
                                     *map(_parse_opt, parts[4:7]), float(parts[7])))
    return records


def csv_body(path) -> str:
    """Canonical CSV body for determinism comparison: the log without its
    last column, the wall-clock wall_time_ms."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


@dataclass(frozen=True)
class ComparisonReport:
    """Two runs aligned on cumulative gradient evaluations."""

    grid: np.ndarray
    objective_a: np.ndarray
    objective_b: np.ndarray
    final_objective_a: float
    final_objective_b: float
    final_objective_delta: float
    final_objective_rel_delta: float
    final_error_a: Optional[float]
    final_error_b: Optional[float]
    failures: tuple
    passed: bool

    def to_text(self) -> str:
        lines = [
            "grad_evals,objective_a,objective_b,delta",
        ]
        for g, oa, ob in np.column_stack([self.grid, self.objective_a, self.objective_b]).tolist():
            lines.append(f"{g!r},{oa!r},{ob!r},{ob - oa!r}")
        lines.append(f"final_objective_a = {self.final_objective_a!r}")
        lines.append(f"final_objective_b = {self.final_objective_b!r}")
        lines.append(f"final_objective_delta = {self.final_objective_delta!r}")
        lines.append(f"final_objective_rel_delta = {self.final_objective_rel_delta!r}")
        if self.final_error_a is not None and self.final_error_b is not None:
            lines.append(f"final_error_a = {self.final_error_a!r}")
            lines.append(f"final_error_b = {self.final_error_b!r}")
        for f in self.failures:
            lines.append(f"FAIL: {f}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def compare_runs(csv_a, csv_b, expect_b_error_smaller: bool = False) -> ComparisonReport:
    """Align two run logs by cumulative gradient evaluations and compare.

    Objectives are linearly interpolated onto the union of both eval grids
    restricted to their overlap, and the final objectives' absolute and
    relative deltas are reported. The report passes unless
    ``expect_b_error_smaller`` is set and run b does not end with a smaller
    error_norm than run a.
    """
    recs_a = read_csv(csv_a)
    recs_b = read_csv(csv_b)
    if not recs_a or not recs_b:
        raise ValueError("cannot compare empty run logs")

    ga = np.array([r.cumulative_grad_evals for r in recs_a], dtype=float)
    oa = np.array([r.objective_estimate for r in recs_a])
    gb = np.array([r.cumulative_grad_evals for r in recs_b], dtype=float)
    ob = np.array([r.objective_estimate for r in recs_b])

    lo = max(ga.min(), gb.min())
    hi = min(ga.max(), gb.max())
    grid = np.unique(np.concatenate([ga, gb]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    ia = np.interp(grid, ga, oa)
    ib = np.interp(grid, gb, ob)

    fa, fb = float(oa[-1]), float(ob[-1])
    delta = fb - fa
    scale = max(abs(fa), abs(fb))
    rel = abs(delta) / scale if scale > 0 else (0.0 if delta == 0 else math.inf)
    ea = recs_a[-1].error_norm
    eb = recs_b[-1].error_norm

    failures = []
    if expect_b_error_smaller:
        if ea is None or eb is None:
            failures.append("error_norm missing; cannot compare final errors")
        elif not eb < ea:
            failures.append(f"final error of b ({eb!r}) not smaller than a ({ea!r})")

    return ComparisonReport(
        grid=grid,
        objective_a=ia,
        objective_b=ib,
        final_objective_a=fa,
        final_objective_b=fb,
        final_objective_delta=delta,
        final_objective_rel_delta=rel,
        final_error_a=ea,
        final_error_b=eb,
        failures=tuple(failures),
        passed=not failures,
    )
