"""Experiment harness: configuration, orchestration of algorithm runs, CSV
logging, and pairwise run comparison.

One experiment per process invocation. Flags may be combined with an optional
key=value configuration file (--config); flags win on conflict. The default
output directory comes from the ADASAMP_OUTPUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from .algorithms import (
    EqualityConstraint,
    OptimizerConfig,
    run_cvar_extended,
    run_nested_quantile,
    run_spgd_adaptive,
    run_sqp_adaptive,
)
from .geometry import ProjectionError
from .model import STREAM_VERSION
from .problems import BasicExample, PortfolioProblem
from .records import compare_runs, write_csv
from .sizing import TestConfig

__all__ = ["ExperimentConfig", "ConfigError", "run_experiment", "main"]

PROBLEMS = ("basic", "portfolio")
ALGORITHMS = ("spgd", "sqp", "cvar-extended", "cvar-nested", "spgd-fixed")
OUTPUT_DIR_ENV = "ADASAMP_OUTPUT_DIR"


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"invalid configuration field '{field}': {message}")
        self.field = field


@dataclass
class ExperimentConfig:
    problem: str = "basic"
    algorithm: str = "spgd"
    alpha: float = 0.025
    theta: float = 1.0
    beta: float = 0.5
    epsilon: float = 0.1
    s0: int = 10
    max_iters: int = 150
    seed: int = 0
    max_sample_size: int = 10**6
    fixed_sample_size: Optional[int] = None
    output: Optional[str] = None

    def validate(self) -> None:
        if self.problem not in PROBLEMS:
            raise ConfigError("problem", f"must be one of {PROBLEMS}, got {self.problem!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                "algorithm", f"must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError("alpha", "must be positive and finite")
        if self.algorithm != "spgd-fixed" and not (math.isfinite(self.theta) and self.theta > 0):
            raise ConfigError("theta", "must be positive and finite")
        if self.algorithm in ("cvar-extended", "cvar-nested"):
            if not 0.0 < self.beta < 1.0:
                raise ConfigError(
                    "beta",
                    "cvar algorithms need 0 < beta < 1 "
                    "(beta = 0 is plain expectation: use spgd)",
                )
            if not (math.isfinite(self.epsilon) and self.epsilon > 0):
                raise ConfigError("epsilon", "must be positive and finite")
        if self.s0 < 2 and self.algorithm != "spgd-fixed":
            raise ConfigError("s0", "must be >= 2 (the variance test needs two samples)")
        if self.max_iters < 1:
            raise ConfigError("max_iters", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        if self.max_sample_size < self.s0 and self.algorithm != "spgd-fixed":
            raise ConfigError("max_sample_size", "must be >= s0")
        if self.algorithm == "spgd-fixed":
            if self.fixed_sample_size is None or self.fixed_sample_size < 1:
                raise ConfigError(
                    "fixed_sample_size", "spgd-fixed needs --fixed-sample-size >= 1"
                )
        elif self.fixed_sample_size is not None:
            raise ConfigError(
                "fixed_sample_size", "only meaningful with algorithm spgd-fixed"
            )

    def output_path(self) -> Path:
        if self.output:
            return Path(self.output)
        base = os.environ.get(OUTPUT_DIR_ENV, ".")
        name = f"{self.problem}_{self.algorithm}_seed{self.seed}.csv"
        return Path(base) / name


def _optimizer_config(cfg: ExperimentConfig) -> OptimizerConfig:
    fixed = cfg.algorithm == "spgd-fixed"
    return OptimizerConfig(
        alpha=cfg.alpha,
        max_iters=cfg.max_iters,
        test=None if fixed else TestConfig(cfg.theta, cfg.max_sample_size),
        initial_sample_size=cfg.fixed_sample_size if fixed else cfg.s0,
        seed=cfg.seed,
    )


def _build_problem(cfg: ExperimentConfig):
    if cfg.problem == "basic":
        problem, cset = BasicExample.generate(cfg.seed).build()
        x0 = np.ones(problem.dim)
    else:
        problem, cset = PortfolioProblem.generate(cfg.seed).build()
        x0 = np.full(problem.dim, 1.0 / problem.dim)
    return problem, cset, x0


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one experiment, write the CSV log and its metadata sidecar."""
    cfg.validate()
    problem, cset, x0 = _build_problem(cfg)
    opt = _optimizer_config(cfg)

    if cfg.algorithm in ("spgd", "spgd-fixed"):
        result = run_spgd_adaptive(problem, cset, opt, x0)
    elif cfg.algorithm == "cvar-extended":
        result = run_cvar_extended(problem, cset, cfg.beta, cfg.epsilon, opt, x0)
    elif cfg.algorithm == "cvar-nested":
        result = run_nested_quantile(problem, cset, cfg.beta, cfg.epsilon, opt, x0)
    else:
        # The packaged problems carry no functional equality constraint, so
        # the sqp mode runs them on the unit sphere G(x) = ||x||^2 - 1. For
        # the portfolio's linear loss the sphere optimum is known (A/||A||)
        # and feeds the error column.
        constraint = EqualityConstraint(
            value=lambda x: float(x @ x) - 1.0,
            grad=lambda x: 2.0 * np.asarray(x, dtype=float),
        )
        x0 = np.ones(problem.dim) / np.sqrt(problem.dim)
        known = None
        if cfg.problem == "portfolio":
            A = problem.params["A"]
            known = A / np.linalg.norm(A)
        result = run_sqp_adaptive(problem, constraint, opt, x0, known_optimum=known)

    out = cfg.output_path()
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(result.records, out)

    meta = {
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "config": asdict(cfg),
        "status": result.status,
        "problem_params": problem.params,
        "x0": x0,
        "final_x": result.state.x,
        "final_t": result.state.t,
        "final_sample_size": result.state.sample_size,
        "cumulative_grad_evals": result.state.cumulative_grad_evals,
        "iterations": result.state.iteration,
        "extras": {k: v for k, v in result.extras.items() if k in ("t0", "augment_rounds")},
    }
    with open(str(out) + ".meta.json", "w") as fh:  # json.dumps without indent runs the C encoder
        fh.write(json.dumps(meta, default=lambda o: o.tolist()))

    print(f"{cfg.problem}/{cfg.algorithm}: {result.status} after "
          f"{result.state.iteration} iterations, "
          f"{result.state.cumulative_grad_evals} gradient evals -> {out}")
    return 0


def load_config_file(path) -> dict:
    """Parse a key=value configuration file ('-' and '_' interchangeable in
    keys, '#' starts a comment)."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("config", f"line {lineno} is not key=value: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _field_types() -> dict:
    """Each ExperimentConfig field and the type of its value, in field
    order: an Optional[int] field gives int. These are the run subcommand's
    flags and the configuration file's keys."""
    return {
        name: (get_args(hint) or (hint,))[0]
        for name, hint in get_type_hints(ExperimentConfig).items()
    }


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        kinds = _field_types()
        for key, raw in load_config_file(args.config).items():
            kind = kinds.get(key)
            if kind is None:
                raise ConfigError(key, "unknown configuration key")
            try:
                setattr(cfg, key, kind(raw))
            except ValueError:
                raise ConfigError(key, f"not a valid {kind.__name__}: {raw!r}") from None
    for field in vars(cfg):
        flag = getattr(args, field, None)
        if flag is not None:
            setattr(cfg, field, flag)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adasamp",
        description="Adaptive-sampling stochastic optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write a CSV log")
    choices = {"problem": PROBLEMS, "algorithm": ALGORITHMS}
    for name, kind in _field_types().items():
        flag = "--" + name.replace("_", "-")
        run.add_argument(flag, dest=name, type=kind, choices=choices.get(name))
    run.add_argument("--config", type=str, help="key=value file; flags win on conflict")

    cmp_ = sub.add_parser("compare", help="align two run logs by gradient evaluations")
    cmp_.add_argument("csv_a")
    cmp_.add_argument("csv_b")
    cmp_.add_argument(
        "--expect-b-error-smaller",
        action="store_true",
        help="fail unless run b ends with a smaller error_norm than run a",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(resolve_config(args))
        report = compare_runs(args.csv_a, args.csv_b, args.expect_b_error_smaller)
        sys.stdout.write(report.to_text())
        return 0 if report.passed else 1
    # a RuntimeWarning is raised only under python -W error, as by an
    # overflow in a step too large for float64; a projection that does not
    # converge ends the run as an error too
    except (ValueError, OSError, RuntimeWarning, ProjectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
