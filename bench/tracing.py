"""Span tracing for the benchmark's traced run.

Wrappers are installed from the benchmark, around the public functions that
the CLI and the drivers call in each ``adasamp`` module; the package source is
not modified, and ``installed`` restores every original on exit. A span is
``[name, start, end, parent]``: ``name`` is ``<layer>.<function>``, the times
come from ``time.perf_counter``, and ``parent`` is the index of the enclosing
span or -1. Spans stay in memory; the benchmark writes them out at the end.

Counts are taken at the same boundaries (rows evaluated, tests run, Dykstra
iterations, ...), so that per-layer ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import time
from collections import Counter

LAYERS = ("problems", "model", "geometry", "risk", "sizing", "algorithms", "records", "cli")

# project() on these sets recurses into project() on its members; any other
# set is a leaf with a closed-form projection.
_COMPOSITE_SETS = ("Intersection", "ProductWithFree")


class Tracer:
    """In-memory span recorder with counters keyed by metric name."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self._open = []

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._open[-1]][0] if self._open else None

    def parent_layer(self, parent: int):
        return self.spans[parent][0].split(".", 1)[0] if parent >= 0 else None

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, -math.inf):
            self.maxima[key] = value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span called ``name``. ``after(tracer, parent,
        args, result)`` runs once the span has closed, to take counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, 0.0, 0.0, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(self, parent, args, result)
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by(spans, key) -> dict:
    """Self time summed over spans grouped by ``key(name)``."""
    totals = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[key(span[0])] += own
    return totals


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def unattributed(spans, wall: float) -> float:
    """``wall`` minus the self time of every span. Spans nest, so the self
    times add up to the top-level spans' durations; the remainder is the
    part of the call outside all of them (argument parsing, config)."""
    return wall - sum(self_times(spans))


# ---- count hooks --------------------------------------------------------

def _rows(key):
    def after(tracer, parent, args, result):
        tracer.counts[key] += len(args[1])
    return after


def _after_sampler(tracer, parent, args, result):
    tracer.counts["problems.sampler_rows"] += int(args[1])


def _after_draw(tracer, parent, args, result):
    n, xi_dim = result.realizations.shape
    tracer.counts["model.samples_drawn"] += n
    tracer.peak("model.sample_bytes_peak", n * xi_dim * 8)


def _after_stats(tracer, parent, args, result):
    tracer.counts["model.stats_rows"] += result.n


def _after_project(tracer, parent, args, result):
    if type(args[0]).__name__ not in _COMPOSITE_SETS:
        tracer.counts["geometry.leaf_projections"] += 1
    if tracer.parent_layer(parent) != "geometry":
        tracer.counts["geometry.project_calls"] += 1
        tracer.counts["geometry.dykstra_iterations"] += result.iterations
        tracer.peak("geometry.residual_max", result.residual)


def _after_quantile(tracer, parent, args, result):
    tracer.counts["risk.quantile_solve_calls"] += 1


def _test_hook(sample_count):
    def after(tracer, parent, args, outcome):
        n, cfg = sample_count(args[0]), args[2]
        tracer.counts["sizing.tests_run"] += 1
        tracer.counts["sizing.tests_passed"] += int(outcome.passed)
        # rho > 1 and the size it asks for is clipped by the cap
        wanted = math.ceil(outcome.rho * n) if math.isfinite(outcome.rho) else math.inf
        if not outcome.passed and wanted > cfg.max_sample_size:
            tracer.counts["sizing.capped_iterations"] += 1
    return after


def _after_driver(tracer, parent, args, result):
    if tracer.parent_layer(parent) == "algorithms":
        return  # a driver dispatching to another; count the outer one
    tracer.counts["algorithms.iterations"] += len(result.records)
    tracer.counts["algorithms.grad_evals"] += result.state.cumulative_grad_evals
    tracer.counts["algorithms.final_sample_size"] += result.state.sample_size
    tracer.counts["sizing.augment_rounds"] += sum(result.extras.get("augment_rounds", ()))


def _after_write_csv(tracer, parent, args, result):
    tracer.counts["records.csv_bytes"] += os.path.getsize(args[1])


def _after_run_experiment(tracer, parent, args, result):
    meta = str(args[0].output_path()) + ".meta.json"
    if os.path.exists(meta):
        tracer.counts["cli.meta_json_bytes"] += os.path.getsize(meta)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers into the loaded ``adasamp`` modules."""
    from adasamp import algorithms, cli, geometry, model, problems, records, risk, sizing

    functions = [
        (model.draw_samples, "model.draw_samples", _after_draw),
        (model.batch_values, "model.batch_values", None),
        (model.batch_grads, "model.batch_grads", None),
        (model.gradient_stats, "model.gradient_stats", _after_stats),
        (model.sample_gradient, "model.sample_gradient", None),
        (model.sample_objective, "model.sample_objective", None),
        (geometry.project, "geometry.project", _after_project),
        (risk.quantile_solve, "risk.quantile_solve", _after_quantile),
        (risk.smooth_plus, "risk.smooth_plus", None),
        (sizing.norm_test, "sizing.norm_test", _test_hook(lambda stats: stats.n)),
        (sizing.sqp_norm_test, "sizing.sqp_norm_test", _test_hook(len)),
        (algorithms.run_spgd_adaptive, "algorithms.run_spgd_adaptive", _after_driver),
        (algorithms.run_sqp_adaptive, "algorithms.run_sqp_adaptive", _after_driver),
        (algorithms.run_cvar_extended, "algorithms.run_cvar_extended", _after_driver),
        (algorithms.run_nested_quantile, "algorithms.run_nested_quantile", _after_driver),
        (records.write_csv, "records.write_csv", _after_write_csv),
        (cli.run_experiment, "cli.run_experiment", _after_run_experiment),
    ]
    wrappers = {id(fn): tracer.wrap(name, fn, after) for fn, name, after in functions}
    patched = []

    def patch(owner, attr, replacement):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # Modules import these functions by name, so every binding is replaced.
    for module in (algorithms, cli, geometry, model, problems, records, risk, sizing):
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                patch(module, attr, wrappers[id(value)])

    ext = risk.ExtendedProblem
    patch(ext, "value_many", tracer.wrap("risk.extended_value", ext.value_many))
    patch(ext, "grad_many", tracer.wrap("risk.extended_grad", ext.grad_many))

    expit = risk.expit

    def counted_expit(*args, **kwargs):
        if tracer.current() == "risk.quantile_solve":
            tracer.counts["risk.quantile_passes"] += 1
        return expit(*args, **kwargs)

    patch(risk, "expit", counted_expit)

    for cls in (problems.BasicExample, problems.PortfolioProblem):
        patch(cls, "build", _traced_build(tracer, cls.build))

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _traced_build(tracer: Tracer, build):
    """Wrap the packaged problem's sampler and batched evaluators."""

    @functools.wraps(build)
    def traced_build(self):
        problem, cset = build(self)
        problem = dataclasses.replace(
            problem,
            sampler=tracer.wrap("problems.sampler", problem.sampler, _after_sampler),
            value_many=tracer.wrap("problems.value_many", problem.value_many, _rows("problems.value_rows")),
            grad_many=tracer.wrap("problems.grad_many", problem.grad_many, _rows("problems.grad_rows")),
        )
        return problem, cset

    return traced_build


# ---- per-layer metrics --------------------------------------------------

def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, calls: int) -> dict:
    """Per-layer metrics per traced call, as ``{name: (value, unit)}``.

    Every ``_s`` metric is self time: span durations minus their child
    spans. Counts and times are means over ``calls`` traced calls; ratios
    are taken over the totals.
    """
    spans, c = tracer.spans, tracer.counts
    by_layer = self_time_by(spans, layer_of)
    by_name = self_time_by(spans, lambda name: name)

    def s(key):
        return by_name[key] / calls

    grad_evals = c["algorithms.grad_evals"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (by_layer[layer] / calls, "s")
    m.update({
        "problems.sampler_s": (s("problems.sampler"), "s"),
        "problems.sampler_ns_per_row": (_per(by_name["problems.sampler"] * 1e9, c["problems.sampler_rows"]), "ns/row"),
        "problems.value_rows": (c["problems.value_rows"] / calls, "rows"),
        "problems.grad_rows": (c["problems.grad_rows"] / calls, "rows"),
        "problems.value_rows_per_grad_eval": (_per(c["problems.value_rows"], grad_evals), "ratio"),
        "problems.value_ns_per_row": (_per(by_name["problems.value_many"] * 1e9, c["problems.value_rows"]), "ns/row"),
        "problems.grad_ns_per_row": (_per(by_name["problems.grad_many"] * 1e9, c["problems.grad_rows"]), "ns/row"),
        "model.draw_samples_s": (s("model.draw_samples"), "s"),
        "model.gradient_stats_s": (s("model.gradient_stats"), "s"),
        "model.sample_objective_s": (s("model.sample_objective"), "s"),
        "model.stats_ns_per_row": (_per(by_name["model.gradient_stats"] * 1e9, c["model.stats_rows"]), "ns/row"),
        "model.samples_drawn": (c["model.samples_drawn"] / calls, "rows"),
        "model.draw_useful_ratio": (_per(grad_evals, c["model.samples_drawn"]), "ratio"),
        "model.sample_bytes_peak": (tracer.maxima.get("model.sample_bytes_peak", 0), "bytes"),
        "geometry.project_calls": (c["geometry.project_calls"] / calls, "count"),
        "geometry.project_s": (s("geometry.project"), "s"),
        "geometry.dykstra_iterations": (c["geometry.dykstra_iterations"] / calls, "count"),
        "geometry.leaf_projections": (c["geometry.leaf_projections"] / calls, "count"),
        "geometry.residual_max": (tracer.maxima.get("geometry.residual_max", 0.0), "norm"),
        "risk.quantile_solve_calls": (c["risk.quantile_solve_calls"] / calls, "count"),
        "risk.quantile_solve_s": (s("risk.quantile_solve"), "s"),
        "risk.quantile_passes": (_per(c["risk.quantile_passes"], c["risk.quantile_solve_calls"]), "count"),
        "risk.extended_value_s": (s("risk.extended_value"), "s"),
        "risk.extended_grad_s": (s("risk.extended_grad"), "s"),
        "sizing.tests_run": (c["sizing.tests_run"] / calls, "count"),
        "sizing.tests_passed": (c["sizing.tests_passed"] / calls, "count"),
        "sizing.norm_test_s": (s("sizing.norm_test"), "s"),
        "sizing.sqp_norm_test_s": (s("sizing.sqp_norm_test"), "s"),
        "sizing.capped_iterations": (c["sizing.capped_iterations"] / calls, "count"),
        "sizing.augment_rounds": (c["sizing.augment_rounds"] / calls, "count"),
        "algorithms.iterations": (c["algorithms.iterations"] / calls, "count"),
        "algorithms.grad_evals": (grad_evals / calls, "count"),
        "algorithms.final_sample_size": (c["algorithms.final_sample_size"] / calls, "count"),
        "records.write_csv_s": (s("records.write_csv"), "s"),
        "records.csv_bytes": (c["records.csv_bytes"] / calls, "bytes"),
        "cli.meta_json_bytes": (c["cli.meta_json_bytes"] / calls, "bytes"),
    })
    return m
