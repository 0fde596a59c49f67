"""Tests of the benchmark's own logic: the percentile rule, the self-time
arithmetic of the traced run, and the output checks.

Run with ``python -m pytest bench/tests``; the repository's tier-1 suite
(``tests/``) does not collect them.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from adasamp import cli, model  # noqa: E402
from adasamp.records import RunRecord  # noqa: E402


# ---- percentile rule ----------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))  # 10..1, unsorted on purpose
    assert run.percentile(values, 50) == 5
    assert run.percentile(values, 90) == 9
    assert run.percentile(values, 100) == 10
    assert run.percentile([3.5], 90) == 3.5
    with pytest.raises(ValueError):
        run.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (19, None), (99, None), (100, 90.0), (103, 90.0), (150, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert run.tail_percentile(count) == expected


def test_geometric_mean_is_not_dominated_by_one_seed():
    assert run.geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
    assert run.geometric_mean([]) == 0.0


# ---- self-time arithmetic ----------------------------------------------

SPANS = [
    ["cli.run_experiment", 0.0, 10.0, -1],
    ["algorithms.run_spgd_adaptive", 1.0, 9.0, 0],
    ["model.draw_samples", 2.0, 4.0, 1],
    ["problems.sampler", 2.5, 3.5, 2],
    ["geometry.project", 5.0, 6.0, 1],
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(SPANS) == [2.0, 5.0, 1.0, 1.0, 1.0]
    by_layer = tracing.self_time_by(SPANS, tracing.layer_of)
    assert by_layer == {"cli": 2.0, "algorithms": 5.0, "model": 1.0,
                        "problems": 1.0, "geometry": 1.0}
    assert sum(by_layer.values()) == 10.0  # the top-level span's duration
    assert tracing.unattributed(SPANS, 10.5) == pytest.approx(0.5)


BASIC = ["--problem", "basic", "--algorithm", "spgd", "--theta", "0.5", "--max-iters", "5"]
EXTENDED = ["--problem", "portfolio", "--algorithm", "cvar-extended", "--beta", "0.9",
            "--max-iters", "3"]


def call(flags, out):
    return cli.main(["run", *flags, "--seed", "3", "--output", str(out)])


# Before its first iteration, extended evaluates f(x0) on the s0=10 initial
# samples for t0, and projects x0 and then (x0, t0).
@pytest.mark.parametrize("flags, values_per_grad_eval, values_before_loop, projections_before_loop",
                         [(BASIC, 1, 0, 1), (EXTENDED, 2, 10, 2)])
def test_traced_call_adds_up_and_leaves_the_run_unchanged(
        tmp_path, capsys, flags, values_per_grad_eval, values_before_loop, projections_before_loop):
    assert call(flags, tmp_path / "plain.csv") == 0
    tracer = tracing.Tracer()
    original = model.draw_samples
    with tracing.installed(tracer):
        assert model.draw_samples is not original
        start = run.time.perf_counter()
        assert call(flags, tmp_path / "traced.csv") == 0
        wall = run.time.perf_counter() - start
    assert model.draw_samples is original

    by_layer = tracing.self_time_by(tracer.spans, tracing.layer_of)
    remainder = tracing.unattributed(tracer.spans, wall)
    assert sum(by_layer.values()) + remainder == pytest.approx(wall)
    assert 0.0 <= remainder < 0.05  # argument parsing only
    assert set(by_layer) <= set(tracing.LAYERS)

    metrics = tracing.layer_metrics(tracer, calls=1)
    meta = json.loads((tmp_path / "traced.csv.meta.json").read_text())
    grad_evals = meta["cumulative_grad_evals"]
    assert metrics["algorithms.grad_evals"][0] == grad_evals
    assert metrics["problems.value_rows"][0] == values_per_grad_eval * grad_evals + values_before_loop
    assert metrics["geometry.project_calls"][0] == meta["iterations"] + projections_before_loop

    plain = checks.fingerprint(tmp_path / "plain.csv", meta)
    assert checks.fingerprint(tmp_path / "traced.csv", meta) == plain


def test_layer_metrics_name_the_benchmark_per_layer_list():
    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(tracing.layer_metrics(tracing.Tracer(), calls=1))
    produced |= {"trace.wall_s", "trace.unattributed_s", "trace.overhead_s",
                 "trace.peak_traced_mib"}
    produced |= {f"run.{k}" for k in ("wall_s", "grad_evals_per_s", "iter_ms_p50",
                                      "iter_ms_p90", "peak_rss_mib")}
    assert {m["name"] for m in listed} == produced


# ---- output checks ------------------------------------------------------

def records(*errors):
    return [RunRecord(k, 10, 10 * (k + 1), 1.0, error_norm=e) for k, e in enumerate(errors)]


def test_error_decay():
    assert checks.error_decay(records(4.0, 1.0, 0.03), {}) is None
    assert "above" in checks.error_decay(records(4.0, 1.0, 0.05), {})
    assert "empty" in checks.error_decay(records(None, None), {})


def test_portfolio_set():
    A = np.full(4, 1.1)
    meta = {"problem_params": {"A": A.tolist()}}
    assert checks.portfolio_set([], {**meta, "final_x": [0.25] * 4}) is None
    assert checks.portfolio_set([], {**meta, "final_x": [0.5, 0.5, 0.1, -0.1]}) is not None
    assert checks.portfolio_set([], {**meta, "final_x": [0.3, 0.3, 0.3, 0.3]}) is not None
    low = {"problem_params": {"A": [1.0] * 4}, "final_x": [0.25] * 4}
    assert "leaves" in checks.portfolio_set([], low)


def test_unit_sphere():
    assert checks.unit_sphere([], {"final_x": [0.6, 0.8]}) is None
    assert checks.unit_sphere([], {"final_x": [0.6, 0.8 + 1e-5]}) is not None


@pytest.fixture
def finished_run(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert call(BASIC[:-1] + ["40"], out) == 0
    return out


def test_check_run_accepts_a_good_run(finished_run):
    failure, meta, recs = checks.check_run(0, finished_run, lambda r, m: None)
    assert failure is None and len(recs) == meta["iterations"] == 40


def test_check_run_rejects_bad_runs(finished_run):
    meta_path = Path(str(finished_run) + ".meta.json")
    assert "returned 2" in checks.check_run(2, finished_run, checks.error_decay)[0]
    # the final-point check runs last
    assert "above" in checks.check_run(0, finished_run, lambda r, m: "above")[0]

    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "status": "non-finite"}))
    assert "terminal" in checks.check_run(0, finished_run, checks.error_decay)[0]
    meta_path.write_text(json.dumps({**meta, "iterations": 39}))
    assert "iteration count" in checks.check_run(0, finished_run, checks.error_decay)[0]

    text = finished_run.read_text()
    finished_run.write_text(text.replace("iteration,", "iter,", 1))
    assert "unreadable" in checks.check_run(0, finished_run, checks.error_decay)[0]
    finished_run.unlink()
    assert "unreadable" in checks.check_run(0, finished_run, checks.error_decay)[0]
