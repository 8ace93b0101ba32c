"""Self-tests of the benchmark: probes, span arithmetic, checkers, smoke runs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pcsq import circuits, engine, families, inference, learning, regions, squaring  # noqa: E402


def _probe_targets():
    """Every (owner, attribute) a probe may replace, with its current object."""
    out = {}
    modules = [m for n, m in sys.modules.items() if n == "pcsq" or n.startswith("pcsq.")]
    for module in modules:
        for key, value in vars(module).items():
            if callable(value):
                out[(module.__name__, key)] = value
    for module_name, cls_name, method, _, _ in tracing.METHOD_PROBES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        out[(cls, method)] = (vars(cls).get(method), getattr(cls, method))
    return out


def test_probes_are_installed_and_restored():
    before = _probe_targets()
    original = engine.signed_logsumexp
    tracer = tracing.Tracer()
    with tracer.installed():
        assert engine.signed_logsumexp is not original
        assert families.signed_logsumexp is engine.signed_logsumexp
        assert "log_eval" in vars(families.CategoricalFamily)
    assert _probe_targets() == before
    assert "log_eval" not in vars(families.CategoricalFamily)

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert _probe_targets() == before


def test_probes_record_nested_spans_and_errors():
    tracer = tracing.Tracer()
    model = _small_model()
    with tracer.installed():
        tracer.begin_op(0, "density")
        inference.log_density(model, np.zeros((3, 3)))
        with pytest.raises(Exception):
            engine.forward(model.circuit, np.zeros((2, 5)))
        with tracer.paused():
            engine.forward(model.circuit, np.zeros((2, 3)), space="linear")
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "inference.log_density"
    assert "engine.forward.z" in names and "engine.forward.data" in names
    assert "engine.forward.linear" not in names
    top = [s for s in tracer.spans if s[tracing.PARENT] == -1]
    assert [s[tracing.NAME] for s in top] == ["inference.log_density", "engine.forward.data"]
    assert tracer.errors["engine"] == 1
    metrics = tracing.layer_metrics(tracer)
    assert metrics["engine.errors"] == 1
    assert metrics["inference.partition_function.fresh"] == 1
    assert metrics["engine.forward.data.rows"] == 3  # the failed call records no counts
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)


def test_self_time_subtracts_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["b.overlap", 5.5, 7.0, 0, 0],  # overlaps b: union counts once
        ["leaf", 8.0, 9.0, -1, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5, 1.0])


def test_layer_metrics_split_forward_backward_and_skip_warmup():
    tracer = tracing.Tracer()
    tracer.op_kinds = {0: "train", 1: "warmup"}
    tracer.spans = [
        ["engine.backward", 0.0, 4.0, -1, 0],
        ["kernels.slse_matmul", 1.0, 2.0, 0, 0],
        ["kernels.slse_matmul", 5.0, 5.5, -1, 0],
        ["kernels.slse_matmul", 6.0, 9.0, -1, 1],
    ]
    tracer.counts = {1: {"flops": 10, "bytes": 80}, 2: {"flops": 4, "bytes": 8}, 3: {"flops": 99, "bytes": 99}}
    m = tracing.layer_metrics(tracer)
    assert m["kernels.slse_matmul.calls"] == 2
    assert m["kernels.slse_matmul.bwd_s"] == pytest.approx(1.0)
    assert m["kernels.slse_matmul.fwd_s"] == pytest.approx(0.5)
    assert m["kernels.slse_matmul.flops"] == 14
    assert m["engine.backward.s"] == pytest.approx(3.0)


def _small_model(seed=0):
    rg = regions.build_binary_tree(3, seed)
    c = circuits.from_region_graph(rg, 2, "hadamard", lambda s, u: families.GaussianFamily(u))
    model = squaring.square(c)
    learning.init_parameters(model, "uniform(0,1)", seed)
    return model


def test_checkers_accept_true_values_and_reject_corrupted_ones():
    model = _small_model()
    circuit = model.circuit
    x = np.random.default_rng(0).normal(size=(6, 3))

    ld = inference.log_density(model, x)
    assert checks.check_log_density(circuit, x, ld) is None
    bad = ld.copy()
    bad[1] += 1e-8
    assert checks.check_log_density(circuit, x, bad) is not None

    marg = {0, 2}
    val = inference.marginal_batch(model, x, marg)
    assert checks.check_marginal(circuit, x, marg, val) is None
    lm = val.log_magnitude.copy()
    lm[0] += 1e-8
    assert checks.check_marginal(circuit, x, marg, type(val)(lm, val.sign)) is not None

    z = inference.partition_function(model)
    assert checks.check_log_partition(circuit, z) is None
    shifted = type(z)(z.log_magnitude + 1e-8, z.sign)
    assert checks.check_log_partition(circuit, shifted) is not None

    assert checks.check_continuous_draws(np.array([0.1, 0.9]), 2, (0.0, 1.0)) is None
    assert checks.check_continuous_draws(np.array([0.1, 1.5]), 2, (0.0, 1.0)) is not None
    assert checks.check_continuous_draws(np.array([0.1, np.nan]), 2, (0.0, 1.0)) is not None
    assert checks.check_continuous_draws(np.array([0.1]), 2, (0.0, 1.0)) is not None

    assert checks.check_discrete_draws(np.array([[0.0, 7.0]]), 1, 8) is None
    assert checks.check_discrete_draws(np.array([[0.5, 1.0]]), 1, 8) is not None
    assert checks.check_discrete_draws(np.array([[8.0, 1.0]]), 1, 8) is not None

    pmf = np.array([0.5, 0.3, 0.2])
    assert checks.check_chi_square(np.array([500, 300, 200]), pmf) is None
    assert checks.check_chi_square(np.array([200, 300, 500]), pmf) is not None
    assert checks.check_chi_square(np.array([0, 0, 0]), pmf) is not None


def test_chi_square_survival_function_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3, 6, 7, 20):
        for stat in (0.5, 3.0, 12.0, 40.0):
            assert checks.chi_square_sf(stat, df) == pytest.approx(stats.chi2.sf(stat, df), rel=1e-9)


def test_workload_checks_reject_broken_training_outputs(tmp_path):
    gauss = workloads.TrainGauss(0, tmp_path)
    gauss.epochs = 1
    report = learning.TrainReport(epochs=[(0, -1.0, -1.0, 0.1)], best_val_ll=-1.0, z_evals_per_step=1.0)
    assert gauss._check(report) is None
    report.z_evals_per_step = 2.0
    assert gauss._check(report) is not None
    report.z_evals_per_step = 1.0
    report.best_val_ll = float("-inf")
    assert gauss._check(report) is not None

    assert workloads.TrainRings._exit_ok(0) is None
    assert workloads.TrainRings._exit_ok(4) is not None


def _last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_benchmark_json_matches_the_metrics_the_code_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        **tracing.PER_LAYER_UNITS,
        **run.OP_RATE_UNITS,
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke_run(name, capsys):
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


# Scaled-down sizes: the traced smoke runs check the predicted zeros, not speed.
SMALL = {
    "train-gauss-k64": {"k": 8, "n_train": 2048, "n_val": 256},
    "train-rings-mix2": {"n_train": 1000, "n_val": 200, "n_test": 200, "trace_cycles": 1},
    "query-mix": {"density_rows": 256, "marginal_rows": 64, "trace_cycles": 1},
}

PREDICTED_ZERO = {
    "train-gauss-k64": [
        "splines.design_matrix.calls",
        "mixtures.component_log_values.calls",
        "mixtures.partition.calls",
        "slog.signed_product.kronecker.s",
        "inference.sample.cont.s",
        "inference.sample.disc.s",
    ],
    "train-rings-mix2": [
        "slog.signed_product.kronecker.s",
        "inference.sample.cont.s",
        "inference.sample.disc.s",
        "families.gaussian.log_eval.s",
    ],
    "query-mix": [
        "engine.backward.calls",
        "kernels.slse_pair_accum.calls",
        "mixtures.component_log_values.calls",
        "mixtures.partition.calls",
        "learning.steps",
    ],
}

PREDICTED_NONZERO = {
    "train-gauss-k64": ["engine.backward.calls", "kernels.slse_pair_accum.calls", "learning.steps"],
    "train-rings-mix2": ["splines.design_matrix.calls", "mixtures.partition.calls", "cli.main.s"],
    "query-mix": [
        "slog.signed_product.kronecker.s",
        "inference.sample.cont.forward_calls_per_sample",
        "inference.sample.disc.points_per_sample",
        "engine.forward.marg.rows",
    ],
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(name, capsys, monkeypatch):
    cls = workloads.WORKLOADS[name]
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(cls, attr, value)
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {**tracing.PER_LAYER_UNITS, **run.OP_RATE_UNITS}.keys()
    for key in PREDICTED_ZERO[name]:
        assert metrics[key] == 0, key
    for key in PREDICTED_NONZERO[name]:
        assert metrics[key] > 0, key
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ("engine", "kernels", "inference"))
