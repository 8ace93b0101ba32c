"""Training: initialization schemes, convergence on known optima, the
amortized partition-function counter, early stopping, the epoch's running
train_ll and its memory."""

import json
import tracemalloc

import numpy as np
import pytest

from pcsq import inference, learning
from pcsq.circuits import check_property, from_region_graph
from pcsq.data import Dataset, Column, generate_synthetic
from pcsq.errors import ConfigError
from pcsq.families import CategoricalFamily, EmbeddingFamily, GaussianFamily, SplineFamily
from pcsq.inference import log_likelihood, partition_function
from pcsq.learning import (
    TrainConfig,
    _Sgd,
    _accumulate_gradients,
    _model_z_count,
    init_parameters,
    parse_init,
    train,
)
from pcsq.mixtures import CircuitMixture
from pcsq.regions import build_binary_tree, build_linear_tree, linear_tree_from_order
from pcsq.splines import BSplineBasis
from pcsq.squaring import square


def _discrete_dataset(rows, n_states, splits=(0.8, 0.1, 0.1)):
    n = rows.shape[0]
    n_train = int(splits[0] * n)
    n_val = int(splits[1] * n)
    columns = [Column(f"x{j}", "discrete", n_states) for j in range(rows.shape[1])]
    return Dataset(
        columns,
        rows.astype(float),
        {
            "train": np.arange(n_train),
            "val": np.arange(n_train, n_train + n_val),
            "test": np.arange(n_train + n_val, n),
        },
    ).check()


class TestInit:
    def test_deterministic_given_seed(self, rng):
        c = from_region_graph(
            build_linear_tree(3, 0), 4, "hadamard", lambda s, k: GaussianFamily(k)
        )
        init_parameters(c, "uniform(0,1)", seed=42)
        first = c.store.values.copy()
        init_parameters(c, "uniform(0,1)", seed=42)
        np.testing.assert_array_equal(first, c.store.values)
        init_parameters(c, "uniform(0,1)", seed=43)
        assert not np.array_equal(first, c.store.values)

    def test_uniform_positive_normal_mixed_signs(self):
        c = from_region_graph(
            build_linear_tree(6, 1), 8, "hadamard", lambda s, k: EmbeddingFamily(k, 2)
        )
        init_parameters(c, "uniform(0,1)", seed=0)
        weights = np.concatenate(
            [c.store.effective(l.param_block).ravel() for l in c.sum_layers()]
        )
        assert np.all(weights > 0)
        init_parameters(c, "normal(0,0.1)", seed=0)
        weights = np.concatenate(
            [c.store.effective(l.param_block).ravel() for l in c.sum_layers()]
        )
        # roughly half negative: 4-sigma binomial band around n/2
        n = weights.size
        assert abs((weights < 0).sum() - n / 2) < 4 * np.sqrt(n) / 2

    def test_frozen_blocks_untouched(self):
        c = from_region_graph(
            build_linear_tree(2, 0), 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2)
        )
        block = c.layer(c.output_layer).param_block
        c.store.blocks[block].trainable = False
        c.store.set_free(block, [[5.0, 6.0]])
        init_parameters(c, "uniform(0,1)", seed=0)
        np.testing.assert_array_equal(c.store.free(block), [[5.0, 6.0]])

    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigError):
            parse_init("lognormal(0,1)")
        with pytest.raises(ConfigError):
            parse_init("uniform(1,0)")


class TestTrain:
    def test_uniform_categorical_target_converges(self, rng):
        m = 6
        rows = rng.integers(0, m, size=(3000, 1))
        ds = _discrete_dataset(rows, m)
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, m))
        sq = square(c)
        init_parameters(sq, "uniform(0,1)", seed=0)
        cfg = TrainConfig(batch_size=128, learning_rate=0.05, max_epochs=60, patience=10, seed=0)
        train(sq, ds, cfg)
        # the optimum of the uniform target is known exactly
        assert log_likelihood(sq, ds.split("test")) == pytest.approx(-np.log(m), abs=1e-2)

    def test_one_partition_eval_per_step(self, rng):
        rows = rng.integers(0, 3, size=(600, 2))
        ds = _discrete_dataset(rows, 3)
        rg = build_linear_tree(2, 0)

        def squared(seed):
            sq = square(
                from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 3))
            )
            return init_parameters(sq, "uniform(0,1)", seed=seed)

        mixture = CircuitMixture.from_components([squared(2), squared(3)])
        for model in (squared(1), mixture):
            for batch_size in (32, 120, 480):
                report = train(
                    model, ds, TrainConfig(batch_size=batch_size, max_epochs=2, patience=5, seed=0)
                )
                assert report.z_evals_per_step == pytest.approx(1.0)

    def test_mixture_z_count_sees_every_component(self):
        rg = build_linear_tree(2, 0)
        comps = [
            init_parameters(
                square(from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 3))),
                "uniform(0,1)",
                seed=seed,
            )
            for seed in (2, 3)
        ]
        mixture = CircuitMixture.from_components(comps)
        before = _model_z_count(mixture)
        for _ in range(2):  # two fresh evaluations, on the second component only
            comps[1].store.bump()
            partition_function(comps[1])
        assert _model_z_count(mixture) - before == pytest.approx(1.0)

    def test_monotonic_circuit_stays_monotonic(self, rng):
        rows = rng.integers(0, 4, size=(500, 2))
        ds = _discrete_dataset(rows, 4)
        rg = build_linear_tree(2, 5)
        c = from_region_graph(
            rg, 3, "hadamard", lambda s, k: CategoricalFamily(k, 4), sum_reparam="exp"
        )
        init_parameters(c, "uniform(0,1)", seed=3)
        assert check_property(c, "monotonic")
        train(c, ds, TrainConfig(batch_size=64, max_epochs=3, patience=5, seed=0))
        assert check_property(c, "monotonic")

    def test_sgd_loss_trace_nonincreasing_early(self, rng):
        # 1-d two-Gaussian subtractive mixture on ring-like 1-d data
        radius = np.where(rng.random(2000) < 0.5, -1.5, 1.5) + rng.normal(0, 0.2, 2000)
        ds = Dataset(
            [Column("x", "continuous")],
            radius[:, None],
            {
                "train": np.arange(1600),
                "val": np.arange(1600, 1800),
                "test": np.arange(1800, 2000),
            },
        )
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
        sq = square(c)
        init_parameters(sq, "uniform(0,1)", seed=2)
        # record per-step losses over the first 50 SGD steps
        from pcsq.learning import _Sgd, _accumulate_gradients

        opt = _Sgd([c.store], TrainConfig(batch_size=1600, learning_rate=1e-3, optimizer="sgd"))
        losses = []
        x = ds.split("train")
        for _ in range(50):
            losses.append(-log_likelihood(sq, x))
            c.store.zero_grad()
            _accumulate_gradients(sq, x)
            opt.step()
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-9), f"loss increased: max diff {diffs.max()}"

    def test_sgd_l2_step_adds_weight_decay(self, rng):
        # one SGD step with l2 moves each parameter theta by lr * l2 * theta
        # more than the same step without it
        c = from_region_graph(
            build_linear_tree(2, 0), 3, "hadamard", lambda s, k: EmbeddingFamily(k, 3)
        )
        sq = square(c)
        init_parameters(sq, "normal(0,1)", seed=1)
        theta = c.store.snapshot()
        x = rng.integers(0, 3, size=(50, 2)).astype(float)
        stepped = {}
        for l2 in (0.0, 0.5):
            c.store.restore(theta)
            c.store.zero_grad()
            _accumulate_gradients(sq, x)
            _Sgd([c.store], TrainConfig(learning_rate=0.1, optimizer="sgd", l2=l2)).step()
            stepped[l2] = c.store.snapshot()
        decay = stepped[0.0] - stepped[0.5]
        np.testing.assert_allclose(decay, 0.1 * 0.5 * theta, rtol=0, atol=1e-14)

    def test_early_stopping_restores_best(self, rng):
        rows = rng.integers(0, 3, size=(400, 1))
        ds = _discrete_dataset(rows, 3)
        rg = linear_tree_from_order([0])
        sq = square(
            from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 3))
        )
        init_parameters(sq, "uniform(0,1)", seed=0)
        # huge learning rate destabilizes after a few epochs; patience stops it
        cfg = TrainConfig(batch_size=64, learning_rate=5.0, max_epochs=30, patience=2, seed=0)
        report = train(sq, ds, cfg)
        assert len(report.epochs) < 30
        final = log_likelihood(sq, ds.split("val"))
        assert final == pytest.approx(report.best_val_ll, rel=1e-9)

    def test_dataset_mismatch_rejected(self, rng):
        rows = rng.integers(0, 3, size=(100, 3))
        ds = _discrete_dataset(rows, 3)
        sq = square(
            from_region_graph(
                build_linear_tree(2, 0), 2, "hadamard", lambda s, k: EmbeddingFamily(k, 3)
            )
        )
        with pytest.raises(ConfigError):
            train(sq, ds, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).check()
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1).check()
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="lbfgs").check()
        for bad in ({"max_epochs": 0}, {"l2": -1e-3}, {"l2": np.nan}, {"learning_rate": np.nan},
                    {"learning_rate": np.inf}):
            with pytest.raises(ConfigError):
                TrainConfig(**bad).check()


def test_taped_step_builds_one_design_matrix_per_spline_layer(rng, monkeypatch):
    # the data pass keeps each spline layer's band of live bases on the tape
    # and its VJP reuses it; the Z pass reads cached Gram matrices, so a warm
    # step builds no dense design matrix at all
    basis = BSplineBasis.uniform(2, 6, (-2.0, 2.0))
    c = from_region_graph(
        linear_tree_from_order([0, 1, 2]), 3, "hadamard", lambda s, k: SplineFamily(k, basis)
    )
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    sq = square(c)
    x = rng.uniform(-1.9, 1.9, size=(8, 3))
    _accumulate_gradients(sq, x)  # fills each family's Gram cache
    rows, dense = [], []
    band, design_matrix = BSplineBasis.band, BSplineBasis.design_matrix

    def counted_band(self, t):
        rows.append(len(t))
        return band(self, t)

    def counted_design(self, t):
        dense.append(len(t))
        return design_matrix(self, t)

    monkeypatch.setattr(BSplineBasis, "band", counted_band)
    monkeypatch.setattr(BSplineBasis, "design_matrix", counted_design)
    _accumulate_gradients(sq, x)
    assert rows == [8] * len(c.input_layers())
    assert dense == []


class TestGradientOfObjective:
    def test_six_parameter_model_matches_finite_differences(self, rng):
        # K=2 embedding over one binary variable: 4 table + 2 weight params
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        sq = square(c)
        init_parameters(sq, "normal(0.4,0.3)", seed=8)
        assert c.store.values.size == 6
        x = np.array([[0.0], [1.0], [1.0]])

        c.store.zero_grad()
        _accumulate_gradients(sq, x)
        auto = c.store.gradients.copy()

        def objective():
            return log_likelihood(sq, x)

        h = 1e-6
        for i in range(6):
            keep = c.store.values[i]
            c.store.values[i] = keep + h
            c.store.bump()
            up = objective()
            c.store.values[i] = keep - h
            c.store.bump()
            down = objective()
            c.store.values[i] = keep
            c.store.bump()
            fd = (up - down) / (2 * h)
            assert auto[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("family", ["spline", "categorical"])
    def test_squared_circuit_matches_finite_differences(self, family, rng):
        # acceptance criterion 8's method and threshold, for the families
        # whose input VJPs accumulate through kernels.slse_pair_accum
        if family == "spline":
            basis = BSplineBasis.uniform(2, 6, (-3.0, 3.0))
            factory = lambda s, k: SplineFamily(k, basis)
            x = rng.uniform(-2.9, 2.9, size=(10, 4))
        else:
            factory = lambda s, k: CategoricalFamily(k, 4)
            x = rng.integers(0, 4, size=(10, 4)).astype(float)
        c = from_region_graph(build_binary_tree(4, seed=1), 3, "hadamard", factory)
        init_parameters(c, "normal(0.3,0.5)", seed=2)
        sq = square(c)

        c.store.zero_grad()
        _accumulate_gradients(sq, x)
        auto = c.store.gradients.copy()

        h = 1e-6
        for i in range(c.store.values.size):
            keep = c.store.values[i]
            c.store.values[i] = keep + h
            c.store.bump()
            up = log_likelihood(sq, x)
            c.store.values[i] = keep - h
            c.store.bump()
            down = log_likelihood(sq, x)
            c.store.values[i] = keep
            c.store.bump()
            fd = (up - down) / (2 * h)
            rel = abs(auto[i] - fd) / max(abs(fd), 1e-8)
            assert rel < 1e-4, f"parameter {i}: autodiff {auto[i]}, fd {fd}"


def _continuous_dataset(rows, n_train, n_val):
    columns = [Column(f"x{j}", "continuous") for j in range(rows.shape[1])]
    splits = {"train": np.arange(n_train), "val": np.arange(n_train, n_train + n_val)}
    return Dataset(columns, rows, splits).check()


def _plain_categorical(rng):
    c = from_region_graph(
        build_linear_tree(2, 5), 3, "hadamard", lambda s, k: CategoricalFamily(k, 4),
        sum_reparam="exp",
    )
    rows = rng.integers(0, 4, size=(260, 2))
    return init_parameters(c, "uniform(0,1)", seed=3), _discrete_dataset(rows, 4)


def _squared_gaussian(rng):
    rows = rng.normal(size=(260, 3))
    c = from_region_graph(build_binary_tree(3, 1), 3, "hadamard", lambda s, k: GaussianFamily(k))
    return init_parameters(square(c), "normal(0.3,0.5)", seed=4), _continuous_dataset(rows, 200, 60)


def _embedding_mixture(rng):
    def component(seed):
        c = from_region_graph(
            build_linear_tree(2, 0), 2, "hadamard", lambda s, k: EmbeddingFamily(k, 3)
        )
        return init_parameters(square(c), "uniform(0,1)", seed=seed)

    mixture = CircuitMixture.from_components([component(5), component(6)])
    return mixture, _discrete_dataset(rng.integers(0, 3, size=(260, 2)), 3)


class TestTrainLogLikelihood:
    @pytest.mark.parametrize(
        "make", [_plain_categorical, _squared_gaussian, _embedding_mixture],
        ids=["plain", "squared", "mixture"],
    )
    def test_train_ll_is_the_running_mean_over_steps(self, rng, make):
        # the README's train_ll: each batch's mean log-likelihood taken
        # before its step, weighted by the batch's rows (64 does not
        # divide the 200 or 208 training rows, so the last batch is short)
        model, ds = make(rng)
        config = TrainConfig(batch_size=64, learning_rate=0.05, max_epochs=2, patience=5, seed=7)
        stores = learning._stores(model)
        start = [s.snapshot() for s in stores]
        opt = learning._Adam(stores, config)
        x = ds.split("train")
        want = []
        for epoch in range(config.max_epochs):
            order = np.random.default_rng([config.seed, epoch]).permutation(x.shape[0])
            total = 0.0
            for lo in range(0, order.size, config.batch_size):
                batch = x[order[lo : lo + config.batch_size]]
                total += log_likelihood(model, batch) * batch.shape[0]
                for s in stores:
                    s.zero_grad()
                _accumulate_gradients(model, batch)
                opt.step()
            want.append(total / x.shape[0])
        for s, snap in zip(stores, start):
            s.restore(snap)
        report = train(model, ds, config)
        got = [row[1] for row in report.epochs]
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_epoch_evaluates_only_the_validation_rows(self, rng, monkeypatch):
        model, ds = _squared_gaussian(rng)
        seen = []
        original = inference.log_likelihood

        def counted(m, x):
            seen.append(np.array(x, copy=True))
            return original(m, x)

        monkeypatch.setattr(inference, "log_likelihood", counted)
        train(model, ds, TrainConfig(batch_size=64, max_epochs=1, seed=0))
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], ds.split("val"))


def test_epoch_peak_stays_near_one_step_or_the_validation_pass():
    # d = 8, K = 16 squared Gaussian circuit: an epoch of 32 batch-256 steps
    # and one validation pass holds no more than its largest single pass; a
    # step, like train's, draws its batch from a copy of the training rows
    rng = np.random.default_rng(3)
    c = from_region_graph(build_binary_tree(8, 3), 16, "hadamard", lambda s, k: GaussianFamily(k))
    model = init_parameters(square(c), "uniform(0,1)", seed=3)
    ds = _continuous_dataset(rng.normal(size=(8192 + 1024, 8)), 8192, 1024)
    config = TrainConfig(batch_size=256, max_epochs=1, seed=3)
    start = c.store.snapshot()
    val = ds.split("val")

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def step():
        batch = ds.split("train")[: config.batch_size]
        opt = learning._Adam([c.store], config)
        c.store.zero_grad()
        _accumulate_gradients(model, batch)
        opt.step()

    step()  # caches outside the measurements
    log_likelihood(model, val)
    c.store.restore(start)
    one_step = peak(step)
    val_pass = peak(lambda: log_likelihood(model, val))
    c.store.restore(start)
    epoch = peak(lambda: train(model, ds, config))
    assert epoch <= 1.2 * max(one_step, val_pass), (epoch, one_step, val_pass)


def test_training_steps_take_the_scaled_path(monkeypatch):
    # a gauss-k64-style epoch (squared Gaussian binary tree, smaller K):
    # every taped data pass and its backward sweep carry scaled values, and
    # only Z passes and untaped passes run in signed log-space
    from pcsq import engine

    rng = np.random.default_rng(5)
    c = from_region_graph(build_binary_tree(8, 5), 8, "hadamard", lambda s, k: GaussianFamily(k))
    model = init_parameters(square(c), "uniform(0,1)", seed=5)
    ds = _continuous_dataset(rng.normal(0.0, 1.5, size=(1024 + 256, 8)), 1024, 256)
    signed_log_data_passes = []
    forward_slog, backward_slog = engine._forward_slog, engine._backward_slog

    def forward_watched(circuit, x, marginalized, batch, want_tape=False, keep_outputs=False):
        if want_tape and not marginalized:
            signed_log_data_passes.append("forward")
        return forward_slog(circuit, x, marginalized, batch, want_tape, keep_outputs)

    def backward_watched(tape, seed):
        if not tape.marginalized:
            signed_log_data_passes.append("backward")
        return backward_slog(tape, seed)

    monkeypatch.setattr(engine, "_forward_slog", forward_watched)
    monkeypatch.setattr(engine, "_backward_slog", backward_watched)
    report = train(model, ds, TrainConfig(batch_size=256, max_epochs=1, seed=5))
    assert np.isfinite(report.best_val_ll)
    assert signed_log_data_passes == []


def test_a_training_step_takes_the_scaled_partition_function_path(monkeypatch):
    # a training step's one-row Z pass over a squared K = 8 Gaussian circuit
    # and its sweep carry scaled values too: no signed log-space pass with
    # every variable marginalized runs, nor the signed log-space backward of
    # a squared sum layer
    from pcsq import engine

    rng = np.random.default_rng(6)
    c = from_region_graph(build_binary_tree(8, 6), 8, "hadamard", lambda s, k: GaussianFamily(k))
    model = init_parameters(square(c), "uniform(0,1)", seed=6)
    x = rng.normal(0.0, 1.5, size=(256, 8))
    signed_log = []
    forward_slog, backward_sum_squared = engine._forward_slog, engine._backward_sum_squared

    def forward_watched(circuit, x, marginalized, batch, want_tape=False, keep_outputs=False):
        if len(marginalized) == circuit.variable_count:
            signed_log.append("forward")
        return forward_slog(circuit, x, marginalized, batch, want_tape, keep_outputs)

    def backward_squared(*args):
        signed_log.append("backward")
        return backward_sum_squared(*args)

    monkeypatch.setattr(engine, "_forward_slog", forward_watched)
    monkeypatch.setattr(engine, "_backward_sum_squared", backward_squared)
    for _ in range(3):
        c.store.zero_grad()
        assert np.isfinite(_accumulate_gradients(model, x))
        assert np.all(np.isfinite(c.store.gradients)) and np.any(c.store.gradients != 0.0)
        c.store.values -= 1e-3 * c.store.gradients
        c.store.bump()
    assert signed_log == []


def test_a_stacked_rings_mixture_trains_as_its_loop_and_reloads_bit_identically(tmp_path, monkeypatch):
    # rg seeds 2 and 3 give the two components the same linear tree with
    # their Hadamard factors in the other order, so training stacks them;
    # the stack is built while training and is no part of the document
    from pcsq import cli
    from pcsq.modeldoc import load_model, model_to_dict, save_model

    settings = {
        "seed": "2", "dataset.kind": "synthetic", "dataset.name": "rings",
        "dataset.n_train": "600", "dataset.n_val": "100", "dataset.n_test": "100",
        "model.rg": "lt", "model.k": "4", "model.family": "spline", "model.knots": "8",
        "model.spline_order": "2", "model.mode": "squared-nonmonotonic",
        "model.product": "hadamard", "model.mixture": "2",
    }  # fmt: skip
    cfg = cli.resolve_config("train", settings)
    ds = cli.load_dataset(cfg)
    config = TrainConfig(batch_size=128, max_epochs=2, patience=2, seed=2)
    models = []
    for stacked in (True, False):
        if not stacked:
            monkeypatch.setattr(learning, "_stacked", lambda mixture: None)
        model = init_parameters(cli.build_model(cfg, ds), "uniform(0,1)", seed=2)
        assert (learning._stacked(model) is not None) == stacked
        train(model, ds, config)
        models.append(model)
    for got, want in zip(learning._stores(models[0]), learning._stores(models[1])):
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-15)
    path = tmp_path / "model.json"
    save_model(models[0], path)
    again = load_model(path)
    assert path.read_text(encoding="utf-8") == json.dumps(model_to_dict(again)) + "\n"
    x = ds.split("test")
    np.testing.assert_array_equal(log_likelihood(again, x), log_likelihood(models[0], x))


def test_a_stacked_step_whose_z_sweep_trips_reruns_per_component(monkeypatch):
    # the stacked Z sweep leaves the scaled range after the stacked data
    # sweep has released its gradients: the step restores every store and
    # Z counter, reruns per component, and ends as the per-component step
    from pcsq import engine
    from pcsq.circuits import StackedCircuit
    from pcsq.slog import OutOfScaledRange

    def mixture():
        rg = build_binary_tree(4, 1)
        comps = [
            square(from_region_graph(rg, 3, "hadamard", lambda s, k: GaussianFamily(k)))
            for _ in range(2)
        ]
        return init_parameters(CircuitMixture.from_components(comps), "uniform(0,1)", seed=3)

    x = np.random.default_rng(3).normal(size=(32, 4))
    with monkeypatch.context() as m:
        m.setattr(learning, "_stacked", lambda model: None)
        loop = mixture()
        loop_ll = _accumulate_gradients(loop, x)

    model = mixture()
    assert learning._stacked(model) is not None
    backward_scaled = engine._backward_scaled
    released = []

    def tripping_z_sweep(tape, seed):
        if isinstance(tape.circuit, StackedCircuit) and tape.marginalized:
            released.append([np.any(c.store.gradients != 0.0) for c in model.components])
            raise OutOfScaledRange
        return backward_scaled(tape, seed)

    monkeypatch.setattr(engine, "_backward_scaled", tripping_z_sweep)
    z_before = [inference.z_eval_count(c) for c in model.components]
    assert _accumulate_gradients(model, x) == loop_ll
    assert released == [[True, True]]  # the data sweep had reached both stores
    assert [inference.z_eval_count(c) for c in model.components] == [z + 1 for z in z_before]
    for got, want in zip(learning._stores(model), learning._stores(loop)):
        np.testing.assert_array_equal(got.gradients, want.gradients)
