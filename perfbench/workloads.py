"""The three closed-loop workloads and the operation recorder.

One client runs one operation at a time and starts the next only when the
previous one has returned.  Every input is generated here from the seed;
pcsq receives only the generated rows, configs and models, through its
public entry points.  Each workload repeats a fixed *cycle* of operations;
the inputs of cycle ``i`` depend only on ``(seed, i)``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
from pcsq import circuits, cli, data, families, inference, learning, modeldoc, regions, splines, squaring


@dataclass
class OpRecord:
    kind: str
    seconds: float
    amount: int  # rows, samples or training rows the op processed
    ok: bool
    cycle: int


class Recorder:
    """Times operations, runs their output checks and counts failures."""

    def __init__(self, tracer=None):
        self.ops = []
        self.problems = []
        self.tracer = tracer
        self.cycle = -1

    def op(self, kind, call, amount=1, check=None):
        if self.tracer is not None:
            self.tracer.begin_op(len(self.ops), kind)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:
            seconds = time.perf_counter() - t0
            self._record(kind, seconds, amount, traceback.format_exc(limit=4))
            return None
        seconds = time.perf_counter() - t0
        problem = None
        if check is not None:
            paused = self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()
            with paused:
                problem = check(out)
        self._record(kind, seconds, amount, problem)
        return out

    def _record(self, kind, seconds, amount, problem):
        self.ops.append(OpRecord(kind, seconds, amount, problem is None, self.cycle))
        if problem is not None:
            self.problems.append(f"{kind} (cycle {self.cycle}): {problem}")

    def timed(self, kind=None):
        return [o for o in self.ops if o.kind != "warmup" and (kind is None or o.kind == kind)]

    def cycle_seconds(self):
        per = {}
        for o in self.timed():
            per[o.cycle] = per.get(o.cycle, 0.0) + o.seconds
        return [per[c] for c in sorted(per)]


def _rng(seed, *tags):
    return np.random.default_rng([seed, *tags])


def _squared(rg, k, product, factory, seed):
    circuit = circuits.from_region_graph(rg, k, product, factory)
    model = squaring.square(circuit)
    learning.init_parameters(model, "uniform(0,1)", seed)
    return model


class Workload:
    name = ""
    trace_cycles = 1  # cycles of the traced pass (fixed, so counts repeat)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self, rec):
        raise NotImplementedError

    def run_cycle(self, rec, index):
        raise NotImplementedError

    def final_problems(self):
        return []

    def close(self):
        pass


# ---------------------------------------------------------------------------


def gaussian_mixture_dataset(seed, n_train, n_val, d=8, components=4):
    """Rows drawn with ``seed`` from one fixed 8-d Gaussian mixture.

    The mixture itself does not depend on the seed, so seeds change the
    sample (and the model's initialization) but not the learning problem.
    """
    shape = np.random.default_rng(20231001)
    means = shape.normal(0.0, 1.5, size=(components, d))
    stds = shape.uniform(0.5, 1.0, size=(components, d))
    rng = _rng(seed, 1)
    n = n_train + n_val
    labels = rng.integers(components, size=n)
    rows = means[labels] + stds[labels] * rng.standard_normal((n, d))
    columns = [data.Column(f"x{i + 1}", "continuous") for i in range(d)]
    splits = {"train": np.arange(n_train), "val": np.arange(n_train, n)}
    return data.Dataset(columns, rows, splits)


class TrainGauss(Workload):
    """``learning.train`` on a squared K=64 Gaussian circuit, 1 epoch a cycle."""

    name = "train-gauss-k64"
    trace_cycles = 2
    k, variables, n_train, n_val, batch, epochs = 64, 8, 8192, 1024, 1024, 1

    def setup(self, rec):
        self.dataset = gaussian_mixture_dataset(self.seed, self.n_train, self.n_val)
        rg = regions.build_binary_tree(self.variables, self.seed)
        self.model = _squared(
            rg, self.k, "hadamard", lambda scope, units: families.GaussianFamily(units), self.seed
        )
        self.initial = self.model.store.snapshot()
        self.config = learning.TrainConfig(
            batch_size=self.batch,
            learning_rate=1e-3,
            max_epochs=self.epochs,
            patience=self.epochs,
            optimizer="adam",
            seed=self.seed,
        )
        self.report = None
        # warm-up: one step, then an evaluation as large as a cycle's; then
        # back to the initial parameters
        warm = data.Dataset(
            self.dataset.columns,
            self.dataset.rows,
            {"train": np.arange(self.batch), "val": np.arange(self.n_train)},
        )
        rec.op("warmup", lambda: learning.train(self.model, warm, self.config), self.batch)
        self.model.store.restore(self.initial)

    def _check(self, report):
        self.report = report
        if report.z_evals_per_step != 1.0:
            return f"z_evals_per_step = {report.z_evals_per_step!r}, promised 1.0"
        if len(report.epochs) != self.epochs or not np.isfinite(report.best_val_ll):
            return "training did not run every epoch to a finite validation log-likelihood"
        return None

    def run_cycle(self, rec, index):
        self.model.store.restore(self.initial)
        rec.op(
            "train",
            lambda: learning.train(self.model, self.dataset, self.config),
            self.n_train * self.epochs,
            self._check,
        )

    def z_evals_per_step(self):
        return self.report.z_evals_per_step

    def heldout_nll(self):
        return -self.report.best_val_ll


# ---------------------------------------------------------------------------

RINGS_CONFIG = """\
seed = {seed}
dataset.kind = synthetic
dataset.name = rings
dataset.n_train = {n_train}
dataset.n_val = {n_val}
dataset.n_test = {n_test}
model.rg = lt
model.k = 8
model.family = spline
model.knots = 32
model.spline_order = 2
model.mode = squared-nonmonotonic
model.product = hadamard
model.mixture = 2
train.batch_size = 256
train.learning_rate = 1e-3
train.max_epochs = {epochs}
train.patience = {epochs}
train.optimizer = adam
train.init = uniform(0,1)
"""


class TrainRings(Workload):
    """``pcsq train`` through ``cli.main`` on rings with a 2-component mixture."""

    name = "train-rings-mix2"
    trace_cycles = 3
    n_train, n_val, n_test, epochs = 10000, 1000, 2000, 2

    def setup(self, rec):
        self.tmp = tempfile.mkdtemp(prefix="rings-", dir=self.workdir)
        self.config = os.path.join(self.tmp, "train.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(
                RINGS_CONFIG.format(
                    seed=self.seed,
                    n_train=self.n_train,
                    n_val=self.n_val,
                    n_test=self.n_test,
                    epochs=self.epochs,
                )
            )
        self.test_rows = data.generate_synthetic(
            "rings", self.n_train, self.n_val, self.n_test, seed=self.seed
        ).split("test")
        self.best_val_ll = None
        self.reports = []
        warm = ["--set", "train.max_epochs=1", "--set", "train.patience=1"]
        rec.op("warmup", lambda: self._train(os.path.join(self.tmp, "warmup"), warm), self.n_train, self._exit_ok)

    def _train(self, out, extra=()):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["train", "--config", self.config, "--out", out, *extra])

    @staticmethod
    def _exit_ok(code):
        return None if code == 0 else f"pcsq train exited with {code}"

    def _check(self, out, code):
        problem = self._exit_ok(code)
        if problem:
            return problem
        with open(os.path.join(out, "train_report.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.epochs:
            return f"report has {len(rows)} rows for {self.epochs} epochs"
        model = modeldoc.load_model(os.path.join(out, "model.json"))
        test_ll = model.log_likelihood(self.test_rows)
        if not np.isfinite(test_ll):
            return f"reloaded model has test log-likelihood {test_ll!r}"
        self.best_val_ll = max(float(r["val_ll"]) for r in rows)
        return None

    def run_cycle(self, rec, index):
        out = os.path.join(self.tmp, "run")
        rec.op(
            "train",
            lambda: self._train(out),
            self.n_train * self.epochs,
            lambda code: self._check(out, code),
        )

    def count_cycle(self, rec, index):
        """One cycle that also captures the ``TrainReport`` the CLI discards."""
        original = cli.train

        def capture(*args, **kwargs):
            report = original(*args, **kwargs)
            self.reports.append(report)
            return report

        cli.train = capture
        try:
            self.run_cycle(rec, index)
        finally:
            cli.train = original

    def z_evals_per_step(self):
        return self.reports[-1].z_evals_per_step

    def heldout_nll(self):
        return -self.best_val_ll

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------


class QueryMix(Workload):
    """Forward-only queries on initialized (untrained) squared circuits.

    The three models are fixed (built from ``MODEL_SEED``): the cost of
    adaptive sampling depends on the model's parameters, and a per-seed
    model would turn that into run-to-run spread.  The seed draws every
    query input: rows, marginalized subsets, writes and sampling seeds.
    """

    name = "query-mix"
    trace_cycles = 2
    variables, density_rows, marginal_rows, cont_draws, disc_draws, states = 8, 4096, 512, 8, 64, 8
    MODEL_SEED = 0

    def setup(self, rec):
        seed, model_seed = self.seed, self.MODEL_SEED
        self.gauss = _squared(
            regions.build_binary_tree(self.variables, model_seed),
            16,
            "hadamard",
            lambda scope, units: families.GaussianFamily(units),
            model_seed,
        )
        rings = data.generate_synthetic("rings", 1000, 1, 1, seed=model_seed).rows
        lo, hi = rings.min(axis=0), rings.max(axis=0)

        def spline(scope, units):
            v = scope[0]
            return families.SplineFamily(units, splines.BSplineBasis.uniform(2, 32, (lo[v], hi[v])))

        self.spline = _squared(regions.build_linear_tree(2, model_seed), 8, "hadamard", spline, model_seed)
        layers = {layer.scope[0]: layer for layer in self.spline.source.input_layers()}
        self.brackets = [layers[v].family.sample_bracket(self.spline.store) for v in range(2)]
        self.categorical = _squared(
            regions.build_binary_tree(self.variables, model_seed + 1),
            4,
            "kronecker",
            lambda scope, units: families.CategoricalFamily(units, self.states),
            model_seed,
        )
        self.disc_counts = np.zeros(self.states)
        self.writes = 0
        # warm-up: one small op of each kind, then the held-out NLL
        rng = _rng(seed, 2)
        x = rng.normal(0.5, 1.0, size=(self.marginal_rows, self.variables))
        rec.op("warmup", lambda: inference.marginal_batch(self.gauss, x, {0, 3}), self.marginal_rows)
        rec.op("warmup", lambda: inference.sample(self.spline, 1, seed=model_seed), 1)
        rec.op("warmup", lambda: inference.sample(self.categorical, 4, seed=model_seed), 4)
        held = rng.normal(0.5, 1.0, size=(self.density_rows, self.variables))
        lls = rec.op("warmup", lambda: inference.log_density(self.gauss, held), self.density_rows)
        self._heldout_nll = -float(np.mean(lls))
        self.z_before = inference.z_eval_count(self.gauss)

    def run_cycle(self, rec, index):
        rng = _rng(self.seed, 3, index)
        circuit = self.gauss.circuit
        for _ in range(8):
            x = rng.normal(0.5, 1.0, size=(self.density_rows, self.variables))
            rec.op(
                "density",
                lambda: inference.log_density(self.gauss, x),
                self.density_rows,
                lambda out: checks.check_log_density(circuit, x, out),
            )
        for _ in range(4):
            x = rng.normal(0.5, 1.0, size=(self.marginal_rows, self.variables))
            marg = frozenset(
                int(v) for v in rng.choice(self.variables, int(rng.integers(1, self.variables)), replace=False)
            )
            rec.op(
                "marginal",
                lambda: inference.marginal_batch(self.gauss, x, marg),
                self.marginal_rows,
                lambda out: checks.check_marginal(circuit, x, marg, out),
            )
        store = self.gauss.store
        store.values += 1e-3 * rng.standard_normal(store.values.size)
        store.bump()
        self.writes += 1
        rec.op(
            "write",
            lambda: inference.partition_function(self.gauss),
            1,
            lambda out: checks.check_log_partition(circuit, out),
        )
        draw_seed = int(rng.integers(2**31))
        rec.op(
            "sample-cont",
            lambda: inference.sample(self.spline, self.cont_draws, seed=draw_seed),
            self.cont_draws,
            self._check_cont,
        )
        draw_seed = int(rng.integers(2**31))
        rec.op(
            "sample-disc",
            lambda: inference.sample(self.categorical, self.disc_draws, seed=draw_seed),
            self.disc_draws,
            self._check_disc,
        )

    def _check_cont(self, draws):
        for v, bracket in enumerate(self.brackets):
            problem = checks.check_continuous_draws(draws[:, v], self.cont_draws, bracket)
            if problem:
                return f"variable {v}: {problem}"
        return None

    def _check_disc(self, draws):
        problem = checks.check_discrete_draws(draws, self.disc_draws, self.states)
        if problem is None:
            self.disc_counts += np.bincount(draws[:, 0].astype(np.int64), minlength=self.states)
        return problem

    def final_problems(self):
        pmf = checks.discrete_marginal(self.categorical.circuit, 0, self.states)
        problem = checks.check_chi_square(self.disc_counts, pmf)
        return [] if problem is None else [f"pooled chi-square of variable 0: {problem}"]

    def z_evals_per_step(self):
        fresh = inference.z_eval_count(self.gauss) - self.z_before
        return fresh / self.writes

    def heldout_nll(self):
        return self._heldout_nll


WORKLOADS = {w.name: w for w in (TrainGauss, TrainRings, QueryMix)}
