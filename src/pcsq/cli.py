"""Command-line entry point.

Grammar: ``pcsq <command> --config <path> [--set key=value]... [--out dir]``.

Commands: train, eval, sample, grid, reduce-psd, reduce-mps, udisj, bench.
Configs are flat UTF-8 ``key = value`` documents with dotted sections;
``--set`` overrides file values; unknown keys are rejected.  Exit codes:
0 ok, 2 config, 3 ingest, 4 numeric, 5 degenerate model.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from pcsq import bench as bench_mod
from pcsq import inference
from pcsq.circuits import from_region_graph
from pcsq.data import Dataset, generate_synthetic, ingest_csv, write_csv
from pcsq.errors import (
    ConfigError,
    DegenerateModelError,
    IngestError,
    NumericError,
    PcsqError,
    PreconditionError,
    UnsupportedStructureError,
)
from pcsq.families import (
    BinomialFamily,
    CategoricalFamily,
    EmbeddingFamily,
    GaussianFamily,
    SplineFamily,
)
from pcsq.learning import TrainConfig, init_parameters, train
from pcsq.mixtures import CircuitMixture
from pcsq.modeldoc import load_model, save_model
from pcsq.regions import build_binary_tree, build_linear_tree
from pcsq.reductions import (
    Graph,
    MpsConversionReport,
    MpsFactorization,
    PsdModel,
    mps_to_circuit,
    psd_to_circuit,
    udisj_circuit,
    udisj_matrix,
)
from pcsq.splines import BSplineBasis
from pcsq.squaring import square


# ---------------------------------------------------------------------------
# configuration documents


def _bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _int_list(text):
    return [int(t) for t in text.split(",") if t.strip()]


_COMMON_KEYS = {"seed": (int, 0), "out": (str, "")}

_DATASET_KEYS = {
    "dataset.kind": (str, "synthetic"),
    "dataset.name": (str, "rings"),
    "dataset.n_train": (int, 10000),
    "dataset.n_val": (int, 1000),
    "dataset.n_test": (int, 2000),
    "dataset.bins": (int, 0),
    "dataset.seed": (int, -1),
    "dataset.path": (str, ""),
    "dataset.schema": (str, ""),
    "dataset.standardize": (_bool, False),
}

_MODEL_KEYS = {
    "model.rg": (str, "lt"),
    "model.rg_seed": (int, -1),
    "model.k": (int, 8),
    "model.family": (str, "spline"),
    "model.mode": (str, "squared-nonmonotonic"),
    "model.product": (str, "hadamard"),
    "model.knots": (int, 32),
    "model.spline_order": (int, 2),
    "model.binomial_trials": (int, 0),
    "model.mixture": (int, 1),
}


def _library_keys(section, defaults):
    """``section.name`` config keys for a library's keyword defaults, each
    coerced like its default; a tuple default takes a comma-separated list
    of ints.  ``seed`` is the common key of every command."""
    return {
        f"{section}.{name}": (_int_list, list(d)) if isinstance(d, tuple) else (type(d), d)
        for name, d in defaults.items()
        if name != "seed"
    }


def _keyword_defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


_TRAIN_KEYS = {
    **_library_keys("train", dataclasses.asdict(TrainConfig())),
    "train.init": (str, _keyword_defaults(init_parameters)["scheme"]),
}

_SCHEMAS = {
    "train": {**_COMMON_KEYS, **_DATASET_KEYS, **_MODEL_KEYS, **_TRAIN_KEYS},
    "eval": {
        **_COMMON_KEYS,
        **_DATASET_KEYS,
        "model.path": (str, ""),
        "eval.split": (str, "test"),
    },
    "sample": {**_COMMON_KEYS, "model.path": (str, ""), "sample.n": (int, 1000)},
    "grid": {
        **_COMMON_KEYS,
        "model.path": (str, ""),
        "grid.resolution": (int, 64),
        "grid.x1_lo": (float, np.nan),
        "grid.x1_hi": (float, np.nan),
        "grid.x2_lo": (float, np.nan),
        "grid.x2_hi": (float, np.nan),
    },
    "reduce-psd": {
        **_COMMON_KEYS,
        "psd.anchor_count": (int, 5),
        "psd.dim": (int, 2),
        "psd.bandwidth": (float, 1.0),
        "psd.anchors_csv": (str, ""),
        "psd.check_points": (int, 100),
    },
    "reduce-mps": {
        **_COMMON_KEYS,
        "mps.path": (str, ""),
        "mps.d": (int, 4),
        "mps.m": (int, 2),
        "mps.r": (int, 2),
        "mps.cp_rank": (int, 0),
        "mps.check_points": (int, 1024),
    },
    "udisj": {**_COMMON_KEYS, "udisj.path": (str, ""), "udisj.matching": (int, 3)},
    "bench": {
        **_COMMON_KEYS,
        **_library_keys("bench", _keyword_defaults(bench_mod.run_benchmarks)),
    },
}


def parse_config_text(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(command, raw):
    schema = _SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    cfg = {}
    for key, (coerce, default) in schema.items():
        if key in raw:
            try:
                cfg[key] = coerce(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({exc})") from exc
        else:
            cfg[key] = default
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


# ---------------------------------------------------------------------------
# dataset and model assembly


def load_dataset(cfg) -> Dataset:
    seed = cfg["dataset.seed"] if cfg["dataset.seed"] >= 0 else cfg["seed"]
    if cfg["dataset.kind"] == "synthetic":
        bins = cfg["dataset.bins"] or None
        return generate_synthetic(
            cfg["dataset.name"],
            cfg["dataset.n_train"],
            cfg["dataset.n_val"],
            cfg["dataset.n_test"],
            seed=seed,
            discretize_bins=bins,
        )
    if cfg["dataset.kind"] == "csv":
        if not cfg["dataset.path"]:
            raise ConfigError("dataset.kind=csv requires dataset.path")
        schema = {}
        for entry in cfg["dataset.schema"].split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ConfigError(f"bad dataset.schema entry {entry!r} (want name=kind)")
            name, kind = entry.split("=", 1)
            schema[name.strip()] = kind.strip()
        if not schema:
            raise ConfigError("dataset.kind=csv requires dataset.schema")
        return ingest_csv(
            cfg["dataset.path"], schema, standardize=cfg["dataset.standardize"], seed=seed
        )
    raise ConfigError(f"unknown dataset.kind {cfg['dataset.kind']!r}")


def _family_factory(cfg, dataset, monotonic_inputs):
    lo, hi = dataset.rows.min(axis=0), dataset.rows.max(axis=0)
    name = cfg["model.family"]

    def factory(scope, units):
        if len(scope) != 1:
            raise ConfigError("model families are univariate; leaf regions must be singletons")
        v = scope[0]
        col = dataset.columns[v]
        if col.kind == "continuous":
            if name == "gaussian":
                return GaussianFamily(units)
            if name == "spline":
                basis = BSplineBasis.uniform(
                    cfg["model.spline_order"], cfg["model.knots"], (lo[v], hi[v])
                )
                return SplineFamily(units, basis, monotonic=monotonic_inputs)
            raise ConfigError(f"family {name!r} does not fit continuous column {col.name!r}")
        if name == "categorical":
            return CategoricalFamily(units, col.states)
        if name == "embedding":
            return EmbeddingFamily(units, col.states)
        if name == "binomial":
            trials = cfg["model.binomial_trials"] or (col.states - 1)
            if trials + 1 < col.states:
                raise ConfigError(
                    f"binomial support {trials + 1} smaller than column states {col.states}"
                )
            return BinomialFamily(units, trials)
        raise ConfigError(f"family {name!r} does not fit discrete column {col.name!r}")

    return factory


def build_model(cfg, dataset: Dataset):
    mode = cfg["model.mode"]
    if mode not in ("monotonic", "squared-nonmonotonic", "squared-monotonic"):
        raise ConfigError(f"unknown model.mode {mode!r}")
    monotonic = mode in ("monotonic", "squared-monotonic")
    factory = _family_factory(cfg, dataset, monotonic_inputs=monotonic)
    rg_seed = cfg["model.rg_seed"] if cfg["model.rg_seed"] >= 0 else cfg["seed"]
    builder = {"lt": build_linear_tree, "bt": build_binary_tree}.get(cfg["model.rg"])
    if builder is None:
        raise ConfigError(f"unknown model.rg {cfg['model.rg']!r}")
    components = []
    for i in range(cfg["model.mixture"]):
        rg = builder(dataset.variable_count, rg_seed + i)
        circuit = from_region_graph(
            rg,
            cfg["model.k"],
            cfg["model.product"],
            factory,
            sum_reparam="exp" if monotonic else "identity",
        )
        components.append(square(circuit) if mode.startswith("squared") else circuit)
    if len(components) == 1:
        return components[0]
    return CircuitMixture.from_components(components, learnable=True)


# ---------------------------------------------------------------------------
# commands


def _section(cfg, section):
    """The resolved ``section.*`` values, keyed by their bare names."""
    prefix = f"{section}."
    return {key[len(prefix) :]: value for key, value in cfg.items() if key.startswith(prefix)}


def _cmd_train(cfg, out):
    dataset = load_dataset(cfg)
    model = build_model(cfg, dataset)
    settings = _section(cfg, "train")
    init_parameters(model, settings.pop("init"), cfg["seed"])
    report = train(model, dataset, TrainConfig(seed=cfg["seed"], **settings))
    save_model(model, os.path.join(out, "model.json"))
    report.write_csv(os.path.join(out, "train_report.csv"))
    final_val = report.best_val_ll
    print(f"trained: best val LL {final_val:.6f} at epoch {report.best_epoch}")
    if not np.isfinite(final_val):
        raise NumericError("final validation log-likelihood is not finite")
    return 0


def _require_model(cfg):
    if not cfg["model.path"]:
        raise ConfigError("model.path is required")
    return load_model(cfg["model.path"])


def _cmd_eval(cfg, out):
    dataset = load_dataset(cfg)
    model = _require_model(cfg)
    rows = dataset.split(cfg["eval.split"])
    if rows.shape[0] == 0:
        raise ConfigError(f"split {cfg['eval.split']!r} has no rows to evaluate")
    lls = inference.log_density(model, rows)
    mean = float(np.mean(lls))
    two_se = float(2.0 * np.std(lls, ddof=1) / np.sqrt(lls.size)) if lls.size > 1 else 0.0
    row = [cfg["eval.split"], lls.size, mean, two_se]
    write_csv(os.path.join(out, "metrics.csv"), ["split", "n", "mean_ll", "two_se"], [row])
    print(f"eval[{cfg['eval.split']}]: mean LL {mean:.6f} +/- {two_se:.6f}")
    return 0


def _cmd_sample(cfg, out):
    model = _require_model(cfg)
    rows = inference.sample(model, cfg["sample.n"], seed=cfg["seed"])
    header = [f"x{i + 1}" for i in range(rows.shape[1])]
    write_csv(os.path.join(out, "samples.csv"), header, rows)
    print(f"wrote {rows.shape[0]} samples")
    return 0


def _grid_bounds(cfg, model):
    """(lo, hi) of x1 and x2: as set, or else over every component's sample bracket."""
    components = model.components if isinstance(model, CircuitMixture) else [model]
    bounds = []
    for v, key in ((0, "x1"), (1, "x2")):
        for bound in (f"grid.{key}_lo", f"grid.{key}_hi"):
            if np.isinf(cfg[bound]):
                raise ConfigError(f"{bound} must be finite, or nan to derive it, got {cfg[bound]}")
        lo = cfg[f"grid.{key}_lo"]
        hi = cfg[f"grid.{key}_hi"]
        if np.isnan(lo) or np.isnan(hi):
            try:
                brackets = [
                    inference._family_for_variable(c, v).sample_bracket(c.store)
                    for c in components
                ]
            except NotImplementedError as exc:
                raise ConfigError(f"grid bounds for {key} not given and not derivable") from exc
            lo = min(b[0] for b in brackets) if np.isnan(lo) else lo
            hi = max(b[1] for b in brackets) if np.isnan(hi) else hi
        bounds.append((lo, hi))
    return bounds


def _cmd_grid(cfg, out):
    model = _require_model(cfg)
    if model.variable_count != 2:
        raise ConfigError("grid export is defined for 2-variable models")
    r = cfg["grid.resolution"]
    if r < 1:
        raise ConfigError(f"grid.resolution must be at least 1, got {r}")
    (lo1, hi1), (lo2, hi2) = _grid_bounds(cfg, model)
    xs = np.linspace(lo1, hi1, r)
    ys = np.linspace(lo2, hi2, r)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.reshape(-1), gy.reshape(-1)])
    lls = inference.log_density(model, pts)
    rows = np.column_stack([pts, lls])
    write_csv(os.path.join(out, "grid.csv"), ["x1", "x2", "log_density"], rows)
    print(f"wrote {rows.shape[0]} grid points")
    return 0


def _at_least_one(cfg, key):
    if cfg[key] < 1:
        raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    return cfg[key]


def _cmd_reduce_psd(cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    points = _at_least_one(cfg, "psd.check_points")
    if cfg["psd.anchors_csv"]:
        try:
            anchors = np.loadtxt(cfg["psd.anchors_csv"], delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise IngestError(f"{cfg['psd.anchors_csv']}: {exc}") from exc
    else:
        shape = (_at_least_one(cfg, "psd.anchor_count"), _at_least_one(cfg, "psd.dim"))
        anchors = rng.normal(size=shape)
    d = anchors.shape[0]
    m = rng.normal(size=(d, d))
    psd = PsdModel(anchors, cfg["psd.bandwidth"], m @ m.T)
    mixture = psd_to_circuit(psd)
    pts = rng.normal(size=(points, anchors.shape[1]))
    direct = psd.direct_value(pts)
    via_circuit = np.exp(mixture.log_value(pts))
    rel = np.abs(via_circuit - direct) / np.maximum(np.abs(direct), 1e-12)
    save_model(mixture, os.path.join(out, "model.json"))
    row = [pts.shape[0], float(rel.max()), float(rel.mean())]
    header = ["points", "max_rel_error", "mean_rel_error"]
    write_csv(os.path.join(out, "verification.csv"), header, [row])
    print(f"psd reduction: max rel error {rel.max():.3e} over {pts.shape[0]} points")
    return 0


def _cmd_reduce_mps(cfg, out):
    points = _at_least_one(cfg, "mps.check_points")
    if cfg["mps.path"]:
        mps = MpsFactorization.read(cfg["mps.path"])
    else:
        mps = MpsFactorization.random(cfg["mps.d"], cfg["mps.m"], cfg["mps.r"], seed=cfg["seed"])
    report = MpsConversionReport()
    cp_config = {"seed": cfg["seed"]}
    if cfg["mps.cp_rank"]:
        cp_config["max_rank"] = cfg["mps.cp_rank"]
    circuit = mps_to_circuit(mps, cp_config, report=report)
    d, m = mps.variable_count, mps.states
    rng = np.random.default_rng(cfg["seed"])
    if m**d <= points:
        grid = np.indices((m,) * d).reshape(d, -1).T.astype(float)
    else:
        grid = rng.integers(0, m, size=(points, d)).astype(float)
    got = inference.evaluate(circuit, grid).to_linear()
    want = np.array([mps.contract(row) for row in grid])
    err = float(np.max(np.abs(got - want)))
    squared = square(circuit)
    got2 = inference.evaluate(squared, grid).to_linear()
    err2 = float(np.max(np.abs(got2 - want**2)))
    save_model(squared, os.path.join(out, "model.json"))
    cp_errs = ";".join(repr(e) for e in report.cp_errors) or "none"
    row = [grid.shape[0], err, err2, cp_errs]
    header = "assignments,max_abs_error,squared_max_abs_error,cp_errors"
    write_csv(os.path.join(out, "verification.csv"), header.split(","), [row])
    print(f"mps reduction: max abs error {err:.3e}; squared {err2:.3e}")
    return 0


def _cmd_udisj(cfg, out):
    if cfg["udisj.path"]:
        graph = Graph.read(cfg["udisj.path"])
    else:
        graph = Graph.matching(cfg["udisj.matching"])
    if graph.vertex_count > 16:
        raise ConfigError("communication-matrix dump is limited to 16 vertices")
    squared = udisj_circuit(graph)
    rows, cols, matrix = udisj_matrix(graph, squared)
    write_csv(
        os.path.join(out, "udisj_matrix.csv"),
        ["y\\z", *cols],
        ([label, *(int(v) for v in row)] for label, row in zip(rows, matrix)),
    )
    save_model(squared, os.path.join(out, "model.json"))
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} communication matrix")
    return 0


def _cmd_bench(cfg, out):
    rows = bench_mod.run_benchmarks(seed=cfg["seed"], **_section(cfg, "bench"))
    bench_mod.write_csv(os.path.join(out, "bench.csv"), rows)
    print(f"wrote {len(rows)} bench rows")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sample": _cmd_sample,
    "grid": _cmd_grid,
    "reduce-psd": _cmd_reduce_psd,
    "reduce-mps": _cmd_reduce_mps,
    "udisj": _cmd_udisj,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pcsq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key=value config document")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config value",
        )
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        cfg = resolve_config(args.command, raw)
        out = args.out if args.out != "." or not cfg.get("out") else cfg["out"]
        return _COMMANDS[args.command](cfg, out)
    except (ConfigError, UnsupportedStructureError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 3
    except DegenerateModelError as exc:
        print(f"degenerate model: {exc}", file=sys.stderr)
        return 5
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except PcsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
