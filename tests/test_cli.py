"""End-to-end CLI runs: artifacts, reproducibility, exit codes."""

import json

import numpy as np
import pytest

from pcsq import cli
from pcsq.cli import main, parse_config_text, resolve_config
from pcsq.modeldoc import load_model


def _write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TRAIN_CFG = """
seed = 3
dataset.name = rings
dataset.n_train = 800
dataset.n_val = 200
dataset.n_test = 200
model.rg = lt
model.k = 4
model.family = spline
model.knots = 12
model.mode = squared-nonmonotonic
train.batch_size = 128
train.max_epochs = 2
train.learning_rate = 0.01
"""


def _psd_model(tmp_path, dim):
    """Path of a saved reduce-psd mixture over ``dim`` variables."""
    cfg = _write_config(tmp_path, "p.cfg", f"seed = 2\npsd.anchor_count = 3\npsd.dim = {dim}\n")
    out = tmp_path / f"psd{dim}"
    assert main(["reduce-psd", "--config", cfg, "--out", str(out)]) == 0
    return out / "model.json"


_COMMON = {"seed": (int, 0), "out": (str, "")}
_DATASET = {
    "dataset.kind": (str, "synthetic"),
    "dataset.name": (str, "rings"),
    "dataset.n_train": (int, 10000),
    "dataset.n_val": (int, 1000),
    "dataset.n_test": (int, 2000),
    "dataset.bins": (int, 0),
    "dataset.seed": (int, -1),
    "dataset.path": (str, ""),
    "dataset.schema": (str, ""),
    "dataset.standardize": (cli._bool, False),
}
# every command's keys, coercions and defaults; train.* and bench.* come
# from the library's own defaults and must stay these values
SCHEMAS = {
    "train": {
        **_COMMON,
        **_DATASET,
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
        "train.batch_size": (int, 256),
        "train.learning_rate": (float, 1e-3),
        "train.max_epochs": (int, 50),
        "train.patience": (int, 3),
        "train.optimizer": (str, "adam"),
        "train.init": (str, "uniform(0,1)"),
        "train.l2": (float, 0.0),
    },
    "eval": {**_COMMON, **_DATASET, "model.path": (str, ""), "eval.split": (str, "test")},
    "sample": {**_COMMON, "model.path": (str, ""), "sample.n": (int, 1000)},
    "grid": {
        **_COMMON,
        "model.path": (str, ""),
        "grid.resolution": (int, 64),
        "grid.x1_lo": (float, np.nan),
        "grid.x1_hi": (float, np.nan),
        "grid.x2_lo": (float, np.nan),
        "grid.x2_hi": (float, np.nan),
    },
    "reduce-psd": {
        **_COMMON,
        "psd.anchor_count": (int, 5),
        "psd.dim": (int, 2),
        "psd.bandwidth": (float, 1.0),
        "psd.anchors_csv": (str, ""),
        "psd.check_points": (int, 100),
    },
    "reduce-mps": {
        **_COMMON,
        "mps.path": (str, ""),
        "mps.d": (int, 4),
        "mps.m": (int, 2),
        "mps.r": (int, 2),
        "mps.cp_rank": (int, 0),
        "mps.check_points": (int, 1024),
    },
    "udisj": {**_COMMON, "udisj.path": (str, ""), "udisj.matching": (int, 3)},
    "bench": {
        **_COMMON,
        "bench.k": (cli._int_list, [32, 64, 128]),
        "bench.batch_sizes": (cli._int_list, [64, 256, 1024]),
        "bench.variables": (int, 8),
        "bench.steps": (int, 3),
        "bench.overflow_variables": (cli._int_list, [16, 32, 64, 128]),
        "bench.overflow_k": (int, 64),
        "bench.overflow_init": (str, "uniform(0,4)"),
    },
}


@pytest.mark.parametrize("command", list(SCHEMAS))
def test_schema_keys_defaults_and_coercions(command):
    schema = cli._SCHEMAS[command]
    assert sorted(schema) == sorted(SCHEMAS[command])
    for key, (coerce, default) in SCHEMAS[command].items():
        got_coerce, got_default = schema[key]
        assert got_coerce is coerce, key
        assert type(got_default) is type(default), key
        assert got_default == default or (np.isnan(default) and np.isnan(got_default)), key
    assert set(cli._COMMANDS) == set(SCHEMAS)


class TestConfigParsing:
    def test_key_value_with_comments(self):
        raw = parse_config_text("# hi\nseed = 4\n\nmodel.k= 8 # tail\n")
        assert raw == {"seed": "4", "model.k": "8 # tail".split("#")[0].strip()}

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown config keys"):
            resolve_config("train", {"modell.k": "8"})

    def test_type_coercion_failure(self):
        with pytest.raises(Exception, match="bad value"):
            resolve_config("train", {"model.k": "eight"})

    def test_boolean_values(self):
        for text, value in (("yes", True), ("Off", False)):
            cfg = resolve_config("train", {"dataset.standardize": text})
            assert cfg["dataset.standardize"] is value


class TestCommands:
    def test_train_writes_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        report = (out / "train_report.csv").read_text().splitlines()
        assert report[0] == "epoch,train_ll,val_ll,seconds"
        assert len(report) == 3
        final_val = float(report[-1].split(",")[2])
        assert np.isfinite(final_val)

    def _eval_config(self, out):
        return (
            "seed = 3\n"
            "dataset.name = rings\n"
            "dataset.n_train = 800\n"
            "dataset.n_val = 200\n"
            "dataset.n_test = 200\n"
            f"model.path = {out / 'model.json'}\n"
            "eval.split = test\n"
        )

    def test_eval_deterministic_byte_for_byte(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        out = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(out)])
        eval_cfg = _write_config(tmp_path, "eval.cfg", self._eval_config(out))
        outs = []
        for sub in ("e1", "e2"):
            d = tmp_path / sub
            assert main(["eval", "--config", eval_cfg, "--out", str(d)]) == 0
            outs.append((d / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_eval_matches_in_memory_model(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        out = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(out)])
        model = load_model(out / "model.json")
        from pcsq.data import generate_synthetic
        from pcsq.inference import log_density

        ds = generate_synthetic("rings", 800, 200, 200, seed=3)
        lls = log_density(model, ds.split("test"))
        eval_cfg = _write_config(tmp_path, "eval2.cfg", self._eval_config(out))
        d = tmp_path / "e3"
        main(["eval", "--config", eval_cfg, "--out", str(d)])
        line = (d / "metrics.csv").read_text().splitlines()[1]
        mean = float(line.split(",")[2])
        assert mean == pytest.approx(float(lls.mean()), rel=0, abs=0)

    def test_sample_and_grid(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        out = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(out)])
        sample_cfg = _write_config(
            tmp_path, "s.cfg", f"seed = 5\nmodel.path = {out / 'model.json'}\nsample.n = 25\n"
        )
        assert main(["sample", "--config", sample_cfg, "--out", str(out)]) == 0
        rows = (out / "samples.csv").read_text().splitlines()
        assert rows[0] == "x1,x2"
        assert len(rows) == 26
        grid_cfg = _write_config(
            tmp_path, "g.cfg", f"model.path = {out / 'model.json'}\ngrid.resolution = 8\n"
        )
        assert main(["grid", "--config", grid_cfg, "--out", str(out)]) == 0
        grid_rows = (out / "grid.csv").read_text().splitlines()
        assert grid_rows[0] == "x1,x2,log_density"
        assert len(grid_rows) == 65

    def test_train_reproducible_model_bytes(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["train", "--config", cfg, "--out", str(out)]) == 0
            blobs.append((out / "model.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", ["monotonic", "squared-nonmonotonic"])
    @pytest.mark.parametrize("family", ["gaussian", "categorical", "embedding", "binomial"])
    def test_train_then_sample_every_family(self, tmp_path, family, mode):
        bins = "" if family == "gaussian" else "dataset.bins = 8\n"
        cfg = _write_config(
            tmp_path,
            "f.cfg",
            TRAIN_CFG.replace("model.family = spline", f"model.family = {family}")
            .replace("model.mode = squared-nonmonotonic", f"model.mode = {mode}")
            + bins,
        )
        out = tmp_path / "run"
        args = ["train", "--config", cfg, "--set", "train.max_epochs=1", "--out", str(out)]
        assert main(args) == 0
        sample_cfg = _write_config(
            tmp_path, "s.cfg", f"seed = 4\nmodel.path = {out / 'model.json'}\nsample.n = 30\n"
        )
        assert main(["sample", "--config", sample_cfg, "--out", str(out)]) == 0
        rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (30, 2) and np.all(np.isfinite(rows))
        if bins:
            assert np.all((rows == np.round(rows)) & (rows >= 0) & (rows < 8))

    def test_train_kronecker_products(self, tmp_path):
        cfg = _write_config(tmp_path, "kron.cfg", TRAIN_CFG + "model.product = kronecker\n")
        out = tmp_path / "kron"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "train_report.csv").read_text().splitlines()
        assert np.isfinite(float(report[-1].split(",")[2]))

    def test_train_mixture_of_structures(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "mix.cfg",
            TRAIN_CFG.replace("model.rg = lt", "model.rg = lt\nmodel.mixture = 2"),
        )
        out = tmp_path / "mix"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["kind"] == "mixture"
        assert len(doc["components"]) == 2
        sample_cfg = _write_config(
            tmp_path, "ms.cfg", f"seed = 1\nmodel.path = {out / 'model.json'}\nsample.n = 8\n"
        )
        assert main(["sample", "--config", sample_cfg, "--out", str(out)]) == 0

    def test_udisj_matrix_csv(self, tmp_path):
        cfg = _write_config(tmp_path, "u.cfg", "udisj.matching = 3\n")
        out = tmp_path / "u"
        assert main(["udisj", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "udisj_matrix.csv").read_text().splitlines()
        assert lines[0].split(",")[1:] == ["000", "100", "010", "001", "110", "101", "011", "111"]
        assert lines[-1] == "111,1,0,0,0,1,1,1,4"

    def test_reductions_verify(self, tmp_path):
        psd_cfg = _write_config(tmp_path, "p.cfg", "seed = 2\npsd.anchor_count = 4\npsd.dim = 2\n")
        out = tmp_path / "p"
        assert main(["reduce-psd", "--config", psd_cfg, "--out", str(out)]) == 0
        line = (out / "verification.csv").read_text().splitlines()[1]
        assert float(line.split(",")[1]) < 1e-8
        mps_cfg = _write_config(tmp_path, "m.cfg", "seed = 2\nmps.d = 3\nmps.m = 2\nmps.r = 2\n")
        out2 = tmp_path / "m"
        assert main(["reduce-mps", "--config", mps_cfg, "--out", str(out2)]) == 0
        line = (out2 / "verification.csv").read_text().splitlines()[1]
        assert float(line.split(",")[1]) < 1e-6

    @pytest.mark.parametrize("dim,code", [(1, 0), (2, 2)])
    def test_sample_reduce_psd_model(self, tmp_path, dim, code):
        # 1-d kernel units integrate up to a point in closed form; a 2-d
        # kernel unit cannot be conditioned on one of its variables
        cfg = _write_config(
            tmp_path, "s.cfg", f"model.path = {_psd_model(tmp_path, dim)}\nsample.n = 20\n"
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == code
        if code == 0:
            rows = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
            assert rows.shape == (20, 1) and np.all(np.isfinite(rows))

    def test_bench_counts_one_z_per_step(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "b.cfg",
            "bench.k = 4\nbench.batch_sizes = 16,32\nbench.variables = 4\n"
            "bench.steps = 2\nbench.overflow_variables = 8\n",
        )
        out = tmp_path / "b"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        header = lines[0].split(",")
        z_col = header.index("z_evals_per_step")
        fault_col = header.index("minor_faults_per_step")
        timing = [l.split(",") for l in lines[1:] if l.startswith("step_timing")]
        assert timing and all(float(row[z_col]) == 1.0 for row in timing)
        faults = [float(row[fault_col]) for row in timing]
        assert all(np.isfinite(f) and f >= 0 for f in faults)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_init_scheme_is_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        args = ["train", "--config", cfg, "--set", "train.init=bogus", "--out", str(tmp_path)]
        assert main(args) == 2
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "setting",
        ["train.max_epochs=0", "train.l2=-1", "train.l2=nan", "train.learning_rate=nan"],
    )
    def test_out_of_range_train_setting_is_config_error(self, tmp_path, capsys, setting):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--set", setting, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "model.json").exists()
        assert not (out / "train_report.csv").exists()

    def test_rejected_config_creates_no_out_directory(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        out = tmp_path / "newdir"
        args = ["train", "--config", cfg, "--set", "train.max_epochs=0", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_artifacts_create_a_nested_out_directory(self, tmp_path):
        cfg = _write_config(tmp_path, "train.cfg", TRAIN_CFG)
        out = tmp_path / "runs" / "first"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "model.json").is_file() and (out / "train_report.csv").is_file()

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, "bad.cfg", "bogus.key = 1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_ingest_error_code(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("a,b\n1,2\n3,oops\n")
        cfg = _write_config(
            tmp_path,
            "ingest.cfg",
            "dataset.kind = csv\n"
            f"dataset.path = {csv_path}\n"
            "dataset.schema = a=continuous;b=continuous\n"
            "model.family = gaussian\n",
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("value,code", [("yes", 0), ("maybe", 2)])
    def test_standardize_flag(self, tmp_path, value, code):
        rows = np.random.default_rng(0).normal(size=(60, 2))
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in rows))
        cfg = _write_config(
            tmp_path,
            "std.cfg",
            "dataset.kind = csv\n"
            f"dataset.path = {csv_path}\n"
            "dataset.schema = a=continuous;b=continuous\n"
            "model.family = gaussian\nmodel.k = 2\ntrain.max_epochs = 1\n",
        )
        args = ["train", "--config", cfg, "--set", f"dataset.standardize={value}"]
        assert main(args + ["--out", str(tmp_path / "out")]) == code

    def test_eval_of_an_empty_split_is_a_config_error(self, tmp_path, capsys):
        # six rows split 5/1/0: training works, evaluating the empty test split does not
        rows = np.random.default_rng(0).normal(size=(6, 2))
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in rows))
        data_cfg = (
            "dataset.kind = csv\n"
            f"dataset.path = {csv_path}\n"
            "dataset.schema = a=continuous;b=continuous\n"
        )
        train_cfg = data_cfg + "model.family = gaussian\nmodel.k = 2\ntrain.max_epochs = 1\n"
        run, out = tmp_path / "run", tmp_path / "eval"
        train_path = _write_config(tmp_path, "t.cfg", train_cfg)
        assert main(["train", "--config", train_path, "--out", str(run)]) == 0
        eval_cfg = data_cfg + f"model.path = {run / 'model.json'}\neval.split = test\n"
        eval_path = _write_config(tmp_path, "e.cfg", eval_cfg)
        assert main(["eval", "--config", eval_path, "--out", str(out)]) == 2
        assert not (out / "metrics.csv").exists()
        assert "split 'test' has no rows" in capsys.readouterr().err

    def test_nan_cell_is_an_ingest_error(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("a,b\n1,2\n3,4\nnan,5\n")
        cfg = _write_config(
            tmp_path,
            "ingest.cfg",
            "dataset.kind = csv\n"
            f"dataset.path = {csv_path}\n"
            "dataset.schema = a=continuous;b=continuous\n"
            "model.family = gaussian\n",
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "line 4: non-finite cell 'nan'" in capsys.readouterr().err

    def test_degenerate_model_code(self, tmp_path, rng):
        # a squared model whose source is identically zero
        from pcsq.circuits import from_region_graph
        from pcsq.families import EmbeddingFamily
        from pcsq.modeldoc import save_model
        from pcsq.regions import linear_tree_from_order
        from pcsq.squaring import square

        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 1, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        c.store.set_free(c.input_layers()[0].family.blocks["values"], [[0.0, 0.0]])
        c.store.set_free(c.layer(c.output_layer).param_block, [[1.0]])
        model_path = tmp_path / "deg.json"
        save_model(square(c), model_path)
        cfg = _write_config(
            tmp_path, "deg.cfg", f"model.path = {model_path}\nsample.n = 5\n"
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 5

    @pytest.mark.parametrize("command", ["eval", "sample", "grid"])
    @pytest.mark.parametrize("defect", ["missing file", "undecodable json", "missing key"])
    def test_unreadable_model_path_is_an_ingest_error(self, tmp_path, capsys, command, defect):
        path = tmp_path / "model.json"
        if defect == "undecodable json":
            path.write_text('{"format_version": 1, "kind": ')
        elif defect == "missing key":
            path.write_text('{"format_version": 1, "kind": "circuit"}')
        cfg = _write_config(tmp_path, "m.cfg", f"model.path = {path}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert f"ingest error: {path}" in capsys.readouterr().err

    def test_model_with_an_unknown_layer_kind_is_a_config_error(self, tmp_path, capsys):
        model_path = _psd_model(tmp_path, 2)
        doc = json.loads(model_path.read_text())
        doc["components"][0]["source"]["layers"][0]["kind"] = "foo"
        model_path.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path, "s.cfg", f"model.path = {model_path}\nsample.n = 3\n")
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "layer 0 has unknown kind 'foo'" in capsys.readouterr().err

    def test_missing_anchors_csv_is_an_ingest_error(self, tmp_path):
        cfg = _write_config(tmp_path, "p.cfg", f"psd.anchors_csv = {tmp_path / 'absent.csv'}\n")
        assert main(["reduce-psd", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize(
        "command,setting",
        [
            ("reduce-psd", "psd.anchor_count=0"),
            ("reduce-psd", "psd.dim=0"),
            ("reduce-psd", "psd.check_points=0"),
            ("reduce-mps", "mps.d=1"),
            ("reduce-mps", "mps.check_points=0"),
        ],
    )
    def test_reduction_sizes_below_one_are_config_errors(self, tmp_path, capsys, command, setting):
        cfg = _write_config(tmp_path, "r.cfg", "seed = 1\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--set", setting, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_discrete_states_is_an_ingest_error(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("a,b\n1,0\n3,1\n")
        cfg = _write_config(
            tmp_path,
            "ingest.cfg",
            "dataset.kind = csv\n"
            f"dataset.path = {csv_path}\n"
            "dataset.schema = a=continuous;b=discrete:abc\n"
            "model.family = gaussian\n",
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "bad schema entry 'b': 'discrete:abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key,value,code",
        [
            ("sample", "sample.n", -3, 2),
            ("sample", "sample.n", 0, 0),
            ("grid", "grid.resolution", -2, 2),
            ("grid", "grid.resolution", 0, 2),
        ],
    )
    def test_draw_counts_and_grid_sizes(self, tmp_path, command, key, value, code):
        model_path = _psd_model(tmp_path, 2)
        cfg = _write_config(tmp_path, "c.cfg", f"model.path = {model_path}\n{key} = {value}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == code
