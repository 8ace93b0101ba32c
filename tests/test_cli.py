"""End-to-end CLI runs: artifacts, reproducibility, exit codes."""

import json

import numpy as np
import pytest

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
        timing = [l.split(",") for l in lines[1:] if l.startswith("step_timing")]
        assert timing and all(float(row[z_col]) == 1.0 for row in timing)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2

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
