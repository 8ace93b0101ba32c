"""Dataset generation, discretization, and CSV ingestion."""

import numpy as np
import pytest

from pcsq.data import generate_synthetic, ingest_csv
from pcsq.errors import ConfigError, IngestError


class TestSynthetic:
    def test_split_sizes(self):
        ds = generate_synthetic("rings", 10000, 1000, 2000, seed=1)
        assert ds.rows.shape == (13000, 2)
        assert all(c.kind == "continuous" for c in ds.columns)
        assert ds.split("train").shape[0] == 10000
        assert ds.split("val").shape[0] == 1000
        assert ds.split("test").shape[0] == 2000

    def test_deterministic_given_seed(self):
        a = generate_synthetic("banana", 100, 10, 10, seed=5)
        b = generate_synthetic("banana", 100, 10, 10, seed=5)
        np.testing.assert_array_equal(a.rows, b.rows)
        c = generate_synthetic("banana", 100, 10, 10, seed=6)
        assert not np.array_equal(a.rows, c.rows)

    def test_discretization_grid(self):
        ds = generate_synthetic("cosine", 500, 50, 50, seed=2, discretize_bins=32)
        assert all(c.kind == "discrete" and c.states == 32 for c in ds.columns)
        assert np.all(ds.rows == np.round(ds.rows))
        assert ds.rows.min() >= 0
        assert ds.rows.max() <= 31

    def test_shapes_are_plausible(self):
        rings = generate_synthetic("rings", 4000, 100, 100, seed=0)
        radius = np.hypot(rings.rows[:, 0], rings.rows[:, 1])
        # two radius modes near 1 and 2
        assert (np.abs(radius - 1.0) < 0.35).mean() > 0.3
        assert (np.abs(radius - 2.0) < 0.35).mean() > 0.3
        funnel = generate_synthetic("funnel", 4000, 100, 100, seed=0)
        spread_hi = funnel.rows[funnel.rows[:, 0] > 1, 1].std()
        spread_lo = funnel.rows[funnel.rows[:, 0] < -1, 1].std()
        assert spread_hi > 1.5 * spread_lo

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            generate_synthetic("spiral", 10, 10, 10)

    def test_empty_split_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic("rings", 0, 10, 10)


class TestIngest:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_small_csv(self, tmp_path):
        path = self._write(tmp_path, "a,b,c\n1,2.5,0\n2,3.5,1\n3,4.5,0\n")
        ds = ingest_csv(path, {"a": "continuous", "c": "discrete:2"}, split_fractions=(0.67, 0.0, 0.33))
        assert ds.rows.shape == (3, 2)
        assert ds.columns[1].states == 2

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = self._write(tmp_path, "a\n1\nbad\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path, {"a": "continuous"})

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(IngestError, match=f"line 3: non-finite cell '{cell}'"):
            ingest_csv(path, {"a": "continuous", "b": "continuous"})

    def test_ragged_row_reports_line(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path, {"a": "continuous", "b": "continuous"})

    def test_missing_schema_column(self, tmp_path):
        path = self._write(tmp_path, "a\n1\n")
        with pytest.raises(IngestError, match="missing"):
            ingest_csv(path, {"zz": "continuous"})

    def test_standardization_uses_train_stats(self, tmp_path, rng):
        rows = "\n".join(str(v) for v in rng.normal(3.0, 2.0, size=400))
        path = self._write(tmp_path, "a\n" + rows + "\n")
        ds = ingest_csv(path, {"a": "continuous"}, standardize=True, seed=1)
        train = ds.split("train")[:, 0]
        assert abs(train.mean()) < 1e-9
        assert abs(train.std() - 1.0) < 1e-9
        assert "a" in ds.standardization
