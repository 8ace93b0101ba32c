"""Datasets: synthetic 2-d shapes, CSV ingestion, splits, discretization.

All generators funnel through one seeded generator, so a fixed (name,
sizes, seed) tuple reproduces identical bytes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from pcsq.errors import ConfigError, IngestError


@dataclass
class Column:
    name: str
    kind: str  # continuous | discrete
    states: int | None = None


@dataclass
class Dataset:
    columns: list
    rows: np.ndarray  # (n, d) float64; discrete values are integer-valued
    splits: dict      # name -> index array
    standardization: dict = field(default_factory=dict)  # column -> (mean, std)

    @property
    def variable_count(self):
        return len(self.columns)

    def split(self, name):
        if name not in self.splits:
            raise ConfigError(f"dataset has no split {name!r}; have {sorted(self.splits)}")
        return self.rows[self.splits[name]]

    def check(self):
        seen = set()
        for name, idx in self.splits.items():
            s = set(int(i) for i in idx)
            if s & seen:
                raise ConfigError(f"split {name!r} overlaps another split")
            seen |= s
        for j, col in enumerate(self.columns):
            if col.kind == "discrete":
                vals = self.rows[:, j]
                if np.any(vals != np.round(vals)) or vals.min() < 0 or vals.max() >= col.states:
                    raise ConfigError(f"column {col.name!r} has values outside [0, {col.states})")
        return self


SYNTHETIC_NAMES = ("rings", "cosine", "funnel", "banana")


def _draw_shape(name, n, rng):
    if name == "rings":
        radius = np.where(rng.random(n) < 0.5, 1.0, 2.0) + rng.normal(0.0, 0.1, size=n)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    if name == "cosine":
        x1 = rng.uniform(-4.0, 4.0, size=n)
        x2 = 2.0 * np.cos(x1) + rng.normal(0.0, 0.35, size=n)
        return np.column_stack([x1, x2])
    if name == "funnel":
        x1 = rng.normal(0.0, 1.0, size=n)
        x2 = rng.normal(0.0, 1.0, size=n) * np.exp(x1 / 2.0)
        return np.column_stack([x1, x2])
    if name == "banana":
        z = rng.normal(0.0, 1.0, size=(n, 2))
        return np.column_stack([z[:, 0], z[:, 1] + 0.5 * z[:, 0] ** 2 - 1.0])
    raise ConfigError(f"unknown synthetic dataset {name!r}; choices: {SYNTHETIC_NAMES}")


def generate_synthetic(name, n_train, n_val, n_test, seed=0, discretize_bins=None):
    """Seeded 2-d shape sampler with train/val/test splits and optional
    uniform-bin discretization to an integer grid."""
    for label, n in (("n_train", n_train), ("n_val", n_val), ("n_test", n_test)):
        if n < 1:
            raise ConfigError(f"{label} must be >= 1")
    rng = np.random.default_rng(seed)
    total = n_train + n_val + n_test
    rows = _draw_shape(name, total, rng)
    splits = {
        "train": np.arange(n_train),
        "val": np.arange(n_train, n_train + n_val),
        "test": np.arange(n_train + n_val, total),
    }
    if discretize_bins is None:
        columns = [Column("x1", "continuous"), Column("x2", "continuous")]
        return Dataset(columns, rows, splits).check()
    bins = int(discretize_bins)
    if bins < 2:
        raise ConfigError("discretize needs at least 2 bins")
    lo = rows.min(axis=0)
    hi = rows.max(axis=0)
    width = (hi - lo) / bins
    cells = np.minimum(np.floor((rows - lo) / width), bins - 1).astype(np.float64)
    columns = [Column("x1", "discrete", bins), Column("x2", "discrete", bins)]
    return Dataset(columns, cells, splits).check()


def ingest_csv(path, schema, standardize=False, split_fractions=(0.8, 0.1, 0.1), seed=0):
    """Parse a header-ed CSV into a Dataset.

    ``schema`` maps column name -> "continuous" or "discrete:<m>"; columns
    absent from the schema are dropped.  Continuous columns may be z-scored
    using train-split statistics (stored for round-tripping).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file")
            raw = list(reader)
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    keep = []
    columns = []
    for name, spec in schema.items():
        if name not in header:
            raise IngestError(f"{path}: schema column {name!r} missing from header")
        keep.append(header.index(name))
        if spec == "continuous":
            columns.append(Column(name, "continuous"))
        elif spec.startswith("discrete:"):
            try:
                columns.append(Column(name, "discrete", int(spec.split(":", 1)[1])))
            except ValueError as exc:
                raise IngestError(f"bad schema entry {name!r}: {spec!r}") from exc
        else:
            raise IngestError(f"bad schema entry {name!r}: {spec!r}")
    rows = np.empty((len(raw), len(keep)))
    for i, record in enumerate(raw):
        if len(record) != len(header):
            raise IngestError(f"{path}: line {i + 2}: expected {len(header)} fields, got {len(record)}")
        for j, col_idx in enumerate(keep):
            try:
                rows[i, j] = float(record[col_idx])
            except ValueError as exc:
                raise IngestError(f"{path}: line {i + 2}: non-numeric cell {record[col_idx]!r}") from exc
            if not np.isfinite(rows[i, j]):
                raise IngestError(f"{path}: line {i + 2}: non-finite cell {record[col_idx]!r}")
    n = rows.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(split_fractions[0] * n))
    n_val = int(round(split_fractions[1] * n))
    splits = {
        "train": order[:n_train],
        "val": order[n_train : n_train + n_val],
        "test": order[n_train + n_val :],
    }
    ds = Dataset(columns, rows, splits)
    if standardize:
        train_rows = ds.split("train")
        for j, col in enumerate(columns):
            if col.kind != "continuous":
                continue
            mean = float(train_rows[:, j].mean())
            std = float(train_rows[:, j].std())
            if std == 0.0:
                raise IngestError(f"column {col.name!r} is constant; cannot standardize")
            rows[:, j] = (rows[:, j] - mean) / std
            ds.standardization[col.name] = (mean, std)
    return ds.check()


def write_csv(path, header, rows):
    """Write a CSV artifact, creating its directory: the header line, then
    each row's values as ``str`` (for a float, its shortest round-trip
    form)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
