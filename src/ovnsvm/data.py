"""Datasets, label matrices, CSV round-tripping, and synthetic fixtures.

A dataset couples an N x M feature matrix with an N x K binary label
matrix.  Multiclass problems are the special case of one label per row.
Every training pattern must belong to at least one class; the per-class
positive index sets C_k drive both solvers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLabelRow, MalformedCsv, NoLabels, UnknownKind

SYNTH_KINDS = (
    "hourglass",
    "moon",
    "random_two_class",
    "unseen_label_toy",
    "symmetric_parallel",
)

# Default jitter scale per generator kind, in data units.
_KIND_NOISE = {
    "hourglass": 0.05,
    "moon": 0.12,
    "random_two_class": 0.70,
    "unseen_label_toy": 0.25,
    "symmetric_parallel": 0.30,
}

# Fixture constants for the unseen-label toy.  The training set has one
# cluster carrying only the first label and one overlap cluster carrying
# both; no training pattern carries the second label alone.  The held-out
# points and their ground truth label sets are frozen constants.
UNSEEN_TOY_CENTER_FIRST_ONLY = (0.5, 1.5)
UNSEEN_TOY_CENTER_BOTH = (-1.7, 3.4)
UNSEEN_TOY_TEST_POINTS = (
    (-4.0, 3.0),
    (-5.0, 2.0),
    (-3.0, 3.0),
    (-2.0, 4.0),
    (0.0, 3.0),
    (1.0, 5.0),
)
UNSEEN_TOY_TEST_LABELS = (
    (0, 1),
    (0, 1),
    (0, 1),
    (1, 1),
    (1, 0),
    (1, 1),
)


def finite_features(X) -> np.ndarray:
    """X as a float array; ValueError names its first non-finite cell.

    No fit or score can use nan or inf: a fit fails in its solver and a
    score comes out nan.
    """
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        cells = np.atleast_2d(X)
        i, j = np.argwhere(~np.isfinite(cells))[0]
        raise ValueError(
            f"row {i + 1}, column {j + 1}: non-finite feature {float(cells[i, j])}"
        )
    return X


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus binary label matrix."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple = ()
    feature_names: tuple = ()

    def __post_init__(self):
        feats = np.array(self.features, dtype=float, copy=True)
        labs = np.array(self.labels, copy=True)
        if feats.ndim != 2 or labs.ndim != 2:
            raise ValueError("features and labels must both be 2-D")
        finite_features(feats)
        if feats.shape[0] != labs.shape[0]:
            raise ValueError(
                f"row count mismatch: {feats.shape[0]} feature rows, "
                f"{labs.shape[0]} label rows"
            )
        if not np.isin(labs, (0, 1)).all():
            raise ValueError("label entries must be 0 or 1")
        labs = labs.astype(np.int64)
        empty = np.flatnonzero(labs.sum(axis=1) == 0)
        if empty.size:
            raise EmptyLabelRow(f"row {int(empty[0]) + 1} has all-zero labels")
        cnames = tuple(self.class_names) or tuple(
            f"c{k + 1}" for k in range(labs.shape[1])
        )
        fnames = tuple(self.feature_names) or tuple(
            f"f{j + 1}" for j in range(feats.shape[1])
        )
        if len(cnames) != labs.shape[1]:
            raise ValueError("class_names length must equal label column count")
        if len(fnames) != feats.shape[1]:
            raise ValueError("feature_names length must equal feature column count")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "class_names", cnames)
        object.__setattr__(self, "feature_names", fnames)

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.labels.shape[1]

    def class_index_sets(self):
        """Positive index set C_k for every class, as arrays."""
        return [np.flatnonzero(self.labels[:, k]) for k in range(self.n_classes)]

    def subset(self, indices) -> "Dataset":
        """New dataset restricted to the given instance indices."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            self.features[idx], self.labels[idx], self.class_names, self.feature_names
        )


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset."""

    kind: str
    n_per_cluster: int = 10
    noise: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_per_cluster < 1:
            raise ValueError("n_per_cluster must be at least 1")
        if self.noise is not None and self.noise < 0:
            raise ValueError("noise must be non-negative")


def augment(x) -> np.ndarray:
    """Append the constant coordinate 1, turning x into [x; 1]."""
    x = np.asarray(x, dtype=float).ravel()
    return np.concatenate([x, [1.0]])


def augment_rows(X) -> np.ndarray:
    """Row-wise augmentation: each row gains a trailing 1."""
    X = np.asarray(X, dtype=float)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def normalize_minmax(dataset: Dataset) -> Dataset:
    """Rescale every feature to [0, 1]; constant features map to 0."""
    feats = dataset.features
    lo = feats.min(axis=0)
    span = feats.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return Dataset(
        (feats - lo) / span, dataset.labels, dataset.class_names, dataset.feature_names
    )


def _parse_float(cell, row_idx, col_name):
    try:
        value = float(cell)
    except ValueError:
        raise MalformedCsv(
            f"row {row_idx}, column {col_name}: non-numeric value {cell!r}"
        ) from None
    # float() reads "nan" and "inf", which no fit or score can use
    if not np.isfinite(value):
        raise MalformedCsv(f"row {row_idx}, column {col_name}: non-finite value {cell!r}")
    return value


def _parse_label(cell, row_idx, col_name):
    v = _parse_float(cell, row_idx, col_name)
    if v not in (0.0, 1.0):
        raise MalformedCsv(
            f"row {row_idx}, column {col_name}: label must be 0 or 1, got {cell!r}"
        )
    return int(v)


def _parse_columns(header, body, columns) -> np.ndarray:
    # the numeric cells of the given columns, one row per body row
    feats = np.zeros((len(body), len(columns)))
    for i, row in enumerate(body, start=1):
        for c, j in enumerate(columns):
            feats[i - 1, c] = _parse_float(row[j], i, header[j])
    return feats


def read_table(path):
    """Header and body rows of a CSV file, header cells stripped.

    MalformedCsv on an empty file or a row whose width differs from the
    header's.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MalformedCsv("empty file")
    header = [h.strip() for h in rows[0]]
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise MalformedCsv(f"row {i}: expected {len(header)} cells, got {len(row)}")
    return header, rows[1:]


def load_csv(
    path,
    label_prefix: str = "label:",
    multiclass_column: str | None = None,
) -> Dataset:
    """Read a dataset CSV.

    Label columns are those whose header starts with ``label_prefix``.
    Alternatively ``multiclass_column`` names a categorical column that is
    expanded one-hot, class names sorted lexicographically.  Features are
    returned as parsed; :func:`normalize_minmax` scales them to [0, 1].
    """
    header, body = read_table(path)
    width = len(header)
    if multiclass_column is not None:
        if multiclass_column not in header:
            raise NoLabels(f"multiclass column {multiclass_column!r} not found")
        cat_j = header.index(multiclass_column)
        feat_js = [j for j in range(width) if j != cat_j]
        values = [row[cat_j].strip() for row in body]
        classes = sorted(set(values))
        labels = np.zeros((len(body), len(classes)), dtype=np.int64)
        for i, v in enumerate(values):
            labels[i, classes.index(v)] = 1
        class_names = tuple(classes)
    else:
        label_js = [j for j, h in enumerate(header) if h.startswith(label_prefix)]
        if not label_js:
            raise NoLabels(f"no column name starts with {label_prefix!r}")
        feat_js = [j for j in range(width) if j not in label_js]
        labels = np.zeros((len(body), len(label_js)), dtype=np.int64)
        for i, row in enumerate(body, start=1):
            for c, j in enumerate(label_js):
                labels[i - 1, c] = _parse_label(row[j], i, header[j])
        class_names = tuple(header[j][len(label_prefix):] for j in label_js)

    feats = _parse_columns(header, body, feat_js)
    # Dataset rejects a row of all-zero labels
    return Dataset(feats, labels, class_names, tuple(header[j] for j in feat_js))


def write_csv(dataset: Dataset, path, label_prefix: str = "label:") -> None:
    """Write a dataset CSV in the exact format load_csv reads back."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            list(dataset.feature_names)
            + [label_prefix + c for c in dataset.class_names]
        )
        for i in range(dataset.n_instances):
            w.writerow(
                [repr(float(v)) for v in dataset.features[i]]
                + [str(int(v)) for v in dataset.labels[i]]
            )


def load_features(path):
    """Read a feature-only CSV: header row plus numeric cells.

    Returns (features, feature_names).
    """
    header, body = read_table(path)
    return _parse_columns(header, body, range(len(header))), tuple(header)


def _one_hot(column, n_classes):
    out = np.zeros((len(column), n_classes), dtype=np.int64)
    out[np.arange(len(column)), column] = 1
    return out


def _gen_hourglass(n, noise, rng):
    # two cones meeting near the origin, separated by the sign of x2
    reach = 0.25 + 1.75 * rng.uniform(size=n)
    spread = rng.uniform(-1.0, 1.0, size=n)
    top = np.column_stack([0.6 * reach * spread, reach])
    reach = 0.25 + 1.75 * rng.uniform(size=n)
    spread = rng.uniform(-1.0, 1.0, size=n)
    bottom = np.column_stack([0.6 * reach * spread, -reach])
    X = np.vstack([top, bottom]) + noise * rng.standard_normal((2 * n, 2))
    y = np.repeat([0, 1], n)
    return X, _one_hot(y, 2)


def _gen_moon(n, noise, rng):
    # interleaved half circles
    t = np.linspace(0.0, np.pi, n)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    X = np.vstack([outer, inner]) + noise * rng.standard_normal((2 * n, 2))
    y = np.repeat([0, 1], n)
    return X, _one_hot(y, 2)


def _gen_random_two_class(n, noise, rng):
    # overlapping blobs, intentionally not separable
    a = np.array([-1.0, 0.0]) + noise * rng.standard_normal((n, 2))
    b = np.array([1.0, 0.0]) + noise * rng.standard_normal((n, 2))
    return np.vstack([a, b]), _one_hot(np.repeat([0, 1], n), 2)


def _gen_symmetric_parallel(n, noise, rng):
    # one class mirror-symmetric in x2, the other its exact reflection in x1;
    # the double symmetry pins the optimal weight vectors onto the x1 axis
    half = max(1, n // 2)
    base = np.array([2.0, 0.0]) + noise * rng.standard_normal((half, 2))
    cls = np.vstack([base, base * [1.0, -1.0]])
    if cls.shape[0] < n:
        cls = np.vstack([cls, [[2.0 + noise * rng.standard_normal(), 0.0]]])
    cls = cls[:n]
    mirrored = cls * [-1.0, 1.0]
    return np.vstack([cls, mirrored]), _one_hot(np.repeat([0, 1], n), 2)


def _gen_unseen_label_toy(n, noise, rng):
    a = np.asarray(UNSEEN_TOY_CENTER_FIRST_ONLY) + noise * rng.standard_normal((n, 2))
    b = np.asarray(UNSEEN_TOY_CENTER_BOTH) + noise * rng.standard_normal((n, 2))
    X = np.vstack([a, b])
    labels = np.vstack(
        [np.tile([1, 0], (n, 1)), np.tile([1, 1], (n, 1))]
    )
    return X, labels


_GENERATORS = {
    "hourglass": _gen_hourglass,
    "moon": _gen_moon,
    "random_two_class": _gen_random_two_class,
    "symmetric_parallel": _gen_symmetric_parallel,
    "unseen_label_toy": _gen_unseen_label_toy,
}


def synth_generate(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset for the given spec.

    For ``unseen_label_toy`` the returned dataset is the training partition
    only (label sets [1,0] and [1,1]); the six held-out points live in
    unseen_label_test_partition().
    """
    if spec.kind not in _GENERATORS:
        raise UnknownKind(f"unknown synthetic kind {spec.kind!r}")
    noise = _KIND_NOISE[spec.kind] if spec.noise is None else spec.noise
    rng = np.random.default_rng(spec.seed)
    X, labels = _GENERATORS[spec.kind](spec.n_per_cluster, noise, rng)
    return Dataset(X, labels, ("c1", "c2"), ("x1", "x2"))


def unseen_label_test_partition() -> Dataset:
    """The six held-out points of the unseen-label toy with ground truth."""
    return Dataset(
        np.asarray(UNSEEN_TOY_TEST_POINTS, dtype=float),
        np.asarray(UNSEEN_TOY_TEST_LABELS, dtype=np.int64),
        ("c1", "c2"),
        ("x1", "x2"),
    )
