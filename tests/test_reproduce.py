"""The cross-validated tables t4 and t5, run end to end on small CSVs.

The published benchmark sets are not bundled, so these tests write small
synthetic stand-ins under the same file names and pin the whole report:
rows, band texts, verdicts and notes, with and without data.
"""

import json

import numpy as np
import pytest

from conftest import quiet_max_iters
from ovnsvm.cli import main
from ovnsvm.reproduce import BandRow, TableReport, _band_row


def _write(path, header, rows):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def write_benchmark_csvs(directory):
    """iris, wine and glass with a 'class' column; scene and emotions with
    'label:' columns.  iris and wine are well separated, glass overlaps."""
    rng = np.random.default_rng(0)
    for name, per_class, m, k, spread in (
        ("iris", 12, 4, 3, 0.3),
        ("wine", 13, 5, 3, 0.5),
        ("glass", 11, 3, 4, 1.5),
    ):
        centers = 2.0 * rng.standard_normal((k, m))
        X = np.repeat(centers, per_class, axis=0)
        X += spread * rng.standard_normal(X.shape)
        y = np.repeat([f"k{c + 1}" for c in range(k)], per_class)
        _write(
            directory / f"{name}.csv",
            [f"f{j + 1}" for j in range(m)] + ["class"],
            [[f"{v:.4f}" for v in x] + [c] for x, c in zip(X, y)],
        )
    for name, n, m, k in (("scene", 42, 4, 3), ("emotions", 48, 5, 3)):
        X = rng.uniform(size=(n, m))
        labels = (X[:, :k] + 0.3 * rng.standard_normal((n, k)) > 0.6).astype(int)
        empty = labels.sum(axis=1) == 0
        labels[empty, np.argmax(X[empty, :k], axis=1)] = 1
        _write(
            directory / f"{name}.csv",
            [f"f{j + 1}" for j in range(m)] + [f"label:l{c + 1}" for c in range(k)],
            [[f"{v:.4f}" for v in x] + [str(v) for v in lab] for x, lab in zip(X, labels)],
        )


T4_TEXT = """\
table t4: multiclass benchmarks, 3-fold cross validation
fixture         metric       ours   reference  band     verdict
iris/linear     cv accuracy  1.000  0.987      >= 0.95  ok
iris/gaussian   cv accuracy  1.000  0.987      >= 0.95  ok
wine/linear     cv accuracy  1.000  0.843      context  info
wine/gaussian   cv accuracy  1.000  0.966      >= 0.92  ok
glass/linear    cv accuracy  0.702  0.851      context  info
glass/gaussian  cv accuracy  0.679  0.869      >= 0.78  FAIL
note: iris/linear best tuple: {'mode': 'sw-hb', 'alpha': 1.0, 'beta': 10.0, 'gamma': 1.0}
note: iris/gaussian best tuple: {'mode': 'sw-hb', 'alpha': 0.5, 'beta': 10.0, 'gamma': 1.0, 'sigma': 0.25}
note: wine/linear best tuple: {'mode': 'sw-hb', 'alpha': 0.5, 'beta': 1.0, 'gamma': 1.0}
note: wine/gaussian best tuple: {'mode': 'sw-hb', 'alpha': 0.5, 'beta': 10.0, 'gamma': 1.0, 'sigma': 0.25}
note: glass/linear best tuple: {'mode': 'sw-hb', 'alpha': 1.5, 'beta': 10.0, 'gamma': 1.0}
note: glass/gaussian best tuple: {'mode': 'sw-hb', 'alpha': 0.5, 'beta': 10.0, 'gamma': 1.0, 'sigma': 0.5}
result: FAIL
"""

T5_TEXT = """\
table t5: multilabel benchmarks, gaussian kernel, 3-fold
fixture            metric       ours   reference  band          verdict
scene/gaussian     cv accuracy  0.579  0.652      [0.6, 0.7]    FAIL
scene/gaussian     cv hamming   0.341  0.120      [0.09, 0.16]  FAIL
emotions/gaussian  cv accuracy  0.656  0.500      [0.44, 0.56]  FAIL
emotions/gaussian  cv hamming   0.299  0.255      context       info
note: scene best tuple: {'mode': 'sw-hb', 'alpha': 0.5, 'beta': 10.0, 'gamma': 1.0, 'sigma': 1.0}
note: emotions best tuple: {'mode': 'sw-hb', 'alpha': 0.5, 'beta': 10.0, 'gamma': 1.0, 'sigma': 1.0}
result: FAIL
"""

T4_NO_DATA = """\
table t4: multiclass benchmarks, 3-fold cross validation
fixture         metric       ours     reference  band     verdict
iris/linear     cv accuracy  no data  0.987      >= 0.95  FAIL
iris/gaussian   cv accuracy  no data  0.987      >= 0.95  FAIL
wine/linear     cv accuracy  no data  0.843      context  info
wine/gaussian   cv accuracy  no data  0.966      >= 0.92  FAIL
glass/linear    cv accuracy  no data  0.851      context  info
glass/gaussian  cv accuracy  no data  0.869      >= 0.78  FAIL
note: missing dataset file <dir>/iris.csv; provide the iris data as a CSV with numeric feature columns and a 'class' column
note: missing dataset file <dir>/wine.csv; provide the wine data as a CSV with numeric feature columns and a 'class' column
note: missing dataset file <dir>/glass.csv; provide the glass data as a CSV with numeric feature columns and a 'class' column
result: FAIL
"""

T5_NO_DATA = """\
table t5: multilabel benchmarks, gaussian kernel, 3-fold
fixture            metric       ours     reference  band          verdict
scene/gaussian     cv accuracy  no data  0.652      [0.6, 0.7]    FAIL
scene/gaussian     cv hamming   no data  0.120      [0.09, 0.16]  FAIL
emotions/gaussian  cv accuracy  no data  0.500      [0.44, 0.56]  FAIL
emotions/gaussian  cv hamming   no data  0.255      context       info
note: missing dataset file <dir>/scene.csv; provide the scene data as a CSV with numeric feature columns and one 'label:<name>' column per class
note: missing dataset file <dir>/emotions.csv; provide the emotions data as a CSV with numeric feature columns and one 'label:<name>' column per class
result: FAIL
"""


def _reproduce(table, data_dir, tmp_path, capsys):
    json_out = tmp_path / f"{table}.json"
    with quiet_max_iters():
        code = main(
            ["reproduce", "--table", table, "--data-dir", str(data_dir),
             "--json-out", str(json_out)]
        )
    text = capsys.readouterr().out.replace(str(data_dir), "<dir>")
    return code, text, json.loads(json_out.read_text().replace(str(data_dir), "<dir>"))


def _rows_of(text):
    # the band rows of a printed table, split at runs of two or more spaces
    lines = text.splitlines()[2:]
    return [[c for c in line.split("  ") if c] for line in lines if " cv " in line]


@pytest.mark.parametrize(
    "table, with_data, expected",
    [
        ("t4", True, T4_TEXT),
        ("t5", True, T5_TEXT),
        ("t4", False, T4_NO_DATA),
        ("t5", False, T5_NO_DATA),
    ],
    ids=["t4", "t5", "t4-no-data", "t5-no-data"],
)
def test_the_cross_validated_tables(tmp_path, capsys, table, with_data, expected):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    if with_data:
        write_benchmark_csvs(data_dir)
    code, text, doc = _reproduce(table, data_dir, tmp_path, capsys)
    assert text == expected
    assert code == 1
    # the JSON report holds the same rows and notes, keys in table order
    assert (doc["table"], doc["passed"]) == (table, False)
    assert [list(r) for r in doc["rows"]] == [
        ["fixture", "metric", "ours", "reference", "band", "ok", "gating", "verdict"]
    ] * len(doc["rows"])
    assert [
        [r["fixture"], r["metric"], r["ours"], r["reference"], r["band"], r["verdict"]]
        for r in doc["rows"]
    ] == [[c.strip() for c in row] for row in _rows_of(text)]
    assert ["note: " + n for n in doc["notes"]] == [
        line for line in text.splitlines() if line.startswith("note: ")
    ]


@pytest.mark.parametrize(
    "value, band, text, ok, gating",
    [
        (0.95, (0.987, 0.95, None), ">= 0.95", True, True),
        (0.949, (0.987, 0.95, None), ">= 0.95", False, True),
        (0.70, (0.652, 0.6, 0.7), "[0.6, 0.7]", True, True),
        (0.701, (0.652, 0.6, 0.7), "[0.6, 0.7]", False, True),
        (0.599, (0.652, 0.6, 0.7), "[0.6, 0.7]", False, True),
        (0.1, (0.843, None, None), "context", True, False),
        (None, (0.987, 0.95, None), ">= 0.95", False, True),
        (None, (0.652, 0.6, 0.7), "[0.6, 0.7]", False, True),
        (None, (0.843, None, None), "context", True, False),
    ],
)
def test_one_band_shape_for_floors_intervals_and_context(value, band, text, ok, gating):
    row = _band_row("set/kernel", "cv accuracy", value, band)
    ours = "no data" if value is None else f"{value:.3f}"
    assert row == BandRow(
        "set/kernel", "cv accuracy", ours, f"{band[0]:.3f}", text, ok, gating
    )
    assert TableReport("t", "title", [row]).passed is ok
