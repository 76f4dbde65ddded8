"""Dataset container, CSV IO, and synthetic generators."""

import numpy as np
import pytest

from ovnsvm import (
    Dataset,
    EmptyLabelRow,
    MalformedCsv,
    NoLabels,
    SynthSpec,
    UnknownKind,
    augment,
    augment_rows,
    load_csv,
    load_features,
    normalize_minmax,
    synth_generate,
    unseen_label_test_partition,
    write_csv,
)
from ovnsvm.cli import _read_label_matrix
from ovnsvm.data import (
    SYNTH_KINDS,
    UNSEEN_TOY_TEST_LABELS,
    UNSEEN_TOY_TEST_POINTS,
    read_table,
)


def small():
    return Dataset(
        [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]],
        [[1, 0], [0, 1], [1, 1]],
    )


class TestDataset:
    def test_shapes_and_defaults(self):
        d = small()
        assert (d.n_instances, d.n_features, d.n_classes) == (3, 2, 2)
        assert d.class_names == ("c1", "c2")
        assert d.feature_names == ("f1", "f2")

    def test_class_index_sets(self):
        sets = small().class_index_sets()
        assert sets[0].tolist() == [0, 2]
        assert sets[1].tolist() == [1, 2]

    def test_subset(self):
        d = small().subset([2, 0])
        assert d.features[0, 0] == 4.0
        assert d.labels.tolist() == [[1, 1], [1, 0]]
        assert d.class_names == ("c1", "c2")

    def test_arrays_are_frozen(self):
        d = small()
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            d.labels[0, 0] = 0

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            Dataset([[1.0]], [[1], [1]])

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset([[1.0]], [[2]])

    def test_empty_label_row(self):
        with pytest.raises(EmptyLabelRow, match="row 2"):
            Dataset([[1.0], [2.0]], [[1], [0]])

    def test_name_length_checks(self):
        with pytest.raises(ValueError):
            Dataset([[1.0]], [[1]], class_names=("a", "b"))
        with pytest.raises(ValueError):
            Dataset([[1.0]], [[1]], feature_names=("x", "y"))

    def test_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset([1.0, 2.0], [[1], [1]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected(self, value):
        with pytest.raises(ValueError, match=r"row 2, column 1: non-finite"):
            Dataset([[0.0, 0.0], [value, 1.0], [1.0, value]], [[1, 0], [0, 1], [0, 1]])


def test_augment_appends_one():
    np.testing.assert_array_equal(augment([2.0, 3.0]), [2.0, 3.0, 1.0])
    X = augment_rows([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(X, [[1.0, 2.0, 1.0], [3.0, 4.0, 1.0]])


def test_normalize_minmax_range_and_constant_column():
    d = Dataset([[0.0, 7.0], [10.0, 7.0], [5.0, 7.0]], [[1], [1], [1]])
    n = normalize_minmax(d)
    np.testing.assert_allclose(n.features[:, 0], [0.0, 1.0, 0.5])
    # a constant feature has no span to rescale; it maps to 0
    np.testing.assert_allclose(n.features[:, 1], [0.0, 0.0, 0.0])


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        d = Dataset(
            np.random.default_rng(3).standard_normal((5, 3)),
            [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]],
            ("left", "right"),
            ("a", "b", "c"),
        )
        path = tmp_path / "d.csv"
        write_csv(d, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, d.features)
        np.testing.assert_array_equal(back.labels, d.labels)
        assert back.class_names == d.class_names
        assert back.feature_names == d.feature_names

    def test_multiclass_column_one_hot(self, tmp_path):
        path = tmp_path / "mc.csv"
        path.write_text("x,class\n1.0,dog\n2.0,ant\n3.0,dog\n")
        d = load_csv(path, multiclass_column="class")
        # class names sort lexicographically
        assert d.class_names == ("ant", "dog")
        assert d.labels.tolist() == [[0, 1], [1, 0], [0, 1]]
        np.testing.assert_array_equal(d.features.ravel(), [1.0, 2.0, 3.0])

    def test_missing_multiclass_column(self, tmp_path):
        path = tmp_path / "mc.csv"
        path.write_text("x,kind\n1.0,dog\n")
        with pytest.raises(NoLabels):
            load_csv(path, multiclass_column="class")

    def test_no_label_columns(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(NoLabels):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,label:a\n1.0,1\n2.0\n")
        with pytest.raises(MalformedCsv, match="row 2"):
            load_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("x,label:a\nbad,1\n")
        with pytest.raises(MalformedCsv, match="non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature(self, tmp_path, cell):
        path = tmp_path / "n.csv"
        path.write_text(f"x,y,label:a\n1.0,2.0,1\n0.5,{cell},1\n")
        message = rf"row 2, column y: non-finite value '{cell}'"
        with pytest.raises(MalformedCsv, match=message):
            load_csv(path)
        path.write_text(f"x,y\n1.0,2.0\n0.5,{cell}\n")
        with pytest.raises(MalformedCsv, match=message):
            load_features(path)

    def test_bad_label_cell(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("x,label:a\n1.0,2\n")
        with pytest.raises(MalformedCsv, match="0 or 1"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(MalformedCsv, match="empty"):
            load_csv(path)

    def test_all_zero_label_row(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("x,label:a,label:b\n1.0,1,0\n2.0,0,0\n")
        with pytest.raises(EmptyLabelRow, match="row 2"):
            load_csv(path)

    def test_normalize_flag(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,label:a\n0.0,1\n10.0,1\n")
        d = normalize_minmax(load_csv(path))
        np.testing.assert_allclose(d.features.ravel(), [0.0, 1.0])

    def test_load_features(self, tmp_path):
        path = tmp_path / "only.csv"
        path.write_text("u,v\n1.0,2.0\n3.0,4.0\n")
        X, names = load_features(path)
        assert names == ("u", "v")
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_load_features_rejects_text(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u\noops\n")
        with pytest.raises(MalformedCsv):
            load_features(path)


class TestReadTable:
    def test_header_cells_are_stripped_and_body_cells_kept(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" u , v\n1.0, 2.0\n")
        assert read_table(path) == (["u", "v"], [["1.0", " 2.0"]])

    def test_a_header_alone_has_an_empty_body(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("u,v\n")
        assert read_table(path) == (["u", "v"], [])

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty file"), ("x,labels\n1,01\n2\n", "row 2: expected 2 cells, got 1")],
    )
    def test_every_csv_reader_rejects_the_same_files_alike(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        for read in (
            read_table,
            load_csv,
            load_features,
            lambda p: _read_label_matrix(p, "label:"),
        ):
            with pytest.raises(MalformedCsv, match=f"^{message}$"):
                read(path)


class TestSynth:
    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_every_kind_generates(self, kind):
        d = synth_generate(SynthSpec(kind, n_per_cluster=8, seed=1))
        assert d.n_classes == 2
        assert d.n_features == 2
        assert d.n_instances == 16
        assert all(idx.size > 0 for idx in d.class_index_sets())

    def test_deterministic_per_seed(self):
        a = synth_generate(SynthSpec("moon", seed=5))
        b = synth_generate(SynthSpec("moon", seed=5))
        c = synth_generate(SynthSpec("moon", seed=6))
        np.testing.assert_array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            synth_generate(SynthSpec("spiral"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec("moon", n_per_cluster=0)
        with pytest.raises(ValueError):
            SynthSpec("moon", noise=-0.1)

    def test_unseen_training_partition_label_sets(self):
        d = synth_generate(SynthSpec("unseen_label_toy", n_per_cluster=6, seed=2))
        rows = {tuple(r) for r in d.labels.tolist()}
        # one cluster carries only the first label, one carries both;
        # the second label never appears alone in training
        assert rows == {(1, 0), (1, 1)}

    def test_unseen_test_partition_is_pinned(self):
        t = unseen_label_test_partition()
        np.testing.assert_array_equal(t.features, np.asarray(UNSEEN_TOY_TEST_POINTS))
        np.testing.assert_array_equal(t.labels, np.asarray(UNSEEN_TOY_TEST_LABELS))
        novel = [tuple(r) for r in t.labels.tolist()].count((0, 1))
        assert novel == 3

    def test_symmetric_parallel_mirrors(self):
        d = synth_generate(SynthSpec("symmetric_parallel", n_per_cluster=10, seed=0))
        first = d.features[d.labels[:, 0] == 1]
        second = d.features[d.labels[:, 1] == 1]
        # the second class is the exact reflection of the first in x1
        np.testing.assert_allclose(second, first * [-1.0, 1.0])
