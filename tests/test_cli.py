"""Command line surface: pipelines, file formats, and exit codes."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ovnsvm
from conftest import quiet_max_iters
from ovnsvm.cli import main


def run(*argv):
    with quiet_max_iters():
        return main(list(argv))


def test_synth_train_predict_evaluate_pipeline(tmp_path, capsys):
    data = tmp_path / "train.csv"
    model = tmp_path / "model.json"
    pred = tmp_path / "pred.csv"

    assert run("synth", "--kind", "moon", "--seed", "0", "--out", str(data)) == 0
    assert data.exists()

    assert (
        run(
            "train",
            "--data", str(data),
            "--solver", "kernel",
            "--sigma", "0.8",
            "--beta", "10",
            "--max-iters", "800",
            "--model-out", str(model),
        )
        == 0
    )
    assert model.exists()

    assert (
        run("predict", "--model", str(model), "--data", str(data), "--out", str(pred))
        == 0
    )
    with open(pred, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "score:c1", "score:c2", "labels"]
    assert len(rows) == 21
    assert all(set(r[-1]) <= {"0", "1"} for r in rows[1:])

    assert run("evaluate", "--pred", str(pred), "--truth", str(data)) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "hamming_loss" in out


def test_evaluate_json_out(tmp_path):
    data = tmp_path / "train.csv"
    run("synth", "--kind", "random_two_class", "--out", str(data))
    report = tmp_path / "metrics.json"
    assert (
        run(
            "evaluate",
            "--pred", str(data),
            "--truth", str(data),
            "--json-out", str(report),
        )
        == 0
    )
    doc = json.loads(report.read_text())
    assert doc["accuracy"] == 1.0


def test_synth_unseen_also_writes_test_partition(tmp_path):
    out = tmp_path / "toy.csv"
    assert run("synth", "--kind", "unseen_label_toy", "--out", str(out)) == 0
    test_file = tmp_path / "toy.test.csv"
    assert test_file.exists()
    with open(test_file, newline="") as fh:
        assert len(list(csv.reader(fh))) == 7  # header plus six held-out rows


def test_train_summary_says_how_the_interior_point_anchor_ended(tmp_path, capsys):
    data = tmp_path / "mc.csv"
    data.write_text("x,y,class\n0.0,0.0,a\n0.2,0.1,a\n5.0,5.0,b\n5.2,5.1,b\n")
    code = run(
        "train", "--data", str(data), "--multiclass-column", "class",
        "--solver", "linear", "--mode", "sw-hb", "--model-out", str(tmp_path / "m.json"),
    )
    assert code == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert re.search(r"interior_point='converged after \d+ steps'$", summary)
    assert re.search(r" stop_reason=gap ", summary)


def test_train_linear_and_multiclass_column(tmp_path):
    data = tmp_path / "mc.csv"
    data.write_text(
        "x,y,class\n"
        "0.0,0.0,a\n0.2,0.1,a\n0.1,0.3,a\n"
        "5.0,5.0,b\n5.2,5.1,b\n5.1,4.9,b\n"
    )
    model = tmp_path / "m.json"
    code = run(
        "train",
        "--data", str(data),
        "--multiclass-column", "class",
        "--solver", "linear",
        "--mode", "hw-hb",
        "--model-out", str(model),
    )
    assert code == 0
    pred = tmp_path / "p.csv"
    assert (
        run(
            "predict",
            "--model", str(model),
            "--data", str(data),
            "--multiclass-column", "class",
            "--task", "multiclass",
            "--out", str(pred),
        )
        == 0
    )
    with open(pred, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # multiclass prediction carries exactly one label per row
    assert all(r[-1].count("1") == 1 for r in rows)
    code = run(
        "evaluate",
        "--pred", str(pred),
        "--truth", str(data),
        "--multiclass-column", "class",
    )
    assert code == 0


def test_predict_accepts_feature_only_csv(tmp_path):
    data = tmp_path / "train.csv"
    run("synth", "--kind", "random_two_class", "--out", str(data))
    model = tmp_path / "m.json"
    run("train", "--data", str(data), "--model-out", str(model))
    bare = tmp_path / "points.csv"
    bare.write_text("x1,x2\n0.0,0.0\n1.0,1.0\n")
    out = tmp_path / "p.csv"
    assert run("predict", "--model", str(model), "--data", str(bare), "--out", str(out)) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 3


def test_boundary_dump(tmp_path):
    data = tmp_path / "train.csv"
    run("synth", "--kind", "random_two_class", "--out", str(data))
    model = tmp_path / "m.json"
    run("train", "--data", str(data), "--model-out", str(model))
    grid_file = tmp_path / "grid.csv"
    code = run(
        "predict",
        "--model", str(model),
        "--data", str(data),
        "--out", str(tmp_path / "p.csv"),
        "--dump-boundary", str(grid_file),
        "--boundary-steps", "10",
    )
    assert code == 0
    with open(grid_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "score:c1", "score:c2"]
    assert len(rows) == 101


def test_cv_command_with_grid_file(tmp_path):
    data = tmp_path / "train.csv"
    run("synth", "--kind", "random_two_class", "--n-per-cluster", "12", "--out", str(data))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.5], "betas": [1.0, 10.0], "n_folds": 3}))
    report = tmp_path / "cv.json"
    code = run(
        "cv",
        "--data", str(data),
        "--grid", str(grid),
        "--solver", "linear",
        "--json-out", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["tuples"]) == 2


def test_cv_grid_file_may_set_every_grid_field(tmp_path):
    data = tmp_path / "train.csv"
    run("synth", "--kind", "random_two_class", "--n-per-cluster", "12", "--out", str(data))
    doc = {
        "alphas": [0.5],
        "betas": [10.0],
        "gammas": [1.0],
        "sigmas": [1.0],
        "degrees": [2],
        "modes": ["sw-hb"],
        "kernel_kind": "gaussian",
        "coef0": 1.0,
        "seed": 3,
        "n_folds": 2,
    }
    assert set(doc) == {f.name for f in dataclasses.fields(ovnsvm.GridSpec)}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    report = tmp_path / "cv.json"
    argv = ("cv", "--data", str(data), "--grid", str(grid), "--solver", "kernel")
    assert run(*argv, "--json-out", str(report)) == 0
    out = json.loads(report.read_text())
    assert (out["n_folds"], out["seed"]) == (2, 3)
    assert out["best_tuple"] == {
        "mode": "sw-hb", "alpha": 0.5, "beta": 10.0, "gamma": 1.0, "sigma": 1.0
    }
    grid.write_text(json.dumps({**doc, "n_jobs": 2}))
    assert run(*argv) == 2


def test_cv_keeps_its_normalize_option(tmp_path):
    data = tmp_path / "train.csv"
    run("synth", "--kind", "random_two_class", "--n-per-cluster", "12", "--out", str(data))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alphas": [0.5], "betas": [1.0, 10.0]}))
    report = tmp_path / "cv.json"
    argv = ("cv", "--data", str(data), "--grid", str(grid), "--json-out", str(report))
    assert run(*argv, "--normalize") == 0
    with quiet_max_iters():
        expected = ovnsvm.grid_search_cv(
            ovnsvm.normalize_minmax(ovnsvm.load_csv(data)),
            ovnsvm.GridSpec(alphas=(0.5,), betas=(1.0, 10.0)),
        )
    assert json.loads(report.read_text()) == expected.as_dict()


def test_reproduce_unseen_passes(tmp_path, capsys):
    report = tmp_path / "unseen.json"
    assert run("reproduce", "--table", "unseen", "--json-out", str(report)) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    doc = json.loads(report.read_text())
    assert doc["passed"] is True


@pytest.mark.parametrize("table", ["t3", "unseen"])
def test_reproduce_table_is_the_same_at_any_blas_thread_count(table):
    # fits that stop at the optimum give the same table whatever the order
    # in which BLAS adds up their products
    src = str(Path(ovnsvm.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=path,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ovnsvm", "reproduce", "--table", table],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        code = run(
            "train",
            "--data", str(tmp_path / "absent.csv"),
            "--model-out", str(tmp_path / "m.json"),
        )
        assert code == 3

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,label:a\noops,1\n")
        code = run("train", "--data", str(bad), "--model-out", str(tmp_path / "m.json"))
        assert code == 3

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cells_are_data_errors(self, tmp_path, capsys, cell):
        good, model = tmp_path / "good.csv", tmp_path / "m.json"
        good.write_text("x,y,label:a,label:b\n0,0,1,0\n1,1,0,1\n0,1,1,0\n1,0,0,1\n")
        assert run("train", "--data", str(good), "--model-out", str(model)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y,label:a,label:b\n0,0,1,0\n1,{cell},0,1\n")
        for solver in ("linear", "kernel"):
            code = run(
                "train", "--data", str(bad), "--solver", solver,
                "--model-out", str(tmp_path / "b.json"),
            )
            assert code == 3
        features = tmp_path / "features.csv"
        features.write_text(f"x,y\n0.5,0.5\n{cell},1\n")
        pred = tmp_path / "p.csv"
        code = run("predict", "--model", str(model), "--data", str(features), "--out", str(pred))
        assert code == 3
        assert not pred.exists()
        assert "row 2, column x: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["linear", "kernel"])
    def test_rows_of_the_wrong_width_are_data_errors(self, tmp_path, capsys, solver):
        good, model = tmp_path / "good.csv", tmp_path / "m.json"
        good.write_text("x,y,label:a,label:b\n0,0,1,0\n1,1,0,1\n0,1,1,0\n1,0,0,1\n")
        assert run("train", "--data", str(good), "--solver", solver,
                   "--model-out", str(model)) == 0
        wide = tmp_path / "wide.csv"
        wide.write_text("x,y,z\n0.5,0.5,0.5\n1,1,1\n")
        pred = tmp_path / "p.csv"
        code = run("predict", "--model", str(model), "--data", str(wide), "--out", str(pred))
        assert code == 3
        assert not pred.exists()
        assert "for a model of 2 features" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--sigma", "nan"), ("--sigma", "inf"), ("--coef0", "nan")]
    )
    def test_values_a_fit_cannot_use_are_usage_errors(self, tmp_path, flag, value):
        data = tmp_path / "d.csv"
        run("synth", "--kind", "moon", "--out", str(data))
        code = run(
            "train", "--data", str(data), "--solver", "kernel", flag, value,
            "--model-out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert not (tmp_path / "m.json").exists()

    def test_train_has_no_normalize_option(self, tmp_path):
        # a model file does not store the scaling, so predict would score
        # the unscaled features
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        run("synth", "--kind", "moon", "--out", str(data))
        code = run("train", "--data", str(data), "--normalize", "--model-out", str(model))
        assert code == 2
        assert not model.exists()

    def test_a_fold_that_cannot_train_a_class_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = [f"{i / 10},{(i * 7) % 5},{int(i < 15)},{int(i >= 15)},{int(i == 7)}"
                for i in range(30)]
        data.write_text("\n".join(["x,y,label:a,label:b,label:c"] + rows) + "\n")
        assert run("cv", "--data", str(data)) == 3
        err = capsys.readouterr().err
        assert err.startswith("TooFewInstances: class 'c' has no positive pattern")

    @pytest.mark.parametrize("command", ["evaluate", "reproduce"])
    def test_an_unwritable_json_out_is_a_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        run("synth", "--kind", "moon", "--out", str(data))
        argv = {
            "evaluate": ("evaluate", "--pred", str(data), "--truth", str(data)),
            "reproduce": ("reproduce", "--table", "unseen"),
        }[command]
        out = tmp_path / "missing_dir" / "r.json"
        assert run(*argv, "--json-out", str(out)) == 3
        assert "IoError: cannot write JSON file" in capsys.readouterr().err

    def test_corrupt_model_document(self, tmp_path):
        data = tmp_path / "d.csv"
        run("synth", "--kind", "moon", "--out", str(data))
        broken = tmp_path / "m.json"
        broken.write_text("{}")
        code = run(
            "predict", "--model", str(broken), "--data", str(data),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 3

    def test_indefinite_coupling_is_a_solver_error(self, tmp_path):
        data = tmp_path / "d.csv"
        run("synth", "--kind", "random_two_class", "--out", str(data))
        code = run(
            "train",
            "--data", str(data),
            "--alpha", "50",
            "--beta", "0.001",
            "--model-out", str(tmp_path / "m.json"),
        )
        assert code == 4

    def test_usage_errors(self, tmp_path):
        assert run("synth", "--kind", "spiral", "--out", "x.csv") == 2  # argparse choice
        assert run("nonsense") == 2
        data = tmp_path / "d.csv"
        run("synth", "--kind", "moon", "--out", str(data))
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"wrong_key": [1]}))
        assert run("cv", "--data", str(data), "--grid", str(grid)) == 2

    def test_help_is_success(self, capsys):
        assert run("--help") == 0
        assert "one-versus-none" in capsys.readouterr().out
