"""Model serialization: exact round trips and the failure taxonomy."""

import json

import numpy as np
import pytest

from conftest import quiet_max_iters, random_multilabel
from ovnsvm import (
    ConstraintMode,
    GridSpec,
    Hyperparameters,
    InvariantViolation,
    IoError,
    KernelSpec,
    ParseError,
    UnsupportedVersion,
    fit_kernel,
    fit_linear,
    grid_search_cv,
    load_model,
    save_cv_report,
    save_model,
)
from ovnsvm.persistence import FORMAT_VERSION, write_json


def linear_model(seed=0, mode=ConstraintMode("soft", "hard")):
    d = random_multilabel(np.random.default_rng(seed), 10, 3, 2)
    with quiet_max_iters():
        return fit_linear(d, mode, Hyperparameters(max_iters=60))


def kernel_model(seed=0):
    d = random_multilabel(np.random.default_rng(seed), 8, 2, 2)
    with quiet_max_iters():
        return fit_kernel(
            d,
            KernelSpec(kind="gaussian", sigma=0.7),
            ConstraintMode("hard", "hard"),
            Hyperparameters(max_iters=60),
        )


def test_linear_round_trip_is_bit_identical(tmp_path):
    model = linear_model()
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.W, model.W)
    assert np.array_equal(back.b, model.b)
    assert back.mode == model.mode
    assert back.hyperparameters == model.hyperparameters
    assert back.iterations_used == model.iterations_used
    assert back.converged == model.converged
    # the file keeps no diagnostics of how the fit ran
    assert model.stop_reason and back.stop_reason == back.interior_point == ""
    T = np.random.default_rng(1).standard_normal((20, 3))
    assert np.array_equal(back.decision_scores(T), model.decision_scores(T))


def test_kernel_round_trip_is_bit_identical(tmp_path):
    model = kernel_model()
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.b, model.b)
    assert np.array_equal(back.train_features, model.train_features)
    assert back.kernel == model.kernel
    T = np.random.default_rng(2).standard_normal((20, 2))
    assert np.array_equal(back.decision_scores(T), model.decision_scores(T))


def test_kernel_document_with_a_ridge_field_still_loads(tmp_path):
    # kernel documents written before fits stopped adding a Gram ridge carry
    # a "ridge" field; format_version 1 still reads them, the field ignored
    model = kernel_model()
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert "ridge" not in doc
    doc["ridge"] = 1e-10
    path.write_text(json.dumps(doc))
    back = load_model(path)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.b, model.b)
    T = np.random.default_rng(2).standard_normal((20, 2))
    assert np.array_equal(back.decision_scores(T), model.decision_scores(T))


def test_document_shape(tmp_path):
    path = tmp_path / "m.json"
    save_model(linear_model(), path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["model_kind"] == "linear"
    assert doc["mode"] == {"w_constraint": "soft", "b_constraint": "hard"}
    assert len(doc["W"]) == doc["K"]
    assert {"iterations_used", "final_objective", "kkt_residual", "converged"} <= set(
        doc["diagnostics"]
    )


def test_unserializable_object_rejected(tmp_path):
    with pytest.raises(ValueError, match="serialize"):
        save_model(object(), tmp_path / "m.json")


def test_write_failure_becomes_io_error(tmp_path):
    with pytest.raises(IoError):
        save_model(linear_model(), tmp_path / "missing_dir" / "m.json")


def test_numpy_integer_parameters_round_trip(tmp_path):
    hp = Hyperparameters(max_iters=np.int64(60))
    spec = KernelSpec(kind="polynomial", degree=np.int64(2))
    assert type(hp.max_iters) is int and type(spec.degree) is int
    d = random_multilabel(np.random.default_rng(0), 8, 2, 2)
    with quiet_max_iters():
        model = fit_kernel(d, spec, ConstraintMode("soft", "hard"), hp)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert (back.hyperparameters, back.kernel) == (hp, spec)
    np.testing.assert_array_equal(
        back.decision_scores(d.features), model.decision_scores(d.features)
    )


def test_a_document_that_fails_to_encode_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "m.json"
    save_model(linear_model(), path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json({"W": [[1.0]], "note": object()}, path)
    assert path.read_bytes() == before


def test_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_model(tmp_path / "nope.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        load_model(path)


def test_non_object_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="object"):
        load_model(path)


def rewrite(tmp_path, mutate):
    """Save a linear model, apply a document edit, return the new path."""
    path = tmp_path / "m.json"
    save_model(linear_model(mode=ConstraintMode("hard", "hard")), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(doc))
    return out


def test_wrong_version(tmp_path):
    path = rewrite(tmp_path, lambda d: d.update(format_version=99))
    with pytest.raises(UnsupportedVersion):
        load_model(path)


def test_missing_field(tmp_path):
    path = rewrite(tmp_path, lambda d: d.pop("W"))
    with pytest.raises(ParseError, match="W"):
        load_model(path)


def test_wrong_weight_shape(tmp_path):
    path = rewrite(tmp_path, lambda d: d.update(W=[[1.0, 2.0]]))
    with pytest.raises(ParseError, match="shape"):
        load_model(path)


def test_unknown_model_kind(tmp_path):
    path = rewrite(tmp_path, lambda d: d.update(model_kind="quantum"))
    with pytest.raises(ParseError, match="model_kind"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value", [("sigma", float("nan")), ("coef0", float("inf")), ("degree", 2.5)]
)
def test_kernel_parameters_a_fit_cannot_use_are_parse_errors(tmp_path, field, value):
    path = tmp_path / "m.json"
    save_model(kernel_model(), path)
    doc = json.loads(path.read_text())
    doc["kernel"][field] = value  # json writes NaN and Infinity
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=rf"{field} must be"):
        load_model(path)


def test_a_fractional_max_iters_is_a_parse_error(tmp_path):
    path = rewrite(tmp_path, lambda d: d["hyperparameters"].update(max_iters=2.5))
    with pytest.raises(ParseError, match="max_iters must be an integer"):
        load_model(path)


def test_non_finite_weights(tmp_path):
    def poison(d):
        d["W"][0][0] = 1e999  # json encodes this as Infinity

    path = rewrite(tmp_path, poison)
    with pytest.raises(InvariantViolation, match="non-finite"):
        load_model(path)


def test_hard_mode_sum_invariants_enforced(tmp_path):
    def tilt(d):
        d["b"] = [1.0, 1.0]

    path = rewrite(tmp_path, tilt)
    with pytest.raises(InvariantViolation, match="sum"):
        load_model(path)

    def skew(d):
        d["W"][0][0] += 1.0

    path = rewrite(tmp_path, skew)
    with pytest.raises(InvariantViolation):
        load_model(path)


def test_cv_report_round_trip(tmp_path):
    d = random_multilabel(np.random.default_rng(5), 12, 2, 2)
    with quiet_max_iters():
        report = grid_search_cv(
            d, GridSpec(alphas=(0.5,), betas=(1.0,), gammas=(1.0,), n_folds=3)
        )
    path = tmp_path / "cv.json"
    save_cv_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["best_tuple"] == report.best_tuple
    assert len(doc["tuples"]) == len(report.tuples)
