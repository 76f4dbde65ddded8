"""The benchmark's own checks fail on doctored inputs and pass on sound ones.

    python3 -m pytest bench/tests -q
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import ovnsvm as ovn  # noqa: E402

MODE = "hw-hb"


@pytest.fixture(scope="module")
def reference():
    X, Y = inputs.linear_reference()
    with open(BENCH / "reference" / "optima.json") as fh:
        optimum = json.load(fh)["linear_multilabel"]["optima"][MODE]
    return ovn.Dataset(X, Y), optimum


def _fit(data, max_iters):
    hp = ovn.Hyperparameters(max_iters=max_iters)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ovn.MaxItersExceeded)
        model = ovn.fit_linear(data, ovn.ConstraintMode.from_token(MODE), hp)
    coeffs = {"alpha": hp.alpha, "beta": hp.beta, "gamma": hp.gamma}
    return model, checks.linear_objective(data.features, data.labels, model.W, model.b,
                                          coeffs, MODE)


def test_gap_fails_on_a_fit_cut_to_20_iterations(reference):
    data, optimum = reference
    _, value = _fit(data, 20)
    assert not checks.gap(value, optimum)[0]


def test_gap_passes_on_a_fit_at_the_default_budget(reference):
    data, optimum = reference
    _, value = _fit(data, 500)
    assert checks.gap(value, optimum)[0]


def test_gap_is_one_sided():
    assert checks.gap(99.0, 100.0)[0]
    assert checks.gap(100.09, 100.0)[0]
    assert not checks.gap(100.2, 100.0)[0]


def test_descent_fails_on_one_inserted_rise(reference):
    data, _ = reference
    model, _ = _fit(data, 20)
    trace = list(model.surrogate_trace)
    assert checks.descent(trace)[0]
    doctored = trace[:10] + [trace[9] * (1 + 1e-6)] + trace[10:]
    assert not checks.descent(doctored)[0]


def test_dominance_fails_when_the_surrogate_dips_below_the_objective(reference):
    data, _ = reference
    model, _ = _fit(data, 20)
    assert checks.dominance(model.surrogate_trace, model.hinge_trace)[0]
    doctored = list(model.surrogate_trace)
    doctored[5] = model.hinge_trace[5] * (1 - 1e-6)
    assert not checks.dominance(doctored, model.hinge_trace)[0]


def test_hard_sums_fail_when_a_bias_moves(reference):
    data, _ = reference
    model, _ = _fit(data, 20)
    assert checks.hard_sums(model.W, model.b, MODE)[0]
    b = model.b.copy()
    b[0] += 1e-6
    assert not checks.hard_sums(model.W, b, MODE)[0]


def test_round_trip_fails_on_an_altered_model_document(reference, tmp_path):
    data, _ = reference
    model, _ = _fit(data, 20)
    path = tmp_path / "model.json"
    ovn.save_model(model, path)
    sound = ovn.load_model(path)
    assert checks.same_scores(sound.decision_scores(data.features),
                              model.decision_scores(data.features))[0]

    doc = json.loads(path.read_text())
    doc["W"][0][0] *= 1 + 1e-12
    path.write_text(json.dumps(doc))
    altered = ovn.load_model(path)
    assert not checks.same_scores(altered.decision_scores(data.features),
                                  model.decision_scores(data.features))[0]


def test_the_hw_sb_optimum_passes_the_held_out_check():
    # W = 0, b_k = 1 costs gamma K^2 and no hinge: at or below the stored
    # oracle optimum, so it is an optimum the benchmark must accept.
    X, Y = inputs.linear_reference()
    with open(BENCH / "reference" / "optima.json") as fh:
        optimum = json.load(fh)["linear_multilabel"]["optima"]["hw-sb"]
    hp = ovn.Hyperparameters()
    coeffs = {"alpha": hp.alpha, "beta": hp.beta, "gamma": hp.gamma}
    K, M = inputs.LINEAR_CLASSES, inputs.LINEAR_FEATURES
    W, b = np.zeros((K, M)), np.ones(K)
    value = checks.linear_objective(X, Y, W, b, coeffs, "hw-sb")
    assert value == pytest.approx(hp.gamma * K**2)
    assert checks.gap(value, optimum)[0]

    Xh, Yh = inputs.linear_heldout(1)
    pred = ovn.predict_multilabel_matrix(Xh @ W.T + b)
    assert checks.jaccard_accuracy(pred, Yh) == pytest.approx(checks.all_labels_accuracy(Yh))
    assert checks.linear_heldout(pred, Yh, "hw-sb")[0]
    for token in ("sw-sb", "sw-hb", "hw-hb"):
        assert not checks.linear_heldout(pred, Yh, token)[0]


def test_accuracy_helpers_on_known_matrices():
    truth = np.array([[1, 0, 1], [0, 1, 0]])
    assert checks.jaccard_accuracy(truth, truth) == 1.0
    assert checks.jaccard_accuracy([[1, 1, 1], [1, 1, 1]], truth) == pytest.approx((2 / 3 + 1 / 3) / 2)
    assert checks.all_labels_accuracy(truth) == pytest.approx(0.5)
