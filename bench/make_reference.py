"""Regenerate bench/reference/optima.json from the subgradient oracle.

    python3 bench/make_reference.py [--steps N]

The oracle (``ovnsvm.oracle.subgradient_fit``) minimizes the training
objective by projected subgradient steps and shares no iteration code with
the majorize-minimize solvers, so its optima are an independent reference
for the gap checks.  It runs on

* the linear_multilabel reference set, once per constraint mode, and
* the kernel_cv reference set, once per tuple of the pinned grid, on an
  explicit feature map R with R R' = G taken from numpy's eigh of the
  benchmark's own Gram matrix, so the linear objective of (W, b) on R is
  the kernel objective of the same fit.

Objective values are computed by bench/checks.py.  Run it again whenever
bench/inputs.py changes a reference set or the grid; it takes minutes.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ovnsvm as ovn  # noqa: E402
from ovnsvm.oracle import subgradient_fit  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

MODES = ("sw-sb", "sw-hb", "hw-sb", "hw-hb")
STEPS = 300000


def linear_optima(steps):
    X, Y = inputs.linear_reference()
    data = ovn.Dataset(X, Y)
    hp = ovn.Hyperparameters()
    optima = {}
    for token in MODES:
        t0 = time.perf_counter()
        W, b = subgradient_fit(data, ovn.ConstraintMode.from_token(token), hp, steps=steps)
        optima[token] = checks.linear_objective(X, Y, W, b, _coeffs(hp), token)
        print(f"linear {token}: {optima[token]:.6f} ({time.perf_counter() - t0:.0f} s)", flush=True)
    return {
        "instance": {"seed": inputs.REFERENCE_SEED, "rows": inputs.LINEAR_TRAIN,
                     "features": inputs.LINEAR_FEATURES, "classes": inputs.LINEAR_CLASSES},
        "hyperparameters": _coeffs(hp),
        "steps": steps,
        "optima": optima,
    }


def kernel_optima(steps):
    X, Y = inputs.ring_reference()
    grid = inputs.KERNEL_GRID
    token = inputs.KERNEL_MODE
    optima = []
    for sigma in grid["sigmas"]:
        R = inputs.feature_map(inputs.gaussian_gram(X, sigma, inputs.RING_RIDGE))
        data = ovn.Dataset(R, Y)
        for alpha in grid["alphas"]:
            for beta in grid["betas"]:
                for gamma in grid["gammas"]:
                    params = {"mode": token, "alpha": alpha, "beta": beta, "gamma": gamma,
                              "sigma": sigma}
                    hp = ovn.Hyperparameters(alpha=alpha, beta=beta, gamma=gamma)
                    t0 = time.perf_counter()
                    W, b = subgradient_fit(data, ovn.ConstraintMode.from_token(token), hp,
                                           steps=steps)
                    value = checks.linear_objective(R, Y, W, b, _coeffs(hp), token)
                    optima.append({"params": params, "optimum": value})
                    print(f"kernel {params}: {value:.6f} ({time.perf_counter() - t0:.0f} s)",
                          flush=True)
    return {
        "instance": {"seed": inputs.REFERENCE_SEED, "rows": inputs.RING_TRAIN,
                     "classes": inputs.RING_CLASSES, "ridge": inputs.RING_RIDGE},
        "steps": steps,
        "optima": optima,
    }


def _coeffs(hp):
    return {"alpha": hp.alpha, "beta": hp.beta, "gamma": hp.gamma}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=STEPS, help="oracle step budget per fit")
    args = ap.parse_args()
    doc = {
        "oracle": "ovnsvm.oracle.subgradient_fit",
        "kernel_cv": kernel_optima(args.steps),
        "linear_multilabel": linear_optima(args.steps),
    }
    out = HERE / "reference" / "optima.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
