"""Unified one-versus-none multiclass and multilabel SVM.

Each class hyperplane is fit against a shared implicit origin; class
competition enters through a pairwise weight coupling that is either
penalized or constrained, and likewise for the bias sum.  Training runs
an interior-point method on the training QP, in linear or kernel form,
which stops on its certificate of the optimum or returns its own iterate
at the iteration cap.  Prediction is the one step where the two tasks
differ, and ``predict_labels`` takes it for both: multiclass assigns the
winner alone, multilabel every class whose projection reaches the margin,
with the winner as the fallback.

The reference subgradient solver lives in ``ovnsvm.oracle`` and is
deliberately not re-exported here; it is certification surface, not API.
"""

from .data import (
    Dataset,
    SynthSpec,
    augment,
    augment_rows,
    load_csv,
    load_features,
    normalize_minmax,
    synth_generate,
    unseen_label_test_partition,
    write_csv,
)
from .errors import (
    AllTuplesInfeasible,
    DimensionMismatch,
    EmptyLabelRow,
    HessianNotPD,
    InvariantViolation,
    IoError,
    LengthMismatch,
    MalformedCsv,
    MaxItersExceeded,
    NoLabels,
    NonpositiveZ,
    OvnError,
    ParseError,
    SingularSystem,
    TooFewInstances,
    UnknownKind,
    UnsupportedVersion,
)
from .kernel import (
    TrainedKernelModel,
    assemble_kernel,
    fit_kernel,
    support_vectors,
    training_objective_kernel,
)
from .kernels import KernelSpec, gram, gram_cross, kernel_eval
from .linear import (
    AssembledSystem,
    ConstraintMode,
    Hyperparameters,
    TrainedLinearModel,
    assemble,
    feasibility,
    fit_linear,
    solve_kkt,
    training_objective,
)
from .majorization import MMState, hinge, majorizer, z_update
from .modelselect import (
    CVReport,
    GridSpec,
    OvrBaseline,
    TupleResult,
    UntrainableClass,
    grid_search_cv,
    kfold_split,
    ovr_baseline_fit,
)
from .persistence import load_model, save_cv_report, save_model
from .predict import (
    MetricsReport,
    evaluate,
    label_sets_to_matrix,
    predict_labels,
    predict_multilabel_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AllTuplesInfeasible",
    "AssembledSystem",
    "ConstraintMode",
    "CVReport",
    "Dataset",
    "DimensionMismatch",
    "EmptyLabelRow",
    "GridSpec",
    "HessianNotPD",
    "Hyperparameters",
    "InvariantViolation",
    "IoError",
    "KernelSpec",
    "LengthMismatch",
    "MalformedCsv",
    "MaxItersExceeded",
    "MetricsReport",
    "MMState",
    "NoLabels",
    "NonpositiveZ",
    "OvnError",
    "OvrBaseline",
    "ParseError",
    "SingularSystem",
    "SynthSpec",
    "TooFewInstances",
    "TrainedKernelModel",
    "TrainedLinearModel",
    "TupleResult",
    "UnknownKind",
    "UnsupportedVersion",
    "UntrainableClass",
    "assemble",
    "assemble_kernel",
    "augment",
    "augment_rows",
    "evaluate",
    "feasibility",
    "fit_kernel",
    "fit_linear",
    "gram",
    "gram_cross",
    "grid_search_cv",
    "hinge",
    "kernel_eval",
    "kfold_split",
    "label_sets_to_matrix",
    "load_csv",
    "load_features",
    "load_model",
    "majorizer",
    "normalize_minmax",
    "ovr_baseline_fit",
    "predict_labels",
    "predict_multilabel_matrix",
    "save_cv_report",
    "save_model",
    "solve_kkt",
    "support_vectors",
    "synth_generate",
    "training_objective",
    "training_objective_kernel",
    "unseen_label_test_partition",
    "write_csv",
    "z_update",
]
