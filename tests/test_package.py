"""The package's public names."""

import ast
from collections import Counter
from pathlib import Path

import ovnsvm


def test_every_exported_name_resolves_and_appears_once():
    assert [n for n, c in Counter(ovnsvm.__all__).items() if c > 1] == []
    assert [n for n in ovnsvm.__all__ if not hasattr(ovnsvm, n)] == []


def test_the_halved_objective_is_not_exported():
    # fits report the minimized functional, training_objective, only
    assert not hasattr(ovnsvm, "objective")
    assert not hasattr(ovnsvm.linear, "objective")


def test_scores_become_labels_through_predict_labels_alone():
    # the per-row rules, the label-set conversion and the baseline's
    # argmax twin are gone
    for name in ("predict_multilabel", "predict_multiclass", "matrix_to_label_sets"):
        assert name not in ovnsvm.__all__
        assert not hasattr(ovnsvm, name)
        assert not hasattr(ovnsvm.predict, name)
    assert not hasattr(ovnsvm.OvrBaseline, "predict_multiclass")
    assert "predict_labels" in ovnsvm.__all__


def test_no_module_reads_the_environment_or_starts_workers():
    # BLAS threads are the only parallelism, and no setting of the package
    # comes from an environment variable
    pools = ("concurrent", "threading", "multiprocessing")
    sources = sorted(Path(ovnsvm.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {n}"
                for n in names
                if n in ("os.environ", "os.getenv") or n.split(".")[0] in pools
            ]
    assert sources and found == []
