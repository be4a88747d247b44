import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wellmon
from wellmon import cnn, dataset, pca, pipeline, transforms
from wellmon.linalg import (
    eigh_descending,
    jacobi_eigh,
    jacobi_eigh_batch,
    sym_sqrt,
    sym_sqrt_batch,
)

from conftest import random_psd, random_segments


def test_identity_and_zero():
    w, v = jacobi_eigh(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v, np.eye(4))
    w, v = jacobi_eigh(np.zeros((3, 3)))
    assert np.allclose(w, 0.0)


def test_eigenpairs_match_numpy(rng):
    for n in (2, 3, 6, 21):
        for _ in range(5):
            A = rng.standard_normal((n, n))
            A = A + A.T
            w, v = eigh_descending(A)
            assert np.all(np.diff(w) <= 1e-12)
            # residual and orthonormality
            assert np.max(np.abs(A @ v - v * w)) < 1e-10
            assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
            ref = np.sort(np.linalg.eigvalsh(A))[::-1]
            assert np.max(np.abs(w - ref)) < 1e-10


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_sqrt_reconstructs(rng):
    for n in (2, 5, 8):
        A = random_psd(rng, n)
        R = sym_sqrt(A)
        assert np.allclose(R, R.T)
        assert np.max(np.abs(R @ R - A)) < 1e-10


def test_sym_sqrt_clamps_tiny_negative():
    A = np.diag([1.0, -5e-11])
    R = sym_sqrt(A)
    assert R[1, 1] == 0.0


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="eigenvalue"):
        sym_sqrt(np.diag([1.0, -1e-3]))


def test_batch_matches_single(rng):
    # each row of a batch gets the bits of the one-matrix call, so the
    # one-window and the batched transforms agree exactly
    mats = np.stack([random_psd(rng, 6) for _ in range(40)])
    w_b, v_b = jacobi_eigh_batch(mats)
    roots = sym_sqrt_batch(mats)
    for i in range(40):
        w_s, v_s = jacobi_eigh(mats[i])
        assert w_b[i].tobytes() == w_s.tobytes()
        assert v_b[i].tobytes() == v_s.tobytes()
        assert roots[i].tobytes() == sym_sqrt(mats[i]).tobytes()
        assert np.max(np.abs(roots[i] @ roots[i] - mats[i])) < 1e-10


def test_batch_rejects_indefinite(rng):
    mats = np.stack([random_psd(rng, 3), np.diag([1.0, 1.0, -0.5])])
    with pytest.raises(ValueError, match="matrix 1"):
        sym_sqrt_batch(mats)


_ROOTS_AND_EIGENPAIRS = """
import sys
import numpy as np
from types import SimpleNamespace
from wellmon.linalg import eigh_descending, sym_sqrt_batch
from wellmon.transforms import _feature_rows
rng = np.random.default_rng(3)
X = rng.standard_normal((80, 6, 6))
sys.stdout.buffer.write(sym_sqrt_batch(X.transpose(0, 2, 1) @ X).tobytes())
Y = rng.standard_normal((60, 21))
for part in eigh_descending(Y.T @ Y):
    sys.stdout.buffer.write(part.tobytes())
windows = rng.standard_normal((300, 300, 6))
sys.stdout.buffer.write(
    _feature_rows([SimpleNamespace(samples=w) for w in windows], "cov").tobytes()
)
"""


def test_solver_independent_of_blas_threads():
    src = str(Path(wellmon.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _ROOTS_AND_EIGENPAIRS],
            env=env, capture_output=True, check=True, timeout=120,
        )
        outputs.append(result.stdout)
    assert len(outputs[0]) > 0
    assert outputs[0] == outputs[1]


def test_one_by_one_and_zero_matrices():
    w, v = jacobi_eigh(np.array([[4.0]]))
    assert w.tolist() == [4.0] and v.tolist() == [[1.0]]
    assert sym_sqrt(np.array([[4.0]])).tolist() == [[2.0]]
    assert sym_sqrt_batch(np.array([[[9.0]], [[0.0]]])).ravel().tolist() == [3.0, 0.0]
    for n in (1, 2, 5):
        w, v = eigh_descending(np.zeros((n, n)))
        assert np.all(w == 0.0) and np.array_equal(v, np.eye(n))
        assert np.all(sym_sqrt(np.zeros((n, n))) == 0.0)


def test_batch_rejects_asymmetric_and_non_finite():
    with pytest.raises(ValueError, match="matrix 1 is not symmetric"):
        jacobi_eigh_batch(np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])]))
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh_batch(np.full((1, 2, 2), np.nan))
    # an inf on one side of the diagonal fails as non-finite, not asymmetric
    one_sided = np.stack([np.eye(2), np.eye(2)])
    one_sided[1, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh_batch(one_sided)


def test_benchmark_bound_names_exist():
    # perfbench/layers.py wraps these module attributes by name when it
    # traces a run, and perfbench/workloads.py calls the pipeline ones and
    # CnnClassifier.predict_proba; a rename would silently drop them from
    # the trace or stop the benchmark
    for module, name in (
        (dataset, "sym_sqrt"),
        (dataset, "jacobi_eigh"),
        (transforms, "sym_sqrt_batch"),
        (pca, "eigh_descending"),
        (pipeline, "transform_segments"),
        (pipeline, "reports_to_csv"),
        (pipeline, "compare"),
        (pipeline, "run_compare"),
        (pipeline, "build_pipeline"),
        (pipeline.CnnPipeline, "_to_array"),
        (pipeline.CnnPipeline, "_normalize"),
        (pipeline.ClassicalPipeline, "project"),
        (cnn.CnnClassifier, "fit"),
        (cnn.CnnClassifier, "predict"),
        (cnn.CnnClassifier, "predict_proba"),
    ):
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    assert pipeline.METHODS == ("logreg", "dtree", "svm", "cnn")
    cfg = pipeline.PipelineConfig(transform="std", pcs=2)
    classical = pipeline.build_pipeline(cfg)
    assert (classical.transform, classical.pcs) == ("std", 2)
    assert classical.estimator is not None


def test_classical_pipeline_transforms_through_module_global(rng, monkeypatch):
    # the trace's transforms.* spans come from rebinding this global
    kinds = []

    def counted(segments, kind, *args, **kwargs):
        kinds.append(kind)
        return transforms.transform_segments(segments, kind, *args, **kwargs)

    monkeypatch.setattr(pipeline, "transform_segments", counted)
    segments = random_segments(rng, 20, separated=True)
    fitted = pipeline.build_pipeline(pipeline.PipelineConfig(transform="std"))
    fitted.fit(segments).predict(segments)
    assert kinds == ["std", "std"]
