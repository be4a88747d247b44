"""Symmetric eigendecomposition and PSD square roots over stacks of matrices.

The eigensolver is LAPACK's symmetric `eigh` through numpy, the same layer
that `logreg` uses through `np.linalg.solve`. This module adds the input
checks (shape, finite entries, symmetry), the descending order PCA needs,
and the PSD square root behind the COV features. A batched call gives each
matrix the bits of its one-matrix call. The `jacobi_*` names are kept
because callers and the benchmark trace bind them.
"""

import numpy as np

from .validation import check_symmetric


def jacobi_eigh_batch(mats):
    """Eigendecomposition of a (B, n, n) stack of symmetric matrices.

    Returns (eigenvalues (B, n), eigenvectors (B, n, n)) with eigenvectors
    in columns and eigenvalues ascending. Raises ValueError on a bad shape,
    a non-finite entry, or a matrix that is not symmetric within 1e-8.
    """
    a = np.array(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrices contain non-finite entries")
    asym = np.max(np.abs(a - a.transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
    if np.any(asym > 1e-8):
        raise ValueError(f"matrix {np.argmax(asym)} is not symmetric within 1e-8")
    return np.linalg.eigh(0.5 * (a + a.transpose(0, 2, 1)))


def jacobi_eigh(A):
    """Eigendecomposition of one symmetric matrix (a batch of one)."""
    A = check_symmetric(A, tol=1e-8, name="A")
    w, v = jacobi_eigh_batch(A[None])
    return w[0], v[0]


def eigh_descending(A):
    """Eigenpairs sorted by non-increasing eigenvalue (stable in ties)."""
    w, v = jacobi_eigh(A)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def sym_sqrt_batch(mats, neg_tol=-1e-10):
    """Symmetric PSD square roots R with R @ R = A over a (B, n, n) stack.

    Eigenvalues in [neg_tol, 0) are clamped to zero; anything below neg_tol
    raises ValueError naming the matrix index and the eigenvalue.
    """
    w, v = jacobi_eigh_batch(mats)
    worst = int(np.argmin(np.min(w, axis=1)))
    if np.min(w[worst]) < neg_tol:
        raise ValueError(
            f"matrix {worst} is not positive semi-definite: "
            f"eigenvalue {np.min(w[worst]):.6e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1)


def sym_sqrt(A, neg_tol=-1e-10):
    """Symmetric PSD square root of one matrix (a batch of one)."""
    A = check_symmetric(A, tol=1e-8, name="A")
    return sym_sqrt_batch(A[None], neg_tol=neg_tol)[0]
