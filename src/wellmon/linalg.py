"""Symmetric eigendecomposition and PSD square roots over stacks of matrices.

The eigensolver is LAPACK's symmetric `eigh` through numpy, the same layer
that `logreg` uses through `np.linalg.solve`. This module adds the input
checks (shape, finite entries, symmetry), the descending order PCA needs,
and the PSD square root behind the COV features. A batched call gives each
matrix the bits of its one-matrix call. The `jacobi_*` names are kept
because callers and the benchmark trace bind them.

The batch checks read the input in place, with no copy, and screen it in
one |A - A^T| pass: a non-finite entry makes its difference NaN or inf, so
a stack that passes the 1e-8 symmetry bound is also finite, and only a
failing stack is read again to name the fault. A stack that is exactly
symmetric, as `transforms` builds its covariances, goes to `eigh` as it
is; any other is symmetrized first. Both give `eigh` the same bits, since
0.5 * (a + a) == a, so the result does not depend on how the stack was
laid out or batched.
"""

import numpy as np

from .validation import check_symmetric


def jacobi_eigh_batch(mats):
    """Eigendecomposition of a (B, n, n) stack of symmetric matrices.

    Returns (eigenvalues (B, n), eigenvectors (B, n, n)) with eigenvectors
    in columns and eigenvalues ascending. Raises ValueError on a bad shape,
    a non-finite entry, or a matrix that is not symmetric within 1e-8.
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN the screen wants
        asym = np.abs(a - a.transpose(0, 2, 1))
    worst = np.max(asym, initial=0.0)
    if not worst <= 1e-8:
        if not np.all(np.isfinite(a)):
            raise ValueError("matrices contain non-finite entries")
        per_matrix = np.max(asym, axis=(1, 2))
        raise ValueError(f"matrix {np.argmax(per_matrix)} is not symmetric within 1e-8")
    if worst > 0:
        a = 0.5 * (a + a.transpose(0, 2, 1))
    return np.linalg.eigh(a)


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
