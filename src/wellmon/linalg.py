"""Symmetric eigendecomposition by batched Jacobi rotations in parallel order.

Feature dimensions in this toolkit stay small (m <= 21), where Jacobi is
simple, robust, and has no external dependency. A sweep is a round-robin
schedule (Brent & Luk 1985; Golub & Van Loan, section 8.5): each round
rotates floor(n/2) disjoint pivot pairs of every matrix in a stack at once,
as one rotation J per matrix. Quadratic convergence reaches the absolute
off-diagonal tolerance 1e-12 in a handful of sweeps. One-matrix calls are
batches of one, and a matrix gets the same bits in any batch.
"""

from functools import cache

import numpy as np

from .validation import check_symmetric

OFFDIAG_TOL = 1e-12
MAX_SWEEPS = 100
_TINY = np.finfo(np.float64).tiny


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep budget is exhausted before convergence."""


def offdiag_norm(A):
    """Frobenius norm of the off-diagonal part (per matrix of a stack)."""
    off = np.array(A, dtype=np.float64)
    idx = np.arange(off.shape[-1])
    off[..., idx, idx] = 0.0
    return np.sqrt(np.sum(off * off, axis=(-2, -1)))


@cache
def round_robin_schedule(n):
    """One sweep as rounds of disjoint pivot pairs: a tuple of (p, q) index
    arrays with p < q. Every pair appears exactly once; odd n gets n rounds
    through a dummy index, even n gets n - 1."""
    ring = list(range(n + n % 2))
    half = len(ring) // 2
    rounds = []
    for _ in range(len(ring) - 1):
        pairs = sorted(
            sorted(pair) for pair in zip(ring[:half], ring[::-1]) if max(pair) < n
        )
        if pairs:
            pq = np.array(pairs).T
            pq.flags.writeable = False  # cached: shared by every caller
            rounds.append(tuple(pq))
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return tuple(rounds)


@cache
def _flat_rounds(n):
    """Per round, row-major flat indices of the (pq, pp, qq) entries read
    and the (pp, qq, pq, qp) entries written."""
    return tuple(
        (np.concatenate((p * n + q, p * (n + 1), q * (n + 1))),
         np.concatenate((p * (n + 1), q * (n + 1), p * n + q, q * n + p)))
        for p, q in round_robin_schedule(n)
    )


def _rotate_round(a, v, flat_idx, skip):
    """Annihilate one round's pivots in every matrix at once: a <- J^T a J,
    v <- v J. Pivots with |a_pq| <= skip get the identity rotation."""
    gather, scatter = flat_idx
    batch, n, _ = a.shape
    k = len(gather) // 3
    entries = a.reshape(batch, -1)[:, gather]
    apq, app, aqq = entries[:, :k], entries[:, k : 2 * k], entries[:, 2 * k :]
    rotate = np.abs(apq) > skip
    two_apq = 2.0 * apq * rotate
    diff = aqq - app
    # t = sign(theta) / (|theta| + sqrt(theta^2 + 1)), theta = diff / (2 a_pq),
    # scaled by |2 a_pq|: no overflow, and t = 0 (the identity) where skipped
    t = np.copysign(1.0, diff) * two_apq / np.maximum(
        np.abs(diff) + np.hypot(diff, two_apq), _TINY
    )
    c = 1.0 / np.hypot(t, 1.0)
    s = t * c
    J = np.zeros((batch, n * n))
    J[:, :: n + 1] = 1.0
    J[:, scatter] = np.concatenate((c, c, s, -s), axis=1)
    J = J.reshape(a.shape)
    a = (J.transpose(0, 2, 1) @ a @ J).reshape(batch, -1)
    # kill round-off asymmetry in the annihilated pairs
    keep = ~rotate
    a[:, scatter[2 * k :]] *= np.concatenate((keep, keep), axis=1)
    return a.reshape(J.shape), v @ J


def jacobi_eigh_batch(mats, tol=OFFDIAG_TOL, max_sweeps=MAX_SWEEPS):
    """Jacobi eigendecomposition of a (B, n, n) stack of symmetric matrices.

    Returns (eigenvalues (B, n), eigenvectors (B, n, n)) with eigenvectors
    in columns, unsorted. A matrix is done once its off-diagonal Frobenius
    norm is below tol; pivots below tol/(2n) are skipped, so the remaining
    off-diagonal mass then stays under tol.
    """
    a = np.array(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrices contain non-finite entries")
    asym = np.max(np.abs(a - a.transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
    if np.any(asym > 1e-8):
        raise ValueError(f"matrix {np.argmax(asym)} is not symmetric within 1e-8")
    a = 0.5 * (a + a.transpose(0, 2, 1))
    n = a.shape[1]
    v = np.broadcast_to(np.eye(n), a.shape).copy()
    skip = tol / (2.0 * n)
    for _ in range(max_sweeps):
        todo = np.flatnonzero(offdiag_norm(a) >= tol)
        if todo.size == 0:
            break
        sub_a, sub_v = a[todo], v[todo]
        for flat_idx in _flat_rounds(n):
            sub_a, sub_v = _rotate_round(sub_a, sub_v, flat_idx, skip)
        a[todo], v[todo] = sub_a, sub_v
    else:
        raise JacobiConvergenceError(
            f"off-diagonal norm {np.max(offdiag_norm(a)):.3e} "
            f"after {max_sweeps} sweeps"
        )
    return np.diagonal(a, axis1=1, axis2=2).copy(), v


def jacobi_eigh(A, tol=OFFDIAG_TOL, max_sweeps=MAX_SWEEPS):
    """Eigendecomposition of one symmetric matrix (a batch of one)."""
    A = check_symmetric(A, tol=1e-8, name="A")
    w, v = jacobi_eigh_batch(A[None], tol=tol, max_sweeps=max_sweeps)
    return w[0], v[0]


def eigh_descending(A, tol=OFFDIAG_TOL):
    """Eigenpairs sorted by non-increasing eigenvalue (stable in ties)."""
    w, v = jacobi_eigh(A, tol=tol)
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
