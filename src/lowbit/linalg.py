"""Dense symmetric linear algebra for calibration Hessians.

Covers accumulation of the input covariance H = X X^T, diagonal damping,
factorization of the damped inverse into an upper-triangular factor, and
the two routes to trailing-submatrix inverses that the compensation
engines and their oracle tests rely on.

Conventions fixed here:

* H is accumulated without the conventional factor 2. The second-order
  compensation (gptq, the dense oracle) is invariant to positive rescaling
  of H, so the constant would be dead weight there. The first-order term of
  foem is not: it multiplies the drift by slices of the inverse factor, so
  scaling H by c scales that term by 1/c, and ``beta`` is calibrated
  against H without the factor 2.
* The upper triangle of every accumulated block is mirrored into the lower
  one once, when it is added, so the stored H is exactly symmetric and a
  read returns it without copying.
* The inverse factor is kept upper-triangular: ``T`` satisfies
  T^T T = (H + damping * I)^(-1) with strictly positive diagonal. The
  transpose convention matters: trailing principal submatrices of T then
  encode the inverses of trailing principal submatrices of the damped H
  (see ``recover_inverse_submatrix``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import FactorizationError, NumericalError

__all__ = [
    "HessianState",
    "InvCholFactor",
    "inverse_cholesky",
    "recover_inverse_submatrix",
    "iterative_inverse_update",
]


class HessianState:
    """Accumulated input covariance for one layer.

    Mutable only through :meth:`accumulate` (single writer); :meth:`dampen`
    returns a new state and leaves the original untouched, so the undamped
    covariance stays available for loss reporting.
    """

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        self._h = np.zeros((dim, dim), dtype=np.float64)
        self.n_samples = 0
        self.damped = False
        self.damping = 0.0

    @property
    def dim(self) -> int:
        return self._h.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense symmetric H as a read-only view of the stored matrix."""
        view = self._h.view()
        view.flags.writeable = False
        return view

    def mean_diagonal(self) -> float:
        if self.dim == 0:
            return 0.0
        return float(np.diagonal(self._h).mean())

    def accumulate(self, X: np.ndarray) -> "HessianState":
        """Add X X^T for a (dim x n_tokens) activation block; returns self.

        Refused after damping: the damped matrix is a derived artifact, not
        a running sum. Non-finite activations raise NumericalError.
        """
        if self.damped:
            raise NumericalError("cannot accumulate into a damped Hessian")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.dim:
            raise NumericalError(
                f"activation block must be ({self.dim} x n_tokens), got {X.shape}"
            )
        if not np.isfinite(X).all():
            raise NumericalError("activation block contains non-finite values")
        self._h += _mirrored_upper(X @ X.T)
        self.n_samples += X.shape[1]
        return self

    def dampen(self, ratio: float) -> "HessianState":
        """Return a new state with ratio * mean(diag(H)) added to the diagonal."""
        if ratio < 0:
            raise ValueError("damping ratio must be non-negative")
        if self.n_samples <= 0:
            raise NumericalError("cannot dampen before any samples are accumulated")
        lam = ratio * self.mean_diagonal()
        if ratio > 0 and lam == 0.0:
            warnings.warn(
                "Hessian diagonal is all zero; damping has no effect and the "
                "matrix may be singular",
                RuntimeWarning,
                stacklevel=2,
            )
        out = HessianState(self.dim)
        out._h = self._h.copy()
        out._h[np.diag_indices(self.dim)] += lam
        out.n_samples = self.n_samples
        out.damped = True
        out.damping = lam
        return out

    @classmethod
    def from_matrix(
        cls, H: np.ndarray, n_samples: int, damped: bool = False, damping: float = 0.0
    ) -> "HessianState":
        """Wrap a precomputed symmetric matrix (upper triangle is trusted).

        Raises NumericalError if the matrix has non-finite entries.
        """
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise NumericalError(f"Hessian must be square, got {H.shape}")
        if not np.isfinite(H).all():
            raise NumericalError("Hessian contains non-finite values")
        out = cls(H.shape[0])
        out._h = _mirrored_upper(H)
        out.n_samples = int(n_samples)
        out.damped = damped
        out.damping = damping
        return out


def _mirrored_upper(M: np.ndarray) -> np.ndarray:
    """New array holding the upper triangle of ``M`` mirrored into the lower."""
    out = np.triu(M)
    out += np.triu(out, 1).T
    return out


@dataclass(frozen=True)
class InvCholFactor:
    """Upper-triangular T with T^T T equal to the inverse of the damped H."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix)


def inverse_cholesky(state: HessianState) -> InvCholFactor:
    """Factor the inverse of a damped Hessian into an upper triangle.

    Works without forming the dense inverse: the order-reversed matrix is
    Cholesky-factored, the lower factor inverted by triangular
    back-substitution, and the result reversed back, which lands exactly on
    the upper T with T^T T = H^(-1).

    Raises FactorizationError naming the offending pivot (in the original
    column order) if the damped matrix is not positive definite.
    """
    if not state.damped:
        raise NumericalError("inverse_cholesky requires a damped Hessian")
    d = state.dim
    if d == 0:
        return InvCholFactor(np.zeros((0, 0), dtype=np.float64))
    H = state.matrix
    rev = H[::-1, ::-1].copy()
    c, info = lapack.dpotrf(rev, lower=1, overwrite_a=1)
    if info > 0:
        # leading minor k of the reversed matrix is the trailing block that
        # starts at original column d - k
        raise FactorizationError(
            f"Cholesky breakdown: pivot at column {d - info} is not positive "
            "(matrix not positive definite)",
            pivot=d - info,
        )
    if info < 0:
        raise NumericalError(f"dpotrf failed with illegal argument {-info}")
    cinv, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inversion failed (info={info})")
    # only cinv's lower triangle is the factor; reversed, its other triangle
    # lands below T's diagonal, so it is zeroed row by row in the one copy
    T = cinv[::-1, ::-1].copy()
    for k in range(1, d):
        T[k, :k] = 0.0
    return InvCholFactor(T)


def recover_inverse_submatrix(factor: InvCholFactor, q: int) -> np.ndarray:
    """Inverse of the trailing block H[q+1:, q+1:] of the damped Hessian.

    Computed as T[q+1:, q+1:]^T @ T[q+1:, q+1:] from the stored factor;
    no dense inverse or refactorization involved. q = dim - 1 yields an
    empty 0 x 0 matrix.
    """
    if not 0 <= q < factor.dim:
        raise ValueError(f"column index {q} out of range for dim {factor.dim}")
    sub = factor.matrix[q + 1 :, q + 1 :]
    return sub.T @ sub


def iterative_inverse_update(hinv: np.ndarray, p: int) -> np.ndarray:
    """Remove coordinate ``p`` from an inverse via the rank-one removal rule.

    Returns (hinv - hinv[:, p] hinv[p, :] / hinv[p, p]) with row and column
    ``p`` deleted: the inverse of the original matrix with row/column ``p``
    struck out. Used by the dense oracle engine; the production path goes
    through the triangular factor instead.
    """
    hinv = np.asarray(hinv, dtype=np.float64)
    n = hinv.shape[0]
    if hinv.ndim != 2 or hinv.shape[1] != n:
        raise NumericalError(f"inverse must be square, got {hinv.shape}")
    if not 0 <= p < n:
        raise ValueError(f"index {p} out of range for dim {n}")
    d = hinv[p, p]
    if d <= 0:
        raise NumericalError(
            f"diagonal entry {p} of the inverse is {d}; matrix is not SPD"
        )
    out = hinv - np.outer(hinv[:, p], hinv[p, :]) / d
    keep = np.arange(n) != p
    return np.ascontiguousarray(out[np.ix_(keep, keep)])
