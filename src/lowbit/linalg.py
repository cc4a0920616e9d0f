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
* A state's buffer is written only while it is built: ``accumulate``
  keeps each new sum in a new buffer, so a damped state or an earlier
  ``matrix`` read shares a buffer that no later ``accumulate`` changes.
* Damping is recorded, not applied: a damped state shares the undamped
  matrix and the factorization adds the damping to each diagonal entry as
  it reads it, so an engine run holds H and T and no damped copy.
* The inverse factor is kept upper-triangular: ``T`` satisfies
  T^T T = (H + damping * I)^(-1) with strictly positive diagonal. The
  transpose convention matters: trailing principal submatrices of T then
  encode the inverses of trailing principal submatrices of the damped H
  (see ``recover_inverse_submatrix``), and ``inverse_cholesky`` builds T
  from that identity by recursive halving, in numpy GEMMs. Its products
  with a triangular block skip most of the zero triangle, so the factor
  costs about 5 d^3 / 6 flops.
* Only numpy is called. A second library with its own bundled BLAS (such
  as scipy's) would start a second thread pool whose busy-waiting workers
  compete with numpy's for the same CPUs and slow both.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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

    Mutable only through :meth:`accumulate` (single writer), which swaps
    in a new buffer, so no array the state has handed out changes.
    :meth:`dampen` returns a new state and leaves the original untouched,
    so the undamped covariance stays available for loss reporting.
    """

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        self._h = np.zeros((dim, dim), dtype=np.float64)
        self.n_samples = 0
        self.damped = False
        # added to the diagonal of _h wherever H is read, never written into it
        self.damping = 0.0

    @classmethod
    def _wrap(cls, h: np.ndarray, n_samples: int, damping=None) -> "HessianState":
        """A state over the buffer ``h``; damped with ``damping`` unless it is None."""
        out = cls.__new__(cls)
        out._h = h
        out.n_samples = n_samples
        out.damped = damping is not None
        out.damping = 0.0 if damping is None else damping
        return out

    @property
    def dim(self) -> int:
        return self._h.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense symmetric H, read-only; a later :meth:`accumulate` leaves it
        as it was.

        A view of the stored matrix, except for a state from :meth:`dampen`
        with non-zero damping: that state shares its source's undamped
        buffer, so each read builds H + damping * I as a new d x d array.
        The factor never reads it; in the library only the dense oracle and
        the verification checks read a damped matrix.
        """
        if self.damping:
            out = self._h.copy()
            out[np.diag_indices(self.dim)] += self.damping
        else:
            out = self._h.view()
        out.flags.writeable = False
        return out

    def mean_diagonal(self) -> float:
        if self.dim == 0:
            return 0.0
        diag = np.diagonal(self._h)
        if self.damping:
            diag = diag + self.damping
        return float(diag.mean())

    def accumulate(self, X: np.ndarray) -> "HessianState":
        """Add X X^T for a (dim x n_tokens) activation block; returns self.

        Refused after damping: the damped matrix is a derived artifact, not
        a running sum. Non-finite activations raise NumericalError. The old
        sum is added into the block's new product, which becomes the buffer:
        states damped from this one and earlier ``matrix`` reads keep theirs,
        and the memory is that of an in-place add.
        """
        if self.damped:
            raise NumericalError("cannot accumulate into a damped Hessian")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.dim:
            raise NumericalError(
                f"activation block must be ({self.dim} x n_tokens), got {X.shape}"
            )
        if not _all_finite(X):
            raise NumericalError("activation block contains non-finite values")
        update = _mirror_upper(X @ X.T)
        update += self._h
        self._h = update
        self.n_samples += X.shape[1]
        return self

    def dampen(self, ratio: float) -> "HessianState":
        """Return a damped state: H + lam * I with lam = ratio * mean(diag(H)).

        No d x d array is written. The new state shares this state's buffer
        and records lam as ``damping``; ``inverse_cholesky`` adds lam to the
        diagonal as it factors, and ``matrix`` adds it only when read. This
        state stays undamped, and a later :meth:`accumulate` on it leaves the
        damped state as it was.
        """
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
        # damping a damped state: the first damping joins the matrix
        base = self.matrix if self.damping else self._h
        return self._wrap(base, self.n_samples, damping=lam)

    @classmethod
    def from_matrix(cls, H: np.ndarray, n_samples: int) -> "HessianState":
        """Wrap a precomputed symmetric matrix (upper triangle is trusted) as
        an undamped state.

        The state holds one new d x d array: the upper triangle of H
        mirrored into the lower. Raises NumericalError if the matrix has
        non-finite entries.
        """
        H = np.array(H, dtype=np.float64, order="C")
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise NumericalError(f"Hessian must be square, got {H.shape}")
        if not _all_finite(H):
            raise NumericalError("Hessian contains non-finite values")
        return cls._wrap(_mirror_upper(H), int(n_samples))


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, with no bool array the size
    of ``a``: min propagates a NaN, and an infinity is an extreme."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


# fastest of 16 to 128 at d = 512 and d = 4096
_MIRROR_BLOCK = 64


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle of the square C-ordered ``M`` with its
    upper triangle, transposed; returns ``M``.

    Runs in blocks of rows, so the only temporaries are block-sized.
    """
    n = M.shape[0]
    for a in range(0, n, _MIRROR_BLOCK):
        e = min(a + _MIRROR_BLOCK, n)
        diag = M[a:e, a:e]
        upper = np.triu_indices(e - a, 1)
        diag.T[upper] = diag[upper]
        M[e:, a:e] = M[a:e, e:].T
    return M


@dataclass(frozen=True)
class InvCholFactor:
    """Upper-triangular T with T^T T equal to the inverse of the damped H."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_BASE_DIM = 64


def inverse_cholesky(state: HessianState) -> InvCholFactor:
    """Factor the inverse of a damped Hessian into an upper triangle.

    Works without forming the dense inverse or the damped matrix: the
    damping is added to diagonal entries as the factorization reads them.
    H is halved recursively at m = n // 2 into [[H11, H12], [H21, H22]] and
    T is built bottom-up from the trailing-inverse identity
    (T22^T T22 = H22^(-1)):

        T22 = factor(H22)
        P   = H12 @ T22^T
        T11 = factor(H11 - P @ P^T)       (the Schur complement of H22)
        T12 = -(T11 @ (P @ T22))

    P is written into T12's own storage and the Schur complement is freed
    before P @ T22 is formed, so besides H and T the factorization holds
    about one (d/2) x (d/2) temporary at a time (4/3 of one, counting the
    recursion). Blocks of at most ``_BASE_DIM`` columns are
    Cholesky-factored in reversed order and their lower factor inverted,
    which lands exactly on the block's upper T. Every other flop is a numpy
    GEMM, so the factor runs on numpy's own BLAS thread pool; the library
    links no second BLAS runtime whose busy-waiting workers would compete
    with it for the CPUs.

    The three products with a triangular T block skip most of its zero
    half (``_tri_matmul``): the half of the columns that is full to the
    diagonal is one GEMM, and the triangle left over is split the same way
    until it is at most ``_TRI_BASE`` wide. Each then costs about
    (4/3) m^3 flops instead of 2 m^3, and with the m^3 of P @ P^T a level
    costs 5 m^3, about 5 d^3 / 6 in all (7 d^3 / 6 with plain products).
    Up to d = 2 * ``_TRI_BASE`` no product splits.

    Raises FactorizationError naming the offending pivot if the damped
    matrix is not positive definite: the largest q for which H[q:, q:] is
    not. A block that breaks down is a Schur complement over an already
    positive definite trailing part, so its trailing blocks stand one to
    one for those of H.
    """
    if not state.damped:
        raise NumericalError("inverse_cholesky requires a damped Hessian")
    T = np.zeros((state.dim, state.dim), dtype=np.float64)
    _factor_into(state._h, state.damping, T, 0)
    return InvCholFactor(T)


def _factor_into(H: np.ndarray, shift: float, T: np.ndarray, offset: int) -> None:
    """Write the upper inverse factor of ``H + shift * I`` into the zeroed
    view ``T``; ``H`` is only read.

    ``offset`` is the column of H[0, 0] in the full matrix, so a breakdown
    names its pivot in the original column order. The trailing block is
    factored first, so the first breakdown found is the largest such q.
    Each diagonal entry is formed as (H_ii + shift) before anything is
    subtracted from it, the order a damped copy of H would give.
    """
    n = H.shape[0]
    if n <= _BASE_DIM:
        rev = H[::-1, ::-1]
        if shift:
            rev = rev.copy()
            rev[np.diag_indices(n)] += shift
        try:
            low = np.linalg.cholesky(rev)
        except np.linalg.LinAlgError:
            # leading minor k of the reversed block is the trailing block
            # that starts at its column n - k
            pivot = offset + n - _failing_minor(rev)
            raise FactorizationError(
                f"Cholesky breakdown: pivot at column {pivot} is not positive "
                "(matrix not positive definite)",
                pivot=pivot,
            ) from None
        # the lower triangle of inv(low), reversed, is the upper factor
        T[...] = np.triu(np.linalg.inv(low)[::-1, ::-1])
        return
    m = n // 2
    T22, T12 = T[m:, m:], T[:m, m:]
    _factor_into(H[m:, m:], shift, T22, offset + m)
    P = _tri_matmul(H[:m, m:], T22.T, T12, upper=False)
    schur = P @ P.T
    diag = np.diagonal(H[:m, :m]) + shift
    diag -= np.diagonal(schur)
    np.subtract(H[:m, :m], schur, out=schur)
    schur[np.diag_indices(m)] = diag
    T11 = T[:m, :m]
    _factor_into(schur, 0.0, T11, offset)
    del schur
    Q = _tri_matmul(P, T22, np.empty_like(P), upper=True)
    # T11 @ Q = (Q^T @ T11^T)^T, with the triangle on the right
    _tri_matmul(Q.T, T11.T, T12.T, upper=False)
    np.negative(T12, out=T12)


# 128 to 512 timed within noise of each other at d = 1408, 2048 and 4096;
# 256 leaves every factor with d <= 512 on plain products
_TRI_BASE = 256


def _tri_matmul(X: np.ndarray, M: np.ndarray, out: np.ndarray, upper: bool) -> np.ndarray:
    """Write ``X @ M`` into ``out`` for a square ``M`` that is upper (or
    lower) triangular, skipping most of its zero triangle; returns ``out``.

    The half of the columns of M that are full to the diagonal (the right
    half of an upper M, the left half of a lower one) is one GEMM; the rest
    of M is a triangle of half the width, split the same way until it is at
    most ``_TRI_BASE`` wide and one plain product finishes it. A w-wide
    triangle then costs about (4/3) r w^2 flops for r rows of X, not 2 r w^2.
    """
    lo, hi = 0, M.shape[0]
    while hi - lo > _TRI_BASE:
        mid = (lo + hi) // 2
        if upper:
            np.matmul(X[:, :hi], M[:hi, mid:hi], out=out[:, mid:hi])
            hi = mid
        else:
            np.matmul(X[:, lo:], M[lo:, lo:mid], out=out[:, lo:mid])
            lo = mid
    np.matmul(X[:, lo:hi], M[lo:hi, lo:hi], out=out[:, lo:hi])
    return out


def _failing_minor(A: np.ndarray) -> int:
    """Order of the smallest leading minor of A that Cholesky rejects.

    This is LAPACK's ``info`` for a matrix that np.linalg.cholesky has
    already rejected whole, which numpy does not report.
    """
    n = A.shape[0]
    for k in range(1, n):
        try:
            np.linalg.cholesky(A[:k, :k])
        except np.linalg.LinAlgError:
            return k
    return n


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
