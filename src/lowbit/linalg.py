"""Dense symmetric linear algebra for calibration Hessians.

Covers accumulation of the input covariance H = X X^T, diagonal damping,
the upper-triangular Cholesky factor of the damped H, and the two routes
to trailing-submatrix inverses that the compensation engines and their
oracle tests rely on.

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
  it reads it, so an engine run holds H and the factor and no damped copy.
* The factor is upper-triangular: H + damping * I = U U^T with U upper
  triangular and a strictly positive diagonal, so its inverse T = U^(-1)
  is upper triangular too and T^T T = (H + damping * I)^(-1). The
  transpose convention matters: trailing principal submatrices of T then
  encode the inverses of trailing principal submatrices of the damped H
  (see ``recover_inverse_submatrix``), and U's trailing blocks factor H's,
  so ``inverse_cholesky`` builds U trailing block first by recursive
  halving, in numpy GEMMs and triangular solves, at about d^3 / 3 flops.
  T is formed only when read (``InvCholFactor.matrix``); the engines need
  U and T's diagonal blocks, each the inverse of U's block in its place.
* Only numpy is called. A second library with its own bundled BLAS (such
  as scipy's) would start a second thread pool whose busy-waiting workers
  compete with numpy's for the same CPUs and slow both.
"""

from __future__ import annotations

import warnings
from functools import cached_property

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


class InvCholFactor:
    """The factor of a damped Hessian: H + damping * I = U U^T with U upper
    triangular and a positive diagonal, and its inverse T = U^(-1), for
    which T^T T = (H + damping * I)^(-1).

    ``upper`` is U. ``matrix`` is T, built on its first read (about
    2 d^3 / 3 flops) and kept; the blocked engines never read it, only the
    reference steps, the oracle tests and the verification checks do.
    ``diagonal_block`` gives any diagonal block of T without forming the
    rest. ``InvCholFactor(T)`` wraps a given T, with no U, for the routes
    that read only T: the reference steps and ``recover_inverse_submatrix``.
    """

    def __init__(self, matrix: np.ndarray):
        self.dim = matrix.shape[0]
        self.matrix = matrix

    @classmethod
    def _from_upper(cls, upper: np.ndarray, bases: np.ndarray) -> "InvCholFactor":
        """U, and in ``bases`` row r the row of T's diagonal block of at most
        ``_BASE_DIM`` columns that holds column r: T[r, k:k + w] for the
        block [k, k + w)."""
        out = cls.__new__(cls)
        out.dim = upper.shape[0]
        out.upper = upper
        out._bases = bases
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.diagonal_block(0, self.dim)

    def diagonal_block(self, start: int, stop: int) -> np.ndarray:
        """T[start:stop, start:stop] as a new array, upper triangular.

        A diagonal block of T is the inverse of U's block at the same place,
        since U is triangular. A block within one of the factor's base
        blocks is read from it; a wider one is split at a base block's edge
        and joined as [[T1, -T1 U12 T2], [0, T2]], two products per split.
        """
        if "matrix" in self.__dict__:
            return self.matrix[start:stop, start:stop].copy()
        out = np.empty((stop - start, stop - start))
        _inverse_into(self.upper, self._bases, start, stop, out)
        return out


# widest diagonal block that LAPACK factors and inverts; every other block
# starts and ends on a multiple of it
_BASE_DIM = 64


def _split(start: int, stop: int) -> int:
    """The last multiple of ``_BASE_DIM`` strictly inside (start, stop) at
    or before its middle, or the first one past it if there is none; only
    called when there is one."""
    lo, hi = start // _BASE_DIM + 1, (stop - 1) // _BASE_DIM
    return min(max((start + stop) // (2 * _BASE_DIM), lo), hi) * _BASE_DIM


def _inverse_into(U: np.ndarray, bases: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
    """Write T[start:stop, start:stop], the inverse of U[start:stop,
    start:stop], into ``out``."""
    k = start // _BASE_DIM * _BASE_DIM
    if stop <= k + _BASE_DIM:
        out[...] = bases[start:stop, start - k : stop - k]
        return
    s = _split(start, stop)
    a = s - start
    _inverse_into(U, bases, start, s, out[:a, :a])
    _inverse_into(U, bases, s, stop, out[a:, a:])
    out[a:, :a] = 0.0
    np.matmul(out[:a, :a] @ U[start:s, s:stop], out[a:, a:], out=out[:a, a:])
    np.negative(out[:a, a:], out=out[:a, a:])


def inverse_cholesky(state: HessianState) -> InvCholFactor:
    """Factor a damped Hessian as H + damping * I = U U^T, U upper triangular.

    Works without forming the dense inverse or the damped matrix: the
    damping is added to diagonal entries as the factorization reads them.
    H is split at a multiple of ``_BASE_DIM`` at or before its middle
    (``_split``) into [[H11, H12], [H21, H22]], and U is built trailing
    block first:

        U22 = factor(H22)
        U12 = H12 @ U22^(-T)              (a triangular solve)
        U11 = factor(H11 - U12 @ U12^T)   (the Schur complement of H22)

    H12 is copied into U12's own storage and solved there, and the Schur
    complement is one symmetric BLAS product written into U's lower-left
    block, which is zero in the finished factor and is cleared once the
    leading block is factored. So the factor costs about d^3 / 3 flops and,
    besides H and U, holds T's base blocks (d x ``_BASE_DIM``) and the
    solve's products, at most (d/2) x (d/4). The solve splits U22 the same
    way: its trailing columns first, one GEMM for their part of the leading
    ones, then the leading columns. Blocks of at most ``_BASE_DIM`` columns,
    which start on its multiples, are Cholesky-factored in reversed order,
    which lands exactly on the block's upper U; the inverse of their lower
    factor, reversed, is T's diagonal block there, and the solve applies it
    as one product. Every other flop is a numpy GEMM, so the factor runs on
    numpy's own BLAS thread pool; the library links no second BLAS runtime
    whose busy-waiting workers would compete with it for the CPUs.

    Raises FactorizationError naming the offending pivot if the damped
    matrix is not positive definite: the largest q for which H[q:, q:] is
    not. A block that breaks down is a Schur complement over an already
    positive definite trailing part, so its trailing blocks stand one to
    one for those of H.
    """
    if not state.damped:
        raise NumericalError("inverse_cholesky requires a damped Hessian")
    U = np.zeros((state.dim, state.dim), dtype=np.float64)
    bases = np.empty((state.dim, min(_BASE_DIM, state.dim)))
    _factor_into(state._h, state.damping, U, bases, 0)
    return InvCholFactor._from_upper(U, bases)


def _factor_into(
    H: np.ndarray, shift: float, U: np.ndarray, bases: np.ndarray, offset: int
) -> None:
    """Write the upper factor of ``H + shift * I`` into the zeroed view
    ``U``, and its base blocks' inverses into ``bases``; ``H`` is only read.

    ``offset`` is the column of H[0, 0] in the full matrix, so a breakdown
    names its pivot in the original column order and the blocks split at
    the full matrix's multiples of ``_BASE_DIM``. The trailing block is
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
        U[...] = low[::-1, ::-1]
        bases[offset : offset + n, :n] = np.triu(np.linalg.inv(low)[::-1, ::-1])
        return
    m = _split(offset, offset + n) - offset
    U22, U12 = U[m:, m:], U[:m, m:]
    _factor_into(H[m:, m:], shift, U22, bases, offset + m)
    U12[...] = H[:m, m:]
    _solve_into(U12, U22, bases, offset + m)
    # the Schur complement is built in U's zero lower-left block when it fits
    spare = U[m : 2 * m, :m] if 2 * m <= n else np.empty((m, m))
    schur = np.matmul(U12, U12.T, out=spare)
    diag = np.diagonal(H[:m, :m]) + shift
    diag -= np.diagonal(schur)
    np.subtract(H[:m, :m], schur, out=schur)
    schur[np.diag_indices(m)] = diag
    _factor_into(schur, 0.0, U[:m, :m], bases, offset)
    schur[...] = 0.0


def _solve_into(X: np.ndarray, U: np.ndarray, bases: np.ndarray, offset: int) -> None:
    """Overwrite ``X`` with X @ U^(-T) for the upper triangular ``U`` whose
    [0, 0] is column ``offset`` of the factor, a multiple of ``_BASE_DIM``,
    and whose base blocks' inverses are in ``bases``: about r n^2 flops for
    r rows and n columns, half a dense product's."""
    n = U.shape[0]
    if n <= _BASE_DIM:
        X[...] = X @ bases[offset : offset + n, :n].T
        return
    k = _split(offset, offset + n) - offset
    _solve_into(X[:, k:], U[k:, k:], bases, offset + k)
    X[:, :k] -= X[:, k:] @ U[:k, k:].T
    _solve_into(X[:, :k], U[:k, :k], bases, offset)


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
