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
* H is held in the factor's layout: 512-row bands of its upper triangle
  (``HessianState``), about half of a dense H. Only each band's diagonal
  block holds lower-triangle entries, mirrored from its upper triangle
  64 rows at a time when the band is built, so it is exactly symmetric.
  The engines read H without copying it: the factor copies each band
  into U's band in its place, and the proxy loss reads the bands' rows,
  H[>J, J] as a transposed view. A dense H is built only when
  ``HessianState.matrix`` is read, a new d x d array each time.
* A state's bands are written only while they are built: ``accumulate``
  keeps each new sum in new bands, so a damped state shares bands that
  no later ``accumulate`` changes.
* Damping is recorded, not applied: a damped state shares the undamped
  bands and the factorization adds the damping to each diagonal entry as
  it reads it, so an engine run holds H and the factor and no damped copy.
  A damped state is final: ``accumulate`` and ``dampen`` refuse it, so a
  damping never compounds.
* The factor is upper-triangular: H + damping * I = U U^T with U upper
  triangular and a strictly positive diagonal, so its inverse T = U^(-1)
  is upper triangular too and T^T T = (H + damping * I)^(-1). The
  transpose convention matters: trailing principal submatrices of T then
  encode the inverses of trailing principal submatrices of the damped H
  (see ``recover_inverse_submatrix``), and U's trailing blocks factor H's,
  so ``inverse_cholesky`` builds U trailing block first by recursive
  halving, in numpy GEMMs and triangular solves, at about d^3 / 3 flops.
  U is held as row bands of its upper triangle, 512 rows each, built in
  place, so neither the factor nor its construction makes a d x d array.
  T and a dense U are formed only when read (``InvCholFactor.matrix`` and
  ``upper``); the engines need U's rows and T's diagonal blocks, each the
  inverse of U's block in its place.
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
    """Accumulated input covariance H for one layer, held in the factor's
    layout.

    H is kept as row bands of its upper triangle: band k is H[k B : k B +
    B, k B:] for B = ``_BAND``, the last band ragged, as ``InvCholFactor``
    keeps U. A state so stores about d^2 / 2 + (B / 2) d entries instead
    of d^2, and each band's diagonal block in full and exactly symmetric.
    The rest of the lower triangle is not stored: the factor reads only
    H's upper rows, and ``report.proxy_loss`` reads H[>J, J] as the
    transpose of H[J, >J] (``band_view``).

    Mutable only through :meth:`accumulate` (single writer), which swaps
    in new bands, so no array the state has handed out changes.
    :meth:`dampen` returns a new state and leaves the original untouched,
    so the undamped covariance stays available for loss reporting. A
    damped state is final: it can be neither accumulated into nor damped
    again.
    """

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        self._dim = dim
        self._bands = [np.zeros((min(_BAND, dim - a), dim - a)) for a in range(0, dim, _BAND)]
        self.n_samples = 0
        self.damped = False
        # added to H's diagonal wherever H is read, never written into the bands
        self.damping = 0.0

    @classmethod
    def _wrap(cls, dim: int, bands: list[np.ndarray], n_samples: int, damping=None) -> "HessianState":
        """A state over ``bands``; damped with ``damping`` unless it is None."""
        out = cls.__new__(cls)
        out._dim = dim
        out._bands = bands
        out.n_samples = n_samples
        out.damped = damping is not None
        out.damping = 0.0 if damping is None else damping
        return out

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def matrix(self) -> np.ndarray:
        """Dense symmetric H, plus damping * I for a damped state, as a new
        read-only d x d array built from the bands on each read.

        No engine run reads it: the factor and the proxy loss read the
        bands. In the library only calibrate's save of H, the dense oracle
        and the verification checks do.
        """
        d = self._dim
        out = np.empty((d, d))
        for a, band in zip(range(0, d, _BAND), self._bands):
            b = a + len(band)
            out[a:b, a:] = band
            out[b:, a:b] = band[:, b - a :].T
        if self.damping:
            out[np.diag_indices(d)] += self.damping
        out.flags.writeable = False
        return out

    def band_view(self, start: int, stop: int, cstart: int) -> np.ndarray:
        """H[start:stop, cstart:] of the undamped H as a read-only view of
        the band that holds the rows, which lie in one band; ``cstart`` is
        at or past the first of them."""
        out = _view(self._bands, start, stop, cstart, self._dim)
        out.flags.writeable = False
        return out

    def mean_diagonal(self) -> float:
        if self._dim == 0:
            return 0.0
        diag = np.concatenate([np.diagonal(band) for band in self._bands])
        if self.damping:
            diag += self.damping
        return float(diag.mean())

    def accumulate(self, X: np.ndarray) -> "HessianState":
        """Add X X^T for a (dim x n_tokens) activation block; returns self.

        Refused after damping: the damped matrix is a derived artifact, not
        a running sum. Non-finite activations raise NumericalError, and so
        does a sum that overflows, leaving the state as it was. Each
        band gets the product of its rows of X with X's rows from the
        band's first on, written into a new band: a symmetric product
        X_k X_k^T on its diagonal block and one product for the rest, n d^2
        flops in all. The old band is added into it, so states damped from
        this one keep their bands, and the memory is that of an in-place
        add.
        """
        if self.damped:
            raise NumericalError("cannot accumulate into a damped Hessian")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self._dim:
            raise NumericalError(
                f"activation block must be ({self._dim} x n_tokens), got {X.shape}"
            )
        if not _all_finite(X):
            raise NumericalError("activation block contains non-finite values")
        bands = []
        for a, band in zip(range(0, self._dim, _BAND), self._bands):
            m = len(band)
            Xk = X[a : a + m]
            update = np.empty_like(band)
            np.matmul(Xk, Xk.T, out=update[:, :m])
            np.matmul(Xk, X[a + m :].T, out=update[:, m:])
            _symmetrize(update)
            update += band
            if not _all_finite(update):
                raise NumericalError("accumulated Hessian overflows to non-finite values")
            bands.append(update)
        self._bands = bands
        self.n_samples += X.shape[1]
        return self

    def dampen(self, ratio: float) -> "HessianState":
        """Return a damped state: H + lam * I with lam = ratio * mean(diag(H)).

        Nothing is copied. The new state shares this state's bands and
        records lam as ``damping``; ``inverse_cholesky`` adds lam to the
        diagonal as it factors, and ``matrix`` adds it only when read. This
        state stays undamped, and a later :meth:`accumulate` on it leaves the
        damped state as it was. A damped state is refused: its damping is
        final, as for :meth:`accumulate`. A negative or non-finite ratio
        raises ValueError, and a lam that overflows NumericalError.
        """
        if not 0 <= ratio < float("inf"):
            raise ValueError(f"damping ratio must be finite and non-negative, got {ratio}")
        if self.damped:
            raise NumericalError("cannot dampen a damped Hessian")
        if self.n_samples <= 0:
            raise NumericalError("cannot dampen before any samples are accumulated")
        lam = ratio * self.mean_diagonal()
        if not np.isfinite(lam):
            raise NumericalError(f"damping {ratio} x mean(diag(H)) is not finite: {lam}")
        if ratio > 0 and lam == 0.0 and self._dim > 0:
            warnings.warn(
                "Hessian diagonal is all zero; damping has no effect and the "
                "matrix may be singular",
                RuntimeWarning,
                stacklevel=2,
            )
        return self._wrap(self._dim, self._bands, self.n_samples, damping=lam)

    @classmethod
    def from_matrix(cls, H: np.ndarray, n_samples: int) -> "HessianState":
        """Wrap a precomputed symmetric matrix (upper triangle is trusted) as
        an undamped state.

        H's upper rows are copied into new bands, one band at a time, and
        each band's diagonal block is made symmetric from its upper
        triangle. Raises NumericalError if any entry of H, in either
        triangle, is not finite.
        """
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise NumericalError(f"Hessian must be square, got {H.shape}")
        if not _all_finite(H):
            raise NumericalError("Hessian contains non-finite values")
        d = H.shape[0]
        bands = [_symmetrize(H[a : a + _BAND, a:].copy()) for a in range(0, d, _BAND)]
        return cls._wrap(d, bands, int(n_samples))

    @classmethod
    def from_rows(cls, dim: int, n_samples: int, rows) -> "HessianState":
        """An undamped state from a dim x dim H read one band of rows at a
        time, as from a file: ``rows(start, stop)`` returns H[start:stop] as
        a new array, which the state may keep. Rows of another kind, such as
        an integer file's, are widened to float64; float64 rows are kept as
        read, with no copy.

        Every entry read is checked as ``from_matrix`` checks H, and each
        band keeps its rows from its diagonal on. The bands are read last
        first, so the first band is kept as read, and the state holds at
        most its bands and one band's rows: below d^2 entries.
        """
        bands = []
        for a in reversed(range(0, dim, _BAND)):
            block = np.asarray(rows(a, min(a + _BAND, dim)), dtype=np.float64)
            if not _all_finite(block):
                raise NumericalError("Hessian contains non-finite values")
            bands.append(_symmetrize(block[:, a:].copy() if a else block))
            del block  # not held while the next band's rows are read
        return cls._wrap(dim, bands[::-1], int(n_samples))


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, with no bool array the size
    of ``a``: min propagates a NaN, and an infinity is an extreme."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _symmetrize(band: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle of ``band``'s leading square block with
    its upper triangle, transposed; returns ``band``.

    Runs ``_BASE_DIM`` rows at a time, so the only temporaries are the
    index arrays of one such block's triangle.
    """
    n = len(band)
    for a in range(0, n, _BASE_DIM):
        e = min(a + _BASE_DIM, n)
        diag = band[a:e, a:e]
        upper = np.triu_indices(e - a, 1)
        diag.T[upper] = diag[upper]
        band[e:n, a:e] = band[a:e, e:n].T
    return band


# rows per band of H and of its factor (see HessianState, InvCholFactor);
# the blocked driver's super-block is one band wide, so its rows lie in one
# band, and so do those of each of proxy_loss's column blocks
_BAND = 512
# widest diagonal block that LAPACK factors and inverts; every other block
# of at most one band starts and ends on a multiple of it
_BASE_DIM = 64


def _band_pieces(start: int, stop: int):
    """The rows start .. stop - 1 cut at band edges, as (a, b) pairs."""
    while start < stop:
        edge = min(start // _BAND * _BAND + _BAND, stop)
        yield start, edge
        start = edge


def _view(bands: list[np.ndarray], start: int, stop: int, cstart: int, cstop: int) -> np.ndarray:
    """U[start:stop, cstart:cstop] as a view of the band that holds rows
    start .. stop - 1; the columns start at or past that band's first row."""
    k = start // _BAND
    o = k * _BAND
    return bands[k][start - o : stop - o, cstart - o : cstop - o]


class InvCholFactor:
    """The factor of a damped Hessian: H + damping * I = U U^T with U upper
    triangular and a positive diagonal, and its inverse T = U^(-1), for
    which T^T T = (H + damping * I)^(-1).

    U is held as row bands of ``_BAND`` rows: band k is U[k B : k B + B,
    k B:] for B = ``_BAND``, the last band ragged, so the factor stores
    about d^2 / 2 + (B / 2) d entries, and of U's zero lower triangle only
    the parts inside the bands' diagonal blocks. ``times_upper``
    multiplies by any block of U's rows. ``upper`` is U as one dense d x d
    array and ``matrix`` is T (about 2 d^3 / 3 flops), each built on its
    first read and kept; the blocked engines read neither, only the
    reference steps, the oracle tests and the verification checks do.
    ``diagonal_block`` gives any diagonal block of T without forming the
    rest, and ``matrix`` is built from it.
    """

    def __init__(self, dim: int, bands: list[np.ndarray], bases: np.ndarray):
        """U's bands, and in ``bases`` row r the row of T's diagonal block of
        at most ``_BASE_DIM`` columns that holds column r: T[r, k:k + w] for
        the block [k, k + w). Only ``inverse_cholesky`` builds a factor."""
        self.dim = dim
        self._bands = bands
        self._bases = bases

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.diagonal_block(0, self.dim)

    @cached_property
    def upper(self) -> np.ndarray:
        """U as one dense d x d array, its bands copied in."""
        U = np.zeros((self.dim, self.dim))
        for k, band in zip(range(0, self.dim, _BAND), self._bands):
            U[k : k + len(band), k:] = band
        return U

    def times_upper(
        self, A: np.ndarray, rows: slice, cols: slice, out: np.ndarray | None = None
    ) -> np.ndarray:
        """A @ U[rows, cols], for columns at or past the rows' first, written
        into ``out`` when it is given. The rows are not empty. Rows within
        one band take one product; rows that cross a band edge take one per
        band, each later one added to the first."""
        result = None
        for a, b in _band_pieces(rows.start, rows.stop):
            part = A[:, a - rows.start : b - rows.start]
            U = _view(self._bands, a, b, cols.start, cols.stop)
            if result is None:
                result = np.matmul(part, U, out=out)
            else:
                result += part @ U
        return result

    def diagonal_block(self, start: int, stop: int) -> np.ndarray:
        """T[start:stop, start:stop] as a new array, upper triangular.

        A diagonal block of T is the inverse of U's block at the same place,
        since U is triangular. A block within one of the factor's base
        blocks is read from it; a wider one is split where the factor
        splits (``_split``) and joined as [[T1, -T1 U12 T2], [0, T2]], two
        products per split.
        """
        out = np.empty((stop - start, stop - start))
        self._inverse_into(start, stop, out)
        return out

    def _inverse_into(self, start: int, stop: int, out: np.ndarray) -> None:
        """Write T[start:stop, start:stop] into ``out``."""
        k = start // _BASE_DIM * _BASE_DIM
        if stop <= k + _BASE_DIM:
            out[...] = self._bases[start:stop, start - k : stop - k]
            return
        s = _split(start, stop)
        a = s - start
        self._inverse_into(start, s, out[:a, :a])
        self._inverse_into(s, stop, out[a:, a:])
        out[a:, :a] = 0.0
        T1U12 = self.times_upper(out[:a, :a], slice(start, s), slice(s, stop))
        np.matmul(T1U12, out[a:, a:], out=out[:a, a:])
        np.negative(out[:a, a:], out=out[:a, a:])


def _split(start: int, stop: int) -> int:
    """Where [start, stop) is split: for more than ``_BAND`` columns the
    last band edge strictly inside (start, stop) at or before its middle,
    or the first one past it if there is none; for fewer, the same for a
    multiple of ``_BASE_DIM``. Only called when there is one."""
    unit = _BAND if stop - start > _BAND else _BASE_DIM
    lo, hi = start // unit + 1, (stop - 1) // unit
    return min(max((start + stop) // (2 * unit), lo), hi) * unit


def inverse_cholesky(state: HessianState) -> InvCholFactor:
    """Factor a damped Hessian as H + damping * I = U U^T, U upper triangular.

    Works without forming the dense inverse, the damped matrix or any d x d
    array. Each of H's bands (``HessianState``) is copied into U's band in
    its place (``InvCholFactor``), with the damping added to the diagonal
    as it is copied, so each diagonal entry is (H_ii + damping) before
    anything is subtracted from it, as in a damped copy of H, and the
    bands are factored in place. [start, stop) is split at
    ``_split`` into [[H11, H12], [H21, H22]] and U is built trailing block
    first:

        U22 = factor(H22)
        U12 = H12 @ U22^(-T)              (a triangular solve)
        U11 = factor(H11 - U12 @ U12^T)   (the Schur complement of H22)

    Above one band the split is at a band edge: U12 is solved one band of
    rows at a time where H12 lies in the bands, and the Schur complement is
    subtracted from H11's bands one pair of bands at a time, a symmetric
    product for each band's diagonal block. Within a band the split is at a
    multiple of ``_BASE_DIM``, the Schur complement is subtracted from the
    band's square in one symmetric product, and the band's lower-left block
    there, which is zero in the finished factor, is cleared. So the factor
    costs about d^3 / 3 flops and, besides H and U's bands, holds T's base
    blocks (d x ``_BASE_DIM``) and temporaries of at most a band's rows.
    The solve splits U22 the same way: its trailing columns first, one
    product per band for their part of the leading ones, then the leading
    columns. Blocks of at most ``_BASE_DIM`` columns, which start on its
    multiples, are Cholesky-factored in reversed order, which lands exactly
    on the block's upper U; the inverse of their lower factor, reversed, is
    T's diagonal block there, and the solve applies it as one product.
    Every other flop is a numpy GEMM, so the factor runs on numpy's own BLAS
    thread pool; the library links no second BLAS runtime whose
    busy-waiting workers would compete with it for the CPUs.

    Raises FactorizationError naming the offending pivot if the damped
    matrix is not positive definite: the largest q for which H[q:, q:] is
    not. A block that breaks down is a Schur complement over an already
    positive definite trailing part, so its trailing blocks stand one to
    one for those of H.
    """
    if not state.damped:
        raise NumericalError("inverse_cholesky requires a damped Hessian")
    d = state.dim
    bands = []
    for band in state._bands:
        band = band.copy()
        if state.damping:
            band[np.diag_indices(len(band))] += state.damping
        bands.append(band)
    bases = np.empty((d, min(_BASE_DIM, d)))
    if d:
        _factor_into(bands, bases, 0, d)
    return InvCholFactor(d, bands, bases)


def _factor_into(bands: list[np.ndarray], bases: np.ndarray, start: int, stop: int) -> None:
    """Overwrite U[start:stop, start:stop] in ``bands`` with its upper
    factor, and write its base blocks' inverses into ``bases``.

    On entry the block holds H + damping * I there less the Schur terms of
    every later block, the parts inside a band's diagonal block in full
    (symmetric). The trailing block is factored first, so the first
    breakdown found is the largest such q, named in the full matrix's
    column order.
    """
    n = stop - start
    if n <= _BASE_DIM:
        A = _view(bands, start, stop, start, stop)
        rev = A[::-1, ::-1]
        try:
            low = np.linalg.cholesky(rev)
        except np.linalg.LinAlgError:
            # leading minor k of the reversed block is the trailing block
            # that starts at its column n - k
            pivot = start + n - _failing_minor(rev)
            raise FactorizationError(
                f"Cholesky breakdown: pivot at column {pivot} is not positive "
                "(matrix not positive definite)",
                pivot=pivot,
            ) from None
        A[...] = low[::-1, ::-1]
        bases[start:stop, :n] = np.triu(np.linalg.inv(low)[::-1, ::-1])
        return
    s = _split(start, stop)
    _factor_into(bands, bases, s, stop)
    pieces = list(_band_pieces(start, s))
    for a, b in pieces:
        _solve_into(_view(bands, a, b, s, stop), bands, bases, s, stop)
    for x, (a, b) in enumerate(pieces):
        U12 = _view(bands, a, b, s, stop)
        for a2, b2 in pieces[x:]:
            _view(bands, a, b, a2, b2)[...] -= U12 @ _view(bands, a2, b2, s, stop).T
    if n <= _BAND:
        # within a band the lower-left block is stored, and zero in U
        _view(bands, s, stop, start, s)[...] = 0.0
    _factor_into(bands, bases, start, s)


def _solve_into(
    X: np.ndarray, bands: list[np.ndarray], bases: np.ndarray, start: int, stop: int
) -> None:
    """Overwrite ``X`` with X @ U22^(-T) for U22 = U[start:stop,
    start:stop], already factored in ``bands``, with ``start`` a multiple
    of ``_BASE_DIM``: about r n^2 flops for r rows and n columns, half a
    dense product's."""
    n = stop - start
    if n <= _BASE_DIM:
        X[...] = X @ bases[start:stop, :n].T
        return
    k = _split(start, stop)
    _solve_into(X[:, k - start :], bands, bases, k, stop)
    for a, b in _band_pieces(start, k):
        X[:, a - start : b - start] -= X[:, k - start :] @ _view(bands, a, b, k, stop).T
    _solve_into(X[:, : k - start], bands, bases, start, k)


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
