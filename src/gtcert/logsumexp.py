"""Log-sum-exp, softmax, and the curvature structure of log-sum-exp.

The Hessian of f(x) = log sum_k exp(x_k) at a point with softmax weights p is

    H[i][j] = -p_i p_j   (i != j),      H[i][i] = p_i (1 - p_i),

which is diag(p) - p p^T, a weighted Laplacian of the complete graph with edge
weights p_i p_j: positive semidefinite, and of nullspace dimension exactly 1
(spanned by the all-ones vector) whenever every weight is positive.

`dkd_product` builds the superficially similar product D K D with D = diag(p)
and K the unweighted complete-graph Laplacian.  Its off-diagonal agrees with
the Hessian, but its diagonal is (n-1) p_i^2 instead of p_i (1 - p_i); the two
coincide only when the weights are uniform.  The CLI command `erratum-dkd`
demonstrates the discrepancy on request.

The Hessians and Laplacians are float64 `HermitianMatrix` values, and vectors
enter by the constructors' numbers-only rule (`checks.as_numbers`), reals only.

Everything is evaluated in max-shifted form, so no intermediate exponential
overflows for any finite input.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .checks import as_numbers, is_real, require_finite_rows, require_positive_int, require_tol
from .hermitian import HermitianMatrix, stacked_spectrum

SUM_TOL = 1e-14  # softmax weights must sum to 1 this tightly


def _as_vector(x) -> np.ndarray:
    arr = as_numbers(x, "vector", complex_ok=False)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {arr.shape}")
    require_finite_rows(arr[None], "vector")
    return arr


@dataclass(frozen=True)
class SoftmaxWeights:
    """Strictly positive weights summing to 1 within 1e-14."""

    p: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.p)
        if not np.all(arr > 0):
            raise ValueError(
                "softmax weights must be strictly positive; an input spread "
                "beyond about 745 log-units underflows double precision"
            )
        if abs(float(arr.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {arr.sum()!r}, not 1 within {SUM_TOL}")
        arr.setflags(write=False)  # a new array: _as_vector copies
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of a positive-semidefiniteness check at a given tolerance."""

    min_eigenvalue: float
    nullspace_dim: int
    tol: float
    passed: bool


def _max_shifted(x: np.ndarray) -> tuple:
    """(m, x - m) with m the maximum along the last axis, kept as an axis of length 1.

    A finite row whose spread exceeds the float range gives -inf in x - m,
    whose exp is the intended 0, so numpy's overflow warning is silenced.
    """
    m = x.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        return m, x - m


def lse_rows(x: np.ndarray) -> np.ndarray:
    """lse along the last axis of a finite array, max-shifted row by row.

    The one implementation behind `lse` and every stacked check, so a
    campaign and a replayed single check compute the same bits.
    """
    m, w = _max_shifted(x)
    np.exp(w, out=w)  # in place: one temporary the size of x, not two
    return m[..., 0] + np.log(w.sum(axis=-1))


def lse(x) -> float:
    """log sum_k exp(x_k), evaluated as m + log sum exp(x - m) with m = max x.

    Exact for n = 1; never overflows for finite input.  Satisfies
    max(x) <= lse(x) <= max(x) + log n.
    """
    return float(lse_rows(_as_vector(x)[None])[0])


def softmax(x) -> SoftmaxWeights:
    """Gradient of lse: p_i = exp(x_i - lse(x)), normalized to sum exactly near 1."""
    w = np.exp(_max_shifted(_as_vector(x))[1])
    return SoftmaxWeights(w / w.sum())


def hessian_rows(x: np.ndarray) -> np.ndarray:
    """Analytic lse Hessians of the rows of a finite (T, n) array, as a (T, n, n) stack.

    With w = exp(x - max x) and S = sum w: off-diagonal -w_i w_j / S^2 and
    diagonal w_i (S - w_i) / S^2.
    """
    w = np.exp(_max_shifted(x)[1])
    s = w.sum(axis=-1)[:, None]
    h = -(w[:, :, None] * w[:, None, :]) / (s * s)[:, :, None]
    i = np.arange(x.shape[-1])
    h[:, i, i] = w * (s - w) / (s * s)
    return h


def lse_hessian_analytic(x) -> HermitianMatrix:
    """Hessian of lse at x, in max-shifted form (see `hessian_rows`).

    For n = 1 this is the 1 x 1 zero matrix.
    """
    return HermitianMatrix(hessian_rows(_as_vector(x)[None])[0])


# perturbation signs of the four stencil points (s_i, s_j), in formula order
_STENCIL_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def hessian_fd_rows(x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Finite-difference lse Hessians of the rows of a finite (T, n) array, as a (T, n, n) stack.

    The stencil of `hessian_fd` for every row at once: all 4 n(n+1)/2 points
    of each row, as C-contiguous rows along the last axis, go through one
    `lse_rows` call.
    """
    x = _max_shifted(x)[1]
    t, n = x.shape
    i, j = np.triu_indices(n)
    pair = np.arange(i.shape[0])
    points = np.tile(x[:, None, None, :], (1, 4, pair.shape[0], 1))
    points[:, :, pair, i] += h * _STENCIL_SIGNS[:, :1]
    points[:, :, pair, j] += h * _STENCIL_SIGNS[:, 1:]
    f = lse_rows(points)
    out = np.empty((t, n, n))
    out[:, i, j] = out[:, j, i] = (f[:, 0] - f[:, 1] - f[:, 2] + f[:, 3]) / (4.0 * h * h)
    return out


# c of the rounding term below: over gue and diag draws at n in {2, 4, ..., 64}
# and scale in {1e-300, 1, 10, 1e3} (2000 trials per config up to n = 16, 200
# above), the deviation reached 1.43 u max(1, log n) / h^2, and at most 3.3e-8
_FD_ROUNDING = 4.0


def _hessian_fd_bound(n: int, h: float = 1e-4) -> float:
    """A bound on max |hessian_fd_rows(x, h) - hessian_rows(x)| over a row x of length n.

    h^2 covers the stencil's truncation error, which is at most h^2 / 6
    because every fourth partial derivative of lse is at most 1/4 in
    magnitude.  The rest is rounding: after the max shift each of the four
    lse values of an entry is at most log n + 2h in magnitude, so each is off
    by a few u max(1, log n), u = 2^-53, and the entry divides them by 4 h^2.
    At h = 1e-4 the bound is 1.33e-7 at n = 16 and below 1e-6 up to n = 10^9.
    """
    return h * h + _FD_ROUNDING * 2.0**-53 * max(1.0, math.log(n)) / (h * h)


def hessian_fd(x, h: float = 1e-4) -> HermitianMatrix:
    """Central finite-difference Hessian of lse, independent of the analytic form.

    Entry (i, j) is
        [f(x+h e_i+h e_j) - f(x+h e_i-h e_j) - f(x-h e_i+h e_j) + f(x-h e_i-h e_j)] / (4 h^2).
    The stencil is evaluated at x - max(x): the Hessian does not change along
    the all-ones vector, and the rounding error of each entry grows with
    |lse|/h^2, which the shift keeps below (log n)/h^2.  All 4 n(n+1)/2 points
    are built as one array, each as (x + s_i h e_i) + s_j h e_j, and evaluated
    by one row-wise lse (`hessian_fd_rows` on a batch of one).  Serves as the
    numerical oracle for `lse_hessian_analytic`: at the default step the two
    agree within h^2 + 4 u max(1, log n) / h^2 (u = 2^-53; 1.33e-7 at n = 16),
    the bound that `HESSIAN_FD_MATCH` campaigns check.  The step must make
    the divisor 4 h^2 a finite normal float.
    """
    arr = _as_vector(x)
    step = float(h) if is_real(h) else math.nan
    if not (step > 0 and sys.float_info.min <= 4.0 * step * step < math.inf):
        raise ValueError(f"step h must be a real > 0 with 4 h^2 a finite normal float, got {h!r}")
    return HermitianMatrix(hessian_fd_rows(arr[None], step)[0])


def complete_graph_laplacian(n: int) -> HermitianMatrix:
    """Laplacian of the complete graph on n vertices: n I - J.

    Diagonal n-1, off-diagonal -1; eigenvalue 0 once and n with multiplicity
    n-1.  Entries are exact small integers.
    """
    require_positive_int(n, "n")
    k = -np.ones((n, n))
    np.fill_diagonal(k, float(n - 1))
    return HermitianMatrix(k)


def dkd_product(x) -> HermitianMatrix:
    """D K D with D = diag(softmax(x)) and K the complete-graph Laplacian.

    Off-diagonal -p_i p_j matches the lse Hessian; the diagonal (n-1) p_i^2
    does not (the Hessian has p_i (1 - p_i)) unless the weights are uniform.
    """
    p = softmax(x).p
    k = complete_graph_laplacian(p.shape[0]).entries
    return HermitianMatrix(p[:, None] * k * p[None, :])


def psd_certify(m: HermitianMatrix, tol: float | None = None) -> PsdCertificate:
    """Certify that a HermitianMatrix is positive semidefinite by its spectrum.

    Passes iff the minimum eigenvalue is >= -tol; nullspace_dim counts
    eigenvalues with |w| <= tol.  Default tol is 1e-10 * max(1, max |entry|).
    """
    w = stacked_spectrum(m.entries[None])[0]
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.max(np.abs(m.entries))))
    require_tol(tol)
    w_min = float(w[0])
    return PsdCertificate(
        min_eigenvalue=w_min,
        nullspace_dim=int(np.count_nonzero(np.abs(w) <= tol)),
        tol=float(tol),
        passed=w_min >= -tol,
    )
