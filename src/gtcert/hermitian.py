"""Hermitian matrices, random ensembles, and eigendecomposition-based transforms.

All matrix functions go through the eigendecomposition: for Hermitian A with
A = V diag(w) V*, a scalar function g is applied as V diag(g(w)) V*.  Nothing
here evaluates a matrix power series.

Every sampling routine is a pure function of its seed.  The underlying bit
generator is numpy's PCG64; `GENERATOR_ID` names it in campaign reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    HermiticityViolation,
    NonFiniteInput,
    NotSquareError,
    OverflowRisk,
    UnitarityViolation,
    at_row,
    require_rows,
)

GENERATOR_ID = "numpy-pcg64"

# exp(x) overflows double precision just above x = 709; the guard trips earlier
EXP_OVERFLOW_LIMIT = 700.0

_UNITARY_TOL = 1e-10
_ENSEMBLE_KINDS = ("gue", "goe", "diag")

_KIND_ALIASES = {
    "gue": "gue",
    "goe": "goe",
    "diag": "diag",
    "diagonal-uniform": "diag",
}


def _as_square(entries, err: str) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NotSquareError(f"{err}: shape {arr.shape}")
    return arr


class HermitianMatrix:
    """Immutable dense matrix whose entries equal their conjugate transpose exactly.

    The constructor demands exact conjugate symmetry (closed under sums,
    real scaling, and the symmetrization performed by `validate_hermitian`).
    Near-Hermitian input goes through `validate_hermitian` instead.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = _as_square(entries, "HermitianMatrix")
        if not np.array_equal(arr, arr.conj().T):
            raise HermiticityViolation(
                "entries are not exactly conjugate-symmetric; "
                "use validate_hermitian for inputs with noise"
            )
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(f"{self.n} x {self.n} + {other.n} x {other.n}")
        return HermitianMatrix(self._entries + other._entries)

    def __mul__(self, t):
        # real scalars only; complex scaling does not preserve hermiticity
        if not np.isrealobj(np.asarray(t)) or np.ndim(t) != 0:
            return NotImplemented
        return HermitianMatrix(float(t) * self._entries)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HermitianMatrix(n={self.n})"


class UnitaryMatrix:
    """Square complex matrix with max |U*U - I| <= 1e-10, checked at construction."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = _as_square(entries, "UnitaryMatrix")
        dev = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])))
        if not dev <= _UNITARY_TOL:
            raise UnitarityViolation(f"max |U*U - I| = {dev:.3e} exceeds {_UNITARY_TOL}")
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryMatrix(n={self.n})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order plus the unitary of eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: UnitaryMatrix

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != self.eigenvectors.n:
            raise DimensionMismatch("eigenvalue count does not match eigenvector matrix")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be in ascending order")
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)

    def reconstruct(self) -> HermitianMatrix:
        """Reassemble V diag(w) V*, symmetrized at tolerance 1e-10."""
        v = self.eigenvectors.entries
        return validate_hermitian((v * self.eigenvalues) @ v.conj().T, 1e-10)


@dataclass(frozen=True)
class EnsembleSpec:
    """Random Hermitian ensemble: kind in {gue, goe, diag}, size, scale, seed.

    gue    off-diagonal entries have independent N(0, scale^2/2) real and
           imaginary parts; diagonal is real N(0, scale^2)
    goe    the same with zero imaginary parts
    diag   diagonal entries uniform on [-scale, scale], off-diagonal zero

    The seed is a 64-bit unsigned integer and fully determines the draw.
    """

    kind: str
    n: int
    scale: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "kind", parse_ensemble_kind(self.kind))
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


def parse_ensemble_kind(kind: str) -> str:
    """Canonicalize an ensemble kind name ('GUE', 'diagonal-uniform', ...)."""
    key = str(kind).strip().lower()
    if key not in _KIND_ALIASES:
        raise ValueError(f"unknown ensemble kind {kind!r}; expected one of {_ENSEMBLE_KINDS}")
    return _KIND_ALIASES[key]


def validate_hermitian(entries, tol: float) -> HermitianMatrix:
    """Accept a near-Hermitian array and return its symmetrization (M + M*)/2.

    Accepts iff max |M - M*| <= tol * max(1, max |M|).  The returned matrix is
    exactly conjugate-symmetric with a real diagonal.  Raises NotSquareError or
    HermiticityViolation.
    """
    if not (np.isscalar(tol) and tol >= 0):
        raise ValueError(f"tol must be a nonnegative real, got {tol!r}")
    arr = _as_square(entries, "validate_hermitian")
    residual = np.max(np.abs(arr - arr.conj().T))
    bound = tol * max(1.0, float(np.max(np.abs(arr))))
    if not residual <= bound:
        raise HermiticityViolation(
            f"max |M - M*| = {residual:.3e} exceeds {bound:.3e} (tol={tol:g})"
        )
    return HermitianMatrix((arr + arr.conj().T) / 2.0)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def hermitian_draw(kind: str, n: int, scale: float, seed: int) -> np.ndarray:
    """Entries of one ensemble draw as a raw, exactly Hermitian complex array.

    `kind` must already be canonical; campaigns call this once per matrix
    and skip the `HermitianMatrix` wrapper.
    """
    rng = _rng(seed)
    if kind == "gue":
        g = rng.normal(0.0, scale, (n, n)) + 1j * rng.normal(0.0, scale, (n, n))
        return (g + g.conj().T) / 2.0
    if kind == "goe":
        g = rng.normal(0.0, scale, (n, n))
        return ((g + g.T) / 2.0).astype(np.complex128)
    return np.diag(rng.uniform(-scale, scale, n)).astype(np.complex128)


def vector_draw(kind: str, n: int, scale: float, seed: int) -> np.ndarray:
    """Length-n draw from the diagonal-entry law of a canonical ensemble kind."""
    rng = _rng(seed)
    if kind in ("gue", "goe"):
        return rng.normal(0.0, scale, n)
    return rng.uniform(-scale, scale, n)


def haar_draw(n: int, seed: int) -> np.ndarray:
    """Entries of a Haar-distributed n x n unitary (see `random_unitary`)."""
    rng = _rng(seed)
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0  # zero diagonal has probability zero; keep the phase defined
    return q * (d / np.abs(d))


def random_hermitian(spec: EnsembleSpec) -> HermitianMatrix:
    """Draw one matrix from the ensemble.  Pure function of `spec`."""
    return HermitianMatrix(hermitian_draw(spec.kind, spec.n, spec.scale, spec.seed))


def random_vector(spec: EnsembleSpec) -> np.ndarray:
    """Length-n draw from the ensemble's diagonal-entry law.

    gue/goe give i.i.d. N(0, scale^2); diag gives i.i.d. uniform on
    [-scale, scale].  Used by campaigns that need a vector per trial.
    """
    return vector_draw(spec.kind, spec.n, spec.scale, spec.seed)


def random_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-distributed n x n unitary.

    QR of a complex Ginibre matrix, with column phases fixed so the
    triangular factor has a positive real diagonal; this makes the
    distribution exactly Haar rather than merely unitary.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return UnitaryMatrix(haar_draw(n, seed))


def conj_t(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (T, n, n) stack."""
    return stack.conj().swapaxes(-1, -2)


def unitarity_rows(u: np.ndarray) -> np.ndarray:
    """Row mask: max |U*U - I| <= 1e-10 for each matrix of a (T, n, n) stack."""
    dev = np.abs(conj_t(u) @ u - np.eye(u.shape[-1])).max(axis=(1, 2))
    return dev <= _UNITARY_TOL


def stacked_spectrum(stack: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of every matrix in a (T, n, n) stack, in one solver call.

    With `vectors`, returns (eigenvalues, eigenvectors) as `np.linalg.eigh`
    does.  Each matrix must be finite and exactly conjugate-symmetric; the
    first one that is not raises NonFiniteInput or HermiticityViolation with
    its index as the error's `row`, as does a ConvergenceFailure.
    """
    require_rows(np.isfinite(stack).all(axis=(1, 2)), NonFiniteInput,
                 "matrix contains NaN or infinity")
    require_rows((stack == conj_t(stack)).all(axis=(1, 2)), HermiticityViolation,
                 "entries are not exactly conjugate-symmetric")
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        return solve(stack)
    except np.linalg.LinAlgError as exc:
        for row, m in enumerate(stack):  # the stacked call does not say which matrix failed
            try:
                solve(m)
            except np.linalg.LinAlgError:
                raise at_row(ConvergenceFailure(str(exc)), row) from exc
        raise ConvergenceFailure(str(exc)) from exc


def eigh(a: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition with ascending eigenvalues.

    Raises NonFiniteInput for NaN or infinite entries and ConvergenceFailure
    if the solver gives up; never returns non-finite results silently.
    """
    if not np.all(np.isfinite(a.entries)):
        raise NonFiniteInput("matrix contains NaN or infinity")
    try:
        w, v = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenDecomposition(w, UnitaryMatrix(v))


def matrix_exp(a: HermitianMatrix) -> HermitianMatrix:
    """exp(A) through the eigendecomposition.

    Raises OverflowRisk when the top eigenvalue exceeds 700 instead of
    returning infinities.
    """
    dec = eigh(a)
    top = float(dec.eigenvalues[-1])
    if top > EXP_OVERFLOW_LIMIT:
        raise OverflowRisk(
            f"max eigenvalue {top:.6g} exceeds {EXP_OVERFLOW_LIMIT:g}; "
            "exp would overflow double precision"
        )
    v = dec.eigenvectors.entries
    return validate_hermitian((v * np.exp(dec.eigenvalues)) @ v.conj().T, 1e-10)


def conjugate(a: HermitianMatrix, u: UnitaryMatrix) -> HermitianMatrix:
    """U* A U, re-symmetrized at tolerance 1e-10."""
    if a.n != u.n:
        raise DimensionMismatch(f"matrix is {a.n} x {a.n}, unitary is {u.n} x {u.n}")
    return validate_hermitian(u.entries.conj().T @ a.entries @ u.entries, 1e-10)


def trace_re(a: HermitianMatrix) -> float:
    """Real part of the trace (the trace of a Hermitian matrix is real)."""
    return float(a.entries.diagonal().real.sum())
