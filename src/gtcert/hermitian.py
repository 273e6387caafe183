"""Hermitian matrices, random ensembles, and eigendecomposition-based transforms.

All matrix functions go through the eigendecomposition: for Hermitian A with
A = V diag(w) V*, a scalar function g is applied as V diag(g(w)) V*.  Nothing
here evaluates a matrix power series.

Every sampling routine is a pure function of its seed.  The underlying bit
generator is numpy's PCG64; `GENERATOR_ID` names it in campaign reports.  The
samplers draw a stack, one draw per generator they are given: the single-draw
API gives them `Generator(PCG64(seed))`, and campaigns give them one generator
re-seeded per draw (`reseeded`) to the states `pcg64_states` derives for many
seeds at once, which are the states `PCG64(seed)` starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    """Accept a near-Hermitian array and return its symmetrization M/2 + M*/2.

    Accepts iff max |M - M*| <= tol * max(1, max |M|).  The returned matrix is
    exactly conjugate-symmetric with a real diagonal; halving before adding
    keeps entries near the double-precision limit finite, and outside the
    subnormal range gives the same bits as (M + M*)/2.  Raises NotSquareError,
    NonFiniteInput or HermiticityViolation.
    """
    if not (np.isscalar(tol) and tol >= 0):
        raise ValueError(f"tol must be a nonnegative real, got {tol!r}")
    arr = _as_square(entries, "validate_hermitian")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("matrix contains NaN or infinity")
    residual = np.max(np.abs(arr - arr.conj().T))
    bound = tol * max(1.0, float(np.max(np.abs(arr))))
    if not residual <= bound:
        raise HermiticityViolation(
            f"max |M - M*| = {residual:.3e} exceeds {bound:.3e} (tol={tol:g})"
        )
    half = 0.5 * arr
    return HermitianMatrix(half + half.conj().T)


# numpy's SeedSequence: hashmix/mix constants over uint32 words, a 4-word pool
_M32 = 0xFFFFFFFF
_POOL_WORDS = 4
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64 multiplier and the 128-bit state modulus of pcg64_set_seed
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` values of a hash constant that each hashmix multiplies by `mult`.

    The sequence does not depend on the data, so it is computed once here.
    """
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


# mixing the pool takes 4 + 12 hashmix calls; 4 uint64 outputs take 8 words
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)


def _hashmix(value: np.ndarray, consts: np.ndarray, k) -> np.ndarray:
    value = (value ^ consts[k]) * consts[k + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _XSHIFT)


def _steps(k: int, count: int) -> np.ndarray:
    """Hash-constant indices of `count` consecutive hashmix calls, as a column for (count, N) rows."""
    return np.arange(k, k + count)[:, None]


def pcg64_states(seeds) -> list:
    """(state, inc) that `np.random.PCG64(seed)` starts from, for each uint64 seed.

    Reproduces `SeedSequence(seed).generate_state(4, np.uint64)` in uint32
    array arithmetic, all seeds at once, then applies pcg64_set_seed:
    inc = (initseq << 1) | 1 and state = ((inc + initstate) * MULT + inc)
    mod 2^128.  A seed is hashed as its two 32-bit words (zero-padded to the
    pool size, which is what numpy does for one word too).  Hashmix calls that
    do not depend on each other run as one (count, N) operation.  The fixed
    cost per call is a few hundred microseconds, so derive many seeds per call.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((_POOL_WORDS,) + seeds.shape, dtype=np.uint32)
    words[0] = (seeds & np.uint64(_M32)).astype(np.uint32)
    words[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(words, _HASH_A, _steps(0, _POOL_WORDS))
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        # the source word mixes into the three others in turn; it does not
        # change meanwhile, so the three hashmix/mix steps are independent
        dst = [d for d in range(_POOL_WORDS) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, _steps(k, len(dst))))
        k += len(dst)
    out = _hashmix(pool[np.arange(8) % _POOL_WORDS], _HASH_B, _steps(0, 8)).astype(np.uint64)
    hi_state, lo_state, hi_seq, lo_seq = (
        (out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)
    )
    states = []
    for a, b, c, d in zip(hi_state, lo_state, hi_seq, lo_seq):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128, inc))
    return states


class reseeded:
    """`rng`, re-seeded to each PCG64 (state, inc) of `states` in turn.

    With states from `pcg64_states`, the k-th generator of the iteration draws
    exactly what `Generator(PCG64(seeds[k]))` would; drawing one stream before
    the next is the caller's job.  It has a length, so a sampler can allocate
    its stack before the first draw.
    """

    def __init__(self, rng: np.random.Generator, states):
        self._rng, self._states = rng, states

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[np.random.Generator]:
        bit_generator = self._rng.bit_generator
        pcg = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        for state, inc in self._states:
            pcg["state"], pcg["inc"] = state, inc
            bit_generator.state = full
            yield self._rng


def _fresh(seed: int) -> list:
    return [np.random.Generator(np.random.PCG64(seed))]


def _normal_stack(rngs, shape: tuple, scale: float = 1.0) -> np.ndarray:
    """One `normal(0.0, scale, shape)` draw per generator, stacked.

    Each generator fills its row of one preallocated stack with standard
    normals; scaling the stack and adding 0.0 afterwards gives the bits of
    numpy's 0.0 + scale * z, including the sign of zero.
    """
    out = np.empty((len(rngs),) + shape)
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= scale
    out += 0.0
    return out


def hermitian_stack(kind: str, n: int, scale: float, rngs) -> np.ndarray:
    """One ensemble draw per generator, as a (T, n, n) stack of exactly Hermitian arrays.

    `kind` must already be canonical; `rngs` is a list of generators or a
    `reseeded` sequence.  Each generator draws its whole matrix before the
    next is advanced (GUE: the real then the imaginary n x n block), and the
    symmetrization runs on the stack.
    """
    if kind == "gue":
        g = _normal_stack(rngs, (2, n, n), scale)
        g = g[:, 0] + 1j * g[:, 1]
        return (g + conj_t(g)) / 2.0
    if kind == "goe":
        g = _normal_stack(rngs, (n, n), scale)
        return ((g + g.swapaxes(-1, -2)) / 2.0).astype(np.complex128)
    d = vector_stack(kind, n, scale, rngs)
    out = np.zeros(d.shape + (n,), dtype=np.complex128)
    out[:, np.arange(n), np.arange(n)] = d
    return out


def vector_stack(kind: str, n: int, scale: float, rngs) -> np.ndarray:
    """One length-n draw per generator from the diagonal-entry law, as a (T, n) stack."""
    if kind in ("gue", "goe"):
        return _normal_stack(rngs, (n,), scale)
    return np.stack([rng.uniform(-scale, scale, n) for rng in rngs])


def haar_stack(n: int, rngs) -> np.ndarray:
    """One Haar-distributed n x n unitary per generator, as a (T, n, n) stack.

    QR of a complex Ginibre matrix (one stacked QR call), with column phases
    fixed so the triangular factor has a positive real diagonal.
    """
    g = _normal_stack(rngs, (2, n, n))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # zero diagonal has probability zero; keep the phase defined
    return q * (d / np.abs(d))[:, None, :]


def random_hermitian(spec: EnsembleSpec) -> HermitianMatrix:
    """Draw one matrix from the ensemble.  Pure function of `spec`."""
    return HermitianMatrix(hermitian_stack(spec.kind, spec.n, spec.scale, _fresh(spec.seed))[0])


def random_vector(spec: EnsembleSpec) -> np.ndarray:
    """Length-n draw from the ensemble's diagonal-entry law.

    gue/goe give i.i.d. N(0, scale^2); diag gives i.i.d. uniform on
    [-scale, scale].  Used by campaigns that need a vector per trial.
    """
    return vector_stack(spec.kind, spec.n, spec.scale, _fresh(spec.seed))[0]


def random_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-distributed n x n unitary.

    QR of a complex Ginibre matrix, with column phases fixed so the
    triangular factor has a positive real diagonal; this makes the
    distribution exactly Haar rather than merely unitary.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return UnitaryMatrix(haar_stack(n, _fresh(seed))[0])


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
