"""Hermitian matrices, unitaries, random ensembles, and the stacked eigensolver.

Every spectrum is computed by `stacked_spectrum`, which runs numpy's eigh or
eigvalsh on a (T, n, n) stack in one call; the checks apply scalar functions to
those spectra, so nothing here forms a matrix function.

Every sampling routine is a pure function of its seed.  The underlying bit
generator is numpy's PCG64; `GENERATOR_ID` names it in campaign reports.  The
samplers draw a stack, one draw per generator they are given: the single-draw
API gives them `Generator(PCG64(seed))`, and campaigns give them `generators`,
which builds the same generators for many seeds at once.  `seed_words` hashes
all the seeds with numpy's SeedSequence in array arithmetic, and numpy's PCG64
constructor seeds each generator from its row of words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .checks import as_numbers, is_int, is_real, require_tol
from .errors import (
    ConvergenceFailure,
    HermiticityViolation,
    NonFiniteInput,
    NonFiniteResult,
    NotSquareError,
    UnitarityViolation,
    at_row,
    require_rows,
)

GENERATOR_ID = "numpy-pcg64"

_UNITARY_TOL = 1e-10
_ENSEMBLE_KINDS = ("gue", "goe", "diag")


def _as_square(entries, err: str) -> np.ndarray:
    """A new float64 array for bool, integer or real entries, complex128 for complex ones.

    numpy's eigh and eigvalsh pick their LAPACK routine by dtype, so a real
    symmetric matrix that stays float64 goes to the real symmetric solver.
    Entries follow `checks.as_numbers`, which takes bools, unlike matrix files.
    """
    arr = as_numbers(entries, err, complex_ok=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NotSquareError(f"{err}: shape {arr.shape}")
    return arr


class HermitianMatrix:
    """Immutable dense matrix whose entries equal their conjugate transpose exactly.

    The constructor demands exact conjugate symmetry, which the symmetrization
    performed by `validate_hermitian` gives; near-Hermitian input goes through
    `validate_hermitian` instead.  The type holds validated entries and does
    no arithmetic: checks combine the `entries` of stacked matrices directly.
    `entries` is float64 when the input has a bool, integer or real dtype (a
    real symmetric matrix) and complex128 when it is complex; str, bytes and
    object entries raise TypeError.  A check on a real and a complex matrix
    promotes the real one where it combines them.
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

    def __repr__(self) -> str:
        return f"HermitianMatrix(n={self.n})"


class UnitaryMatrix:
    """Square matrix with max |U*U - I| <= 1e-10, checked at construction; dtype as in HermitianMatrix."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = _as_square(entries, "UnitaryMatrix")
        if not unitarity_rows(arr[None])[0]:
            raise UnitarityViolation(f"max |U*U - I| exceeds {_UNITARY_TOL}")
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
        _require_size_and_seed(self.n, self.seed)
        if not (is_real(self.scale) and np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a finite real > 0, got {self.scale!r}")
        if self.kind == "diag" and not np.isfinite(2.0 * self.scale):
            # numpy's uniform draw needs the width of [-scale, scale] to be finite
            raise ValueError(f"diag scale must be at most {np.finfo(float).max / 2:.6g}, got {self.scale!r}")


def _require_size_and_seed(n, seed) -> None:
    """Raise ValueError unless n is a positive int and seed an unsigned 64-bit int (bools are neither)."""
    if not (is_int(n) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (is_int(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def parse_ensemble_kind(kind: str) -> str:
    """Canonicalize an ensemble kind name: 'GUE' and ' gue ' give 'gue'."""
    key = str(kind).strip().lower()
    if key not in _ENSEMBLE_KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}; expected one of {_ENSEMBLE_KINDS}")
    return key


def validate_hermitian(entries, tol: float) -> HermitianMatrix:
    """Accept a near-Hermitian array and return it exactly conjugate-symmetric.

    Accepts iff max |M - M*| <= tol * max(1, max |M|).  M comes back with its
    bits unchanged when max |M - M*| is 0, so an exactly Hermitian matrix
    keeps its subnormals and signed zeros; otherwise the result is the
    symmetrization M/2 + M*/2, whose diagonal is real.  Halving before adding
    keeps entries near the double-precision limit finite, and outside the
    subnormal range gives the same bits as (M + M*)/2.  Raises NotSquareError,
    NonFiniteInput, HermiticityViolation, or TypeError for non-numeric entries.
    """
    require_tol(tol)
    arr = _as_square(entries, "validate_hermitian")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("matrix contains NaN or infinity")
    residual = np.max(np.abs(arr - arr.conj().T))
    bound = tol * max(1.0, float(np.max(np.abs(arr))))
    if not residual <= bound:
        raise HermiticityViolation(
            f"max |M - M*| = {residual:.3e} exceeds {bound:.3e} (tol={tol:g})"
        )
    if residual == 0:
        return HermitianMatrix(arr)
    half = 0.5 * arr
    return HermitianMatrix(half + half.conj().T)


# numpy's SeedSequence: hashmix/mix constants over uint32 words, a 4-word pool
_M32 = 0xFFFFFFFF
_POOL_WORDS = 4
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# a uint64 seed splits into two uint32 words; two output words make one uint64
_U32, _LO32 = np.uint64(32), np.uint64(_M32)


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


def _schedule(consts: np.ndarray, k: int, count: int, skip=None) -> tuple:
    """(xor, multiplier) columns of `count` consecutive hashmix calls from call k, for (count, N) words.

    Row `skip` gets no call: its columns are zero and it does not advance the
    hash constant.
    """
    xor, mult = np.zeros((2, count, 1), dtype=np.uint32)
    for row in range(count):
        if row != skip:
            xor[row], mult[row] = consts[k], consts[k + 1]
            k += 1
    return xor, mult


# The hashmix schedule does not depend on the seeds, so its constant columns
# are built once: the pool's first pass, then one step per source word, which
# mixes into the three other words (the source row is skipped), then the 8
# output hashmixes, which read pool word j % 4 for output word j.
_POOL_MIX = _schedule(_HASH_A, 0, _POOL_WORDS)
_SOURCE_MIX = tuple(
    (src, _schedule(_HASH_A, _POOL_WORDS + src * (_POOL_WORDS - 1), _POOL_WORDS, skip=src))
    for src in range(_POOL_WORDS)
)
_OUT_MIX = tuple(c.reshape(2, _POOL_WORDS, 1) for c in _schedule(_HASH_B, 0, 8))


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _XSHIFT)


def seed_words(seeds) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for each uint64 seed, as an (N, 4) array.

    Reproduces numpy's SeedSequence hash in uint32 array arithmetic, all seeds
    at once.  A seed is hashed as its two 32-bit words (zero-padded to the
    pool size, which is what numpy does for one word too).  Hashmix calls that
    do not depend on each other run as one (count, N) operation, so the cost
    is about 60 array operations whatever the number of seeds.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((_POOL_WORDS,) + seeds.shape, dtype=np.uint32)
    words[0] = (seeds & _LO32).astype(np.uint32)
    words[1] = (seeds >> _U32).astype(np.uint32)
    pool = _hashmix(words, *_POOL_MIX)
    for src, mix in _SOURCE_MIX:
        # the source word mixes into the three others in turn; it does not
        # change meanwhile, so the three hashmix/mix steps are independent
        mixed = _mix(pool, _hashmix(pool[src], *mix))
        mixed[src] = pool[src]
        pool = mixed
    out = _hashmix(pool, *_OUT_MIX).reshape(4, 2, -1).astype(np.uint64)
    return np.ascontiguousarray((out[:, 0] | out[:, 1] << _U32).T)


class _Rows(ISeedSequence):
    """A seed sequence that gives out the rows of an (N, 4) uint64 array, one per `generate_state` call.

    PCG64's constructor makes one `generate_state(4, np.uint64)` call.
    """

    def __init__(self, words: np.ndarray):
        self._next_row = iter(words).__next__

    def generate_state(self, n_words, dtype=np.uint32):
        return self._next_row()


class generators:
    """`Generator(PCG64(seed))` for each seed whose `seed_words` row is in `words`.

    Each generator is built by numpy's own PCG64 constructor from its row, so
    it starts exactly where `PCG64(seed)` starts.  It has a length, so a
    sampler can allocate its stack before the first draw.
    """

    def __init__(self, words):
        # PCG64 reads 4 words from each row's data pointer: a strided view
        # would seed other bits, a shorter row would read past it
        self._words = np.ascontiguousarray(words, dtype=np.uint64)
        if self._words.ndim != 2 or self._words.shape[1] != 4:
            raise ValueError(f"seed words must have shape (N, 4), got {self._words.shape}")

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self) -> Iterator[np.random.Generator]:
        rows = _Rows(self._words)
        for _ in range(len(self._words)):
            yield np.random.Generator(np.random.PCG64(rows))


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
    with np.errstate(over="ignore"):  # an overflowing draw is a NonFiniteInput later
        out *= scale
    out += 0.0
    return out


def hermitian_stack(kind: str, n: int, scale: float, rngs) -> np.ndarray:
    """One ensemble draw per generator, as a (T, n, n) stack of exactly Hermitian arrays.

    `kind` must already be canonical; `rngs` is a list of generators or a
    `generators` sequence.  Each generator draws its whole matrix before the
    next is advanced (GUE: the real then the imaginary n x n block), and the
    symmetrization runs on the stack.  The stack is complex128 for gue and
    float64 for goe and diag, whose matrices are real symmetric.  Entries that
    overflow come out as inf or NaN without a numpy warning; a campaign makes
    them a NonFiniteInput trial error.
    """
    if kind == "gue":
        g = _normal_stack(rngs, (2, n, n), scale)
        with np.errstate(over="ignore", invalid="ignore"):
            g = g[:, 0] + 1j * g[:, 1]
            return (g + conj_t(g)) / 2.0
    if kind == "goe":
        g = _normal_stack(rngs, (n, n), scale)
        with np.errstate(over="ignore", invalid="ignore"):
            return (g + g.swapaxes(-1, -2)) / 2.0
    d = vector_stack(kind, n, scale, rngs)
    out = np.zeros(d.shape + (n,))
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
    distribution exactly Haar rather than merely unitary.  `n` and `seed`
    follow the rules of `EnsembleSpec`.
    """
    _require_size_and_seed(n, seed)
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
    its index as the error's `row`, as does a ConvergenceFailure, and a
    NonFiniteResult for the first matrix whose eigenvalues overflow.
    """
    require_rows(np.isfinite(stack).all(axis=(1, 2)), NonFiniteInput,
                 "matrix contains NaN or infinity")
    require_rows((stack == conj_t(stack)).all(axis=(1, 2)), HermiticityViolation,
                 "entries are not exactly conjugate-symmetric")
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        result = solve(stack)
    except np.linalg.LinAlgError as exc:
        for row, m in enumerate(stack):  # the stacked call does not say which matrix failed
            try:
                solve(m)
            except np.linalg.LinAlgError:
                raise at_row(ConvergenceFailure(str(exc)), row) from exc
        raise ConvergenceFailure(str(exc)) from exc
    # a finite matrix near the double limit can have an eigenvalue that overflows
    require_rows(np.isfinite(result[0] if vectors else result).all(axis=1), NonFiniteResult,
                 "eigenvalue overflows although the matrix is finite")
    return result
