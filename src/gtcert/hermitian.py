"""Hermitian matrices, unitaries, random ensembles, and the stacked eigensolver.

Every spectrum is computed by `stacked_spectrum`, which runs numpy's eigh or
eigvalsh on a (T, n, n) stack in one call; the checks apply scalar functions to
those spectra, so nothing here forms a matrix function.

Every sampling routine is a pure function of its seed.  The underlying bit
generator is numpy's PCG64; `GENERATOR_ID` names it in campaign reports.  The
three samplers `hermitian_stack`, `vector_stack` and `haar_stack` take
`(ensemble, generators)`: they read the `EnsembleSpec`'s kind, size and scale,
never its seed, and draw a stack, one draw per generator.  The single-draw API
gives them `Generator(PCG64(seed))`, and campaigns give them `generators`,
which builds the same generators for many seeds at once.  `seed_words` hashes
all the seeds with numpy's SeedSequence in array arithmetic, and numpy's PCG64
constructor seeds each generator from its row of words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .checks import (as_numbers, is_real, require_finite_rows, require_positive_int, require_seed,
                     require_tol)
from .errors import (
    ConvergenceFailure,
    HermiticityViolation,
    NonFiniteResult,
    NotSquareError,
    UnitarityViolation,
)

GENERATOR_ID = "numpy-pcg64"

_UNITARY_TOL = 1e-10
ENSEMBLE_KINDS = ("gue", "goe", "diag")


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


class _Matrix:
    """Immutable square matrix, float64 for bool, integer or real input and complex128 for complex input.

    str, bytes and object entries raise TypeError.  Each subclass states its
    invariant, finiteness first, in `_require`, run on a stack of one before freezing.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = _as_square(entries, type(self).__name__)
        self._require(arr[None])
        arr.setflags(write=False)
        self._entries = arr

    @classmethod
    def _certified(cls, arr: np.ndarray):
        """The matrix of `arr`, a new square array that the caller has held to, or built to, `_require`'s rule."""
        out = cls.__new__(cls)
        arr.setflags(write=False)
        out._entries = arr
        return out

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class HermitianMatrix(_Matrix):
    """Immutable dense matrix whose entries are finite and equal their conjugate transpose exactly.

    `near_hermitian_rows` at tol 0 certifies both; near-Hermitian input goes
    through `validate_hermitian`, which applies the same rule at its tolerance.
    The type does no arithmetic: checks combine the `entries` of stacked
    matrices, and promote a real matrix where they combine it with a complex one.
    """

    __slots__ = ()

    @staticmethod
    def _require(stack: np.ndarray) -> None:
        try:
            near_hermitian_rows(stack, 0.0)
        except HermiticityViolation as exc:
            raise HermiticityViolation(f"{exc}; use validate_hermitian for inputs with noise") from None


class UnitaryMatrix(_Matrix):
    """Finite square matrix with max |U*U - I| <= 1e-10; its constructor is the one unitarity test."""

    __slots__ = ()

    @staticmethod
    def _require(u: np.ndarray) -> None:
        require_finite_rows(u, "unitary")
        if not np.abs(conj_t(u) @ u - np.eye(u.shape[-1])).max() <= _UNITARY_TOL:
            raise UnitarityViolation(f"max |U*U - I| exceeds {_UNITARY_TOL}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Random Hermitian ensemble: kind in {gue, goe, diag}, size, scale, seed.

    gue    off-diagonal entries have independent N(0, scale^2/2) real and
           imaginary parts; diagonal is real N(0, scale^2)
    goe    the same with zero imaginary parts
    diag   diagonal entries uniform on [-scale, scale], off-diagonal zero

    The scale is stored as a float.  The seed is a 64-bit unsigned integer
    and fully determines the draw.
    """

    kind: str
    n: int
    scale: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "kind", parse_ensemble_kind(self.kind))
        require_positive_int(self.n, "n")
        require_seed(self.seed)
        if not (is_real(self.scale) and 0 < self.scale < np.inf):  # np.isfinite refuses an int beyond int64
            raise ValueError(f"scale must be a finite real > 0, got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))  # 2 and 2.0 draw and report alike
        if self.kind == "diag" and not np.isfinite(2.0 * self.scale):
            # numpy's uniform draw needs the width of [-scale, scale] to be finite
            raise ValueError(f"diag scale must be at most {np.finfo(float).max / 2:.6g}, got {self.scale!r}")


def parse_ensemble_kind(kind: str) -> str:
    """Canonicalize an ensemble kind name: 'GUE' and ' gue ' give 'gue'."""
    key = str(kind).strip().lower()
    if key not in ENSEMBLE_KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}; expected one of {ENSEMBLE_KINDS}")
    return key


def validate_hermitian(entries, tol: float) -> HermitianMatrix:
    """Accept a near-Hermitian array and return it exactly conjugate-symmetric.

    One pass of `near_hermitian_rows`: M must be finite with max |M - M*| <=
    tol * max(1, max |M|).  It keeps its bits (subnormals and signed zeros too)
    when M == M*, and otherwise becomes `symmetrized` M/2 + M*/2, exact by
    construction.  Raises NotSquareError, NonFiniteInput, HermiticityViolation or TypeError.
    """
    require_tol(tol)
    arr = _as_square(entries, "validate_hermitian")[None]
    exact = near_hermitian_rows(arr, tol)[0] == 0
    return HermitianMatrix._certified((arr if exact else symmetrized(arr))[0])


def near_hermitian_rows(stack: np.ndarray, tol: float) -> np.ndarray:
    """max |M - M*| of each M of a (T, n, n) stack; the one Hermiticity rule, whose tol 0 is the exact rule.

    Each M must be finite (`checks.require_finite_rows`) and have max |M - M*|
    <= tol * max(1, max |M|), which at tol 0 means M == M* exactly; else it
    raises NonFiniteInput, or HermiticityViolation with the first bad M's figures.
    """
    require_finite_rows(stack, "matrix")
    with np.errstate(over="ignore"):  # M - M* of a finite M far from Hermitian, and the bound, can overflow
        residual = np.abs(stack - conj_t(stack)).max(axis=(1, 2))
        # an exact stack, the usual input, passes at any tol without the pass that computes max |M|
        bound = tol * np.maximum(1.0, np.abs(stack).max(axis=(1, 2))) if residual.any() else residual
    ok = residual <= bound
    if not ok.all():
        row = int(ok.argmin())
        raise HermiticityViolation(
            f"matrix is not Hermitian: max |M - M*| = {residual[row]:.3e} exceeds {bound[row]:.3e} (tol={tol:g})")
    return residual


def symmetrized(stack: np.ndarray) -> np.ndarray:
    """M/2 + M*/2 for each M of a (T, n, n) stack: exactly conjugate-symmetric, with a real diagonal.

    The one rule that makes a stack exactly Hermitian: ensemble draws, matrix
    files and U* A U go through it.  Halving first keeps every finite M finite
    and gives the bits of (M + M*)/2, except where a half is subnormal and rounds.
    """
    half = 0.5 * stack
    return half + conj_t(half)


def complex_from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im as complex128, set part by part so that every bit is kept.

    re + 1j * im forms 0 * im: that turns a -0.0 real part into 0.0, and an
    infinite im into a NaN real part with a numpy warning.
    """
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


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
    """One `normal(0.0, scale, shape)` draw per generator, stacked; the one finiteness test of sampled values.

    Each generator fills its row of one preallocated stack with standard
    normals; scaling the stack and adding 0.0 afterwards gives the bits of
    numpy's 0.0 + scale * z, including the sign of zero.  A draw whose scaling
    overflows raises NonFiniteInput, with no numpy warning.
    """
    out = np.empty((len(rngs),) + shape)
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    with np.errstate(over="ignore"):
        out *= scale
    require_finite_rows(out, "sampled draw")
    out += 0.0
    return out


def hermitian_stack(ens: EnsembleSpec, rngs) -> np.ndarray:
    """One draw of the ensemble per generator, as a (T, n, n) stack of exactly Hermitian arrays.

    Each generator draws its whole matrix before the next is advanced (GUE: the
    real then the imaginary n x n block), and `symmetrized` makes each draw exact:
    complex128 for gue, real symmetric float64 for goe and diag.  A normal draw that
    overflows raises NonFiniteInput (`_normal_stack`), so every matrix returned is finite.
    """
    if ens.kind == "diag":
        return diagonal_stack(vector_stack(ens, rngs))
    g = _normal_stack(rngs, (2, ens.n, ens.n) if ens.kind == "gue" else (ens.n, ens.n), ens.scale)
    return symmetrized(complex_from_parts(g[:, 0], g[:, 1]) if ens.kind == "gue" else g)


def vector_stack(ens: EnsembleSpec, rngs) -> np.ndarray:
    """One length-n draw per generator from the ensemble's diagonal-entry law, as a (T, n) stack.

    gue and goe share that law, N(0, scale^2), so they draw the same vectors:
    gue and goe campaigns of the vector kinds with one seed check the same
    trials.  A uniform diag draw needs no `_normal_stack` test: `EnsembleSpec`
    keeps [-scale, scale] finite.
    """
    if ens.kind in ("gue", "goe"):
        return _normal_stack(rngs, (ens.n,), ens.scale)
    return np.stack([rng.uniform(-ens.scale, ens.scale, ens.n) for rng in rngs])


def diagonal_stack(x: np.ndarray) -> np.ndarray:
    """diag(x) for each row of a (T, n) stack, as a (T, n, n) stack with zeros off the diagonal."""
    n = x.shape[-1]
    out = np.zeros(x.shape + (n,))
    out[:, np.arange(n), np.arange(n)] = x
    return out


def haar_stack(ens: EnsembleSpec, rngs) -> np.ndarray:
    """One Haar-distributed unitary of size `ens.n` per generator, as a (T, n, n) stack.

    Every ensemble kind rotates by U(n), so only `ens.n` is read.  QR of a
    complex Ginibre matrix (one stacked QR call), with column phases fixed so
    the triangular factor has a positive real diagonal; this makes the
    distribution exactly Haar rather than merely unitary.
    """
    g = _normal_stack(rngs, (2, ens.n, ens.n))
    q, r = np.linalg.qr(complex_from_parts(g[:, 0], g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # zero diagonal has probability zero; keep the phase defined
    return q * (d / np.abs(d))[:, None, :]


def random_hermitian(spec: EnsembleSpec) -> HermitianMatrix:
    """Draw one matrix from the ensemble, finite by `_normal_stack` and exact by `symmetrized`.  Pure in `spec`."""
    return HermitianMatrix._certified(hermitian_stack(spec, _fresh(spec.seed))[0])


def random_vector(spec: EnsembleSpec) -> np.ndarray:
    """Length-n draw of the diagonal-entry law: N(0, scale^2), NonFiniteInput on overflow; U[-scale, scale] for diag."""
    return vector_stack(spec, _fresh(spec.seed))[0]


def random_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-distributed n x n unitary, drawn by `haar_stack`; `EnsembleSpec` applies its rules to `n` and `seed`."""
    return UnitaryMatrix(haar_stack(EnsembleSpec("gue", n, 1.0, seed), _fresh(seed))[0])


def conj_t(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (T, n, n) stack."""
    return stack.conj().swapaxes(-1, -2)


def stacked_spectrum(stack: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of every matrix in a (T, n, n) stack, in one solver call.

    With `vectors`, returns (eigenvalues, eigenvectors) as `np.linalg.eigh`
    does.  It tests finiteness only, of the stack and of the eigenvalues, and
    raises NonFiniteResult, or ConvergenceFailure where the solver fails; a
    campaign finds the trial by checking its chunk again in halves.  Values are
    tested where they enter, so a non-finite matrix here was computed from
    finite ones (A + B or U* A U overflowed).
    The solvers read one triangle, so exact conjugate symmetry is the caller's
    guarantee: `HermitianMatrix` entries, `hermitian_stack`, `symmetrized`,
    `hessian_rows`, `diagonal_stack`, and sums, real multiples and
    concatenations of these have it.
    """
    require_finite_rows(stack, "computed matrix", NonFiniteResult, "is not finite")
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        result = solve(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    # a finite matrix near the double limit can have an eigenvalue that overflows
    require_finite_rows(result[0] if vectors else result, "eigenvalue", NonFiniteResult,
                        "overflows although the matrix is finite")
    return result
