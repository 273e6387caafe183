"""Symmetric functions of eigenvalues and their convexity checks.

A symmetric scalar function f (invariant under permutation of its arguments)
lifts to a unitarily invariant function of a Hermitian matrix by evaluation on
the spectrum: F(A) = f(eigenvalues of A).  The lift preserves convexity in
both directions, so convexity of F can be probed through f on vectors and
through F on matrix segments, independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .checks import CheckResult, first_result, slack_bound
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    HermiticityViolation,
    NonFiniteInput,
    UnitarityViolation,
    require_rows,
)
from .hermitian import (
    HermitianMatrix,
    UnitaryMatrix,
    conj_t,
    stacked_spectrum,
    unitarity_rows,
)
from .logsumexp import lse, lse_rows

_CONVEXITY_FLAGS = ("convex", "concave", "neither")


@dataclass(frozen=True)
class SymmetricScalarFunction:
    """Named scalar function of a real vector, permutation-invariant by contract.

    `arity` of None accepts any dimension.  `convexity` is a declaration, not
    a computation; checks use it to decide whether a negative convexity
    residual is a finding or expected behavior.  `evaluate_rows`, if given,
    evaluates every row of a (T, n) array at once; spectral checks go
    through `rows`, which falls back to `evaluate` row by row.
    """

    name: str
    evaluate: Callable[[np.ndarray], float]
    convexity: str
    arity: Optional[int] = None
    evaluate_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.convexity not in _CONVEXITY_FLAGS:
            raise ValueError(f"convexity must be one of {_CONVEXITY_FLAGS}")
        if self.arity is not None and self.arity < 1:
            raise ValueError(f"arity must be None or >= 1, got {self.arity!r}")

    def __call__(self, x) -> float:
        arr = _vector_arg(self, x)
        return float(self.evaluate(arr))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """f of each row of a finite (T, n) array."""
        if self.evaluate_rows is not None:
            return self.evaluate_rows(x)
        return np.array([float(self.evaluate(row)) for row in x])


@dataclass(frozen=True)
class SpectralFunction:
    """The lift of a symmetric scalar function to Hermitian matrices."""

    base: SymmetricScalarFunction

    @property
    def name(self) -> str:
        return self.base.name


def lift(f: SymmetricScalarFunction) -> SpectralFunction:
    return SpectralFunction(f)


def _vector_arg(f: SymmetricScalarFunction, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"expected a nonempty vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("vector contains NaN or infinity")
    if f.arity is not None and f.arity != arr.shape[0]:
        raise ArityMismatch(f"{f.name} has arity {f.arity}, got dimension {arr.shape[0]}")
    return arr


def _matrix_arity(f: SymmetricScalarFunction, n: int) -> None:
    if f.arity is not None and f.arity != n:
        raise ArityMismatch(f"{f.name} has arity {f.arity}, matrix is {n} x {n}")


def lift_eval(func: SpectralFunction, a: HermitianMatrix) -> float:
    """F(A): the base function applied to the ascending spectrum of A."""
    _matrix_arity(func.base, a.n)
    return float(func.base.rows(stacked_spectrum(a.entries[None]))[0])


def check_symmetry(
    f: SymmetricScalarFunction,
    x,
    n_perms: int = 100,
    tol: float = 1e-12,
    seed: int = 0,
) -> CheckResult:
    """Probe permutation invariance of f at x.

    All n! permutations when n <= 5, otherwise n_perms draws seeded by `seed`
    (the sampling is pure).  Records the worst deviation: slack is minus the
    largest |f(permuted x) - f(x)|.
    """
    arr = _vector_arg(f, x)
    if n_perms < 1:
        raise ValueError(f"n_perms must be >= 1, got {n_perms}")
    n = arr.shape[0]
    if n <= 5:
        perms = itertools.permutations(range(n))
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        perms = (rng.permutation(n) for _ in range(n_perms))

    reference = float(f.evaluate(arr))
    worst_dev = 0.0
    worst_val = reference
    for perm in perms:
        val = float(f.evaluate(arr[list(perm)]))
        dev = abs(val - reference)
        if dev > worst_dev:
            worst_dev, worst_val = dev, val
    return CheckResult(
        lhs=worst_val,
        rhs=reference,
        slack=-worst_dev,
        tol=tol,
        passed=worst_dev <= slack_bound(reference, tol),
        trial_seed=seed,
    )


def _deviation(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """-|value - reference|, where inf - inf gives NaN without a numpy warning.

    The non-finite slack then becomes a trial error, as any other does.
    """
    with np.errstate(invalid="ignore"):
        return -np.abs(value - reference)


def unitary_invariance_rows(f: SymmetricScalarFunction, a: np.ndarray, u: np.ndarray):
    """(lhs, rhs, slack) arrays of F(U* A U) against F(A) for stacks of A and U.

    Each U must pass the `UnitaryMatrix` test, and each U* A U must be
    Hermitian within 1e-10 * max(1, max |entry|) before it is symmetrized,
    as `conjugate` requires.
    """
    require_rows(unitarity_rows(u), UnitarityViolation, "max |U*U - I| exceeds 1e-10")
    m = conj_t(u) @ a @ u
    mh = conj_t(m)
    residual = np.abs(m - mh).max(axis=(1, 2))
    require_rows(residual <= 1e-10 * np.maximum(1.0, np.abs(m).max(axis=(1, 2))),
                 HermiticityViolation, "U* A U is not Hermitian within 1e-10")
    values = f.rows(stacked_spectrum(np.concatenate([a, (m + mh) / 2.0])))
    reference, rotated = np.split(values, 2)
    return rotated, reference, _deviation(rotated, reference)


def check_unitary_invariance(
    func: SpectralFunction, a: HermitianMatrix, u: UnitaryMatrix, tol: float
) -> CheckResult:
    """Compare F(U* A U) against F(A); slack is minus the deviation."""
    if a.n != u.n:
        raise DimensionMismatch(f"matrix is {a.n} x {a.n}, unitary is {u.n} x {u.n}")
    _matrix_arity(func.base, a.n)
    return first_result(
        unitary_invariance_rows(func.base, a.entries[None], u.entries[None]), tol
    )


def midpoint_convexity_residual(
    func: SpectralFunction, a: HermitianMatrix, b: HermitianMatrix
) -> float:
    """(F(A) + F(B))/2 - F((A+B)/2); nonnegative when the base is convex.

    Negative values within -1e-10 * max(1, |F|) are floating-point noise, not
    counterexamples.
    """
    return segment_convexity_residual(func, a, b, 0.5)


def segment_convexity_residual(
    func: SpectralFunction, a: HermitianMatrix, b: HermitianMatrix, t: float
) -> float:
    """t F(A) + (1-t) F(B) - F(t A + (1-t) B) for t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    chord = t * lift_eval(func, a) + (1.0 - t) * lift_eval(func, b)
    return chord - lift_eval(func, t * a + (1.0 - t) * b)


def davis_restriction_rows(f: SymmetricScalarFunction, x: np.ndarray):
    """(lhs, rhs, slack) arrays of the lift of f at diag(x) against f(x), per row of x."""
    n = x.shape[-1]
    d = np.zeros(x.shape + (n,))
    d[:, np.arange(n), np.arange(n)] = x
    direct = f.rows(x)
    lifted = f.rows(stacked_spectrum(d))
    return lifted, direct, _deviation(lifted, direct)


def check_davis_restriction(f: SymmetricScalarFunction, x, tol: float) -> CheckResult:
    """Compare the lift evaluated at diag(x) with f(x) directly.

    For symmetric f these agree up to eigensolver noise regardless of the
    ordering of x, since the solver returns the sorted diagonal.
    """
    return first_result(davis_restriction_rows(f, _vector_arg(f, x)[None]), tol)


def _pnorm(p: float) -> SymmetricScalarFunction:
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"pnorm requires a finite p >= 1, got {p!r}")

    def evaluate_rows(x: np.ndarray) -> np.ndarray:
        # |x|^p may overflow to inf, which the checks and the CLI reject as non-finite
        with np.errstate(over="ignore"):
            return np.sum(np.abs(x) ** p, axis=-1) ** (1.0 / p)

    return SymmetricScalarFunction(
        f"pnorm:{p:g}", lambda x: float(evaluate_rows(x)), "convex",
        evaluate_rows=evaluate_rows,
    )


def _reduction(name: str, reduce, convexity: str) -> SymmetricScalarFunction:
    return SymmetricScalarFunction(
        name, lambda x: float(reduce(x)), convexity,
        evaluate_rows=lambda x: reduce(x, axis=-1),
    )


_BUILTINS = {
    "lse": SymmetricScalarFunction("lse", lse, "convex", evaluate_rows=lse_rows),
    "max": _reduction("max", np.max, "convex"),
    "min": _reduction("min", np.min, "concave"),
    "sum": _reduction("sum", np.sum, "convex"),
}


def builtin(name: str) -> SymmetricScalarFunction:
    """Look up a built-in by name: lse, max, min, sum, or pnorm:<p> with p >= 1."""
    key = str(name).strip()
    if key in _BUILTINS:
        return _BUILTINS[key]
    if key.startswith("pnorm:"):
        try:
            p = float(key.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed pnorm exponent in {name!r}") from None
        return _pnorm(p)
    raise ValueError(
        f"unknown function {name!r}; built-ins are lse, max, min, sum, pnorm:<p>"
    )


def builtin_names() -> tuple:
    """Names of the fixed built-ins (pnorm:<p> is parameterized, not listed)."""
    return tuple(_BUILTINS)
