"""Symmetric functions of eigenvalues and their convexity checks.

A symmetric scalar function f (invariant under permutation of its arguments)
lifts to a unitarily invariant function of a Hermitian matrix by evaluation on
the spectrum: F(A) = f(eigenvalues of A).  The lift preserves convexity in
both directions, so convexity of F can be probed through f on vectors and
through F on matrix segments, independently.

Every f is row-wise: it maps a (T, n) array to T values, so a check evaluates
a whole stack of vectors or spectra in one call, and the public single checks
run the same evaluators on a batch of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checks import (CheckResult, first_result, is_real, quiet_rows, require_finite_rows,
                     require_positive_int, require_seed)
from .errors import DimensionMismatch, NonFiniteResult, require_rows
from .hermitian import HermitianMatrix, UnitaryMatrix, conj_t, diagonal_stack, stacked_spectrum, symmetrized
from .logsumexp import _as_vector, lse_rows


@dataclass(frozen=True)
class SymmetricScalarFunction:
    """Named scalar function of a real vector, permutation-invariant by contract.

    `rows` maps a finite (T, n) array to its T values, one per row, for any n.
    """

    name: str
    rows: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float:
        return float(self.rows(_as_vector(x)[None])[0])


@dataclass(frozen=True)
class SpectralFunction:
    """The lift of a symmetric scalar function to Hermitian matrices."""

    base: SymmetricScalarFunction

    @property
    def name(self) -> str:
        return self.base.name


def lift(f: SymmetricScalarFunction) -> SpectralFunction:
    return SpectralFunction(f)


def _same_n(a, b) -> None:
    """Raise DimensionMismatch unless the matrices a and b have the same size."""
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} x {a.n} vs {b.n} x {b.n}")


def lift_eval(func: SpectralFunction, a: HermitianMatrix) -> float:
    """F(A): the base function applied to the ascending spectrum of A.

    A value that overflows, or is NaN, raises NonFiniteResult, as it does in the checks.
    """
    values = quiet_rows(func.base.rows, stacked_spectrum(a.entries[None]))
    require_rows(np.isfinite(values), NonFiniteResult,
                 f"{func.name} of the matrix is not finite (the function overflows)")
    return float(values[0])


def check_symmetry(
    f: SymmetricScalarFunction,
    x,
    n_perms: int = 100,
    tol: float = 1e-12,
    seed: int = 0,
) -> CheckResult:
    """Probe permutation invariance of f at x.

    All n! permutations when n <= 5, otherwise n_perms draws seeded by `seed`
    (pure; `seed` follows `EnsembleSpec`'s rule), evaluated in one `rows` call
    under `checks.quiet_rows`.  Records the first largest deviation: slack is
    minus the largest |f(permuted x) - f(x)|, and a NaN deviation counts as the
    largest; a value that overflows is a non-finite result, not a warning.
    """
    arr = _as_vector(x)
    n = arr.shape[0]
    require_seed(seed)
    require_positive_int(n_perms, "n_perms")
    if n <= 5:
        perms = np.array(list(itertools.permutations(range(n))))
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        perms = np.array([rng.permutation(n) for _ in range(n_perms)])
    reference, values = quiet_rows(lambda: (f(arr), f.rows(arr[perms])))
    dev = _deviation(values, reference)
    worst = int(dev.argmin())
    lhs = float(values[worst]) if dev[worst] < 0 else reference
    return CheckResult(lhs=lhs, rhs=reference, slack=float(dev[worst]), tol=tol, trial_seed=seed)


def _deviation(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """-|value - reference|, where inf - inf gives NaN without a numpy warning.

    The non-finite slack then becomes a trial error, as any other does.
    """
    with np.errstate(invalid="ignore"):
        return -np.abs(value - reference)


def unitary_invariance_rows(f: SymmetricScalarFunction, a: np.ndarray, u: np.ndarray):
    """(lhs, rhs, slack) arrays of F(U* A U) against F(A) for stacks of A and U.

    Each A must be finite (`checks.require_finite_rows`); unitarity is not
    tested here, since every U comes from a `UnitaryMatrix` or from
    `haar_stack`.  Each U* A U must be finite; it is Hermitian in exact
    arithmetic, and `symmetrized` makes it exactly so.
    """
    require_finite_rows(a, "matrix")  # an infinite A is named, not the NaN it leaves in U* A U
    m = conj_t(u) @ a @ u
    require_finite_rows(m, "U* A U")  # a finite A can still make U* A U overflow
    values = f.rows(stacked_spectrum(np.concatenate([a, symmetrized(m)])))
    reference, rotated = np.split(values, 2)
    return rotated, reference, _deviation(rotated, reference)


def check_unitary_invariance(
    func: SpectralFunction, a: HermitianMatrix, u: UnitaryMatrix, tol: float
) -> CheckResult:
    """Compare F(U* A U) against F(A); slack is minus the deviation."""
    _same_n(a, u)
    return first_result(unitary_invariance_rows, func.base, a.entries[None], u.entries[None], tol=tol)


def segment_rows(f: SymmetricScalarFunction, a: np.ndarray, b: np.ndarray, t: float = 0.5):
    """(F(tA + (1-t)B), tF(A) + (1-t)F(B), slack) arrays for stacks of A and B, F the lift of f.

    slack = chord - F(point) is nonnegative when f is convex; all three
    spectra come from one solver call.  At t = 0.5, halving before adding
    gives the bits of (A + B)/2 outside the subnormal range, and stays
    finite where A + B overflows.
    """
    fa, fb, fp = np.split(f.rows(stacked_spectrum(np.concatenate([a, b, t * a + (1 - t) * b]))), 3)
    chord = t * fa + (1 - t) * fb
    return fp, chord, chord - fp


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
    """t F(A) + (1-t) F(B) - F(t A + (1-t) B) for t in [0, 1].

    A NaN or infinite value raises the checks' CampaignTrialError, so the residual is always finite.
    """
    if not (is_real(t) and 0.0 <= t <= 1.0):
        raise ValueError(f"t must be a real in [0, 1], got {t!r}")
    _same_n(a, b)
    return first_result(segment_rows, func.base, a.entries[None], b.entries[None], t, tol=0.0).slack


def davis_restriction_rows(f: SymmetricScalarFunction, x: np.ndarray):
    """(lhs, rhs, slack) arrays of the lift of f at diag(x) against f(x), per row of x."""
    direct = f.rows(x)
    lifted = f.rows(stacked_spectrum(diagonal_stack(x)))
    return lifted, direct, _deviation(lifted, direct)


def check_davis_restriction(f: SymmetricScalarFunction, x, tol: float) -> CheckResult:
    """Compare the lift evaluated at diag(x) with f(x) directly.

    For symmetric f these agree up to eigensolver noise regardless of the
    ordering of x, since the solver returns the sorted diagonal.
    """
    return first_result(davis_restriction_rows, f, _as_vector(x)[None], tol=tol)


def _pnorm(p: float) -> SymmetricScalarFunction:
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"pnorm requires a finite p >= 1, got {p!r}")

    def rows(x: np.ndarray) -> np.ndarray:
        # |x|^p may overflow to inf, which the checks and the CLI reject as non-finite
        with np.errstate(over="ignore"):
            return np.sum(np.abs(x) ** p, axis=-1) ** (1.0 / p)

    # the shortest spelling that reads back as p, so that builtin(name) is this function again
    return SymmetricScalarFunction(f"pnorm:{repr(p).removesuffix('.0')}", rows)


def _reduction(name: str, reduce) -> SymmetricScalarFunction:
    return SymmetricScalarFunction(name, lambda x: reduce(x, axis=-1))


_BUILTINS = {
    "lse": SymmetricScalarFunction("lse", lse_rows),
    "max": _reduction("max", np.max),
    "min": _reduction("min", np.min),
    "sum": _reduction("sum", np.sum),
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
