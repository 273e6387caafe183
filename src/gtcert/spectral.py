"""Symmetric functions of eigenvalues and their convexity checks.

A symmetric scalar function f (invariant under permutation of its arguments)
lifts to a unitarily invariant function of a Hermitian matrix by evaluation on
the spectrum: F(A) = f(eigenvalues of A).  By Davis's theorem that lift is
the only unitarily invariant F that restricts to f on diagonal matrices, so
a `SymmetricScalarFunction` evaluates its own lift (`lift_rows`), `lift(f)`
is f itself, and `lift_eval` and every check here take f.  The lift
preserves convexity in both directions, so convexity of F can be probed
through f on vectors and through F on matrix segments, independently.

Every f is row-wise: it maps a (T, n) array to T values, so a check evaluates
a whole stack of vectors or spectra in one call, and the public single checks
run the same evaluators on a batch of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checks import CheckResult, first_result, is_real, quiet_rows, require_positive_int, require_seed
from .errors import DimensionMismatch
from .hermitian import HermitianMatrix, UnitaryMatrix, conj_t, diagonal_stack, stacked_spectrum, symmetrized
from .logsumexp import _as_vector, lse_rows


@dataclass(frozen=True)
class SymmetricScalarFunction:
    """Named scalar function of a real vector, permutation-invariant by contract.

    `rows` maps a finite (T, n) array to its T values, one per row, for any n.
    Calling the function evaluates `rows` on one vector under
    `checks.quiet_rows`, so a value that overflows raises NonFiniteResult.
    `lift_rows` evaluates the lift F = f(spectrum) on stacks of matrices.
    """

    name: str
    rows: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float:
        (value,) = quiet_rows(lambda v: (self.rows(v),), _as_vector(x)[None], names=(self.name,))
        return float(value[0])

    def lift_rows(self, *stacks) -> tuple:
        """F of every matrix of each (T, n, n) stack, all of one T, as one array per stack.

        The one place F is computed: the spectra of all the stacks come from
        one `stacked_spectrum` call over their concatenation (a lone stack is
        passed as it is), and `rows` maps them to values.
        """
        values = self.rows(stacked_spectrum(stacks[0] if len(stacks) == 1 else np.concatenate(stacks)))
        t = len(stacks[0])
        return tuple(values[k * t:(k + 1) * t] for k in range(len(stacks)))  # views, cheaper than np.split


def lift(f: SymmetricScalarFunction) -> SymmetricScalarFunction:
    """F = lift(f), the function A -> f(spectrum of A): f itself, which evaluates its lift by `lift_rows`.

    Kept as the public name of the operation, which the tests, the
    acceptance gate and the benchmark call; every function here takes f.
    """
    return f


def _same_n(a, b) -> None:
    """Raise DimensionMismatch unless the matrices a and b have the same size."""
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} x {a.n} vs {b.n} x {b.n}")


def lift_eval(f: SymmetricScalarFunction, a: HermitianMatrix) -> float:
    """F(A): f applied to the ascending spectrum of A, by `f.lift_rows`.

    A value that overflows raises NonFiniteResult, as f does.
    """
    (value,) = quiet_rows(f.lift_rows, a.entries[None], names=(f.name,))
    return float(value[0])


def check_symmetry(
    f: SymmetricScalarFunction,
    x,
    n_perms: int = 100,
    tol: float = 1e-12,
    seed: int = 0,
) -> CheckResult:
    """Probe permutation invariance of f at x.

    All n! permutations when n <= 5, otherwise n_perms draws seeded by `seed`
    (pure; `seed` follows `EnsembleSpec`'s rule).  x and its permutations are
    evaluated in one `rows` call under `checks.quiet_rows`, so a value or a
    deviation that is not finite raises NonFiniteResult, whose message gives
    the lhs, rhs and slack of the first permutation where one is not finite.
    Records the first largest deviation: slack is minus the largest
    |f(permuted x) - f(x)|.
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

    def rows(stack):  # row 0 is x; (f(permuted x), f(x), minus the deviation) per permutation
        values = f.rows(stack)
        return values[1:], values[:1].repeat(len(perms)), -np.abs(values[1:] - values[0])

    values, reference, dev = quiet_rows(rows, np.concatenate([arr[None], arr[perms]]))
    worst = int(dev.argmin())
    lhs = values[worst] if dev[worst] < 0 else reference[worst]
    return CheckResult(lhs=float(lhs), rhs=float(reference[worst]), slack=float(dev[worst]), tol=tol)


def unitary_invariance_rows(f: SymmetricScalarFunction, a: np.ndarray, u: np.ndarray):
    """(lhs, rhs, slack) arrays of F(U* A U) against F(A) for stacks of A and U.

    Nothing is tested here: A is finite where it enters (a `HermitianMatrix`
    or a campaign's tested draw), and U is a `UnitaryMatrix` or a `haar_stack`
    draw.  U* A U is Hermitian in exact arithmetic, and `symmetrized` makes it
    exactly so; where it overflows, `stacked_spectrum` raises NonFiniteResult.
    """
    reference, rotated = f.lift_rows(a, symmetrized(conj_t(u) @ a @ u))
    return rotated, reference, -np.abs(rotated - reference)


def check_unitary_invariance(
    f: SymmetricScalarFunction, a: HermitianMatrix, u: UnitaryMatrix, tol: float
) -> CheckResult:
    """Compare F(U* A U) against F(A), F the lift of f; slack is minus the deviation."""
    _same_n(a, u)
    return first_result(unitary_invariance_rows, f, a.entries[None], u.entries[None], tol=tol)


def segment_rows(f: SymmetricScalarFunction, a: np.ndarray, b: np.ndarray, t: float = 0.5):
    """(F(tA + (1-t)B), tF(A) + (1-t)F(B), slack) arrays for stacks of A and B, F the lift of f.

    slack = chord - F(point) is nonnegative when f is convex; all three
    spectra come from one solver call.  At t = 0.5, halving before adding
    gives the bits of (A + B)/2 outside the subnormal range, and stays
    finite where A + B overflows.
    """
    fa, fb, fp = f.lift_rows(a, b, t * a + (1 - t) * b)
    chord = t * fa + (1 - t) * fb
    return fp, chord, chord - fp


def midpoint_convexity_residual(
    f: SymmetricScalarFunction, a: HermitianMatrix, b: HermitianMatrix
) -> float:
    """(F(A) + F(B))/2 - F((A+B)/2), F the lift of f; nonnegative when f is convex.

    Negative values within -1e-10 * max(1, |F|) are floating-point noise, not
    counterexamples.
    """
    return segment_convexity_residual(f, a, b, 0.5)


def segment_convexity_residual(
    f: SymmetricScalarFunction, a: HermitianMatrix, b: HermitianMatrix, t: float
) -> float:
    """t F(A) + (1-t) F(B) - F(t A + (1-t) B) for t in [0, 1], F the lift of f.

    A NaN or infinite term raises NonFiniteResult, as the checks do, so the residual is always finite.
    """
    if not (is_real(t) and 0.0 <= t <= 1.0):
        raise ValueError(f"t must be a real in [0, 1], got {t!r}")
    _same_n(a, b)
    return first_result(segment_rows, f, a.entries[None], b.entries[None], t, tol=0.0).slack


def davis_restriction_rows(f: SymmetricScalarFunction, x: np.ndarray):
    """(lhs, rhs, slack) arrays of the lift of f at diag(x) against f(x), per row of x."""
    direct = f.rows(x)
    (lifted,) = f.lift_rows(diagonal_stack(x))
    return lifted, direct, -np.abs(lifted - direct)


def check_davis_restriction(f: SymmetricScalarFunction, x, tol: float) -> CheckResult:
    """Compare F(diag(x)), F the lift of f, with f(x) directly.

    For symmetric f these agree up to eigensolver noise regardless of the
    ordering of x, since the solver returns the sorted diagonal.
    """
    return first_result(davis_restriction_rows, f, _as_vector(x)[None], tol=tol)


def _pnorm(p: float) -> SymmetricScalarFunction:
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"pnorm requires a finite p >= 1, got {p!r}")

    def rows(x: np.ndarray) -> np.ndarray:
        # m (sum (|x|/m)^p)^(1/p) with m = max|x|: the largest term is 1, so
        # |x|^p neither underflows to a wrong 0 nor overflows where the norm
        # is finite; a row of zeros divides by 1 and gives 0
        a = np.abs(x)
        m = a.max(axis=-1, keepdims=True)
        return m[..., 0] * np.sum((a / np.where(m > 0, m, 1.0)) ** p, axis=-1) ** (1.0 / p)

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
