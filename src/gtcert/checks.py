"""The record every check produces, its one shared pass rule, and the validators of its inputs."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteInput, NonFiniteResult


def is_int(value) -> bool:
    """Whether `value` is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether `value` is a real number a float can hold (not 10**400), and not a bool, which Python counts as one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and not (
        is_int(value) and abs(value) > sys.float_info.max)


def as_numbers(values, err: str, complex_ok: bool) -> np.ndarray:
    """A new float64 array of `values`, or complex128 for complex ones where `complex_ok`.

    The one entry rule for public vectors and matrices: bool (as 0.0 and 1.0),
    integer, real and, where allowed, complex entries.  str, bytes, object and
    disallowed complex arrays raise TypeError, where numpy would read "2" as
    2.0, None as NaN and drop imaginary parts.
    """
    arr = np.array(values)
    kind = arr.dtype.kind
    if kind not in ("biufc" if complex_ok else "biuf"):
        raise TypeError(f"{err}: entries must be {'' if complex_ok else 'real '}numbers, got dtype {arr.dtype}")
    return arr.astype(np.complex128 if kind == "c" else np.float64, copy=False)


def require_tol(tol) -> None:
    """Raise ValueError unless `tol` is a finite real >= 0, the rule for every tolerance."""
    if not (is_real(tol) and math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite real >= 0, got {tol!r}")


def require_positive_int(value, name: str, error=ValueError) -> None:
    """Raise `error` unless `value` is an int >= 1 and not a bool, the rule for every size and count."""
    if not (is_int(value) and value >= 1):
        raise error(f"{name} must be a positive integer, got {value!r}")


def require_seed(seed, name: str = "seed") -> None:
    """Raise ValueError unless `seed` is an unsigned 64-bit int and not a bool, the rule for every seed.

    `derive_seed` applies it to its stream position too, under `name`.
    """
    if not (is_int(seed) and 0 <= seed < 2**64):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {seed!r}")


def require_finite_rows(stack: np.ndarray, what: str, error=NonFiniteInput, fault="contains NaN or infinity") -> None:
    """Raise `error(f"{what} {fault}")` unless every entry of a stack of vectors or matrices is finite."""
    if not np.isfinite(stack).all():
        raise error(f"{what} {fault}")


def slack_bound(rhs, tol: float):
    """A check passes iff slack >= -slack_bound(rhs, tol); elementwise for an array rhs."""
    return tol * np.maximum(1.0, np.abs(rhs))


def _not_finite(names, values) -> NonFiniteResult:
    return NonFiniteResult(" ".join(f"{name}={float(v)!r}" for name, v in zip(names, values)) + " is not finite")


@dataclass(frozen=True)
class CheckResult:
    """One inequality or identity check.

    For inequality checks, slack = rhs - lhs; for identity checks, slack is
    minus the absolute deviation; for spectrum checks, slack is the minimum
    eigenvalue.  The finite-difference Hessian check is an inequality: lhs is
    the deviation and rhs the stencil's own error bound.  In every case:
    passed iff slack >= -tol * max(1, |rhs|), with `tol` finite and >= 0.
    A non-finite lhs, rhs or slack neither passes nor fails: it raises
    NonFiniteResult, as `quiet_rows` does where the checks compute them.
    """

    lhs: float
    rhs: float
    slack: float
    tol: float

    def __post_init__(self):
        require_tol(self.tol)
        if not all(math.isfinite(v) for v in (self.lhs, self.rhs, self.slack)):
            raise _not_finite(("lhs", "rhs", "slack"), (self.lhs, self.rhs, self.slack))

    @property
    def passed(self) -> bool:
        return bool(self.slack >= -slack_bound(self.rhs, self.tol))


def quiet_rows(evaluate: Callable[..., tuple], *args, names=("lhs", "rhs", "slack")) -> tuple:
    """`evaluate(*args)`, a tuple of arrays with one entry per row, run without numpy's warnings.

    The one rule for a computed value: the first row where any array holds a
    NaN or an infinity raises NonFiniteResult, with that row's values,
    labelled by `names`, in the message.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = evaluate(*args)
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():  # one reduction when every row is finite, the usual case
        row = int(finite.argmin())
        raise _not_finite(names, (v[row] for v in values))
    return values


def first_result(evaluate: Callable[..., tuple], *args, tol: float) -> CheckResult:
    """The CheckResult of row 0 of the stacked check `evaluate(*args)`."""
    lhs, rhs, slack = (float(v[0]) for v in quiet_rows(evaluate, *args))
    return CheckResult(lhs, rhs, slack, tol)
