"""The record every check produces, its one shared pass rule, and the validators of its inputs."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CampaignTrialError, NonFiniteResult


def is_int(value) -> bool:
    """Whether `value` is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether `value` is a real number and not a bool, which Python counts as one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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


def slack_bound(rhs, tol: float):
    """A check passes iff slack >= -slack_bound(rhs, tol); elementwise for an array rhs."""
    return tol * np.maximum(1.0, np.abs(rhs))


def non_finite_trial(trial_index, trial_seed: int, lhs, rhs, slack) -> CampaignTrialError:
    """The error for a check whose lhs, rhs or slack is NaN or infinite."""
    return CampaignTrialError(
        trial_index,
        trial_seed,
        NonFiniteResult(f"lhs={float(lhs)!r} rhs={float(rhs)!r} slack={float(slack)!r}"),
    )


@dataclass(frozen=True)
class CheckResult:
    """One inequality or identity check.

    For inequality checks, slack = rhs - lhs; for identity checks, slack is
    minus the absolute deviation; for spectrum checks, slack is the minimum
    eigenvalue.  In every case: passed iff slack >= -tol * max(1, |rhs|),
    with `tol` finite and >= 0.
    A non-finite lhs, rhs or slack neither passes nor fails: it raises
    CampaignTrialError carrying `trial_seed`.
    """

    lhs: float
    rhs: float
    slack: float
    tol: float
    trial_seed: int = 0

    def __post_init__(self):
        require_tol(self.tol)
        if not all(math.isfinite(v) for v in (self.lhs, self.rhs, self.slack)):
            raise non_finite_trial(None, self.trial_seed, self.lhs, self.rhs, self.slack)

    @property
    def passed(self) -> bool:
        return bool(self.slack >= -slack_bound(self.rhs, self.tol))


def quiet_rows(evaluate: Callable[..., tuple], *args) -> tuple:
    """`evaluate(*args)`, the (lhs, rhs, slack) arrays of a stacked check, without numpy's warnings.

    A value that overflows, or is NaN, ends as an Error or a non-finite
    result, so the warning would only print a line before that error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return evaluate(*args)


def first_result(evaluate: Callable[..., tuple], *args, tol: float) -> CheckResult:
    """The CheckResult of row 0 of the stacked check `evaluate(*args)`."""
    lhs, rhs, slack = (float(v[0]) for v in quiet_rows(evaluate, *args))
    return CheckResult(lhs, rhs, slack, tol)
