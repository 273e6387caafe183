"""The record every check produces, with one shared pass rule."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CampaignTrialError, NonFiniteResult


def slack_bound(rhs: float, tol: float) -> float:
    """A check passes iff slack >= -slack_bound(rhs, tol)."""
    return tol * max(1.0, abs(rhs))


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
    eigenvalue.  In every case: passed iff slack >= -tol * max(1, |rhs|).
    A non-finite lhs, rhs or slack neither passes nor fails: it raises
    CampaignTrialError carrying `trial_seed`.
    """

    lhs: float
    rhs: float
    slack: float
    tol: float
    passed: bool
    trial_seed: int = 0

    def __post_init__(self):
        if not (self.tol >= 0):
            raise ValueError(f"tol must be nonnegative, got {self.tol!r}")
        if not all(math.isfinite(v) for v in (self.lhs, self.rhs, self.slack)):
            raise non_finite_trial(None, self.trial_seed, self.lhs, self.rhs, self.slack)
        expected = self.slack >= -slack_bound(self.rhs, self.tol)
        if bool(self.passed) != expected:
            raise ValueError("pass flag disagrees with the slack rule")


def first_result(values, tol: float) -> CheckResult:
    """The CheckResult of row 0 of stacked (lhs, rhs, slack) arrays."""
    lhs, rhs, slack = (float(v[0]) for v in values)
    return CheckResult(lhs, rhs, slack, tol, slack >= -slack_bound(rhs, tol))
