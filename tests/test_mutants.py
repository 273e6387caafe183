"""Mutation suite: campaigns over a small fixed grid catch known bugs in the two F kernels.

Each mutant replaces the lift kernel `SymmetricScalarFunction.lift_rows`, which
computes F = f(spectrum) for every kind that lifts a function, or the product
kernel `gt._log_trace_exp_product_rows`, which only GT_STRONG calls.  It then
runs the kinds that call the kernel it replaces (GT_WEAK, GT_STRONG,
MIDPOINT_CONVEXITY, UNITARY_INVARIANCE and DAVIS_RESTRICTION for the lift
kernel, GT_STRONG for the product kernel) over gue/goe/diag x n in {1, 2, 8} x
scale in {1, 1000}, 200 trials each, seed 11, tol 1e-10: 90 or 18 campaigns.
A mutant is caught when a campaign reports a violation or aborts with a
CampaignTrialError.  The mutants that no campaign catches are strict xfails,
each naming the check kind that should catch it (ROADMAP item 2); a new kind
that catches one turns its xfail into a failure, and the mark then goes.

A mutant of a campaign evaluator that no campaign can catch, because it makes
a deviation exactly 0 or an eigenvalue that is never negative, is caught by a
named Tier-1 test instead: it is planted in `gt.CHECKS`, and that test's
assertion must fail.
"""

import dataclasses

import numpy as np
import pytest

from gtcert import CampaignConfig, CampaignTrialError, EnsembleSpec, builtin, gt, run_campaign
from gtcert.hermitian import conj_t, stacked_spectrum
from gtcert.logsumexp import _hessian_fd_bound, hessian_rows, lse_rows
from gtcert.spectral import SymmetricScalarFunction
from test_gt import (assert_fd_deviation_is_within_its_bound, assert_hessian_psd_slack_is_zero,
                     assert_restriction_sees_the_spectrum, assert_rotations_move_a)

# (owner, attribute, the kinds whose code calls it) of each kernel a mutant replaces
LIFT = (SymmetricScalarFunction, "lift_rows",
        ("GT_WEAK", "GT_STRONG", "MIDPOINT_CONVEXITY", "UNITARY_INVARIANCE", "DAVIS_RESTRICTION"))
PRODUCT = (gt, "_log_trace_exp_product_rows", ("GT_STRONG",))


def lift_rows(values):
    """A `lift_rows` that maps the concatenated stacks to `values(stack)`, split back per stack."""
    def rows(f, *stacks):
        return tuple(np.split(values(np.concatenate(stacks)), len(stacks)))
    return rows


def product_rows(log_weight):
    """gt's log tr(exp A exp B) kernel, with `log_weight(U*V)` for the log weights log |(U*V)_ij|^2."""
    def rows(a, b):
        w, v = stacked_spectrum(np.concatenate([a, b]), vectors=True)
        (wa, wb), (va, vb) = np.split(w, 2), np.split(v, 2)
        terms = wa[:, :, None] + wb[:, None, :] + log_weight(conj_t(va) @ vb)
        return lse_rows(terms.reshape(len(terms), -1))
    return rows


MUTANTS = {
    "sign flip": (LIFT, lift_rows(lambda s: -lse_rows(stacked_spectrum(s)))),
    "lse without the max shift": (LIFT, lift_rows(lambda s: np.log(np.exp(stacked_spectrum(s)).sum(axis=1)))),
    "transposed overlap": (PRODUCT, product_rows(lambda o: np.log(np.abs(o.swapaxes(-1, -2)) ** 2))),
    "lse(diag A)": (LIFT, lift_rows(lambda s: lse_rows(np.diagonal(s, axis1=1, axis2=2).real))),
    "lambda_max": (LIFT, lift_rows(lambda s: stacked_spectrum(s)[:, -1])),
    "unsquared log|overlap|": (PRODUCT, product_rows(lambda o: np.log(np.abs(o)))),
    "rhs = F(A) + F(B)": (PRODUCT, lambda a, b: np.add(*builtin("lse").lift_rows(a, b))),
}

# the mutants that survive every campaign of their grid, and the kind that should catch each
SURVIVORS = {
    "unsquared log|overlap|": "PRODUCT_TRACE_ORACLE",
    "rhs = F(A) + F(B)": "GT_EQUALITY",
}


def caught_campaigns(kinds) -> int:
    """How many campaigns of the grid over `kinds` report a violation or abort with a trial error."""
    caught = 0
    for kind in kinds:
        for ensemble in ("gue", "goe", "diag"):
            for n in (1, 2, 8):
                for scale in (1.0, 1000.0):
                    config = CampaignConfig(kind, EnsembleSpec(ensemble, n, scale, 11), 200, 1e-10)
                    try:
                        caught += run_campaign(config).violations > 0
                    except CampaignTrialError:
                        caught += 1
    return caught


def test_the_kernels_pass_the_grid():
    # so that a caught mutant is caught for its mutation; the lift kinds include GT_STRONG
    assert caught_campaigns(LIFT[2]) == 0


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason=f"no campaign catches it; {SURVIVORS[name]} should")) if name in SURVIVORS else name
    for name in MUTANTS
])
def test_mutant_is_caught(name, monkeypatch):
    (owner, attribute, kinds), mutant = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, mutant)
    # a mutant's overflow must be caught by the campaign, not by the warnings-as-errors filter
    with np.errstate(all="ignore"):
        assert caught_campaigns(kinds) > 0


def no_rotation(f, a, u):
    """`unitary_invariance_rows` comparing A with itself: its deviation is exactly 0 at any tol."""
    reference, rotated = f.lift_rows(a, a)
    return rotated, reference, -np.abs(rotated - reference)


def lambda_max_psd(f, x):
    """`_hessian_psd` taking the largest eigenvalue: it is never negative, so every trial passes."""
    w_max = stacked_spectrum(hessian_rows(x))[:, -1]
    return w_max, np.zeros_like(w_max), w_max


def fd_without_the_stencil(f, x):
    """`_hessian_fd_match` comparing the analytic Hessian with itself: its deviation is exactly 0 at any tol."""
    dev = np.abs(hessian_rows(x) - hessian_rows(x)).max(axis=(1, 2))
    bound = np.full_like(dev, _hessian_fd_bound(x.shape[1]))
    return dev, bound, bound - dev


def restriction_without_the_solver(f, x):
    """`davis_restriction_rows` comparing f(x) with itself: its deviation is exactly 0 at any tol."""
    direct = f.rows(x)
    return direct, direct, -np.abs(direct - direct)


# (check kind, mutant evaluator, the assertion of the Tier-1 test that catches it, the
# ensembles that test runs) of each evaluator mutant that no campaign can catch.  goe
# draws gue's vectors, so the vector kinds' tests run gue and diag
CAUGHT_BY_A_TEST = {
    # tests/test_gt.py::TestOneLiftKernel::test_unitary_invariance_rotates_a
    "no rotation": ("UNITARY_INVARIANCE", no_rotation, assert_rotations_move_a, ("gue", "goe")),
    # tests/test_gt.py::TestReplay::test_hessian_psd_slack_is_the_nullspace_zero
    "lambda_max Hessian": ("HESSIAN_PSD", lambda_max_psd, assert_hessian_psd_slack_is_zero, ("gue", "diag")),
    # tests/test_gt.py::TestOneLiftKernel::test_davis_restriction_sees_the_spectrum
    "restriction without the solver": ("DAVIS_RESTRICTION", restriction_without_the_solver,
                                       assert_restriction_sees_the_spectrum, ("gue", "diag")),
    # tests/test_gt.py::TestReplay::test_fd_deviation_is_within_its_bound
    "FD without the stencil": ("HESSIAN_FD_MATCH", fd_without_the_stencil,
                               assert_fd_deviation_is_within_its_bound, ("gue", "diag")),
}


@pytest.mark.parametrize("ensemble, name", [
    (ensemble, name) for name, row in CAUGHT_BY_A_TEST.items() for ensemble in row[3]
])
def test_mutant_is_caught_by_its_test(name, ensemble, monkeypatch):
    kind, mutant, check, _ = CAUGHT_BY_A_TEST[name]
    monkeypatch.setitem(gt.CHECKS, kind, dataclasses.replace(gt.CHECKS[kind], evaluate=mutant))
    with pytest.raises(AssertionError):
        check(ensemble, monkeypatch)
