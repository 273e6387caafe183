"""Mutation suite: campaigns over a small fixed grid catch known bugs in the log-trace-exp kernels.

Each mutant replaces `gt._log_trace_exp_rows` or `gt._log_trace_exp_product_rows`
and runs GT_WEAK and GT_STRONG over gue/goe/diag x n in {1, 2, 8} x scale in
{1, 1000}, 200 trials each, seed 11, tol 1e-10: 36 campaigns.  A mutant is
caught when a campaign reports a violation or aborts with a CampaignTrialError.
The mutants that no campaign catches are strict xfails, each naming the check
kind that should catch it (ROADMAP item 2); a new kind that catches one turns
its xfail into a failure, and the mark then goes.
"""

import numpy as np
import pytest

from gtcert import CampaignConfig, CampaignTrialError, EnsembleSpec, gt, run_campaign
from gtcert.hermitian import conj_t, stacked_spectrum
from gtcert.logsumexp import lse_rows

LSE_ROWS = gt._log_trace_exp_rows


def product_rows(log_weight):
    """gt's log tr(exp A exp B) kernel, with `log_weight(U*V)` for the log weights log |(U*V)_ij|^2."""
    def rows(a, b):
        w, v = stacked_spectrum(np.concatenate([a, b]), vectors=True)
        (wa, wb), (va, vb) = np.split(w, 2), np.split(v, 2)
        terms = wa[:, :, None] + wb[:, None, :] + log_weight(conj_t(va) @ vb)
        return lse_rows(terms.reshape(len(terms), -1))
    return rows


MUTANTS = {
    "sign flip": ("_log_trace_exp_rows", lambda s: -LSE_ROWS(s)),
    "lse without the max shift": ("_log_trace_exp_rows", lambda s: np.log(np.exp(stacked_spectrum(s)).sum(axis=1))),
    "transposed overlap": ("_log_trace_exp_product_rows",
                           product_rows(lambda o: np.log(np.abs(o.swapaxes(-1, -2)) ** 2))),
    "lse(diag A)": ("_log_trace_exp_rows", lambda s: lse_rows(np.diagonal(s, axis1=1, axis2=2).real)),
    "lambda_max": ("_log_trace_exp_rows", lambda s: stacked_spectrum(s)[:, -1]),
    "unsquared log|overlap|": ("_log_trace_exp_product_rows", product_rows(lambda o: np.log(np.abs(o)))),
    "rhs = F(A) + F(B)": ("_log_trace_exp_product_rows", lambda a, b: LSE_ROWS(a) + LSE_ROWS(b)),
}

# the mutants that survive every campaign of the grid, and the kind that should catch each
SURVIVORS = {
    "lse(diag A)": "SPECTRAL_IDENTITY",
    "lambda_max": "SPECTRAL_IDENTITY",
    "unsquared log|overlap|": "PRODUCT_TRACE_ORACLE",
    "rhs = F(A) + F(B)": "GT_EQUALITY",
}


def caught_campaigns() -> int:
    """How many campaigns of the grid report a violation or abort with a trial error."""
    caught = 0
    for kind in ("GT_WEAK", "GT_STRONG"):
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
    # so that a caught mutant is caught for its mutation
    assert caught_campaigns() == 0


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason=f"no campaign catches it; {SURVIVORS[name]} should")) if name in SURVIVORS else name
    for name in MUTANTS
])
def test_mutant_is_caught(name, monkeypatch):
    target, mutant = MUTANTS[name]
    monkeypatch.setattr(gt, target, mutant)
    # a mutant's overflow must be caught by the campaign, not by the warnings-as-errors filter
    with np.errstate(all="ignore"):
        assert caught_campaigns() > 0
