"""Tests for trace-inequality checks and the seeded campaign runner."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtcert import (
    CampaignConfig,
    CampaignTrialError,
    CheckResult,
    ConvergenceFailure,
    DimensionMismatch,
    EnsembleSpec,
    HermitianMatrix,
    NonFiniteResult,
    builtin,
    check_davis_restriction,
    check_unitary_invariance,
    convexity_check,
    derive_seed,
    eigh,
    gt_strong_check,
    gt_weak_check,
    hessian_fd,
    lift,
    log_trace_exp,
    log_trace_exp_product,
    lse_hessian_analytic,
    matrix_exp,
    psd_certify,
    random_hermitian,
    random_unitary,
    random_vector,
    run_campaign,
    trace_re,
)
import gtcert.gt as gt_module
from gtcert.hermitian import pcg64_states
from gtcert.checks import slack_bound
from gtcert.errors import require_rows
from gtcert.gt import CHECK_KINDS


def diag(*values):
    return HermitianMatrix(np.diag(np.asarray(values, dtype=float)).astype(complex))


def gue(n, seed, scale=1.0):
    return random_hermitian(EnsembleSpec("gue", n, scale, seed))


PAULI_X = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


class TestLogTraceExp:
    def test_zero_matrix(self):
        a = HermitianMatrix(np.zeros((4, 4), dtype=complex))
        assert log_trace_exp(a) == pytest.approx(math.log(4.0), abs=1e-14)

    def test_huge_spectrum_does_not_overflow(self):
        assert log_trace_exp(diag(1000.0, 0.0)) == pytest.approx(1000.0, abs=1e-12)

    def test_closed_form_two_by_two(self):
        # eigenvalues of [[1,1],[1,-1]] are +-sqrt(2)
        a = HermitianMatrix(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        assert log_trace_exp(a) == pytest.approx(
            math.log(2.0 * math.cosh(math.sqrt(2.0))), abs=1e-12
        )

    def test_agrees_with_trace_of_exponential(self):
        for seed in range(10):
            a = gue(5, seed)
            direct = math.log(trace_re(matrix_exp(a)))
            assert log_trace_exp(a) == pytest.approx(direct, rel=1e-12)

    def test_bounds_from_top_eigenvalue(self):
        a = gue(7, 3)
        top = float(eigh(a).eigenvalues[-1])
        val = log_trace_exp(a)
        assert top <= val <= top + math.log(7.0) + 1e-12


class TestGtWeakCheck:
    def test_zero_pair(self):
        z = HermitianMatrix(np.zeros((2, 2), dtype=complex))
        res = gt_weak_check(z, z)
        assert res.lhs == pytest.approx(math.log(2.0), abs=1e-14)
        assert res.rhs == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
        assert res.slack == pytest.approx(math.log(2.0), abs=1e-14)
        assert res.passed

    def test_worked_instance_closed_form(self):
        res = gt_weak_check(diag(1.0, -1.0), PAULI_X)
        assert res.lhs == pytest.approx(math.log(2.0 * math.cosh(math.sqrt(2.0))), abs=1e-9)
        assert res.rhs == pytest.approx(2.0 * math.log(2.0 * math.cosh(1.0)), abs=1e-9)
        assert res.passed

    def test_scalar_matrices_slack_is_log_n(self):
        # A = aI, B = bI: lhs = a+b+log n, rhs = a+b+2 log n
        n = 6
        a = HermitianMatrix((2.5 * np.eye(n)).astype(complex))
        b = HermitianMatrix((-0.75 * np.eye(n)).astype(complex))
        assert gt_weak_check(a, b).slack == pytest.approx(math.log(n), abs=1e-12)

    def test_one_dimensional_equality(self):
        # tr exp is exp, and the inequality collapses to equality
        res = gt_weak_check(diag(1.2), diag(-0.4))
        assert abs(res.slack - math.log(1.0)) <= 1e-12
        assert res.passed

    def test_commuting_pair(self):
        a, b = diag(2.0, 0.0), diag(0.0, 2.0)
        res = gt_weak_check(a, b)
        expected_lhs = math.log(2.0) + 2.0  # A+B = 2I
        assert res.lhs == pytest.approx(expected_lhs, abs=1e-12)
        assert res.passed

    def test_random_pairs_hold(self):
        for seed in range(200):
            assert gt_weak_check(gue(6, 2 * seed), gue(6, 2 * seed + 1)).passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gt_weak_check(gue(2, 0), gue(3, 0))


class TestGtStrongCheck:
    def test_tighter_than_product_bound(self):
        for seed in range(50):
            a, b = gue(5, 2 * seed), gue(5, 2 * seed + 1)
            strong = gt_strong_check(a, b)
            weak = gt_weak_check(a, b)
            assert strong.passed
            assert strong.rhs <= weak.rhs + 1e-12
            assert strong.lhs == pytest.approx(weak.lhs, abs=1e-12)

    def test_commuting_pair_is_equality(self):
        res = gt_strong_check(diag(1.0, -2.0), diag(0.5, 0.25))
        assert abs(res.slack) <= 1e-12

    def test_product_log_trace_stability(self):
        # shifted evaluation keeps large spectra finite
        val = log_trace_exp_product(diag(500.0, 0.0), diag(400.0, 0.0))
        assert val == pytest.approx(900.0, abs=1e-9)


class TestConvexityCheck:
    def test_equal_endpoints(self):
        a = gue(4, 77)
        res = convexity_check(a, a)
        assert res.passed and abs(res.slack) <= 1e-12

    def test_worked_instance_closed_form(self):
        res = convexity_check(diag(1.0, -1.0), PAULI_X)
        f_end = math.log(2.0 * math.cosh(1.0))
        f_mid = math.log(2.0 * math.cosh(math.sqrt(2.0) / 2.0))
        assert res.lhs == pytest.approx(f_mid, abs=1e-9)
        assert res.rhs == pytest.approx(f_end, abs=1e-9)
        assert res.slack == pytest.approx(f_end - f_mid, abs=1e-9)

    def test_commuting_diagonal_closed_form(self):
        # endpoints diag(2,0) and diag(0,2): slack = log(e^2 + 1) - log(2e)
        res = convexity_check(diag(2.0, 0.0), diag(0.0, 2.0))
        assert res.slack == pytest.approx(0.4337808304830272, abs=1e-12)


class TestCheckResult:
    def test_pass_rule_enforced(self):
        with pytest.raises(ValueError):
            CheckResult(lhs=0.0, rhs=1.0, slack=1.0, tol=1e-10, passed=False)
        with pytest.raises(ValueError):
            CheckResult(lhs=0.0, rhs=1.0, slack=-1.0, tol=1e-10, passed=True)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            CheckResult(lhs=0.0, rhs=1.0, slack=1.0, tol=-1e-10, passed=True)

    @pytest.mark.parametrize("fields", [
        dict(lhs=math.nan),
        dict(rhs=-math.inf, slack=-math.inf),  # -inf >= -inf once passed
        dict(slack=math.inf),
    ])
    def test_non_finite_fields_are_trial_errors(self, fields):
        base = dict(lhs=0.0, rhs=0.0, slack=0.0, tol=1e-10, passed=True, trial_seed=5)
        with pytest.raises(CampaignTrialError) as info:
            CheckResult(**(base | fields))
        assert info.value.trial_seed == 5
        assert isinstance(info.value.cause, NonFiniteResult)


class TestSeedDerivation:
    def test_documented_mixing_function(self):
        # reference SplitMix64 values, computed independently
        mask = (1 << 64) - 1

        def reference(seed, index):
            z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        for seed in (0, 1, 42, 2**64 - 1):
            for index in (0, 1, 999):
                assert derive_seed(seed, index) == reference(seed, index)

    def test_spread(self):
        seen = {derive_seed(123, i) for i in range(10_000)}
        assert len(seen) == 10_000
        assert all(0 <= s < 2**64 for s in seen)

    def test_vectorized_matches_scalar(self):
        indices = np.arange(1100)
        for seed in (0, 1, 42, 2**64 - 1):
            seeds = gt_module.derive_seeds(seed, indices)
            assert seeds.tolist() == [derive_seed(seed, i) for i in range(1100)]
            for k in (0, 1):
                assert gt_module.derive_seeds(seeds, k).tolist() == [
                    derive_seed(s, k) for s in seeds.tolist()
                ]

    @pytest.mark.parametrize("trials, chunk, streams", [(7, 16, 1), (2100, 64, 2), (1030, 1, 2)])
    def test_chunks_carry_each_trials_stream_states(self, trials, chunk, streams):
        # seeds and states come a block at a time; every chunk still gets, per
        # stream k, the state PCG64(derive_seed(trial_seed, k)) starts from
        seen = 0
        for start, seeds, states in gt_module._chunks(2**64 - 1, trials, chunk, streams):
            assert start == seen and 1 <= len(seeds) <= chunk
            assert seeds == [derive_seed(2**64 - 1, i) for i in range(start, start + len(seeds))]
            for k in range(streams):
                assert states[k] == pcg64_states([derive_seed(s, k) for s in seeds])
            seen += len(seeds)
        assert seen == trials


def config(kind, n=4, trials=50, tol=1e-10, seed=99, kind_ens="gue", scale=1.0, **kw):
    return CampaignConfig(kind, EnsembleSpec(kind_ens, n, scale, seed), trials, tol, **kw)


def kind_tol(kind):
    return 1e-6 if kind == "HESSIAN_FD_MATCH" else 1e-10


PAIR_CHECKS = {
    "GT_WEAK": gt_weak_check,
    "GT_STRONG": gt_strong_check,
    "MIDPOINT_CONVEXITY": convexity_check,
}


def replay_slack(cfg, trial_seed):
    """Slack of one trial, re-drawn from its seed and run through the public single check."""
    ens, tol, kind = cfg.ensemble, cfg.tol, cfg.check_kind

    def spec(i):
        return dataclasses.replace(ens, seed=derive_seed(trial_seed, i))

    if kind in PAIR_CHECKS:
        return PAIR_CHECKS[kind](random_hermitian(spec(0)), random_hermitian(spec(1)), tol).slack
    if kind == "UNITARY_INVARIANCE":
        u = random_unitary(ens.n, derive_seed(trial_seed, 1))
        return check_unitary_invariance(lift(builtin("lse")), random_hermitian(spec(0)), u, tol).slack
    x = random_vector(spec(0))
    if kind == "DAVIS_RESTRICTION":
        return check_davis_restriction(builtin("lse"), x, tol).slack
    if kind == "HESSIAN_PSD":
        return psd_certify(lse_hessian_analytic(x), tol).min_eigenvalue
    return -float(np.max(np.abs(lse_hessian_analytic(x).entries - hessian_fd(x).entries)))


class TestRunCampaign:
    @pytest.mark.parametrize("kind", [
        "GT_WEAK", "MIDPOINT_CONVEXITY", "HESSIAN_PSD", "UNITARY_INVARIANCE",
        "GT_STRONG", "HESSIAN_FD_MATCH", "DAVIS_RESTRICTION",
    ])
    def test_every_kind_runs_clean(self, kind):
        tol = 1e-6 if kind == "HESSIAN_FD_MATCH" else 1e-10
        report = run_campaign(config(kind, trials=25, tol=tol))
        assert report.violations == 0
        assert report.trials_run == 25
        assert report.generator_id == "numpy-pcg64"

    def test_reports_are_deterministic(self):
        a = run_campaign(config("GT_WEAK", trials=40))
        b = run_campaign(config("GT_WEAK", trials=40))
        assert a.to_json_dict() | {"wall_time_s": 0} == b.to_json_dict() | {"wall_time_s": 0}

    def test_parallel_matches_serial(self):
        serial = run_campaign(config("MIDPOINT_CONVEXITY", trials=60))
        parallel = run_campaign(config("MIDPOINT_CONVEXITY", trials=60, parallel=True))
        assert serial.to_json_dict() | {"wall_time_s": 0} == parallel.to_json_dict() | {"wall_time_s": 0}

    def test_worst_trial_seed_replays(self):
        # over more than one chunk, every kind's worst slack is exactly the
        # slack of its public single check on the worst trial
        for kind in CHECK_KINDS:
            for n in (1, 2, 8):
                trials = gt_module._chunk_trials(n) + 6
                report = run_campaign(config(kind, n=n, trials=trials, tol=kind_tol(kind)))
                slack = replay_slack(report.config, report.worst_trial_seed)
                assert slack == report.worst_slack, (kind, n)

    def test_report_independent_of_chunk_size(self, monkeypatch):
        for kind in CHECK_KINDS:
            cfg = config(kind, n=3, trials=gt_module._chunk_trials(3) + 6, tol=kind_tol(kind))
            chunked = run_campaign(cfg).to_json_dict() | {"wall_time_s": 0}
            monkeypatch.setattr(gt_module, "_CHUNK_ENTRIES", 1)
            one_by_one = run_campaign(cfg).to_json_dict() | {"wall_time_s": 0}
            monkeypatch.undo()
            assert chunked == one_by_one, kind

    def test_non_finite_result_is_a_trial_error(self):
        # pnorm:1e6 overflows to inf on both sides of the restriction, so the
        # deviation is NaN; it used to count as a violation with worst_slack=nan
        cfg = CampaignConfig(
            "DAVIS_RESTRICTION", EnsembleSpec("gue", 8, 1.0, 1), 20, 1e-10, fn="pnorm:1e6"
        )
        with pytest.raises(CampaignTrialError) as info:
            run_campaign(cfg)
        assert isinstance(info.value.cause, NonFiniteResult)
        assert info.value.trial_seed == derive_seed(1, info.value.trial_index)

    def test_strong_bound_finite_for_large_commuting_pairs(self):
        # diagonal matrices commute, so the strong bound holds with equality;
        # the matrix-exponential form underflowed to rhs=-inf and passed on
        # -inf >= -inf
        report = run_campaign(
            CampaignConfig("GT_STRONG", EnsembleSpec("diag", 3, 1000.0, 1), 50, 1e-10)
        )
        assert report.violations == 0
        assert math.isfinite(report.worst_slack)
        r = gt_strong_check(
            *(random_hermitian(EnsembleSpec("diag", 3, 1000.0, derive_seed(report.worst_trial_seed, i)))
              for i in (0, 1)),
            1e-10,
        )
        assert r.slack == report.worst_slack
        assert abs(r.slack) <= slack_bound(r.rhs, 1e-10)

    def test_fd_match_holds_at_large_scale(self):
        # the stencil at x itself lost about |lse(x)|*eps/h^2 to rounding, so
        # at diag scale 1000 one trial missed the 1e-6 floor (slack -1.40e-6);
        # at x - max(x) the worst slack is about -5.6e-9
        report = run_campaign(
            CampaignConfig("HESSIAN_FD_MATCH", EnsembleSpec("diag", 16, 1000.0, 1), 20, 1e-6)
        )
        assert report.violations == 0
        assert report.worst_slack > -1e-7

    @settings(max_examples=14)
    @given(
        kind=st.sampled_from(CHECK_KINDS),
        ensemble=st.sampled_from(["gue", "goe", "diag"]),
        n=st.integers(1, 4),
        log10_scale=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_no_non_finite_report_at_any_scale(self, kind, ensemble, n, log10_scale, seed):
        cfg = CampaignConfig(
            kind, EnsembleSpec(ensemble, n, 10.0 ** log10_scale, seed), 3, kind_tol(kind)
        )
        try:
            report = run_campaign(cfg)
        except CampaignTrialError:
            return
        assert math.isfinite(report.worst_slack)
        json.dumps(report.to_json_dict(), allow_nan=False)

    def test_json_field_names(self):
        doc = run_campaign(config("HESSIAN_PSD", trials=5)).to_json_dict()
        assert list(doc) == [
            "check_kind", "ensemble", "trials", "violations", "worst_slack",
            "worst_trial_seed", "tol", "generator_id", "wall_time_s",
        ]
        assert list(doc["ensemble"]) == ["kind", "n", "scale", "seed"]
        json.dumps(doc)  # serializable

    def test_goe_and_diag_ensembles(self):
        for kind_ens in ("goe", "diag"):
            report = run_campaign(config("GT_WEAK", trials=20, kind_ens=kind_ens))
            assert report.violations == 0

    def test_named_function_campaigns(self):
        report = run_campaign(config("UNITARY_INVARIANCE", trials=20, fn="pnorm:2"))
        assert report.violations == 0
        report = run_campaign(config("DAVIS_RESTRICTION", trials=20, fn="max"))
        assert report.violations == 0

    def test_trial_error_carries_seed(self, monkeypatch):
        def explode(f, *stacks):
            raise DimensionMismatch("synthetic failure")

        def explode_row_2(f, *stacks):
            require_rows(np.arange(len(stacks[0])) != 2, DimensionMismatch, "synthetic failure")

        check = gt_module.CHECKS["GT_WEAK"]
        for evaluate, index in ((explode, 0), (explode_row_2, 2)):
            monkeypatch.setitem(
                gt_module.CHECKS, "GT_WEAK", dataclasses.replace(check, evaluate=evaluate)
            )
            with pytest.raises(CampaignTrialError) as info:
                run_campaign(config("GT_WEAK", trials=3))
            assert info.value.trial_index == index
            assert info.value.trial_seed == derive_seed(99, index)

    def test_solver_failure_names_its_trial(self, monkeypatch):
        # A+B of trial 3 sits at row 2T + 3 of GT_WEAK's concatenated stack
        cfg = config("GT_WEAK", n=3, trials=5)
        spec = [dataclasses.replace(cfg.ensemble, seed=derive_seed(derive_seed(99, 3), i))
                for i in (0, 1)]
        bad = random_hermitian(spec[0]).entries + random_hermitian(spec[1]).entries
        solve = np.linalg.eigvalsh

        def flaky(m):
            if any(np.array_equal(x, bad) for x in m.reshape(-1, 3, 3)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
        with pytest.raises(CampaignTrialError) as info:
            run_campaign(cfg)
        assert info.value.trial_index == 3
        assert info.value.trial_seed == derive_seed(99, 3)
        assert isinstance(info.value.cause, ConvergenceFailure)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            config("GT_MEDIUM")
        with pytest.raises(ValueError):
            config("GT_WEAK", trials=0)
        with pytest.raises(ValueError):
            config("GT_WEAK", tol=-1.0)
        with pytest.raises(ValueError):
            config("GT_WEAK", fn="median")

    def test_violations_counted_and_reported(self):
        # an impossible tolerance forces violations without faking math:
        # HESSIAN_FD_MATCH cannot meet 1e-16
        report = run_campaign(config("HESSIAN_FD_MATCH", trials=10, tol=1e-16))
        assert report.violations == 10
        assert report.worst_slack < 0
