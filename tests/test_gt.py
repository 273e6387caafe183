"""Tests for trace-inequality checks and the seeded campaign runner."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gtcert import (
    CampaignConfig,
    CampaignTrialError,
    CheckResult,
    ConvergenceFailure,
    DimensionMismatch,
    EnsembleSpec,
    HermitianMatrix,
    NonFiniteInput,
    NonFiniteResult,
    UnitaryMatrix,
    builtin,
    check_davis_restriction,
    check_unitary_invariance,
    convexity_check,
    derive_seed,
    gt_strong_check,
    gt_weak_check,
    hessian_fd,
    lift,
    lift_eval,
    log_trace_exp,
    log_trace_exp_product,
    lse_hessian_analytic,
    midpoint_convexity_residual,
    psd_certify,
    random_hermitian,
    random_unitary,
    random_vector,
    run_campaign,
    segment_convexity_residual,
)
import gtcert.gt as gt_module
from gtcert.hermitian import seed_words
from gtcert.checks import slack_bound
from gtcert.errors import require_rows
from gtcert.gt import CHECK_KINDS
from oracles import expm_taylor


def diag(*values):
    return HermitianMatrix(np.diag(np.asarray(values, dtype=float)).astype(complex))


def gue(n, seed, scale=1.0):
    return random_hermitian(EnsembleSpec("gue", n, scale, seed))


PAULI_X = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

# 1 x 1 and 2 x 2 matrices near the double limit: A + A overflows, and so does
# the top eigenvalue 2e308 of the all-1e308 matrix
BIG = diag(1e308)
BIG_BLOCK = HermitianMatrix(np.full((2, 2), 1e308, dtype=complex))

# a single check near the double limit raises its error without printing
# numpy's overflow or invalid-value warning first
quiet = pytest.mark.filterwarnings("error::RuntimeWarning")


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
            direct = math.log(np.trace(expm_taylor(a.entries)).real)
            assert log_trace_exp(a) == pytest.approx(direct, rel=1e-12)

    def test_bounds_from_top_eigenvalue(self):
        a = gue(7, 3)
        top = float(np.linalg.eigvalsh(a.entries)[-1])
        val = log_trace_exp(a)
        assert top <= val <= top + math.log(7.0) + 1e-12

    @quiet
    @pytest.mark.parametrize("evaluate", [
        log_trace_exp,
        lambda a: log_trace_exp_product(a, a),
        lambda a: lift_eval(lift(builtin("lse")), a),
        lambda a: midpoint_convexity_residual(lift(builtin("lse")), a, a),
    ])
    def test_overflowing_spectrum_is_an_error_without_a_warning(self, evaluate):
        # eigvalsh gives [0, inf] for the finite BIG_BLOCK; lse then computed
        # inf - inf, returning NaN after numpy's "invalid value" warning
        with pytest.raises(NonFiniteResult):
            evaluate(BIG_BLOCK)


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

    @quiet
    def test_overflowing_sum_is_an_error_without_a_warning(self):
        with pytest.raises(NonFiniteInput):
            gt_weak_check(BIG, BIG)

    def test_infinite_tol_rejected(self):
        # tol=inf passed any pair, while a campaign at tol=inf was refused
        with pytest.raises(ValueError):
            gt_weak_check(gue(2, 0), gue(2, 1), math.inf)


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

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_product_matches_series_oracle(self, n):
        # the rhs on non-commuting pairs, against log tr(e^A e^B) with no eigensolver
        for seed in range(3):
            a, b = gue(n, 2 * seed + n), gue(n, 2 * seed + n + 1)
            assert np.abs(a.entries @ b.entries - b.entries @ a.entries).max() > 0.1
            direct = math.log(np.trace(expm_taylor(a.entries) @ expm_taylor(b.entries)).real)
            assert log_trace_exp_product(a, b) == pytest.approx(direct, rel=1e-12)
            assert gt_strong_check(a, b).rhs == log_trace_exp_product(a, b)

    @quiet
    def test_overflowing_sum_is_an_error_without_a_warning(self):
        with pytest.raises(NonFiniteInput):
            gt_strong_check(BIG, BIG)


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

    @quiet
    def test_midpoint_at_the_double_limit(self):
        # A, B, (A+B)/2 and every F value are 1e308; forming A + B first overflowed
        res = convexity_check(BIG, BIG)
        assert (res.lhs, res.rhs, res.slack) == (1e308, 1e308, 0.0) and res.passed

    @quiet
    def test_overflowing_spectrum_is_an_error_without_a_warning(self):
        # the eigensolver names the overflow before any lhs, rhs or slack is formed
        with pytest.raises(NonFiniteResult):
            convexity_check(BIG_BLOCK, BIG_BLOCK)

    def test_slack_is_the_lse_midpoint_residual(self):
        # the check and the library residual run one segment evaluator
        f = lift(builtin("lse"))
        for n, seed in ((1, 0), (2, 1), (5, 2), (8, 3)):
            a, b = gue(n, 2 * seed, 30.0), gue(n, 2 * seed + 1)
            assert convexity_check(a, b).slack == midpoint_convexity_residual(f, a, b)
        assert convexity_check(BIG, BIG).slack == midpoint_convexity_residual(f, BIG, BIG)


class TestCheckResult:
    def test_pass_rule_enforced(self):
        # passed iff slack >= -tol * max(1, |rhs|): the bound is 1e-10 at
        # |rhs| <= 1 and 1e-8 at rhs = -100
        for rhs, bound in ((0.5, 1e-10), (-100.0, 1e-8)):
            assert CheckResult(lhs=0.0, rhs=rhs, slack=-bound, tol=1e-10).passed
            assert not CheckResult(lhs=0.0, rhs=rhs, slack=-1.01 * bound, tol=1e-10).passed
        assert CheckResult(lhs=0.0, rhs=1.0, slack=0.0, tol=0.0).passed
        with pytest.raises(TypeError):
            CheckResult(lhs=0.0, rhs=1.0, slack=1.0, tol=1e-10, passed=False)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            CheckResult(lhs=0.0, rhs=1.0, slack=1.0, tol=-1e-10)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 1j, "0", True])
    def test_tol_must_be_a_finite_real(self, tol):
        # tol=inf passed a slack of -5, and tol=True read as 1.0
        with pytest.raises(ValueError):
            CheckResult(lhs=0.0, rhs=1.0, slack=-5.0, tol=tol)

    @pytest.mark.parametrize("fields", [
        dict(lhs=math.nan),
        dict(rhs=-math.inf, slack=-math.inf),  # -inf >= -inf would pass
        dict(slack=math.inf),
    ])
    def test_non_finite_fields_are_trial_errors(self, fields):
        base = dict(lhs=0.0, rhs=0.0, slack=0.0, tol=1e-10, trial_seed=5)
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
            # every stream of every trial in one call, stream-major
            streams = gt_module.derive_seeds(seeds, np.arange(3)[:, None])
            assert streams.shape == (3, 1100)
            assert streams.tolist() == [[derive_seed(s, k) for s in seeds.tolist()] for k in range(3)]
        # scalar calls at the edges, where (index + 1) * gamma and the
        # finalizer products wrap mod 2^64: numpy warns when an operator on
        # uint64 scalars wraps, and derive_seeds must wrap silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, index in [(0, 0), (2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1),
                                (2**63, 2**63 - 1)]:
                assert int(gt_module.derive_seeds(seed, index)) == derive_seed(seed, index)
                assert int(gt_module.derive_seeds(np.uint64(seed), np.uint64(index))) == derive_seed(seed, index)

    @pytest.mark.parametrize("trials, chunk, streams", [(7, 16, 1), (2100, 64, 2), (1030, 1, 2)])
    def test_chunks_carry_each_trials_stream_states(self, trials, chunk, streams):
        # seeds and words come a block at a time; every chunk still gets, per
        # stream k, the seed words of PCG64(derive_seed(trial_seed, k))
        seen = 0
        for start, seeds, words in gt_module._chunks(2**64 - 1, trials, chunk, streams):
            assert start == seen and 1 <= len(seeds) <= chunk
            assert seeds == [derive_seed(2**64 - 1, i) for i in range(start, start + len(seeds))]
            assert words.shape == (streams, len(seeds), 4)
            for k in range(streams):
                assert np.array_equal(words[k], seed_words([derive_seed(s, k) for s in seeds]))
                assert words[k].flags.c_contiguous
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
    """Slack of one trial, re-drawn from its seed and run through the public single check.

    The lifting kinds check the built-in that `cfg.fn` names.
    """
    ens, tol, kind = cfg.ensemble, cfg.tol, cfg.check_kind

    def spec(i):
        return dataclasses.replace(ens, seed=derive_seed(trial_seed, i))

    if kind == "MIDPOINT_CONVEXITY" and cfg.fn != "lse":
        a, b = random_hermitian(spec(0)), random_hermitian(spec(1))
        return segment_convexity_residual(lift(builtin(cfg.fn)), a, b, 0.5)
    if kind in PAIR_CHECKS:
        return PAIR_CHECKS[kind](random_hermitian(spec(0)), random_hermitian(spec(1)), tol).slack
    if kind == "UNITARY_INVARIANCE":
        u = random_unitary(ens.n, derive_seed(trial_seed, 1))
        return check_unitary_invariance(lift(builtin(cfg.fn)), random_hermitian(spec(0)), u, tol).slack
    x = random_vector(spec(0))
    if kind == "DAVIS_RESTRICTION":
        return check_davis_restriction(builtin(cfg.fn), x, tol).slack
    if kind == "HESSIAN_PSD":
        return psd_certify(lse_hessian_analytic(x), tol).min_eigenvalue
    return -float(np.max(np.abs(lse_hessian_analytic(x).entries - hessian_fd(x).entries)))


def config_from_json(doc):
    """The CampaignConfig that a report's JSON fields name."""
    ens = doc["ensemble"]
    return CampaignConfig(doc["check_kind"], EnsembleSpec(ens["kind"], ens["n"], ens["scale"], ens["seed"]),
                          doc["trials"], doc["tol"], fn=doc.get("fn"))


def report_bytes(cfg):
    return json.dumps(run_campaign(cfg).to_json_dict() | {"wall_time_s": 0.0}).encode()


# spellings of one value, which configs store in one canonical form
SCALE_SPELLINGS = [(2, 2.0, np.float64(2.0)), (10**20, 1e20)]
TOL_SPELLINGS = (0, 0.0, -0.0, np.float64(0.0))
FN_SPELLINGS = [(None, "lse", " lse "), ("pnorm:2", "pnorm:2.0", " pnorm:2 ")]


def sampled_input_is_finite(cfg):
    """Whether every stream of every trial draws only finite entries, each drawn from its own PCG64."""
    ens = cfg.ensemble
    for i in range(cfg.trials):
        trial_seed = derive_seed(ens.seed, i)
        for k, draw in enumerate(gt_module.CHECKS[cfg.check_kind].streams):
            rng = np.random.Generator(np.random.PCG64(derive_seed(trial_seed, k)))
            if not np.isfinite(draw(ens, [rng])).all():
                return False
    return True


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
        # slack of its public single check on the worst trial; goe and diag
        # trials are solved in float64 in the campaign and in the replay
        for ensemble in ("gue", "goe", "diag"):
            for kind in CHECK_KINDS:
                for n in (1, 2, 8):
                    trials = gt_module._chunk_trials(gt_module.CHECKS[kind], n) + 6
                    cfg = config(kind, n=n, trials=trials, tol=kind_tol(kind), kind_ens=ensemble)
                    report = run_campaign(cfg)
                    slack = replay_slack(report.config, report.worst_trial_seed)
                    assert slack == report.worst_slack, (ensemble, kind, n)

    def test_report_independent_of_chunk_size(self, monkeypatch):
        # every kind at n=3, then DAVIS_RESTRICTION, whose chunks hold the
        # most trials, at n=1 (where its entries rule must not reach 0) and 16
        cases = [(kind, 3) for kind in CHECK_KINDS] + [("DAVIS_RESTRICTION", 1), ("DAVIS_RESTRICTION", 16)]
        for kind, n in cases:
            trials = gt_module._chunk_trials(gt_module.CHECKS[kind], n) + 6
            cfg = config(kind, n=n, trials=trials, tol=kind_tol(kind))
            chunked = run_campaign(cfg).to_json_dict() | {"wall_time_s": 0}
            monkeypatch.setattr(gt_module, "_CHUNK_ENTRIES", 1)
            one_by_one = run_campaign(cfg).to_json_dict() | {"wall_time_s": 0}
            monkeypatch.undo()
            assert chunked == one_by_one, (kind, n)

    def test_chunk_sizes(self):
        # positive and capped at the seed block for every kind and size;
        # DAVIS_RESTRICTION runs up to 512 trials at n=16 in one chunk
        for check in gt_module.CHECKS.values():
            for n in (1, 2, 3, 8, 16, 64, 200):
                assert 1 <= gt_module._chunk_trials(check, n) <= gt_module._SEED_BLOCK
        assert gt_module._chunk_trials(gt_module.CHECKS["DAVIS_RESTRICTION"], 16) == 512

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

    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_psd_rejects_infinite_sampled_vectors(self, seed):
        # the vector of trial 0 holds -inf, whose softmax weight is 0: the
        # Hessian stayed finite and the campaign reported violations=0,
        # worst_slack=0.0
        cfg = CampaignConfig("HESSIAN_PSD", EnsembleSpec("gue", 4, 1.7e308, seed), 1, 1e-10)
        trial_seed = derive_seed(seed, 0)
        x = random_vector(dataclasses.replace(cfg.ensemble, seed=derive_seed(trial_seed, 0)))
        assert np.isneginf(x).any()
        with pytest.raises(CampaignTrialError) as info:
            run_campaign(cfg)
        assert isinstance(info.value.cause, NonFiniteInput)
        assert info.value.trial_index == 0 and info.value.trial_seed == trial_seed

    @pytest.mark.parametrize("kind", CHECK_KINDS)
    def test_overflowing_draw_is_a_non_finite_input(self, kind):
        # UNITARY_INVARIANCE named the NaN that an infinite A leaves in U* A U
        # a Hermiticity failure, and HESSIAN_PSD passed
        cfg = CampaignConfig(kind, EnsembleSpec("gue", 4, 1.7e308, 0), 3, kind_tol(kind))
        with pytest.raises(CampaignTrialError) as info:
            run_campaign(cfg)
        assert isinstance(info.value.cause, NonFiniteInput), info.value
        assert info.value.trial_index == 0
        assert not sampled_input_is_finite(dataclasses.replace(cfg, trials=1))

    def test_psd_at_the_double_limit_with_finite_vectors(self):
        report = run_campaign(
            CampaignConfig("HESSIAN_PSD", EnsembleSpec("gue", 4, 1.7e308, 2), 1, 1e-10)
        )
        assert report.violations == 0 and math.isfinite(report.worst_slack)

    @settings(max_examples=20)
    @given(
        kind=st.sampled_from(CHECK_KINDS),
        ensemble=st.sampled_from(["gue", "goe", "diag"]),
        n=st.integers(1, 4),
        scale=st.one_of(
            st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
            # near the double limit, where sampled entries overflow to inf or NaN
            st.floats(1e307, 1.7e308),
        ),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(kind="HESSIAN_PSD", ensemble="gue", n=4, scale=1.7e308, seed=0)
    @example(kind="GT_WEAK", ensemble="goe", n=2, scale=1e308, seed=2)
    def test_no_non_finite_report_at_any_scale(self, kind, ensemble, n, scale, seed):
        if ensemble == "diag" and math.isinf(2.0 * scale):
            with pytest.raises(ValueError):  # numpy cannot draw on [-scale, scale]
                EnsembleSpec(ensemble, n, scale, seed)
            return
        cfg = CampaignConfig(kind, EnsembleSpec(ensemble, n, scale, seed), 3, kind_tol(kind))
        try:
            report = run_campaign(cfg)
        except CampaignTrialError:
            return
        # a report comes only from trials whose sampled input is all finite
        assert sampled_input_is_finite(cfg)
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

    @pytest.mark.parametrize("kind", gt_module.LIFTING_KINDS)
    def test_json_field_names_of_a_lifting_kind(self, kind):
        # the report did not say which function a campaign lifted, so a max
        # campaign read like an lse one; lse is written too
        for fn, name in ((None, "lse"), ("max", "max"), ("pnorm:2.0", "pnorm:2")):
            doc = run_campaign(config(kind, trials=5, fn=fn)).to_json_dict()
            assert list(doc) == [
                "check_kind", "fn", "ensemble", "trials", "violations", "worst_slack",
                "worst_trial_seed", "tol", "generator_id", "wall_time_s",
            ]
            assert doc["fn"] == name

    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(CHECK_KINDS),
        ensemble=st.sampled_from(["gue", "goe", "diag"]),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
        scales=st.sampled_from(SCALE_SPELLINGS).flatmap(lambda s: st.tuples(*[st.sampled_from(s)] * 2)),
        tols=st.tuples(*[st.sampled_from(TOL_SPELLINGS)] * 2),
        fns=st.sampled_from(FN_SPELLINGS).flatmap(lambda s: st.tuples(*[st.sampled_from(s)] * 2)),
    )
    @example(kind="GT_WEAK", ensemble="goe", n=2, seed=1, scales=(2, 2.0), tols=(0, -0.0), fns=(None, None))
    @example(kind="UNITARY_INVARIANCE", ensemble="gue", n=2, seed=1, scales=(10**20, 1e20), tols=(0.0, 0),
             fns=("pnorm:2", "pnorm:2.0"))
    def test_equal_configs_write_equal_bytes(self, kind, ensemble, n, seed, scales, tols, fns):
        # "scale": 2 and 2.0, "tol": 0, 0.0 and -0.0 used to be written as given
        if kind not in gt_module.LIFTING_KINDS:
            fns = (None, None)
        a, b = (CampaignConfig(kind, EnsembleSpec(ensemble, n, scale, seed), 3, tol, fn=fn)
                for scale, tol, fn in zip(scales, tols, fns))
        assert a == b and dataclasses.replace(a) == a  # replace re-runs the normalization
        assert report_bytes(a) == report_bytes(b) == report_bytes(dataclasses.replace(b))

    @pytest.mark.parametrize("kind", gt_module.LIFTING_KINDS)
    @pytest.mark.parametrize("fn", ["lse", "max", "pnorm:2.5"])
    def test_report_alone_replays(self, kind, fn):
        # over more than one chunk, the config that a report's JSON names
        # replays its worst trial to worst_slack bit for bit
        for ensemble in ("gue", "goe", "diag"):
            trials = gt_module._chunk_trials(gt_module.CHECKS[kind], 3) + 6
            report = run_campaign(config(kind, n=3, trials=trials, kind_ens=ensemble, fn=fn))
            doc = json.loads(json.dumps(report.to_json_dict()))
            rebuilt = config_from_json(doc)
            assert rebuilt == report.config and rebuilt.fn == fn
            assert replay_slack(rebuilt, doc["worst_trial_seed"]) == doc["worst_slack"], (ensemble, kind)

    def test_goe_and_diag_ensembles(self):
        for kind_ens in ("goe", "diag"):
            report = run_campaign(config("GT_WEAK", trials=20, kind_ens=kind_ens))
            assert report.violations == 0

    def test_named_function_campaigns(self):
        report = run_campaign(config("UNITARY_INVARIANCE", trials=20, fn="pnorm:2"))
        assert report.violations == 0
        report = run_campaign(config("DAVIS_RESTRICTION", trials=20, fn="max"))
        assert report.violations == 0

    @pytest.mark.parametrize("fn", [None, "pnorm:3", "min"])
    def test_midpoint_campaign_lifts_its_function(self, fn):
        # the worst trial replays through the library's segment residual at
        # t = 0.5, and the concave min shows violations
        report = run_campaign(config("MIDPOINT_CONVEXITY", n=3, trials=70, fn=fn))
        ens, seed = report.config.ensemble, report.worst_trial_seed
        a, b = (random_hermitian(dataclasses.replace(ens, seed=derive_seed(seed, k))) for k in (0, 1))
        func = lift(builtin(report.config.fn))
        assert segment_convexity_residual(func, a, b, 0.5) == report.worst_slack
        assert (report.violations > 0) == (fn == "min")

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
            config("GT_WEAK", trials=True)
        with pytest.raises(ValueError):
            config("GT_WEAK", tol=-1.0)
        with pytest.raises(ValueError):
            config("GT_WEAK", tol=math.inf)
        with pytest.raises(ValueError):
            config("GT_WEAK", tol=True)  # read as 1.0, and written as "tol": true
        for fn in ("median", "", "pnorm:0.5"):
            with pytest.raises(ValueError):
                config("MIDPOINT_CONVEXITY", fn=fn)
        # fn was ignored by the kinds that check lse itself: the report read like
        # a check of max that never ran
        for kind in ("GT_WEAK", "GT_STRONG", "HESSIAN_PSD", "HESSIAN_FD_MATCH"):
            with pytest.raises(ValueError):
                config(kind, fn="max")

    def test_violations_counted_and_reported(self):
        # an impossible tolerance forces violations without faking math:
        # HESSIAN_FD_MATCH cannot meet 1e-16
        report = run_campaign(config("HESSIAN_FD_MATCH", trials=10, tol=1e-16))
        assert report.violations == 10
        assert report.worst_slack < 0


def as_complex(a):
    return HermitianMatrix(a.entries.astype(np.complex128))


PAIR_VALUES = {
    "gt_weak_check": lambda a, b: astuple(gt_weak_check(a, b)),
    "gt_strong_check": lambda a, b: astuple(gt_strong_check(a, b)),
    "convexity_check": lambda a, b: astuple(convexity_check(a, b)),
    "log_trace_exp_product": lambda a, b: (log_trace_exp_product(a, b),),
    "midpoint_convexity_residual": lambda a, b: (midpoint_convexity_residual(lift(builtin("lse")), a, b),),
    "segment_convexity_residual": lambda a, b: (segment_convexity_residual(lift(builtin("max")), a, b, 0.25),),
}


def astuple(r):
    return r.lhs, r.rhs, r.slack


class TestRealAndComplexPairs:
    """Real symmetric matrices are float64; a complex partner promotes them where they are combined."""

    @pytest.mark.parametrize("check", sorted(PAIR_VALUES))
    def test_mixed_pair_matches_the_complex_pair(self, check):
        # numpy casts the real matrix to complex128 in the concatenation, the
        # sum or the product, so a mixed pair gives the bits of the pair with
        # the real matrix cast to complex first
        values = PAIR_VALUES[check]
        for seed in range(5):
            a = random_hermitian(EnsembleSpec("goe", 6, 2.0, seed))
            b = gue(6, seed + 100, 2.0)
            assert a.entries.dtype == np.float64
            assert values(a, b) == values(as_complex(a), b), seed
            assert values(b, a) == values(b, as_complex(a)), seed

    def test_mixed_unitary_invariance(self):
        f = lift(builtin("lse"))
        real_u = UnitaryMatrix(np.array([[0.6, 0.8], [-0.8, 0.6]]))
        for seed in range(5):
            a, u = random_hermitian(EnsembleSpec("goe", 2, 1.0, seed)), random_unitary(2, seed)
            assert astuple(check_unitary_invariance(f, a, u, 1e-10)) == astuple(
                check_unitary_invariance(f, as_complex(a), u, 1e-10))
            c = gue(2, seed)
            assert astuple(check_unitary_invariance(f, c, real_u, 1e-10)) == astuple(
                check_unitary_invariance(f, c, UnitaryMatrix(real_u.entries.astype(complex)), 1e-10))

    @pytest.mark.parametrize("kind", ["goe", "diag"])
    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_real_solver_agrees_with_the_complex_one(self, kind, n):
        # The real and the complex Hermitian solvers are both backward stable:
        # each eigenvalue of M is off by about n * u * |M|_2 at most (observed
        # below 1.3 units), and lse is 1-Lipschitz in the max-norm.  A slack
        # sums three spectra of norm up to 2 max(|A|_2, |B|_2), so it may take
        # 4 units, and c = 8 leaves a factor of 2.  The strong bound also uses
        # the eigenvectors; its error is held to the same budget, which it
        # meets with the rest (at most 2.3 units over goe/diag draws, n <= 64).
        c, u = 8.0, np.finfo(float).eps / 2
        for scale in (1e-3, 1.0, 1000.0):
            for seed in range(6):
                a, b = (random_hermitian(EnsembleSpec(kind, n, scale, 2 * seed + i)) for i in (0, 1))
                norm = max(1.0, np.linalg.norm(a.entries, 2), np.linalg.norm(b.entries, 2))
                for check, values in PAIR_VALUES.items():
                    real, cast = values(a, b), values(as_complex(a), as_complex(b))
                    for x, y in zip(real, cast):
                        assert abs(x - y) <= c * n * u * norm, (check, scale, seed, x, y)
