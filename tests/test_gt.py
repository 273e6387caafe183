"""Tests for trace-inequality checks and the seeded campaign runner."""

import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
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
    check_symmetry,
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
    replay,
    run_campaign,
    segment_convexity_residual,
    trial_inputs,
)
import gtcert.gt as gt_module
from gtcert.checks import slack_bound
from gtcert.gt import CHECK_KINDS
from gtcert.hermitian import generators, seed_words, vector_stack
from gtcert.spectral import SymmetricScalarFunction
from oracles import expm_taylor, fd_bound


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
        lambda _: log_trace_exp_product(BIG, BIG),
    ])
    def test_overflowing_spectrum_is_an_error_without_a_warning(self, evaluate):
        # eigvalsh gives [0, inf] for the finite BIG_BLOCK; lse then computed
        # inf - inf, returning NaN after numpy's "invalid value" warning.  The
        # spectra of BIG are finite, but every term 1e308 + 1e308 of the
        # product's lse overflows, and it returned NaN after two warnings
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
        # A and B are finite and A + B overflows: a computed value, which was
        # reported as the NonFiniteInput "matrix contains NaN or infinity"
        with pytest.raises(NonFiniteResult, match="computed matrix is not finite"):
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
        with pytest.raises(NonFiniteResult, match="computed matrix is not finite"):
            gt_strong_check(BIG, BIG)

    @quiet
    def test_zero_overlap_beside_an_overflowing_sum(self):
        # a_i + b_j = 2e308 overflows where the eigenvectors do not overlap:
        # that term is exp(-inf) = 0, not the NaN of inf + (-inf)
        a, b = diag(1e308, 0.0), diag(0.0, 1e308)
        assert log_trace_exp_product(a, b) == 1e308
        res = gt_strong_check(a, b)
        assert res.passed and (res.lhs, res.rhs, res.slack) == (1e308, 1e308, 0.0)


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
    def test_non_finite_fields_raise_non_finite_result(self, fields):
        # they raised CampaignTrialError with a trial_seed field no caller set
        base = dict(lhs=0.0, rhs=0.0, slack=0.0, tol=1e-10)
        with pytest.raises(NonFiniteResult, match="not finite"):
            CheckResult(**(base | fields))


# finite matrices whose values overflow: F(_LOW) + F(_HIGH) = 2e308 for
# F = log tr exp; _SPREAD + _TILTED is finite, but log tr(exp _SPREAD exp
# _TILTED) is about 1.995e308; the sum of the eigenvalues of _TWICE_1E308 is
# 2e308; lse's midpoint residual stays finite where its spectra do, so
# convexity_check gets BIG_BLOCK, whose eigenvalue 2e308 overflows
_LOW, _HIGH = diag(1e308, 0.0), diag(0.0, 1e308)
_SPREAD = diag(1e308, -1e308)
_TILTED = HermitianMatrix(np.array([[-0.99e308, 0.1e308], [0.1e308, 0.99e308]]))
_SUM = lift(builtin("sum"))
_TWICE_1E308 = diag(1e308, 1e308)


class TestNonFiniteValues:
    # every public path that computes a value raises NonFiniteResult for a
    # non-finite one; only run_campaign and replay wrap it in CampaignTrialError
    @quiet
    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda: gt_weak_check(_LOW, _HIGH), id="gt_weak_check"),
        pytest.param(lambda: gt_strong_check(_SPREAD, _TILTED), id="gt_strong_check"),
        pytest.param(lambda: convexity_check(BIG_BLOCK, BIG_BLOCK), id="convexity_check"),
        pytest.param(lambda: check_unitary_invariance(_SUM, _TWICE_1E308, UnitaryMatrix(np.eye(2)), 1e-10),
                     id="check_unitary_invariance"),
        pytest.param(lambda: check_davis_restriction(builtin("sum"), [1e308, 1e308], 1e-10),
                     id="check_davis_restriction"),
        pytest.param(lambda: midpoint_convexity_residual(_SUM, _TWICE_1E308, _LOW), id="midpoint_residual"),
        pytest.param(lambda: segment_convexity_residual(_SUM, _TWICE_1E308, _LOW, 0.3), id="segment_residual"),
        pytest.param(lambda: check_symmetry(builtin("sum"), [1e308, 1e308]), id="check_symmetry"),
        pytest.param(lambda: lift_eval(_SUM, _TWICE_1E308), id="lift_eval"),
        pytest.param(lambda: builtin("sum")([1e308, 1e308]), id="call"),
        pytest.param(lambda: CheckResult(0.0, math.inf, math.inf, 0.0), id="CheckResult"),
    ])
    def test_raises_non_finite_result(self, evaluate):
        with pytest.raises(NonFiniteResult) as info:
            evaluate()
        assert not isinstance(info.value, CampaignTrialError)


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

    @pytest.mark.parametrize("seed, index", [(-1, 0), (True, 0), (1.5, 0), (1, -1), (2**64, 0), (0, 2**64)])
    def test_bad_seed_or_index_rejected(self, seed, index):
        # -1 derived the seed of 2**64 - 1 and True that of 1, 1.5 raised a
        # TypeError from &, and index -1 gave a value that is no stream position
        with pytest.raises(ValueError):
            derive_seed(seed, index)

    @pytest.mark.parametrize("trials, chunk, streams", [(7, 16, 1), (2100, 64, 2), (1030, 1, 2)])
    def test_chunks_carry_each_trials_stream_states(self, trials, chunk, streams):
        # seeds and seed words come a block at a time; every chunk still gets,
        # per stream k, the words whose generators draw the bits that
        # PCG64(derive_seed(trial_seed, k)) draws
        check = gt_module.CHECKS["HESSIAN_PSD" if streams == 1 else "UNITARY_INVARIANCE"]
        ens = EnsembleSpec("gue", 1, 1.0, 2**64 - 1)
        seen = 0
        for indices, seeds, words in gt_module._chunks(check, ens, trials, chunk):
            assert indices == range(seen, seen + len(seeds)) and 1 <= len(seeds) <= chunk
            assert seeds == [derive_seed(2**64 - 1, i) for i in indices]
            assert words.shape == (streams, len(seeds), 4)
            for k, draw in enumerate(check.streams):
                drawn = draw(ens, generators(words[k]))
                fresh = draw(ens, [np.random.Generator(np.random.PCG64(derive_seed(s, k))) for s in seeds])
                assert drawn.dtype == fresh.dtype and drawn.tobytes() == fresh.tobytes()
            seen += len(seeds)
        assert seen == trials


def config(kind, n=4, trials=50, tol=1e-10, seed=99, kind_ens="gue", scale=1.0, **kw):
    return CampaignConfig(kind, EnsembleSpec(kind_ens, n, scale, seed), trials, tol, **kw)


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
    return fd_bound(ens.n) - float(np.max(np.abs(lse_hessian_analytic(x).entries - hessian_fd(x).entries)))


def config_from_json(doc):
    """The CampaignConfig that a report's JSON fields name."""
    ens = doc["ensemble"]
    return CampaignConfig(doc["check_kind"], EnsembleSpec(ens["kind"], ens["n"], ens["scale"], ens["seed"]),
                          doc["trials"], doc["tol"], fn=doc.get("fn"))


def trial_error(run, *args):
    """(trial index, trial seed, cause class, cause message) of the CampaignTrialError that `run(*args)` raises."""
    with pytest.raises(CampaignTrialError) as info:
        run(*args)
    return info.value.trial_index, info.value.trial_seed, type(info.value.cause), str(info.value.cause)


def report_bytes(cfg):
    return json.dumps(run_campaign(cfg).to_json_dict() | {"wall_time_s": 0.0}).encode()


# spellings of one value, which configs store in one canonical form
SCALE_SPELLINGS = [(2, 2.0, np.float64(2.0)), (10**20, 1e20)]
TOL_SPELLINGS = (0, 0.0, -0.0, np.float64(0.0))
FN_SPELLINGS = [(None, "lse", " lse "), ("pnorm:2", "pnorm:2.0", " pnorm:2 ")]


def sampled_input_is_finite(cfg):
    """Whether every stream of every trial draws only finite entries, each drawn from its own PCG64.

    A sampler raises NonFiniteInput for a draw that overflows, which counts as not finite.
    """
    ens = cfg.ensemble
    for i in range(cfg.trials):
        trial_seed = derive_seed(ens.seed, i)
        for k, draw in enumerate(gt_module.CHECKS[cfg.check_kind].streams):
            rng = np.random.Generator(np.random.PCG64(derive_seed(trial_seed, k)))
            try:
                if not np.isfinite(draw(ens, [rng])).all():
                    return False
            except NonFiniteInput:
                return False
    return True


class TestRunCampaign:
    @pytest.mark.parametrize("kind", [
        "GT_WEAK", "MIDPOINT_CONVEXITY", "HESSIAN_PSD", "UNITARY_INVARIANCE",
        "GT_STRONG", "HESSIAN_FD_MATCH", "DAVIS_RESTRICTION",
    ])
    def test_every_kind_runs_clean(self, kind):
        report = run_campaign(config(kind, trials=25))
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
        # slack of `replay` and of its public single check on the worst trial;
        # goe and diag trials are solved in float64 in the campaign and in the replay
        for ensemble in ("gue", "goe", "diag"):
            for kind in CHECK_KINDS:
                for n in (1, 2, 8):
                    trials = gt_module._chunk_trials(gt_module.CHECKS[kind], n) + 6
                    cfg = config(kind, n=n, trials=trials, kind_ens=ensemble)
                    report = run_campaign(cfg)
                    seed = report.worst_trial_seed
                    assert replay(cfg, seed).slack == report.worst_slack == replay_slack(cfg, seed), (ensemble, kind, n)

    def test_report_independent_of_chunk_size(self, monkeypatch):
        # every kind at n=3, then DAVIS_RESTRICTION, whose chunks hold the
        # most trials, at n=1 (where its entries rule must not reach 0) and 16
        cases = [(kind, 3) for kind in CHECK_KINDS] + [("DAVIS_RESTRICTION", 1), ("DAVIS_RESTRICTION", 16)]
        for kind, n in cases:
            trials = gt_module._chunk_trials(gt_module.CHECKS[kind], n) + 6
            cfg = config(kind, n=n, trials=trials)
            chunked = run_campaign(cfg).to_json_dict() | {"wall_time_s": 0}
            monkeypatch.setattr(gt_module, "_CHUNK_ENTRIES", 1)
            one_by_one = run_campaign(cfg).to_json_dict() | {"wall_time_s": 0}
            monkeypatch.undo()
            assert chunked == one_by_one, (kind, n)
        # a raising campaign names the lowest trial that raises on its own.
        # These named trial 989 (a chunk's draws were tested before any of it
        # was evaluated), 3 (stream 0 of every trial was drawn before stream 1)
        # and 47 (the solver refused its A + B before trial 2's rhs overflowed)
        raising = [(EnsembleSpec("gue", 1, 5e307, 12), 1100, 3, NonFiniteResult),
                   (EnsembleSpec("goe", 1, 1.7e308, 12), 150, 0, NonFiniteInput),
                   (EnsembleSpec("gue", 2, 5e307, 0), 150, 2, NonFiniteResult)]
        for ens, trials, index, cause in raising:
            cfg = CampaignConfig("GT_WEAK", ens, trials, 1e-10)
            chunked = trial_error(run_campaign, cfg)
            monkeypatch.setattr(gt_module, "_CHUNK_ENTRIES", 1)
            one_by_one = trial_error(run_campaign, cfg)
            monkeypatch.undo()
            assert chunked == one_by_one == (index, derive_seed(ens.seed, index), cause, one_by_one[3]), ens
            for i in range(index):
                replay(cfg, derive_seed(ens.seed, i))
            assert trial_error(replay, cfg, chunked[1]) == (None,) + chunked[1:]

    def test_chunk_sizes(self):
        # positive and capped at the seed block for every kind and size;
        # DAVIS_RESTRICTION runs up to 512 trials at n=16 in one chunk
        for check in gt_module.CHECKS.values():
            for n in (1, 2, 3, 8, 16, 64, 200):
                assert 1 <= gt_module._chunk_trials(check, n) <= gt_module._SEED_BLOCK
        assert gt_module._chunk_trials(gt_module.CHECKS["DAVIS_RESTRICTION"], 16) == 512

    def test_non_finite_result_is_a_trial_error(self):
        # the sum of 8 entries up to 8e307 overflows to inf on both sides of the
        # restriction, so the deviation is NaN; it used to count as a violation
        # with worst_slack=nan
        cfg = CampaignConfig("DAVIS_RESTRICTION", EnsembleSpec("diag", 8, 8e307, 1), 20, 1e-10, fn="sum")
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
        # at diag scale 1000 one trial deviated by 1.40e-6; at x - max(x) the
        # largest deviation is about 5.6e-9
        report = run_campaign(CampaignConfig("HESSIAN_FD_MATCH", EnsembleSpec("diag", 16, 1000.0, 1), 20, 1e-10))
        assert report.violations == 0
        assert replay(report.config, report.worst_trial_seed).lhs < 1e-7

    @pytest.mark.parametrize("ens", [EnsembleSpec("diag", 4, 1e-300, 1), EnsembleSpec("gue", 16, 1.0, 1),
                                     EnsembleSpec("gue", 64, 1.0, 3)])
    def test_fd_match_passes_at_the_default_tol(self, ens):
        # the deviation was held to tol itself, below the stencil's own
        # rounding, and all 20 trials of each violated at tol 1e-10; it is now
        # held to the stencil's error bound, which it meets at tol 0 too
        for tol in (1e-10, 0.0):
            assert run_campaign(CampaignConfig("HESSIAN_FD_MATCH", ens, 20, tol)).violations == 0

    def test_fd_match_catches_a_wrong_diagonal(self, monkeypatch):
        # p_i on the diagonal in place of p_i (1 - p_i) is off by p_i^2 >= 1/n^2
        # for the largest weight, far above the stencil's bound, in every trial
        def p_on_the_diagonal(x):
            p = np.exp(x - x.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            h = -p[:, :, None] * p[:, None, :]
            h[:, np.arange(x.shape[1]), np.arange(x.shape[1])] = p
            return h

        monkeypatch.setattr(gt_module, "hessian_rows", p_on_the_diagonal)
        for ensemble in ("gue", "diag"):
            for n in (1, 8):
                assert run_campaign(config("HESSIAN_FD_MATCH", n=n, trials=30, kind_ens=ensemble)).violations == 30

    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_psd_rejects_infinite_sampled_vectors(self, seed):
        # the vector of trial 0 holds -inf, whose softmax weight is 0: the
        # Hessian stayed finite and the campaign reported violations=0,
        # worst_slack=0.0; numpy's own draw shows the -inf
        cfg = CampaignConfig("HESSIAN_PSD", EnsembleSpec("gue", 4, 1.7e308, seed), 1, 1e-10)
        trial_seed = derive_seed(seed, 0)
        x = np.random.Generator(np.random.PCG64(derive_seed(trial_seed, 0))).normal(0.0, 1.7e308, 4)
        assert np.isneginf(x).any()
        with pytest.raises(CampaignTrialError) as info:
            run_campaign(cfg)
        assert isinstance(info.value.cause, NonFiniteInput)
        assert info.value.trial_index == 0 and info.value.trial_seed == trial_seed

    @pytest.mark.parametrize("kind", CHECK_KINDS)
    def test_overflowing_draw_is_a_non_finite_input(self, kind):
        # UNITARY_INVARIANCE named the NaN that an infinite A leaves in U* A U
        # a Hermiticity failure, and HESSIAN_PSD passed
        cfg = CampaignConfig(kind, EnsembleSpec("gue", 4, 1.7e308, 0), 3, 1e-10)
        with pytest.raises(CampaignTrialError) as info:
            run_campaign(cfg)
        assert isinstance(info.value.cause, NonFiniteInput), info.value
        assert info.value.trial_index == 0
        assert not sampled_input_is_finite(dataclasses.replace(cfg, trials=1))

    def test_overflowing_sum_of_finite_draws_is_a_non_finite_result(self):
        # trial 3 draws a finite A and B whose sum overflows; the campaign used
        # to blame its input, as it does for a draw that overflows
        cfg = CampaignConfig("GT_WEAK", EnsembleSpec("gue", 1, 5e307, 12), 20, 1e-10)
        with pytest.raises(CampaignTrialError) as info:
            run_campaign(cfg)
        assert info.value.trial_index == 3 and info.value.trial_seed == derive_seed(12, 3)
        assert all(np.isfinite(x).all() for x in trial_inputs(cfg, info.value.trial_seed))
        assert type(info.value.cause) is NonFiniteResult and "computed matrix is not finite" in str(info.value.cause)

    def test_pair_kinds_raise_at_the_same_draw(self):
        # GT_STRONG tested A + B rather than the draws: it named trial 0, whose
        # finite A and B overflow in A + B, a NonFiniteInput.  Then all three
        # named trial 45, the first that drew an infinity, because a chunk's
        # draws were tested before any of it was evaluated; trial 0 raises on its own
        ens = EnsembleSpec("gue", 8, 5e307, 12)
        raised = set()
        for kind in ("GT_WEAK", "GT_STRONG", "MIDPOINT_CONVEXITY"):
            with pytest.raises(CampaignTrialError) as info:
                run_campaign(CampaignConfig(kind, ens, 150, 1e-10))
            raised.add((info.value.trial_index, type(info.value.cause)))
        assert raised == {(0, NonFiniteResult)}

    def test_trials_run_counts_the_evaluated_trials(self, monkeypatch):
        # trials_run copied config.trials, so a campaign that skipped a chunk
        # still reported every trial as run
        chunks = gt_module._chunks
        monkeypatch.setattr(gt_module, "_chunks", lambda *args: itertools.islice(chunks(*args), 1, None))
        report = run_campaign(config("GT_WEAK", n=8, trials=100))  # chunks of 64 trials
        assert report.trials_run == 36

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
        cfg = CampaignConfig(kind, EnsembleSpec(ensemble, n, scale, seed), 3, 1e-10)
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
            seed = doc["worst_trial_seed"]
            assert replay(rebuilt, seed).slack == doc["worst_slack"] == replay_slack(rebuilt, seed), (ensemble, kind)

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
        cfg = config("GT_WEAK", trials=3)
        check = gt_module.CHECKS["GT_WEAK"]
        a_of_trial_2 = trial_inputs(cfg, derive_seed(99, 2))[0]

        def explode(f, *stacks):
            raise DimensionMismatch("synthetic failure")

        def explode_at_trial_2(f, a, b):
            if any(np.array_equal(x, a_of_trial_2) for x in a):
                raise DimensionMismatch("synthetic failure")
            return check.evaluate(f, a, b)

        for evaluate, index in ((explode, 0), (explode_at_trial_2, 2)):
            monkeypatch.setitem(
                gt_module.CHECKS, "GT_WEAK", dataclasses.replace(check, evaluate=evaluate)
            )
            with pytest.raises(CampaignTrialError) as info:
                run_campaign(cfg)
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
        # genuine violations: lambda_min is concave, so its midpoint gap is
        # positive in every trial whose A and B share no eigenvector
        report = run_campaign(config("MIDPOINT_CONVEXITY", trials=10, fn="min"))
        assert report.violations == 10
        assert report.worst_slack < 0


def public_draws(cfg, trial_seed):
    """The inputs of one trial, each stream k drawn by the single-draw API from derive_seed(trial_seed, k)."""
    ens, kind = cfg.ensemble, cfg.check_kind
    spec = [dataclasses.replace(ens, seed=derive_seed(trial_seed, k)) for k in (0, 1)]
    if kind == "UNITARY_INVARIANCE":
        return [random_hermitian(spec[0]).entries, random_unitary(ens.n, spec[1].seed).entries]
    if kind in PAIR_CHECKS:
        return [random_hermitian(s).entries for s in spec]
    return [random_vector(spec[0])]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


class TestReplay:
    @pytest.mark.parametrize("kind", CHECK_KINDS)
    def test_trial_inputs_are_the_single_draws(self, kind):
        for ensemble in ("gue", "goe", "diag"):
            for n in (1, 8):
                cfg = config(kind, n=n, trials=1, kind_ens=ensemble)
                for trial_seed in (0, 2**64 - 1, derive_seed(7, 3)):
                    got, want = trial_inputs(cfg, trial_seed), public_draws(cfg, trial_seed)
                    assert len(got) == len(gt_module.CHECKS[kind].streams) == len(want)
                    for x, y in zip(got, want):
                        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("ensemble", ["gue", "goe"])
    def test_replay_recounts_the_violations(self, ensemble):
        # lambda_min is concave, so its midpoint gap is a violation where it
        # exceeds 0.3 |rhs|, far above rounding: 76 (gue) and 65 (goe) of the
        # 150 trials, which span three chunks
        cfg = config("MIDPOINT_CONVEXITY", n=8, trials=150, tol=0.3, seed=5, kind_ens=ensemble, scale=1e6, fn="min")
        report = run_campaign(cfg)
        assert 0 < report.violations < 150
        results = [replay(cfg, derive_seed(5, i)) for i in range(150)]
        assert sum(not r.passed for r in results) == report.violations
        assert min(r.slack for r in results) == report.worst_slack

    @pytest.mark.parametrize("cfg, cause", [
        (CampaignConfig("DAVIS_RESTRICTION", EnsembleSpec("diag", 8, 8e307, 1), 20, 1e-10, fn="sum"),
         NonFiniteResult),
        (CampaignConfig("HESSIAN_PSD", EnsembleSpec("gue", 4, 1e308, 3), 20, 1e-10), NonFiniteInput),
    ])
    def test_trial_error_replays(self, cfg, cause):
        with pytest.raises(CampaignTrialError) as campaign:
            run_campaign(cfg)
        with pytest.raises(CampaignTrialError) as replayed:
            replay(cfg, campaign.value.trial_seed)
        assert isinstance(campaign.value.cause, cause) and type(replayed.value.cause) is cause
        assert replayed.value.trial_seed == campaign.value.trial_seed
        assert str(replayed.value.cause) == str(campaign.value.cause)
        assert replayed.value.trial_index is None

    # goe draws the vectors that gue draws (`vector_stack`), so diag is the second law
    @pytest.mark.parametrize("ensemble", ["gue", "diag"])
    def test_hessian_psd_slack_is_the_nullspace_zero(self, ensemble, monkeypatch):
        assert_hessian_psd_slack_is_zero(ensemble, monkeypatch)

    # goe draws the vectors that gue draws (`vector_stack`), so diag is the second law
    @pytest.mark.parametrize("ensemble", ["gue", "diag"])
    def test_fd_deviation_is_within_its_bound(self, ensemble, monkeypatch):
        assert_fd_deviation_is_within_its_bound(ensemble, monkeypatch)

    def test_draws_are_pinned(self):
        # the draws of `hermitian_stack` and `vector_stack` do not depend on
        # the BLAS kernel, only on gtcert's samplers and numpy's PCG64, normal
        # and uniform streams; `haar_stack` draws go through LAPACK's QR
        digest = hashlib.sha256()
        for kind in ("GT_WEAK", "HESSIAN_PSD"):
            for ensemble in ("gue", "goe", "diag"):
                for n in (1, 2, 8):
                    cfg = config(kind, n=n, trials=1, kind_ens=ensemble)
                    for trial_seed in (0, 2**64 - 1):
                        for x in trial_inputs(cfg, trial_seed):
                            digest.update(f"{x.dtype.str}{x.shape}".encode() + x.tobytes())
        assert digest.hexdigest() == "bc63a0917a4c827c54c7e67c6e6c22c7af9dbf8beaa059be2f789387f525b992"

    @pytest.mark.parametrize("trial_seed", [-1, 2**64, True, 1.0])
    def test_bad_trial_seeds_rejected(self, trial_seed):
        cfg = config("GT_WEAK", trials=1)
        with pytest.raises(ValueError):
            replay(cfg, trial_seed)
        with pytest.raises(ValueError):
            trial_inputs(cfg, trial_seed)

    def test_readme_quick_start_replays(self):
        # the README's first python block ends by replaying its worst trial
        block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        assert namespace["trial"].slack == namespace["report"].worst_slack


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


# the kinds whose evaluators lift a function: all but the two Hessian kinds
LIFT_KINDS = ("GT_WEAK", "GT_STRONG", "MIDPOINT_CONVEXITY", "UNITARY_INVARIANCE", "DAVIS_RESTRICTION")

# every public path to F = f(spectrum): campaigns, replay, the single checks and evaluations
F_CALLERS = {
    **{f"run_campaign {kind}": lambda kind=kind: run_campaign(config(kind, trials=3)) for kind in LIFT_KINDS},
    **{f"replay {kind}": lambda kind=kind: replay(config(kind), derive_seed(99, 0)) for kind in LIFT_KINDS},
    "gt_weak_check": lambda: gt_weak_check(gue(3, 1), gue(3, 2)),
    "gt_strong_check": lambda: gt_strong_check(gue(3, 1), gue(3, 2)),
    "convexity_check": lambda: convexity_check(gue(3, 1), gue(3, 2)),
    "midpoint_convexity_residual": lambda: midpoint_convexity_residual(lift(builtin("max")), gue(3, 1), gue(3, 2)),
    "segment_convexity_residual": lambda: segment_convexity_residual(lift(builtin("sum")), gue(3, 1), gue(3, 2), 0.25),
    "check_unitary_invariance": lambda: check_unitary_invariance(lift(builtin("lse")), gue(3, 1),
                                                                 random_unitary(3, 2), 1e-10),
    "check_davis_restriction": lambda: check_davis_restriction(builtin("min"), [3.0, 1.0, 2.0], 1e-10),
    "log_trace_exp": lambda: log_trace_exp(gue(3, 1)),
    "lift_eval": lambda: lift_eval(lift(builtin("pnorm:3")), gue(3, 1)),
}


def assert_hessian_psd_slack_is_zero(ensemble, monkeypatch):
    """Assert that every replayed HESSIAN_PSD trial at n = 2, 8 and 16 has |slack| <= n u, u = 2^-53.

    The all-ones vector is in the nullspace of every lse Hessian diag(p) - p p^T,
    so its smallest eigenvalue is 0 up to rounding: seed 5's largest |slack| is
    0.375 n u for gue and goe, which draw the same vectors, and 0.3125 n u for
    diag.  An evaluator that takes the largest eigenvalue instead (at least
    0.05 in every trial here) fails, where a campaign sees a PSD matrix and passes.
    """
    for n in (2, 8, 16):
        cfg = config("HESSIAN_PSD", n=n, trials=200, seed=5, kind_ens=ensemble)
        for i in range(cfg.trials):
            slack = replay(cfg, derive_seed(5, i)).slack
            assert abs(slack) <= n * 2.0**-53, (n, i, slack)


def assert_fd_deviation_is_within_its_bound(ensemble, monkeypatch):
    """Assert that every replayed HESSIAN_FD_MATCH trial at n = 2, 8 and 16 has 0 < deviation <= `fd_bound(n)`.

    The stencil's rounding leaves a deviation from the analytic Hessian in
    every trial at scale 1 (seed 5's smallest is 3.5e-12, for gue and goe,
    which draw the same vectors), and the bound holds it with room to spare
    (at most 0.18 of it for gue and 0.23 for diag).  An evaluator that
    compares the analytic Hessian with itself fails here, where a campaign
    sees a deviation of exactly 0 and passes.
    """
    for n in (2, 8, 16):
        cfg = config("HESSIAN_FD_MATCH", n=n, trials=100, seed=5, kind_ens=ensemble)
        for i in range(cfg.trials):
            result = replay(cfg, derive_seed(5, i))
            assert result.rhs == fd_bound(n) and 0 < result.lhs <= result.rhs, (n, i, result)


def assert_rotations_move_a(ensemble, monkeypatch):
    """Assert that UNITARY_INVARIANCE hands `lift_rows` a U* A U far from A in every trial at n = 2 and 8.

    For a Haar U and n >= 2, U* A U = A has probability zero; seed 99's
    smallest max |U* A U - A| / max |A| is 0.39.  An evaluator that compares
    A with itself fails here whatever the rounding, where a campaign at any
    tol sees a deviation of exactly 0 and passes.
    """
    original, lifted = SymmetricScalarFunction.lift_rows, []

    def recorder(f, *stacks):
        lifted.append(stacks)
        return original(f, *stacks)

    with monkeypatch.context() as patch:
        patch.setattr(SymmetricScalarFunction, "lift_rows", recorder)
        for n in (2, 8):
            run_campaign(config("UNITARY_INVARIANCE", n=n, trials=20, kind_ens=ensemble))
    assert len(lifted) == 2
    for a, rotated in lifted:
        assert (np.abs(rotated - a).max(axis=(1, 2)) > 0.1 * np.abs(a).max(axis=(1, 2))).all()


def assert_restriction_sees_the_spectrum(ensemble, monkeypatch):
    """Assert that DAVIS_RESTRICTION's lifted side of f(x) = x[0] is min(x) over 200 draws at n = 2 and 8.

    The lift sees only the ascending spectrum of diag(x), so for this
    deliberately asymmetric f it is min(x), within n u max|x| (u = 2^-53;
    bit-equal for these draws), and slack is negative in exactly the trials
    whose x[0] is not their minimum (106 and 181 of 200 for gue, whose
    vectors goe draws too, and 90 and 175 for diag).  An evaluator that
    never calls the solver compares f(x) with itself and fails here, where a
    campaign over a symmetric f sees a deviation of exactly 0 and passes.
    """
    first = SymmetricScalarFunction("first", lambda x: x[..., 0])
    seeds = gt_module.derive_seeds(derive_seed(5, 0), np.arange(200))
    for n in (2, 8):
        x = vector_stack(EnsembleSpec(ensemble, n, 1.0, 5), generators(seed_words(seeds)))
        lifted, _, slack = gt_module.CHECKS["DAVIS_RESTRICTION"].evaluate(first, x)
        low = x.min(axis=1)
        assert (np.abs(lifted - low) <= n * 2.0**-53 * np.abs(x).max(axis=1)).all(), n
        assert ((slack < 0) == (x[:, 0] != low)).all(), n


class TestOneLiftKernel:
    """F is computed in one place, `SymmetricScalarFunction.lift_rows`, so a bug in F reaches every kind."""

    @pytest.mark.parametrize("ensemble", ["gue", "goe"])
    def test_unitary_invariance_rotates_a(self, ensemble, monkeypatch):
        assert_rotations_move_a(ensemble, monkeypatch)

    @pytest.mark.parametrize("ensemble", ["gue", "diag"])  # goe draws gue's vectors
    def test_davis_restriction_sees_the_spectrum(self, ensemble, monkeypatch):
        assert_restriction_sees_the_spectrum(ensemble, monkeypatch)

    @pytest.mark.parametrize("caller", F_CALLERS)
    def test_every_path_to_F_calls_lift_rows(self, caller, monkeypatch):
        original, lifted = SymmetricScalarFunction.lift_rows, []

        def recorder(f, *stacks):
            lifted.append(f)
            return original(f, *stacks)

        monkeypatch.setattr(SymmetricScalarFunction, "lift_rows", recorder)
        F_CALLERS[caller]()
        assert lifted

    @pytest.mark.parametrize("kind", ["gue", "goe", "diag"])
    def test_log_trace_exp_is_the_lift_of_lse(self, kind):
        for n in (1, 2, 8):
            for seed in range(5):
                a = random_hermitian(EnsembleSpec(kind, n, 10.0 ** (seed - 2), seed))
                assert log_trace_exp(a) == lift_eval(lift(builtin("lse")), a)
