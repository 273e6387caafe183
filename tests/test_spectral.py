"""Tests for spectral lifts: symmetry, unitary invariance, convexity probes."""

import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gtcert import (
    CampaignConfig,
    DimensionMismatch,
    EnsembleSpec,
    HermitianMatrix,
    NonFiniteInput,
    NonFiniteResult,
    SymmetricScalarFunction,
    UnitaryMatrix,
    builtin,
    builtin_names,
    check_davis_restriction,
    check_symmetry,
    check_unitary_invariance,
    derive_seed,
    lift,
    lift_eval,
    midpoint_convexity_residual,
    random_hermitian,
    random_unitary,
    replay,
    segment_convexity_residual,
    trial_inputs,
)

from gtcert.hermitian import generators, hermitian_stack, seed_words
from gtcert.spectral import segment_rows

LOG_2_COSH_1 = 1.1269280110429725  # log(e + 1/e)

# not symmetric: the first coordinate of each row
FIRST = SymmetricScalarFunction("first", lambda x: x[..., 0])


def diag(*values):
    return HermitianMatrix(np.diag(np.asarray(values, dtype=float)).astype(complex))


def gue(n, seed, scale=1.0):
    return random_hermitian(EnsembleSpec("gue", n, scale, seed))


class TestLiftEval:
    def test_lse_of_zero_matrix(self):
        val = lift_eval(lift(builtin("lse")), HermitianMatrix(np.zeros((2, 2), dtype=complex)))
        assert val == pytest.approx(math.log(2.0), abs=1e-15)

    def test_max_of_diagonal(self):
        assert lift_eval(lift(builtin("max")), diag(3.0, -1.0)) == pytest.approx(3.0)

    def test_lse_of_pauli_x(self):
        # eigenvalues are -1 and 1, so the value is log(e + 1/e)
        a = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert lift_eval(lift(builtin("lse")), a) == pytest.approx(LOG_2_COSH_1, abs=1e-12)

    def test_pnorm_of_known_spectrum(self):
        assert lift_eval(lift(builtin("pnorm:2")), diag(3.0, 4.0)) == pytest.approx(5.0, abs=1e-12)
        assert lift_eval(lift(builtin("pnorm:1")), diag(-3.0, 4.0)) == pytest.approx(7.0, abs=1e-12)

    def test_overflowing_value_is_an_error(self):
        # a sum or a norm that overflows raises without numpy's warning
        for name in ("sum", "pnorm:1"):
            with pytest.raises(NonFiniteResult, match="not finite"):
                lift_eval(lift(builtin(name)), diag(1.7e308, 1.7e308))

    def test_large_p_norm_neither_underflows_nor_overflows(self):
        # (sum |x|^p)^(1/p) gave inf for 800^1e6 and a wrong 0.0 where |x|^p
        # underflows, and a restriction campaign passed on 0.0 = 0.0
        f = builtin("pnorm:1e6")
        assert f([800.0, 0.0]) == lift_eval(lift(f), diag(800.0, 0.0)) == 800.0
        assert f([0.5, 0.0]) == lift_eval(lift(f), diag(0.5, 0.0)) == 0.5
        assert builtin("pnorm:200")([0.01, 0.0]) == 0.01
        assert builtin("pnorm:2")([0.0, 0.0]) == 0.0
        # the first vector of this campaign has norm 0.0171; every trial read 0.0 on both sides
        cfg = CampaignConfig("DAVIS_RESTRICTION", EnsembleSpec("gue", 8, 0.01, 3), 50, 0.0, fn="pnorm:200")
        seed = derive_seed(3, 0)
        (x,) = trial_inputs(cfg, seed)
        result = replay(cfg, seed)
        assert result.lhs > 0 and result.rhs == pytest.approx(np.abs(x).max(), rel=0.02)

    @pytest.mark.parametrize("name", ["lse", "max", "min", "sum", "pnorm:2.5"])
    def test_a_function_is_its_own_lift(self, name):
        # lift(f) is f, so the lift-taking calls give the same bits (repr tells -0.0 from 0.0) for either
        f = builtin(name)
        assert lift(f) is f
        a, b, u = gue(3, 1), gue(3, 2), random_unitary(3, 3)
        calls = (
            lambda g: lift_eval(g, a),
            lambda g: check_unitary_invariance(g, a, u, 1e-10),
            lambda g: midpoint_convexity_residual(g, a, b),
            lambda g: segment_convexity_residual(g, a, b, 0.3),
        )
        for call in calls:
            assert repr(call(builtin(name))) == repr(call(lift(builtin(name))))


class TestBuiltins:
    def test_registry_contents(self):
        assert set(builtin_names()) == {"lse", "max", "min", "sum"}

    def test_pnorm_parsing(self):
        # each name spells p by its shortest round-trip form
        names = {"pnorm:2": "pnorm:2", "pnorm:2.0": "pnorm:2", "pnorm:2.5": "pnorm:2.5",
                 "pnorm:1e6": "pnorm:1000000", "pnorm:2.123456789": "pnorm:2.123456789",
                 "pnorm:1e300": "pnorm:1e+300"}
        assert {name: builtin(name).name for name in names} == names
        for bad in ("pnorm:0.5", "pnorm:nan", "pnorm:", "pnorm:x"):
            with pytest.raises(ValueError):
                builtin(bad)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 2.123456789, 1e6, 1e300])
    def test_pnorm_name_reads_back(self, p):
        # the name kept 6 significant digits (f"{p:g}"), so pnorm:2.123456789
        # was named pnorm:2.12346, and builtin of that name is another function
        f = builtin(f"pnorm:{p!r}")
        again = builtin(f.name)
        assert again.name == f.name
        x = np.array([[1.0, 2.0, 3.0], [0.5, -4.0, 1e-3]])
        np.testing.assert_array_equal(again.rows(x), f.rows(x))

    @given(name=st.sampled_from(["lse", "max", "min", "sum", "pnorm:1", "pnorm:2.5", "pnorm:200"]),
           x=st.lists(st.builds(operator.mul, st.sampled_from([1.0, -1.0]), st.one_of(
               st.floats(1e307, sys.float_info.max), st.floats(0.0, sys.float_info.min), st.floats(0.0, 1e3))),
               min_size=1, max_size=8))
    @example(name="sum", x=[1e308, 1e308])
    @example(name="pnorm:200", x=[0.01, 0.0])
    def test_value_is_finite_or_an_error(self, name, x):
        # near +-1e308, among subnormals and zeros, f(x) and F(diag(x)) are
        # finite floats or raise NonFiniteResult, never with a numpy warning;
        # f(x) returned inf, and pnorm underflowed to 0.0 where x is not 0
        f = builtin(name)
        for evaluate in (lambda: f(x), lambda: lift_eval(lift(f), HermitianMatrix(np.diag(x)))):
            try:
                value = evaluate()
            except NonFiniteResult:
                continue
            assert type(value) is float and math.isfinite(value)
            if name.startswith("pnorm"):
                assert (value > 0.0) == any(x)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("median")

    def test_direct_call_validates(self):
        f = builtin("sum")
        assert f([1.0, 2.0]) == 3.0
        with pytest.raises(Exception):
            f([np.nan])


class TestCheckSymmetry:
    def test_symmetric_function_passes_exhaustively(self):
        res = check_symmetry(builtin("lse"), [1.0, 2.0, 3.0], tol=1e-12)
        assert res.passed and res.slack == 0.0

    def test_first_coordinate_fails(self):
        res = check_symmetry(FIRST, [0.0, 1.0], tol=1e-12)
        assert not res.passed
        assert res.slack == pytest.approx(-1.0)

    def test_first_largest_deviation_is_reported(self):
        # the permutations of [0, 2, -2], in itertools order, have the first
        # coordinates 0, 0, 2, 2, -2, -2: 2 and -2 deviate equally, and the
        # first of them is the lhs
        res = check_symmetry(FIRST, [0.0, 2.0, -2.0], tol=1e-12)
        assert (res.lhs, res.rhs, res.slack) == (2.0, 0.0, -2.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_infinite_tol_rejected(self, tol):
        # tol=inf made the non-symmetric first coordinate pass
        with pytest.raises(ValueError):
            check_symmetry(FIRST, [0.0, 1.0], tol=tol)

    def test_sampled_permutations_above_five(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5.0, 5.0, 10)
        res = check_symmetry(builtin("lse"), x, n_perms=100, tol=1e-12)
        assert res.passed and abs(res.slack) <= 1e-12

    def test_sampling_is_pure(self):
        x = np.linspace(-3.0, 3.0, 8)
        f = builtin("pnorm:3")
        a = check_symmetry(f, x, n_perms=50, seed=5)
        b = check_symmetry(f, x, n_perms=50, seed=5)
        assert (a.lhs, a.rhs, a.slack) == (b.lhs, b.rhs, b.slack)

    def test_bad_n_perms(self):
        # n_perms=True ran one permutation; n_perms=2.5 raised a raw TypeError
        for n_perms in (0, -1, True, 2.5):
            with pytest.raises(ValueError):
                check_symmetry(builtin("lse"), np.arange(8.0), n_perms=n_perms)

    @pytest.mark.parametrize("n", [2, 8])
    def test_bad_seed(self, n):
        # seed=True gave a result with trial_seed=True; seed=-1 surfaced
        # numpy's "expected non-negative integer"
        for seed in (True, -1, 2**64, 1.5):
            with pytest.raises(ValueError):
                check_symmetry(builtin("lse"), np.arange(float(n)), seed=seed)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_an_error_without_a_warning(self):
        # the sum 2e308 overflows: numpy's "overflow encountered in reduce"
        # was printed before the error, as check_davis_restriction never did
        for check in (lambda x: check_symmetry(builtin("sum"), x),
                      lambda x: check_davis_restriction(builtin("sum"), x, 1e-10)):
            with pytest.raises(NonFiniteResult, match="not finite"):
                check([1e308, 1e308])


class TestUnitaryInvariance:
    def test_infinite_tol_rejected(self):
        with pytest.raises(ValueError):
            check_unitary_invariance(lift(builtin("lse")), gue(3, 1), random_unitary(3, 2), math.inf)

    def test_identity_unitary_gives_zero_deviation(self):
        from gtcert import UnitaryMatrix
        a = gue(4, 9)
        res = check_unitary_invariance(lift(builtin("lse")), a, UnitaryMatrix(np.eye(4)), 1e-10)
        assert res.passed and abs(res.slack) <= 1e-14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_an_error_without_a_warning(self):
        # A is finite, but U* A U has the entry 2e308, which overflows: a
        # computed value, not an input; the error comes without numpy's warning first
        a = HermitianMatrix(np.full((2, 2), 1e308, dtype=complex))
        s = 2.0 ** -0.5
        u = UnitaryMatrix(np.array([[s, s], [s, -s]], dtype=complex))
        with pytest.raises(NonFiniteResult, match="computed matrix is not finite"):
            check_unitary_invariance(lift(builtin("lse")), a, u, 1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rotation_near_the_double_limit(self):
        # U* A U = 1e308 + 9.98e291j is finite; symmetrizing it as (M + M*)/2
        # overflowed in M + M* and the check raised NonFiniteInput
        res = check_unitary_invariance(lift(builtin("lse")), diag(1e308), random_unitary(1, 0), 1e-10)
        assert res.lhs == res.rhs == 1e308 and res.passed

    @pytest.mark.parametrize("name", ["lse", "max", "pnorm:2"])
    def test_haar_rotations_pass(self, name):
        func = lift(builtin(name))
        for seed in range(30):
            a = gue(6, 2 * seed)
            u = random_unitary(6, 2 * seed + 1)
            assert check_unitary_invariance(func, a, u, 1e-10).passed


class TestConvexityResiduals:
    def test_equal_endpoints_give_zero(self):
        a = gue(5, 40)
        assert midpoint_convexity_residual(lift(builtin("lse")), a, a) == pytest.approx(0.0, abs=1e-12)

    def test_worked_two_by_two_instance(self):
        a = diag(1.0, -1.0)
        b = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        res = midpoint_convexity_residual(lift(builtin("lse")), a, b)
        expected = math.log(2.0 * math.cosh(1.0)) - math.log(2.0 * math.cosh(math.sqrt(2.0) / 2.0))
        assert res == pytest.approx(expected, abs=1e-12)
        assert res == pytest.approx(0.2021995082746812, abs=1e-12)

    def test_concave_base_goes_negative(self):
        # min is concave: endpoints diag(4,0), diag(0,4) give (0+0)/2 - 2 = -2
        res = midpoint_convexity_residual(lift(builtin("min")), diag(4.0, 0.0), diag(0.0, 4.0))
        assert res == pytest.approx(-2.0, abs=1e-12)

    def test_segment_points(self):
        f = lift(builtin("lse"))
        a, b = gue(4, 60), gue(4, 61)
        for t in (0.25, 0.5, 0.75):
            assert segment_convexity_residual(f, a, b, t) >= -1e-10
        assert segment_convexity_residual(f, a, b, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert segment_convexity_residual(f, a, b, 1.0) == pytest.approx(0.0, abs=1e-12)
        # True read as 1.0, and "0.5" raised a bare TypeError from the comparison
        for t in (1.5, True, "0.5", 0.5j):
            with pytest.raises(ValueError):
                segment_convexity_residual(f, a, b, t)

    def test_overflowing_residual_is_an_error(self):
        # both residuals returned NaN here, which passes a `residual < -tol`
        # test; they raise the error the checks raise on the same overflow
        f = lift(builtin("sum"))
        a, b = diag(1e308, 1e308), diag(1e308, 1e307)
        for residual in (lambda: midpoint_convexity_residual(f, a, b),
                         lambda: segment_convexity_residual(f, a, b, 0.3),
                         lambda: check_unitary_invariance(f, a, UnitaryMatrix(np.eye(2)), 1e-10)):
            with pytest.raises(NonFiniteResult, match="not finite"):
                residual()

    def test_sizes_must_match(self):
        f = lift(builtin("lse"))
        with pytest.raises(DimensionMismatch):
            segment_convexity_residual(f, gue(3, 1), gue(4, 1), 0.25)
        with pytest.raises(DimensionMismatch):
            midpoint_convexity_residual(f, gue(3, 1), gue(4, 1))

    def test_linear_base_stays_at_zero(self):
        f = lift(builtin("sum"))
        for seed in range(10):
            res = midpoint_convexity_residual(f, gue(5, seed), gue(5, seed + 100))
            assert abs(res) <= 1e-12

    def test_min_negative_control_fires(self):
        # at least one convexity violation for the concave base within 1000 trials
        f = lift(builtin("min"))
        violations = 0
        for seed in range(1000):
            res = midpoint_convexity_residual(f, gue(4, 2 * seed), gue(4, 2 * seed + 1))
            if res < -1e-10:
                violations += 1
        assert violations >= 1


class TestDavisRestriction:
    def test_uniform_point(self):
        res = check_davis_restriction(builtin("lse"), [0.0, 0.0], tol=1e-12)
        assert res.passed
        assert res.rhs == pytest.approx(math.log(2.0), abs=1e-15)

    def test_max_with_unsorted_input(self):
        res = check_davis_restriction(builtin("max"), [5.0, -5.0, 1.0], tol=1e-12)
        assert res.passed and res.rhs == 5.0

    @pytest.mark.parametrize("name", ["lse", "max", "sum", "pnorm:2"])
    def test_random_points(self, name):
        rng = np.random.default_rng(11)
        f = builtin(name)
        for _ in range(100):
            x = rng.uniform(-10.0, 10.0, 6)
            assert check_davis_restriction(f, x, tol=1e-12).passed

    def test_forward_direction_scalar_to_lift(self):
        # scalar midpoint residuals nonnegative across 10^4 vector pairs, and
        # the lifted residuals stay above the noise floor across 10^4 matrix
        # pairs, each evaluated as one stack: pair i is the x, y that the i-th
        # pair of rng.uniform(-8, 8, 4) draws would give, and the matrices of
        # pair s are gue(4, 3s) and gue(4, 3s + 1)
        f = builtin("lse")
        x, y = np.random.default_rng(2024).uniform(-8.0, 8.0, (10_000, 2, 4)).transpose(1, 0, 2)
        scalar = 0.5 * (f.rows(x) + f.rows(y)) - f.rows((x + y) / 2.0)
        assert scalar.min() >= -1e-12
        seeds = 3 * np.arange(10_000)
        a, b = (hermitian_stack(EnsembleSpec("gue", 4, 1.0, 0), generators(seed_words(s))) for s in (seeds, seeds + 1))
        assert segment_rows(f, a, b)[2].min() >= -1e-10
        # the stacks are the public draws: a sample of pairs, through the public path
        for s in (0, 1, 4999, 9999):
            np.testing.assert_array_equal(a[s], gue(4, 3 * s).entries)
            assert midpoint_convexity_residual(lift(f), gue(4, 3 * s), gue(4, 3 * s + 1)) == \
                segment_rows(f, a[s:s + 1], b[s:s + 1])[2][0]
