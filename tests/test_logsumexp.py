"""Tests for log-sum-exp, softmax, and the Hessian structure."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from gtcert import (
    ConvergenceFailure,
    HermitianMatrix,
    HermiticityViolation,
    NonFiniteInput,
    NonFiniteResult,
    SoftmaxWeights,
    builtin,
    check_davis_restriction,
    check_symmetry,
    complete_graph_laplacian,
    dkd_product,
    hessian_fd,
    log_trace_exp,
    lse,
    lse_hessian_analytic,
    psd_certify,
    softmax,
)
from gtcert.logsumexp import hessian_fd_rows, hessian_rows
from oracles import fd_bound

LOG_3 = 1.0986122886681098

# numpy's warnings fail these tests, as a warning printed by the CLI would be a second stderr line
quiet = pytest.mark.filterwarnings("error::RuntimeWarning")

# a finite vector whose spread overflows: x - max x holds -inf, whose exp is the intended 0
WIDE = [1.7e308, -1.7e308]


def weighted_laplacian(p: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T, the complete-graph Laplacian with edge weights p_i p_j; the Hessian's oracle."""
    lap = -np.outer(p, p)
    np.fill_diagonal(lap, p * (1.0 - p))
    return lap


vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-10.0, max_value=10.0),
)


class TestLse:
    def test_uniform_vector(self):
        assert lse([0.0, 0.0, 0.0, 0.0]) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_two_point_value(self):
        # exp(0) + exp(log 3) = 4
        assert lse([0.0, LOG_3]) == pytest.approx(math.log(4.0), abs=1e-14)

    def test_single_entry_is_identity(self):
        assert lse([7.25]) == 7.25

    def test_no_overflow_at_large_arguments(self):
        assert lse([1000.0, 0.0]) == pytest.approx(1000.0, abs=1e-12)
        assert lse([10000.0, 9999.0]) == pytest.approx(
            10000.0 + math.log1p(math.exp(-1.0)), abs=1e-11
        )

    def test_non_finite_rejected(self):
        for bad in ([np.nan, 0.0], [np.inf, 1.0], [-np.inf]):
            with pytest.raises(NonFiniteInput):
                lse(bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lse([])

    @given(vectors)
    def test_bounds(self, x):
        val = lse(x)
        assert x.max() <= val <= x.max() + math.log(len(x)) + 1e-12

    @given(vectors, st.floats(min_value=-50.0, max_value=50.0))
    def test_translation(self, x, c):
        assert lse(x + c) == pytest.approx(lse(x) + c, abs=1e-10)


@quiet
class TestSpreadBeyondTheFloatRange:
    def test_lse_is_the_maximum(self):
        assert lse(WIDE) == 1.7e308
        assert log_trace_exp(HermitianMatrix(np.diag(WIDE))) == 1.7e308

    def test_hessians_are_zero(self):
        assert not lse_hessian_analytic(WIDE).entries.any()
        assert not hessian_fd(WIDE).entries.any()

    def test_softmax_weight_underflows(self):
        for weights in (softmax, dkd_product):
            with pytest.raises(ValueError, match="strictly positive"):
                weights(WIDE)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]).p, [0.5, 0.5], atol=1e-16)

    def test_quarter_three_quarters(self):
        np.testing.assert_allclose(softmax([0.0, LOG_3]).p, [0.25, 0.75], atol=1e-15)

    @given(vectors)
    def test_simplex_invariants(self, x):
        w = softmax(x)
        assert np.all(w.p > 0)
        assert abs(float(w.p.sum()) - 1.0) <= 1e-14

    @given(vectors, st.floats(min_value=-100.0, max_value=100.0))
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(softmax(x + c).p, softmax(x).p, atol=1e-14)

    def test_gradient_of_lse(self):
        # central differences at h = 1e-5 agree to 1e-7 max-entry
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            x = rng.uniform(-20.0, 20.0, rng.integers(1, 9))
            grad = np.array([
                (lse(x + h * e) - lse(x - h * e)) / (2.0 * h)
                for e in np.eye(len(x))
            ])
            assert np.max(np.abs(grad - softmax(x).p)) <= 1e-7

    def test_underflowing_spread_rejected(self):
        with pytest.raises(ValueError):
            softmax([0.0, 800.0])

    def test_weights_validated_at_construction(self):
        with pytest.raises(ValueError):
            SoftmaxWeights(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            SoftmaxWeights(np.array([1.5, -0.5]))


class TestBuilderMatrices:
    """The Hessians and Laplacians are HermitianMatrix values with float64 entries."""

    def test_exact_symmetry_required(self):
        with pytest.raises(HermiticityViolation):
            HermitianMatrix(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))

    def test_read_only(self):
        m = complete_graph_laplacian(3)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_entries_are_the_rows_they_wrap(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 16):
            x = rng.uniform(-10.0, 10.0, n)
            p = softmax(x).p
            k = n * np.eye(n) - np.ones((n, n))
            for m, expected in (
                (lse_hessian_analytic(x), hessian_rows(x[None])[0]),
                (hessian_fd(x), hessian_fd_rows(x[None])[0]),
                (complete_graph_laplacian(n), k),
                (dkd_product(x), p[:, None] * k * p[None, :]),
            ):
                assert isinstance(m, HermitianMatrix) and m.entries.dtype == np.float64
                assert m.entries.tobytes() == expected.tobytes()


STRING_VECTOR_CALLS = {
    "lse": lambda: lse(["2", "3"]),
    "softmax": lambda: softmax(["1", "2"]),
    "lse_hessian_analytic": lambda: lse_hessian_analytic(["1", "2"]),
    "hessian_fd": lambda: hessian_fd(["1", "2"]),
    "dkd_product": lambda: dkd_product(["1", "2"]),
    "check_davis_restriction": lambda: check_davis_restriction(builtin("lse"), ["1", "2"], 1e-10),
    "check_symmetry": lambda: check_symmetry(builtin("lse"), ["1", "2"]),
    "builtin_max": lambda: builtin("max")(["3", "1"]),
}


class TestVectorEntryRule:
    """Vectors enter by the constructors' numbers-only rule (checks.as_numbers)."""

    @pytest.mark.parametrize("call", STRING_VECTOR_CALLS.values(), ids=STRING_VECTOR_CALLS.keys())
    def test_numeric_strings_rejected(self, call):
        # numpy parsed "2" as 2.0: lse(["2", "3"]) returned 3.3133
        with pytest.raises(TypeError):
            call()

    def test_none_rejected(self):
        # None became NaN and was reported as NonFiniteInput
        with pytest.raises(TypeError):
            lse([None, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_complex_rejected_without_a_warning(self):
        # numpy warned (ComplexWarning) and dropped the imaginary parts: 2.3133
        with pytest.raises(TypeError):
            lse(np.array([1 + 0j, 2]))

    def test_bools_read_as_zero_and_one(self):
        assert lse([True, False]) == lse([1.0, 0.0])
        np.testing.assert_array_equal(lse_hessian_analytic([True, False]).entries,
                                      lse_hessian_analytic([1.0, 0.0]).entries)
        cert = psd_certify(HermitianMatrix([[True, False], [False, False]]))
        assert cert.passed and cert.min_eigenvalue == 0.0 and cert.nullspace_dim == 1


class TestHessianAnalytic:
    def test_one_dimensional_is_zero(self):
        np.testing.assert_array_equal(lse_hessian_analytic([3.0]).entries, [[0.0]])

    def test_frozen_two_point_value(self):
        # softmax (1/4, 3/4): diagonal 3/16, off-diagonal -3/16
        h = lse_hessian_analytic([0.0, LOG_3]).entries
        np.testing.assert_allclose(
            h, [[0.1875, -0.1875], [-0.1875, 0.1875]], atol=1e-15
        )

    def test_uniform_three_point_value(self):
        h = lse_hessian_analytic([0.0, 0.0, 0.0]).entries
        expected = np.eye(3) / 3.0 - np.ones((3, 3)) / 9.0
        np.testing.assert_allclose(h, expected, atol=1e-16)

    @given(vectors)
    def test_matches_weighted_laplacian(self, x):
        h = lse_hessian_analytic(x).entries
        lap = weighted_laplacian(softmax(x).p)
        assert np.max(np.abs(h - lap)) <= 1e-14

    @given(vectors)
    def test_rows_sum_to_zero(self, x):
        h = lse_hessian_analytic(x).entries
        assert np.max(np.abs(h.sum(axis=1))) <= 1e-14

    @given(vectors, st.floats(min_value=-50.0, max_value=50.0))
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(
            lse_hessian_analytic(x + c).entries,
            lse_hessian_analytic(x).entries,
            atol=1e-14,
        )


def hessian_fd_loop(x, h=1e-4):
    """The stencil as a double loop of scalar lse calls: the oracle for `hessian_fd`."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = (
                lse(arr + ei + ej)
                - lse(arr + ei - ej)
                - lse(arr - ei + ej)
                + lse(arr - ei - ej)
            ) / (4.0 * h * h)
            out[j, i] = out[i, j]
    return out


class TestHessianFiniteDifference:
    def test_vectorized_stencil_matches_double_loop(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 5, 16):
            for h in (1e-4, 1e-3):
                x = rng.uniform(-10.0, 10.0, n)
                # hessian_fd evaluates the stencil at the max-shifted point
                np.testing.assert_array_equal(
                    hessian_fd(x, h).entries, hessian_fd_loop(x - x.max(), h)
                )

    def test_row_kernel_matches_double_loop_per_row(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 5, 16):
            x = rng.uniform(-10.0, 10.0, (4, n))
            stack = hessian_fd_rows(x, 1e-4)
            for row, fd in zip(x, stack):
                np.testing.assert_array_equal(fd, hessian_fd_loop(row - row.max(), 1e-4))

    def test_agrees_with_analytic_at_frozen_point(self):
        dev = np.abs(
            hessian_fd([0.0, LOG_3]).entries - lse_hessian_analytic([0.0, LOG_3]).entries
        )
        assert dev.max() <= fd_bound(2)

    def test_agreement_over_random_points(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 10):
            for _ in range(25):
                x = rng.uniform(-10.0, 10.0, n)
                dev = np.abs(hessian_fd(x).entries - lse_hessian_analytic(x).entries)
                assert dev.max() <= fd_bound(n)

    def test_linear_function_case(self):
        # n = 1: lse is the identity; the stencil leaves only rounding noise,
        # of size about eps * |x| / (4 h^2) = 2e-8 at x = 4
        assert abs(hessian_fd([4.0]).entries[0, 0]) <= 1e-7

    def test_bad_step_rejected(self):
        # h=True differentiated with step 1.0; h="1e-4" raised numpy's TypeError;
        # h=1e-170 divided by 4 h^2 = 0 (a RuntimeWarning, then a misleading
        # HermiticityViolation) and h=1e300 by inf (an all-zero Hessian);
        # h=10**400, an int no float holds, raised OverflowError
        for h in (0.0, -1e-4, math.inf, math.nan, True, np.True_, "1e-4", None, 1e-170, 1e300, 10**400):
            with pytest.raises(ValueError):
                hessian_fd([1.0, 2.0], h=h)


class TestCompleteGraphLaplacian:
    def test_small_cases(self):
        np.testing.assert_array_equal(complete_graph_laplacian(1).entries, [[0.0]])
        np.testing.assert_array_equal(
            complete_graph_laplacian(3).entries,
            [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]],
        )

    def test_spectrum(self):
        w = np.linalg.eigvalsh(complete_graph_laplacian(5).entries)
        np.testing.assert_allclose(w, [0.0, 5.0, 5.0, 5.0, 5.0], atol=1e-13)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            complete_graph_laplacian(0)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_size_must_be_an_int(self, n):
        # True passed isinstance(n, int) and failed in numpy with a TypeError
        with pytest.raises(ValueError):
            complete_graph_laplacian(n)


class TestDkdProduct:
    def test_uniform_weights_reproduce_hessian(self):
        x = [1.0, 1.0, 1.0, 1.0]
        np.testing.assert_allclose(
            dkd_product(x).entries, lse_hessian_analytic(x).entries, atol=1e-15
        )

    def test_frozen_two_point_value(self):
        d = dkd_product([0.0, LOG_3]).entries
        np.testing.assert_allclose(
            d, [[0.0625, -0.1875], [-0.1875, 0.5625]], atol=1e-15
        )

    def test_diagonal_differs_from_hessian(self):
        d = dkd_product([0.0, LOG_3]).entries
        h = lse_hessian_analytic([0.0, LOG_3]).entries
        np.testing.assert_allclose(
            np.abs(np.diagonal(d - h)), [0.125, 0.375], atol=1e-12
        )

    @given(vectors)
    def test_offdiagonal_always_matches_hessian(self, x):
        d = dkd_product(x).entries
        h = lse_hessian_analytic(x).entries
        off = ~np.eye(len(x), dtype=bool)
        if off.any():
            assert np.max(np.abs((d - h)[off])) <= 1e-14

    def test_diagonal_matches_only_when_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-10.0, 10.0, rng.integers(2, 9))
            gap = float(np.max(np.abs(np.diagonal(
                dkd_product(x).entries - lse_hessian_analytic(x).entries
            ))))
            p = softmax(x).p
            uniform_dev = float(np.max(np.abs(p - 1.0 / len(x))))
            if uniform_dev > 1e-6:
                assert gap > 1e-13
        c = rng.uniform(-5.0, 5.0)
        x = np.full(6, c)
        gap = np.max(np.abs(np.diagonal(
            dkd_product(x).entries - lse_hessian_analytic(x).entries
        )))
        assert gap <= 1e-15


class TestWeightedLaplacian:
    """The lse Hessian is the weighted Laplacian diag(p) - p p^T."""

    def test_half_half(self):
        h = lse_hessian_analytic([0.7, 0.7]).entries
        np.testing.assert_allclose(h, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-16)

    def test_edge_weight_expansion(self):
        # the Hessian must equal sum over edges of p_i p_j (e_i - e_j)(e_i - e_j)^T
        x = [0.3, -1.2, 2.0, 0.0]
        p = softmax(x).p
        n = len(p)
        acc = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                e = np.zeros(n)
                e[i], e[j] = 1.0, -1.0
                acc += p[i] * p[j] * np.outer(e, e)
        np.testing.assert_allclose(lse_hessian_analytic(x).entries, acc, atol=1e-15)


class TestPsdCertify:
    def test_complete_graph_laplacian_passes(self):
        cert = psd_certify(complete_graph_laplacian(4), tol=1e-10)
        assert cert.passed and cert.nullspace_dim == 1
        assert cert.min_eigenvalue >= -1e-12

    def test_negative_definite_fails(self):
        cert = psd_certify(HermitianMatrix(-np.eye(2)), tol=1e-10)
        assert not cert.passed
        assert cert.min_eigenvalue == pytest.approx(-1.0, abs=1e-14)
        assert cert.nullspace_dim == 0

    def test_hessian_certificate(self):
        cert = psd_certify(lse_hessian_analytic([1.3, -0.2, 4.0]))
        assert cert.passed and cert.nullspace_dim == 1

    def test_default_tolerance_scales_with_entries(self):
        m = HermitianMatrix(np.diag([1e8, -1e-4]))
        assert psd_certify(m).passed  # -1e-4 is within 1e-10 * 1e8
        assert not psd_certify(m, tol=1e-10).passed

    def test_zero_matrix_nullspace(self):
        cert = psd_certify(HermitianMatrix(np.zeros((3, 3))), tol=1e-10)
        assert cert.passed and cert.nullspace_dim == 3

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            psd_certify(complete_graph_laplacian(2), tol=-1.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            psd_certify(complete_graph_laplacian(2), tol=tol)

    @pytest.mark.parametrize("tol", [1e-10, None])
    def test_non_finite_entries_rejected(self, tol):
        # with tol=1e-10 the certificate read min_eigenvalue=nan, passed=False;
        # with the default tol it blamed the tol derived from the inf entry
        with pytest.raises(NonFiniteInput):
            psd_certify(HermitianMatrix(np.diag([np.inf, 0.0])), tol)

    def test_overflowing_spectrum_rejected(self):
        # eigvalsh gives [0, inf] for this finite matrix; a certificate from
        # an overflowed spectrum is not one
        with pytest.raises(NonFiniteResult):
            psd_certify(HermitianMatrix(np.full((2, 2), 1e308)), 1e-10)

    def test_solver_failure(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure):
            psd_certify(complete_graph_laplacian(3))
