"""Tests for the Hermitian core: validation, ensembles, eigh-based transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gtcert import (
    DimensionMismatch,
    EigenDecomposition,
    EnsembleSpec,
    HermiticityViolation,
    HermitianMatrix,
    NonFiniteInput,
    NotSquareError,
    OverflowRisk,
    UnitarityViolation,
    UnitaryMatrix,
    conjugate,
    eigh,
    matrix_exp,
    random_hermitian,
    random_unitary,
    random_vector,
    trace_re,
    validate_hermitian,
)
from gtcert.hermitian import (
    haar_stack,
    hermitian_stack,
    parse_ensemble_kind,
    pcg64_states,
    reseeded,
    vector_stack,
)


def expm_taylor(m: np.ndarray, terms: int = 24) -> np.ndarray:
    """Scaling-and-squaring Taylor series.  Independent of any eigensolver."""
    norm = float(np.linalg.norm(m, np.inf))
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = m / (2.0**squarings)
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def gue(n, seed, scale=1.0):
    return random_hermitian(EnsembleSpec("gue", n, scale, seed))


class TestValidateHermitian:
    def test_exact_input_accepted(self):
        m = np.array([[1.0, 1j], [-1j, 2.0]])
        h = validate_hermitian(m, 0.0)
        np.testing.assert_array_equal(h.entries, m)

    def test_noise_below_tolerance_is_symmetrized(self):
        m = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 3e-14j, 2.0]])
        h = validate_hermitian(m, 1e-10)
        assert np.array_equal(h.entries, h.entries.conj().T)
        assert np.all(h.entries.diagonal().imag == 0.0)

    def test_relative_scaling_of_tolerance(self):
        # absolute residual 1e-6 passes at tol 1e-10 because max|M| = 1e6
        m = np.array([[1e6, 1e6 + 1e-6j], [1e6 - 0j, 1e6]])
        h = validate_hermitian(m, 1e-10)
        assert h.n == 2

    def test_violation_raises(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(HermiticityViolation):
            validate_hermitian(m, 1e-10)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_hermitian(np.zeros((2, 3)), 1e-10)

    def test_empty_rejected(self):
        with pytest.raises(NotSquareError):
            validate_hermitian(np.zeros((0, 0)), 1e-10)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            validate_hermitian(np.eye(2), -1.0)

    def test_one_by_one(self):
        h = validate_hermitian([[3.0]], 0.0)
        assert h.n == 1 and h.entries[0, 0] == 3.0


class TestHermitianMatrix:
    def test_exact_constructor_rejects_noise(self):
        m = np.array([[1.0, 1e-15j], [0.0, 1.0]])
        with pytest.raises(HermiticityViolation):
            HermitianMatrix(m)

    def test_sum_and_scaling_stay_exact(self):
        a = gue(6, 11)
        b = gue(6, 12)
        for h in (a + b, 0.25 * a, a + 2.0 * b):
            assert np.array_equal(h.entries, h.entries.conj().T)

    def test_dimension_mismatch_on_add(self):
        with pytest.raises(DimensionMismatch):
            gue(3, 1) + gue(4, 1)

    def test_entries_read_only(self):
        a = gue(3, 5)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 9.0


class TestUnitaryMatrix:
    def test_identity_accepted(self):
        u = UnitaryMatrix(np.eye(4))
        assert u.n == 4

    def test_non_unitary_rejected(self):
        with pytest.raises(UnitarityViolation):
            UnitaryMatrix(2.0 * np.eye(3))

    def test_phase_accepted(self):
        UnitaryMatrix(np.diag([1j, -1j]))


class TestEnsembles:
    def test_sampling_is_pure(self):
        spec = EnsembleSpec("gue", 8, 2.0, 123)
        np.testing.assert_array_equal(
            random_hermitian(spec).entries, random_hermitian(spec).entries
        )

    def test_distinct_seeds_differ(self):
        a = gue(8, 1)
        b = gue(8, 2)
        assert not np.array_equal(a.entries, b.entries)

    def test_goe_has_zero_imaginary_parts(self):
        h = random_hermitian(EnsembleSpec("goe", 16, 1.0, 7))
        assert np.all(h.entries.imag == 0.0)

    def test_diagonal_uniform_support(self):
        h = random_hermitian(EnsembleSpec("diag", 32, 0.5, 3))
        off = h.entries[~np.eye(32, dtype=bool)]
        assert np.all(off == 0.0)
        d = h.entries.diagonal().real
        assert np.all((d >= -0.5) & (d <= 0.5))

    def test_gue_offdiagonal_second_moment(self):
        # mean |entry|^2 off the diagonal should be scale^2 = 1 within 10%
        total, count = 0.0, 0
        mask = ~np.eye(64, dtype=bool)
        for seed in range(1000):
            h = gue(64, seed)
            total += float(np.sum(np.abs(h.entries[mask]) ** 2))
            count += int(mask.sum())
        assert abs(total / count - 1.0) < 0.1

    def test_gue_diagonal_second_moment(self):
        total, count = 0.0, 0
        for seed in range(400):
            h = gue(64, seed)
            total += float(np.sum(h.entries.diagonal().real ** 2))
            count += 64
        assert abs(total / count - 1.0) < 0.1

    def test_kind_aliases(self):
        assert parse_ensemble_kind("GUE") == "gue"
        assert parse_ensemble_kind("DIAGONAL-UNIFORM") == "diag"
        assert EnsembleSpec("GOE", 2, 1.0, 0).kind == "goe"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="wishart", n=2, scale=1.0, seed=0),
            dict(kind="gue", n=0, scale=1.0, seed=0),
            dict(kind="gue", n=2, scale=0.0, seed=0),
            dict(kind="gue", n=2, scale=float("nan"), seed=0),
            dict(kind="gue", n=2, scale=1.0, seed=-1),
            dict(kind="gue", n=2, scale=1.0, seed=2**64),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleSpec(**kwargs)

    def test_random_vector_laws(self):
        spec = EnsembleSpec("diag", 1000, 2.0, 9)
        x = random_vector(spec)
        assert x.shape == (1000,)
        assert np.all((x >= -2.0) & (x <= 2.0))
        y = random_vector(EnsembleSpec("gue", 4000, 3.0, 9))
        assert abs(float(np.std(y)) - 3.0) < 0.3
        np.testing.assert_array_equal(x, random_vector(spec))


class TestRandomUnitary:
    def test_unitarity(self):
        for n in (1, 2, 5, 16):
            u = random_unitary(n, seed=n)
            dev = np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(n)))
            assert dev <= 1e-10

    def test_pure_in_seed(self):
        np.testing.assert_array_equal(
            random_unitary(6, 77).entries, random_unitary(6, 77).entries
        )

    def test_one_by_one_is_unit_modulus(self):
        u = random_unitary(1, 5)
        assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-12

    def test_haar_first_entry_moment(self):
        # E |U[0][0]|^2 = 1/n for Haar measure; n = 8, 200 draws, 20% leeway
        vals = [abs(random_unitary(8, seed).entries[0, 0]) ** 2 for seed in range(200)]
        assert abs(np.mean(vals) - 0.125) < 0.025

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_unitary(0, 1)


def previous_draws(kind, n, scale, seed):
    """The per-seed formulas the stack samplers replaced, each from a fresh PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "gue":
        g = rng.normal(0.0, scale, (n, n)) + 1j * rng.normal(0.0, scale, (n, n))
        matrix = (g + g.conj().T) / 2.0
    elif kind == "goe":
        g = rng.normal(0.0, scale, (n, n))
        matrix = ((g + g.T) / 2.0).astype(np.complex128)
    else:
        matrix = np.diag(rng.uniform(-scale, scale, n)).astype(np.complex128)
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "diag":
        vector = rng.uniform(-scale, scale, n)
    else:
        vector = rng.normal(0.0, scale, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return matrix, vector, q * (d / np.abs(d))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestCampaignSeeding:
    def test_states_match_numpy_seeding(self):
        rng = np.random.default_rng(2024)
        seeds = EDGE_SEEDS + rng.integers(0, 2**64, 3000, dtype=np.uint64).tolist()
        states = pcg64_states(seeds)
        assert len(states) == len(seeds)
        for seed, (state, inc) in zip(seeds, states):
            assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}, seed

    @pytest.mark.parametrize("kind", ["gue", "goe", "diag"])
    def test_stack_samplers_match_single_draws(self, kind):
        # one re-seeded generator draws, bit for bit, what PCG64(seed) draws
        seeds = EDGE_SEEDS + [123456789]
        rng = np.random.Generator(np.random.PCG64(0))
        for n in (1, 2, 8):
            specs = [EnsembleSpec(kind, n, 2.5, s) for s in seeds]
            np.testing.assert_array_equal(
                hermitian_stack(kind, n, 2.5, reseeded(rng, pcg64_states(seeds))),
                np.stack([random_hermitian(spec).entries for spec in specs]),
            )
            np.testing.assert_array_equal(
                vector_stack(kind, n, 2.5, reseeded(rng, pcg64_states(seeds))),
                np.stack([random_vector(spec) for spec in specs]),
            )
            np.testing.assert_array_equal(
                haar_stack(n, reseeded(rng, pcg64_states(seeds))),
                np.stack([random_unitary(n, s).entries for s in seeds]),
            )

    @pytest.mark.parametrize("kind", ["gue", "goe", "diag"])
    def test_single_draws_keep_their_bits(self, kind):
        for n in (1, 2, 8):
            for seed in (0, 5, 2**64 - 1):
                matrix, vector, unitary = previous_draws(kind, n, 0.75, seed)
                spec = EnsembleSpec(kind, n, 0.75, seed)
                np.testing.assert_array_equal(random_hermitian(spec).entries, matrix)
                np.testing.assert_array_equal(random_vector(spec), vector)
                np.testing.assert_array_equal(random_unitary(n, seed).entries, unitary)


class TestEigh:
    def test_diagonal_matrix_sorted(self):
        dec = eigh(HermitianMatrix(np.diag([3.0, 1.0, 2.0]).astype(complex)))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_known_spectrum_recovered(self):
        # build U diag(-2, 0, 5) U* from a sampled unitary, then recover
        u = random_unitary(3, 31).entries
        w = np.array([-2.0, 0.0, 5.0])
        a = validate_hermitian((u * w) @ u.conj().T, 1e-12)
        dec = eigh(a)
        np.testing.assert_allclose(dec.eigenvalues, w, atol=1e-12)

    def test_pauli_x_spectrum(self):
        dec = eigh(HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_reconstruct_round_trip(self, n):
        a = gue(n, seed=n + 100)
        err = np.max(np.abs(eigh(a).reconstruct().entries - a.entries))
        assert err <= 1e-10 * max(1.0, float(np.max(np.abs(a.entries))))

    def test_ascending_order_enforced(self):
        with pytest.raises(ValueError):
            EigenDecomposition(np.array([2.0, 1.0]), UnitaryMatrix(np.eye(2)))

    def test_eigenvalue_count_checked(self):
        with pytest.raises(DimensionMismatch):
            EigenDecomposition(np.array([1.0]), UnitaryMatrix(np.eye(2)))

    def test_non_finite_input_rejected(self):
        bad = HermitianMatrix(np.diag([np.inf, 1.0]).astype(complex))
        with pytest.raises(NonFiniteInput):
            eigh(bad)


class TestMatrixExp:
    def test_zero_gives_identity(self):
        e = matrix_exp(HermitianMatrix(np.zeros((3, 3), dtype=complex)))
        np.testing.assert_allclose(e.entries, np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        e = matrix_exp(HermitianMatrix(np.diag([1.0, -1.0]).astype(complex)))
        np.testing.assert_allclose(
            e.entries.diagonal().real, [math.e, 1.0 / math.e], rtol=1e-14
        )

    def test_pauli_x_closed_form(self):
        e = matrix_exp(HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)))
        c, s = math.cosh(1.0), math.sinh(1.0)
        np.testing.assert_allclose(e.entries.real, [[c, s], [s, c]], rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_matches_series_oracle(self, n):
        a = gue(n, seed=50 + n)
        e = matrix_exp(a)
        ref = expm_taylor(a.entries)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(e.entries - ref)) <= 1e-12 * max(1.0, scale)

    def test_spectral_mapping(self):
        a = gue(6, 8)
        w_a = eigh(a).eigenvalues
        w_e = eigh(matrix_exp(a)).eigenvalues
        np.testing.assert_allclose(w_e, np.exp(w_a), rtol=1e-12)

    def test_result_is_positive_definite(self):
        for seed in range(5):
            w = eigh(matrix_exp(gue(5, seed))).eigenvalues
            assert w[0] > 0.0

    def test_overflow_guard(self):
        big = HermitianMatrix(np.diag([701.0, 0.0]).astype(complex))
        with pytest.raises(OverflowRisk):
            matrix_exp(big)

    def test_just_under_the_guard(self):
        e = matrix_exp(HermitianMatrix(np.diag([699.0, 0.0]).astype(complex)))
        assert np.isfinite(e.entries).all()


class TestConjugate:
    def test_identity_unitary(self):
        a = gue(4, 3)
        np.testing.assert_allclose(conjugate(a, UnitaryMatrix(np.eye(4))).entries,
                                   a.entries, atol=1e-14)

    def test_permutation_reorders_diagonal(self):
        a = HermitianMatrix(np.diag([1.0, 2.0]).astype(complex))
        swap = UnitaryMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(
            conjugate(a, swap).entries.diagonal().real, [2.0, 1.0], atol=1e-15
        )

    @given(st.integers(min_value=0, max_value=2**32))
    def test_spectrum_preserved(self, seed):
        a = gue(5, seed)
        u = random_unitary(5, seed + 1)
        np.testing.assert_allclose(
            eigh(conjugate(a, u)).eigenvalues, eigh(a).eigenvalues, atol=1e-12
        )

    def test_trace_preserved(self):
        a = gue(7, 21)
        u = random_unitary(7, 22)
        assert abs(trace_re(conjugate(a, u)) - trace_re(a)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            conjugate(gue(3, 1), random_unitary(4, 1))


class TestTraceRe:
    def test_identity(self):
        assert trace_re(HermitianMatrix(np.eye(5, dtype=complex))) == 5.0

    def test_traceless(self):
        assert trace_re(HermitianMatrix(np.diag([1.0, -1.0]).astype(complex))) == 0.0

    def test_exp_trace(self):
        a = HermitianMatrix(np.diag([0.0, math.log(2.0)]).astype(complex))
        assert abs(trace_re(matrix_exp(a)) - 3.0) <= 1e-14
