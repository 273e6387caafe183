"""Tests for the Hermitian core: validation, ensembles, the stacked eigensolver."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gtcert import (
    CampaignConfig,
    CampaignTrialError,
    DimensionMismatch,
    EnsembleSpec,
    HermiticityViolation,
    HermitianMatrix,
    NonFiniteInput,
    NonFiniteResult,
    NotSquareError,
    UnitarityViolation,
    UnitaryMatrix,
    builtin,
    builtin_names,
    check_unitary_invariance,
    lift,
    lift_eval,
    log_trace_exp,
    lse,
    random_hermitian,
    random_unitary,
    random_vector,
    run_campaign,
    trial_inputs,
    validate_hermitian,
)
from gtcert import hermitian
from gtcert.checks import quiet_rows
from gtcert.gt import derive_seed, derive_seeds
from gtcert.hermitian import (
    ENSEMBLE_KINDS,
    complex_from_parts,
    conj_t,
    diagonal_stack,
    generators,
    haar_stack,
    hermitian_stack,
    parse_ensemble_kind,
    seed_words,
    stacked_spectrum,
    symmetrized,
    vector_stack,
)
from gtcert.logsumexp import hessian_rows
from gtcert.spectral import davis_restriction_rows
from oracles import expm_taylor


def gue(n, seed, scale=1.0):
    return random_hermitian(EnsembleSpec("gue", n, scale, seed))


def bad_rows(shape, first=-math.inf, second=math.nan):
    """A stack of 4 arrays of `shape` holding 1.0, but `first` in row 1 and `second` in row 3."""
    stack = np.ones((4,) + shape)
    stack[1], stack[3] = first, second
    return stack


def campaign_cause(config, trial_index):
    """Run `config`'s campaign, which must name trial `trial_index`, and raise the cause of its CampaignTrialError."""
    try:
        run_campaign(config)
    except CampaignTrialError as exc:
        assert exc.trial_index == trial_index
        raise exc.cause


# the error and message of each finiteness guard: inputs are tested where they
# enter, and `stacked_spectrum`, the one other site, refuses a non-finite
# matrix as computed (A + B or U* A U overflowed)
BAD_MATRIX = NonFiniteInput, "matrix contains NaN or infinity"
SAMPLED = NonFiniteInput, "sampled draw contains NaN or infinity"
COMPUTED = NonFiniteResult, "computed matrix is not finite"
OVERFLOWING = EnsembleSpec("gue", 4, 1.7e308, 1)

# trial 3 of this campaign draws a vector that holds -inf (and no +inf)
NEG_INF_TRIAL = CampaignConfig("HESSIAN_PSD", EnsembleSpec("gue", 3, 1e308, 6), 6, 1e-10)

# (finiteness rule site, call, (error, message))
FINITENESS_SITES = [
    ("validate_hermitian", lambda: validate_hermitian([[1.0, 0.0], [0.0, math.nan]], 1e-10), BAD_MATRIX),
    # the exact constructor called a NaN a HermiticityViolation (NaN != NaN)
    # and accepted an infinity, which only stacked_spectrum refused later
    ("HermitianMatrix NaN", lambda: HermitianMatrix([[1.0, 0.0], [0.0, math.nan]]), BAD_MATRIX),
    ("HermitianMatrix +inf", lambda: HermitianMatrix([[math.inf]]), BAD_MATRIX),
    ("HermitianMatrix -inf off the diagonal", lambda: HermitianMatrix([[0.0, -math.inf], [-math.inf, 0.0]]),
     BAD_MATRIX),
    ("UnitaryMatrix NaN", lambda: UnitaryMatrix([[math.nan]]), (NonFiniteInput, "unitary contains NaN or infinity")),
    ("lse", lambda: lse([0.0, -math.inf]), (NonFiniteInput, "vector contains NaN or infinity")),
    # every draw is tested once, in hermitian._normal_stack, where it is
    # scaled; here the third generator's draw overflows
    ("hermitian_stack", lambda: hermitian_stack(EnsembleSpec("goe", 2, 1.7e308, 0),
                                                [np.random.Generator(np.random.PCG64(s)) for s in (0, 7, 1)]),
     SAMPLED),
    ("random_hermitian", lambda: random_hermitian(OVERFLOWING), SAMPLED),
    ("random_vector", lambda: random_vector(OVERFLOWING), SAMPLED),
    ("trial_inputs", lambda: trial_inputs(NEG_INF_TRIAL, derive_seed(6, 3)), SAMPLED),
    # a campaign's draws are tested before any evaluator runs: a -inf entry's
    # softmax weight is 0, so the Hessian evaluators would pass it; trial 3 is named
    ("run_campaign", lambda: campaign_cause(NEG_INF_TRIAL, 3), SAMPLED),
    ("stacked_spectrum", lambda: stacked_spectrum(bad_rows((3, 3))), COMPUTED),
    # an evaluator trusts its inputs; the solver still refuses diag(x)
    ("davis_restriction_rows", lambda: quiet_rows(davis_restriction_rows, builtin("lse"), bad_rows((3,))),
     COMPUTED),
]


@pytest.mark.parametrize("call, expected", [s[1:] for s in FINITENESS_SITES], ids=[s[0] for s in FINITENESS_SITES])
def test_finiteness_guard_names_the_first_bad_row(call, expected):
    # every site goes through checks.require_finite_rows, whose error does not
    # say which row is bad: a campaign names its trial by checking halves of
    # the chunk again
    error, message = expected
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


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
        # M - M* of the finite entries ±1e308 overflowed with numpy's warning
        # before the error, which the CLI printed above its error line
        for m in ([[1.0, 1.0], [0.0, 1.0]], [[0.0, 1e308], [-1e308, 0.0]], [[0.0, 1e308j], [1e308j, 0.0]]):
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

    # 10**400, an int no float holds, raised OverflowError
    @pytest.mark.parametrize("tol", [math.inf, math.nan, "1e-10", True, 10**400])
    def test_tol_must_be_a_finite_real(self, tol):
        # tol=inf accepted [[0, 1], [5, 0]] and returned the off-diagonal 3
        with pytest.raises(ValueError):
            validate_hermitian([[0.0, 1.0], [5.0, 0.0]], tol)

    def test_one_by_one(self):
        h = validate_hermitian([[3.0]], 0.0)
        assert h.n == 1 and h.entries[0, 0] == 3.0

    @pytest.mark.parametrize("entries", [[[1.0, 2.0], [2.0, 3.0]], [[1.0, 2.0 + 1e-14], [2.0, 3.0]]])
    def test_rule_runs_once(self, entries, monkeypatch):
        # a second pass, the constructor's, over the exact or symmetrized
        # result nearly doubled the time taken on near-Hermitian input
        tols = []
        rule = hermitian.near_hermitian_rows
        monkeypatch.setattr(hermitian, "near_hermitian_rows", lambda *args: tols.append(args[1]) or rule(*args))
        h = validate_hermitian(entries, 1e-10)
        assert tols == [1e-10]
        assert np.array_equal(h.entries, h.entries.conj().T) and not h.entries.flags.writeable

    @pytest.mark.parametrize("entries", [
        [[5e-324]],                                      # M/2 + M*/2 gave 0.0
        [[-0.0, 5e-324], [5e-324, 2.0**-1070]],
        [[1.0, complex(-0.0, 5e-324)], [complex(-0.0, -5e-324), complex(-0.0, -0.0)]],
    ])
    def test_exactly_hermitian_input_is_returned_unchanged(self, entries):
        expected = np.array(entries)
        assert validate_hermitian(entries, 1e-10).entries.tobytes() == expected.tobytes()


class TestHermitianMatrix:
    def test_exact_constructor_rejects_noise(self):
        m = np.array([[1.0, 1e-15j], [0.0, 1.0]])
        with pytest.raises(HermiticityViolation):
            HermitianMatrix(m)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_exact_constructor_rejects_one_sided_entry(self, dtype):
        # stacked_spectrum does not test symmetry (the solver reads one
        # triangle), so the constructor is where this matrix must stop
        with pytest.raises(HermiticityViolation, match="use validate_hermitian"):
            HermitianMatrix(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=dtype))

    def test_entries_read_only(self):
        a = gue(3, 5)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 9.0

    @pytest.mark.parametrize("entries, dtype", [
        ([[True, False], [False, True]], np.float64),
        ([[0, 1], [1, 0]], np.float64),
        (np.eye(2, dtype=np.uint8), np.float64),
        (np.eye(2, dtype=np.float32), np.float64),
        (np.eye(2), np.float64),
        (np.eye(2, dtype=np.complex64), np.complex128),
        ([[0.0, 1j], [-1j, 0.0]], np.complex128),
        (np.eye(2, dtype=complex), np.complex128),
    ])
    def test_real_input_stays_real(self, entries, dtype):
        # a real symmetric matrix keeps float64 entries, so numpy's eigvalsh
        # and eigh take the real symmetric solver; any other input is complex128
        # (every case is Hermitian and unitary, so all three types accept it)
        for matrix in (HermitianMatrix(entries), validate_hermitian(entries, 1e-10), UnitaryMatrix(entries)):
            assert matrix.entries.dtype == dtype
            np.testing.assert_array_equal(matrix.entries, np.asarray(entries))

    @pytest.mark.parametrize("entries", [
        [["2"]],                                         # numpy parsed it as 2+0j
        np.array([[b"1", b"0"], [b"0", b"1"]]),
        [["1.5", 0.0], [0.0, 1.0]],
        np.array([[1.0]], dtype=object),
        [[2**70]],                                       # an object array in numpy
    ])
    def test_non_numeric_entries_rejected(self, entries):
        # matrix files accept JSON numbers only; the constructors take numbers
        # only too (bools included, as 0.0 and 1.0, which files refuse)
        for build in (HermitianMatrix, UnitaryMatrix, lambda m: validate_hermitian(m, 1e-10)):
            with pytest.raises(TypeError):
                build(entries)

    def test_entries_are_a_copy(self):
        source = np.eye(3)
        a = HermitianMatrix(source)
        source[0, 0] = 5.0
        assert a.entries[0, 0] == 1.0 and source.flags.writeable


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

    @pytest.mark.parametrize("kind, dtype", [("gue", np.complex128), ("goe", np.float64), ("diag", np.float64)])
    def test_entry_dtype(self, kind, dtype):
        # goe and diag matrices are real symmetric and are drawn as float64
        assert random_hermitian(EnsembleSpec(kind, 4, 1.0, 3)).entries.dtype == dtype
        rngs = generators(seed_words([1, 2, 3]))
        assert hermitian_stack(EnsembleSpec(kind, 4, 1.0, 0), rngs).dtype == dtype

    def test_diagonal_uniform_support(self):
        h = random_hermitian(EnsembleSpec("diag", 32, 0.5, 3))
        off = h.entries[~np.eye(32, dtype=bool)]
        assert np.all(off == 0.0)
        d = h.entries.diagonal().real
        assert np.all((d >= -0.5) & (d <= 0.5))

    def test_diag_width_must_be_finite(self):
        # numpy's uniform draw on [-scale, scale] raised OverflowError mid-campaign
        EnsembleSpec("diag", 2, np.finfo(float).max / 2, 0)
        with pytest.raises(ValueError, match="diag scale"):
            EnsembleSpec("diag", 2, 1.7e308, 0)
        EnsembleSpec("gue", 2, 1.7e308, 0)

    def test_overflowing_draws_do_not_warn(self):
        # the samplers raise NonFiniteInput for a draw that overflows, and
        # numpy prints no overflow or invalid-value warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("gue", "goe"):
                rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in range(8)]
                for sample in (hermitian_stack, vector_stack):
                    with pytest.raises(NonFiniteInput):
                        sample(EnsembleSpec(kind, 4, 1.7e308, 0), rngs)
                raised = 0
                for seed in range(8):
                    try:
                        assert np.isfinite(random_vector(EnsembleSpec(kind, 4, 1.7e308, seed))).all()
                    except NonFiniteInput:
                        raised += 1
                assert raised > 0

    def test_finite_draw_near_the_limit_stays_finite(self):
        # 2 * 1.02e308 overflows, so (g + g*) / 2 would make this finite draw
        # inf; symmetrized halves first
        h = random_hermitian(EnsembleSpec("goe", 1, 5e307, 3))
        assert h.entries.tolist() == [[1.0204595606925913e308]]

    @pytest.mark.parametrize("kind, shape", [("gue", (2, 8, 8)), ("goe", (8, 8))])
    def test_draw_raises_only_where_numpy_overflows(self, kind, shape):
        raised = 0
        for seed in range(64):
            raw = np.random.Generator(np.random.PCG64(seed)).normal(0.0, 5e307, shape)
            spec = EnsembleSpec(kind, 8, 5e307, seed)
            if np.isfinite(raw).all():
                assert np.isfinite(random_hermitian(spec).entries).all()
            else:
                raised += 1
                with pytest.raises(NonFiniteInput):
                    random_hermitian(spec)
        assert 0 < raised < 16

    def test_complex_from_parts_keeps_every_bit(self):
        re = np.array([-0.0, 0.0, 1.5, -2.0])
        im = np.array([0.0, -0.0, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = complex_from_parts(re, im)
        assert z.dtype == np.complex128
        np.testing.assert_array_equal(np.signbit(z.real), np.signbit(re))
        np.testing.assert_array_equal(np.signbit(z.imag), np.signbit(im))
        np.testing.assert_array_equal(z.real, re)
        np.testing.assert_array_equal(z.imag, im)

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
        # case and surrounding blanks are all that is canonicalized
        assert parse_ensemble_kind("GUE") == "gue"
        assert parse_ensemble_kind(" diag ") == "diag"
        assert EnsembleSpec("GOE", 2, 1.0, 0).kind == "goe"
        with pytest.raises(ValueError):
            parse_ensemble_kind("diagonal-uniform")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="wishart", n=2, scale=1.0, seed=0),
            dict(kind="gue", n=0, scale=1.0, seed=0),
            dict(kind="gue", n=2, scale=0.0, seed=0),
            dict(kind="gue", n=2, scale=float("nan"), seed=0),
            dict(kind="gue", n=2, scale=1.0, seed=-1),
            dict(kind="gue", n=2, scale=1.0, seed=2**64),
            # bools are ints to Python; seed=True reached the report as "seed": true
            dict(kind="gue", n=True, scale=1.0, seed=0),
            dict(kind="gue", n=2, scale=1.0, seed=True),
            dict(kind="gue", n=2, scale=1.0, seed=False),
            # scale=True ran and reached the report as "scale": true; "1" raised
            # numpy's TypeError from isfinite
            dict(kind="gue", n=2, scale=True, seed=0),
            dict(kind="gue", n=2, scale="1", seed=0),
            dict(kind="gue", n=2, scale=1j, seed=0),
            # an int no float holds; numpy's isfinite raised TypeError
            dict(kind="gue", n=2, scale=10**400, seed=0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleSpec(**kwargs)

    def test_int_scale_beyond_int64(self):
        # numpy's isfinite raised TypeError on any int beyond int64; the spec
        # stores the float, so the samplers never see the int, on any numpy
        for kind in ENSEMBLE_KINDS:
            scale = EnsembleSpec(kind, 3, 10**20, 4).scale
            assert type(scale) is float and scale == 1e20
            np.testing.assert_array_equal(random_hermitian(EnsembleSpec(kind, 3, 10**20, 4)).entries,
                                          random_hermitian(EnsembleSpec(kind, 3, 1e20, 4)).entries)

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
        # the UNITARY_INVARIANCE evaluator does not re-test the Haar stacks
        # that campaigns draw, so every draw must pass UnitaryMatrix's test
        for n in (1, 2, 8, 64):
            seeds = derive_seeds(n, np.arange(1000))
            for chunk in np.split(seeds, 10):
                for u in haar_stack(EnsembleSpec("gue", n, 1.0, 0), generators(seed_words(chunk))):
                    UnitaryMatrix(u)

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

    @pytest.mark.parametrize("n, seed", [
        (2, 2**64),  # was drawn from PCG64(2**64), a seed no campaign can hold
        (2, -1),
        (2, True),  # bools are ints to Python; EnsembleSpec rejects them
        (True, 0),  # died with numpy's TypeError "an integer is required"
        (2.0, 0),
    ])
    def test_size_and_seed_follow_ensemble_spec(self, n, seed):
        with pytest.raises(ValueError):
            random_unitary(n, seed)
        with pytest.raises(ValueError):
            EnsembleSpec("gue", n, 1.0, seed)


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
        words = seed_words(seeds)
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous
        streams = generators(words)
        states = [rng.bit_generator.state for rng in streams]
        assert len(streams) == len(states) == len(seeds)
        for seed, row, state in zip(seeds, words, states):
            np.testing.assert_array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
            assert state == np.random.PCG64(seed).state, seed

    def test_strided_words_seed_the_right_bits(self):
        # PCG64 reads its seed words through a raw data pointer, so a strided
        # or transposed row would silently seed other bits; generators must
        # make its words contiguous before handing rows out
        seeds = EDGE_SEEDS + [123456789]
        words = seed_words(seeds)
        expected = [np.random.PCG64(s).state for s in seeds]
        for view in (np.asfortranarray(words), np.repeat(words, 2, axis=1)[:, ::2]):
            assert not view[0].flags.c_contiguous
            np.testing.assert_array_equal(view, words)
            assert [rng.bit_generator.state for rng in generators(view)] == expected
        # and a row shorter than 4 words would make PCG64 read past it
        for bad in (words[:, :2], words[0]):
            with pytest.raises(ValueError):
                generators(bad)

    @pytest.mark.parametrize("kind", ["gue", "goe", "diag"])
    def test_stack_samplers_match_single_draws(self, kind):
        # the campaign's generators draw, bit for bit, what PCG64(seed) draws
        seeds = EDGE_SEEDS + [123456789]
        words = seed_words(seeds)
        for n in (1, 2, 8):
            specs = [EnsembleSpec(kind, n, 2.5, s) for s in seeds]
            np.testing.assert_array_equal(
                hermitian_stack(specs[0], generators(words)),
                np.stack([random_hermitian(spec).entries for spec in specs]),
            )
            np.testing.assert_array_equal(
                vector_stack(specs[0], generators(words)),
                np.stack([random_vector(spec) for spec in specs]),
            )
            np.testing.assert_array_equal(
                haar_stack(specs[0], generators(words)),
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


def spectrum(m) -> np.ndarray:
    """Ascending eigenvalues of one matrix, through the stacked solver."""
    return stacked_spectrum(np.asarray(m, dtype=np.complex128)[None])[0]


class TestEigh:
    """`stacked_spectrum`, the one entry to numpy's eigh and eigvalsh."""

    def test_diagonal_matrix_sorted(self):
        np.testing.assert_allclose(spectrum(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0], atol=1e-14)

    def test_known_spectrum_recovered(self):
        # build U diag(-2, 0, 5) U* from a sampled unitary, then recover
        u = random_unitary(3, 31).entries
        w = np.array([-2.0, 0.0, 5.0])
        a = validate_hermitian((u * w) @ u.conj().T, 1e-12)
        np.testing.assert_allclose(spectrum(a.entries), w, atol=1e-12)
        np.testing.assert_allclose(stacked_spectrum(a.entries[None], vectors=True)[0][0], w, atol=1e-12)

    def test_pauli_x_spectrum(self):
        np.testing.assert_allclose(spectrum([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_reconstruct_round_trip(self, n):
        a = gue(n, seed=n + 100)
        w, v = stacked_spectrum(a.entries[None], vectors=True)
        err = np.max(np.abs((v[0] * w[0]) @ v[0].conj().T - a.entries))
        assert err <= 1e-10 * max(1.0, float(np.max(np.abs(a.entries))))

    def test_ascending_order_enforced(self):
        stack = np.stack([gue(6, seed).entries for seed in range(20)])
        for w in (stacked_spectrum(stack), stacked_spectrum(stack, vectors=True)[0]):
            assert np.all(np.diff(w, axis=1) >= 0)

    def test_eigenvalue_count_checked(self):
        stack = np.stack([gue(5, seed).entries for seed in range(3)])
        w, v = stacked_spectrum(stack, vectors=True)
        assert stacked_spectrum(stack).shape == w.shape == (3, 5)
        assert v.shape == (3, 5, 5)

    def test_non_finite_input_rejected(self):
        # every input is tested where it enters, so a non-finite matrix here
        # was computed (A + B or U* A U overflowed)
        stack = np.stack([np.eye(2), np.diag([np.inf, 1.0])]).astype(complex)
        with pytest.raises(NonFiniteResult, match="computed matrix is not finite"):
            stacked_spectrum(stack)


class TestProducersAreExact:
    """Every stack that reaches `stacked_spectrum` is exactly conjugate-symmetric by construction.

    `stacked_spectrum` does not test symmetry, since the solvers read one
    triangle; this pins the producers of its input instead, for draws as the
    campaigns make them.
    """

    @given(
        st.sampled_from(ENSEMBLE_KINDS),
        st.sampled_from(ENSEMBLE_KINDS),
        st.sampled_from([1, 2, 8, 64]),
        st.floats(min_value=0.0, max_value=150.0),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @example("gue", "goe", 64, 0.0, 0, 0.5)
    @example("gue", "gue", 64, 150.0, 2**64 - 1, 0.3)
    @example("diag", "gue", 8, 150.0, 7, 1.0)
    def test_every_producer(self, kind, kind_b, n, log_scale, seed, t):
        scale = 10.0 ** log_scale
        trials = 4 if n == 64 else 16

        def rngs(stream):
            return generators(seed_words(derive_seeds(seed, np.arange(trials) + stream * trials)))

        ens, ens_b = EnsembleSpec(kind, n, scale, seed), EnsembleSpec(kind_b, n, scale, seed)
        a = hermitian_stack(ens, rngs(0))
        b = hermitian_stack(ens_b, rngs(1))
        x = vector_stack(ens, rngs(2))
        u = haar_stack(ens, rngs(3))
        noisy = conj_t(u) @ a @ u
        skew = scale * np.random.default_rng(seed).standard_normal((trials, n, n))
        stacks = {
            "hermitian_stack": a,
            "a + b": a + b,
            "t a + (1-t) b": t * a + (1 - t) * b,
            "symmetrized(U* A U)": symmetrized(noisy),
            "symmetrized(real M)": symmetrized(skew),
            "symmetrized(complex M)": symmetrized(noisy + skew),
            "hessian_rows": hessian_rows(x),
            "diagonal_stack": diagonal_stack(x),
        }
        stacks["concatenation"] = np.concatenate(list(stacks.values()))
        for name, stack in stacks.items():
            assert np.isfinite(stack).all(), name
            assert (stack == conj_t(stack)).all(), name


class TestMatrixExp:
    """The Taylor-series oracle for exp(A), against closed forms and the eigendecomposition."""

    def test_zero_gives_identity(self):
        np.testing.assert_allclose(expm_taylor(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        e = expm_taylor(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(e.diagonal().real, [math.e, 1.0 / math.e], rtol=1e-14)

    def test_pauli_x_closed_form(self):
        e = expm_taylor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        c, s = math.cosh(1.0), math.sinh(1.0)
        np.testing.assert_allclose(e.real, [[c, s], [s, c]], rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_matches_series_oracle(self, n):
        # the series against V diag(exp w) V* from the stacked solver
        a = gue(n, seed=50 + n)
        w, v = stacked_spectrum(a.entries[None], vectors=True)
        ref = expm_taylor(a.entries)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs((v[0] * np.exp(w[0])) @ v[0].conj().T - ref)) <= 1e-12 * max(1.0, scale)

    def test_spectral_mapping(self):
        a = gue(6, 8)
        e = validate_hermitian(expm_taylor(a.entries), 1e-12)
        np.testing.assert_allclose(spectrum(e.entries), np.exp(spectrum(a.entries)), rtol=1e-12)

    def test_result_is_positive_definite(self):
        for seed in range(5):
            e = validate_hermitian(expm_taylor(gue(5, seed).entries), 1e-12)
            assert spectrum(e.entries)[0] > 0.0


class TestConjugate:
    """U* A U, which the unitary-invariance check forms before its solver call."""

    def test_identity_unitary(self):
        # I* A I is A exactly, so every built-in deviates by exactly zero
        a = gue(4, 3)
        for name in builtin_names():
            res = check_unitary_invariance(lift(builtin(name)), a, UnitaryMatrix(np.eye(4)), 0.0)
            assert res.slack == 0.0 and res.lhs == res.rhs, name

    def test_permutation_reorders_diagonal(self):
        # conjugating by a permutation only moves entries: no rounding at all
        a = HermitianMatrix(np.diag([1.0, 2.0]).astype(complex))
        swap = UnitaryMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        for name in builtin_names():
            assert check_unitary_invariance(lift(builtin(name)), a, swap, 0.0).slack == 0.0, name

    @given(st.integers(min_value=0, max_value=2**32))
    def test_spectrum_preserved(self, seed):
        a = gue(5, seed)
        u = random_unitary(5, seed + 1)
        for name in ("min", "max"):  # the extreme eigenvalues
            assert abs(check_unitary_invariance(lift(builtin(name)), a, u, 0.0).slack) <= 1e-12

    def test_trace_preserved(self):
        a = gue(7, 21)
        u = random_unitary(7, 22)
        assert abs(check_unitary_invariance(lift(builtin("sum")), a, u, 0.0).slack) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_unitary_invariance(lift(builtin("lse")), gue(3, 1), random_unitary(4, 1), 1e-10)


class TestTraceRe:
    """The trace as the spectral lift of `sum`, and tr exp through `log_trace_exp`."""

    def test_identity(self):
        assert lift_eval(lift(builtin("sum")), HermitianMatrix(np.eye(5, dtype=complex))) == 5.0

    def test_traceless(self):
        assert lift_eval(lift(builtin("sum")), HermitianMatrix(np.diag([1.0, -1.0]).astype(complex))) == 0.0

    def test_exp_trace(self):
        a = HermitianMatrix(np.diag([0.0, math.log(2.0)]).astype(complex))
        assert abs(math.exp(log_trace_exp(a)) - 3.0) <= 1e-14
