"""Trace-inequality checks and seeded randomized campaigns.

The central quantity is F(A) = log tr exp(A), computed on the spectrum as a
log-sum-exp so that nothing overflows, by the one lift kernel
`SymmetricScalarFunction.lift_rows` of lse.  The product-form trace inequality

    tr exp(A + B) <= tr exp(A) * tr exp(B)

is certified in the log domain: F(A + B) <= F(A) + F(B), slack = rhs - lhs.
Convexity of F is certified independently through midpoint residuals; the two
checks share no intermediate results.

A campaign runs `trials` independent checks.  Trial i derives its seed from
the master seed by the SplitMix64 finalizer (a fixed pure mixing function), so
any trial can be replayed in isolation.  Each check kind is an entry of
`CHECKS`: the random streams a trial draws (each seeded by its own sub-seed of
the trial seed), and an evaluator that checks a whole chunk of stacked trials
with one eigensolver call.  `trial_inputs(config, trial_seed)` draws one
trial's streams and `replay(config, trial_seed)` checks it, both by the
campaign's own code on a chunk of one; the public single checks run the same
evaluators on a batch of one.  Either reproduces the campaign's numbers bit
for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional

import numpy as np

from .checks import (
    CheckResult,
    first_result,
    quiet_rows,
    require_positive_int,
    require_seed,
    require_tol,
    slack_bound,
)
from .errors import CampaignTrialError, Error
from .hermitian import (
    GENERATOR_ID,
    EnsembleSpec,
    HermitianMatrix,
    conj_t,
    generators,
    haar_stack,
    hermitian_stack,
    seed_words,
    stacked_spectrum,
    vector_stack,
)
from .logsumexp import _hessian_fd_bound, hessian_fd_rows, hessian_rows, lse_rows
from .spectral import (
    SymmetricScalarFunction,
    _same_n,
    builtin,
    davis_restriction_rows,
    lift_eval,
    segment_rows,
    unitary_invariance_rows,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# float64 entries (512 KiB) a chunk may hold while it is sampled and
# evaluated; a chunk of a check kind holds `_CHUNK_ENTRIES // entries(n)`
# trials, at least one and at most `_SEED_BLOCK`.  Swept on a shared 2-vCPU
# x86-64 box: the matrix kinds keep 4096 // n^2 trials (64 at n = 8, one from
# n = 46 on, so an n = 64 campaign holds no more memory than a single check),
# because 256-trial chunks at n = 8 and 12-trial chunks at n = 64 ran 5% and
# 11% slower.  At n = 16, HESSIAN_PSD chunks of 85 trials took about 16.7 us
# per trial against 19.3 at 16, and HESSIAN_FD_MATCH chunks of 7 about 116 us,
# 110 at 16 and 157 at 32.  DAVIS_RESTRICTION's cost per trial does not grow
# with the chunk, while each chunk costs about as much as a dozen trials at
# n = 16, so it counts a quarter of the entries it holds (512 trials, 2 MiB, at
# n = 16).  In blocks of calls alternating with the former 4x smaller chunks,
# 280 trials at n = 16 ran 9-11% faster in one chunk, 2000 trials 6-7% faster
# in chunks of 512, and 280 at n = 32 and 100 at n = 64 7-9% faster.
_CHUNK_ENTRIES = 65536


# Trial seeds and seed words are derived for a block of whole chunks at a
# time, more than half of this many trials and at most this many, which is
# also the most trials a chunk holds: on a shared 2-vCPU x86-64 box with
# numpy 2.4, `seed_words` costs about 70 us per call whatever the number of
# seeds (about 60 array operations), plus about 0.05 us per seed up to 2048
# seeds, so a chunk of 16 trials would not amortize it, while a bounded block
# keeps a long campaign's memory flat.
_SEED_BLOCK = 1024


def _chunk_trials(check: "CheckKind", n: int) -> int:
    return min(_SEED_BLOCK, max(1, _CHUNK_ENTRIES // check.entries(n)))


def derive_seed(seed: int, index: int) -> int:
    """SplitMix64 output for stream position `index` of `seed`.

    Pure and documented so that trial seeds can be reproduced outside this
    package: mix64((seed + (index + 1) * gamma) mod 2^64) with the standard
    gamma 0x9E3779B97F4A7C15 and finalizer constants.  Both `seed` and
    `index` must be unsigned 64-bit ints (not bools), or it raises ValueError.
    """
    require_seed(seed)
    require_seed(index, "index")
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seeds(seeds, indices) -> np.ndarray:
    """`derive_seed` elementwise, broadcasting `seeds` against `indices`, wrapping mod 2^64.

    The arithmetic calls ufuncs rather than operators: numpy warns when an
    operator on uint64 scalars wraps, and a ufunc wraps silently.
    """
    z = np.multiply(np.add(np.asarray(indices, np.uint64), np.uint64(1)), np.uint64(_GAMMA))
    z = np.add(np.asarray(seeds, np.uint64), z)
    z = np.multiply(z ^ (z >> np.uint64(30)), np.uint64(0xBF58476D1CE4E5B9))
    z = np.multiply(z ^ (z >> np.uint64(27)), np.uint64(0x94D049BB133111EB))
    return z ^ (z >> np.uint64(31))


def _log_trace_exp_product_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log tr(exp A exp B) per row, entirely in the log domain.

    With A = U diag(a) U* and B = V diag(b) V*, tr(exp A exp B) is
    sum_ij exp(a_i + b_j) |(U*V)_ij|^2, so its log is one lse over the n^2
    terms a_i + b_j + log |(U*V)_ij|^2.  Each log weight is added to a_i
    before b_j, so a zero overlap's term is -inf, which adds exp(-inf) = 0,
    even where a_i + b_j overflows.
    """
    w, v = stacked_spectrum(np.concatenate([a, b]), vectors=True)
    t = len(a)
    wa, wb, va, vb = w[:t], w[t:], v[:t], v[t:]  # views, cheaper than np.split
    overlap = conj_t(va) @ vb
    with np.errstate(divide="ignore"):
        log_weight = np.log(overlap.real ** 2 + overlap.imag ** 2)
    terms = (wa[:, :, None] + log_weight) + wb[:, None, :]
    return lse_rows(terms.reshape(terms.shape[0], -1))


# f is lse: CampaignConfig refuses an fn for the GT kinds
def _gt_weak(f, a, b):
    fa, fb, fs = f.lift_rows(a, b, a + b)
    rhs = fa + fb
    return fs, rhs, rhs - fs


def _gt_strong(f, a, b):
    (lhs,) = f.lift_rows(a + b)
    rhs = _log_trace_exp_product_rows(a, b)
    return lhs, rhs, rhs - lhs


def _hessian_psd(f, x):
    w_min = stacked_spectrum(hessian_rows(x))[:, 0]
    return w_min, np.zeros_like(w_min), w_min


def _hessian_fd_match(f, x):
    dev = np.abs(hessian_rows(x) - hessian_fd_rows(x)).max(axis=(1, 2))
    bound = np.full_like(dev, _hessian_fd_bound(x.shape[1]))
    return dev, bound, bound - dev


def log_trace_exp(a: HermitianMatrix) -> float:
    """log tr exp(A) = lse(eigenvalues of A); finite for any finite spectrum."""
    return lift_eval(builtin("lse"), a)


def log_trace_exp_product(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """log tr(exp A exp B), computed in the log domain; beyond the float range it raises NonFiniteResult."""
    _same_n(a, b)
    (value,) = quiet_rows(lambda x, y: (_log_trace_exp_product_rows(x, y),), a.entries[None], b.entries[None],
                          names=("log tr(exp A exp B)",))
    return float(value[0])


def gt_weak_check(
    a: HermitianMatrix, b: HermitianMatrix, tol: float = 1e-10
) -> CheckResult:
    """Certify log tr exp(A+B) <= log tr exp(A) + log tr exp(B)."""
    _same_n(a, b)
    return first_result(_gt_weak, builtin("lse"), a.entries[None], b.entries[None], tol=tol)


def gt_strong_check(
    a: HermitianMatrix, b: HermitianMatrix, tol: float = 1e-10
) -> CheckResult:
    """Certify log tr exp(A+B) <= log tr(exp A exp B).  Supplementary check."""
    _same_n(a, b)
    return first_result(_gt_strong, builtin("lse"), a.entries[None], b.entries[None], tol=tol)


def convexity_check(
    a: HermitianMatrix, b: HermitianMatrix, tol: float = 1e-10
) -> CheckResult:
    """Certify midpoint convexity of log_trace_exp on the segment [A, B]."""
    _same_n(a, b)
    return first_result(segment_rows, builtin("lse"), a.entries[None], b.entries[None], tol=tol)


_PAIR = (hermitian_stack, hermitian_stack)
_ROTATION = (hermitian_stack, haar_stack)
_VECTOR = (vector_stack,)


def _matrix_entries(n: int) -> int:
    # the two sampled matrices, the solver stack and its temporaries, all
    # counted as complex (gue); goe and diag trials hold half of it
    return 16 * n * n


def _hessian_entries(n: int) -> int:
    # the real Hessian, the outer product `hessian_rows` forms it from, and the solver's copy
    return 3 * n * n


def _diagonal_entries(n: int) -> int:
    # a quarter of the 2 n^2 that the real diagonal matrix and the solver's
    # copy hold, since a larger chunk costs no more per trial; at least 1
    return max(1, n * n // 2)


def _stencil_entries(n: int) -> int:
    # the 4 n(n+1)/2 stencil points of length n (lse's temporary briefly doubles them)
    return 2 * n * n * (n + 1)


@dataclass(frozen=True)
class CheckKind:
    """How a campaign samples a chunk of trials and checks it.

    `streams[k]` is a sampler, `hermitian_stack`, `haar_stack` or
    `vector_stack`; `streams[k](ensemble, generators)` draws stream k of every
    trial of the chunk as one stack.  Stream k of a trial is seeded by
    `derive_seed(trial_seed, k)` (`trial_inputs` returns one trial's draws, and
    `replay` checks them).  A sampler raises NonFiniteInput for a draw that
    overflows (`hermitian._normal_stack`), so `evaluate(f, *stacks)` gets
    finite stacks.  It returns (lhs, rhs, slack) arrays with one entry per
    trial; HESSIAN_FD_MATCH, like the inequality kinds, returns rhs - lhs
    as slack, with the stencil's deviation as lhs and its error bound as
    rhs.  `f` is always the campaign's built-in function, lse for the kinds
    that refuse an `fn`, and every kind that lifts a function computes F
    through `f.lift_rows`.  A trial's values depend on its own draws alone,
    which lets `_check_chunk` check part of a chunk again.
    `entries(n)`, a positive int, sets the chunk size: about how many float64
    entries one trial holds while its chunk is sampled and evaluated, or
    fewer for a kind whose cost per trial does not grow with the chunk.
    """

    streams: tuple
    evaluate: Callable[..., tuple]
    entries: Callable[[int], int]


CHECKS = {
    "GT_WEAK": CheckKind(_PAIR, _gt_weak, _matrix_entries),
    "MIDPOINT_CONVEXITY": CheckKind(_PAIR, segment_rows, _matrix_entries),
    "HESSIAN_PSD": CheckKind(_VECTOR, _hessian_psd, _hessian_entries),
    "UNITARY_INVARIANCE": CheckKind(_ROTATION, unitary_invariance_rows, _matrix_entries),
    # tr exp(A+B) <= tr(exp A exp B), a tighter bound than the product form;
    # supplementary, never run unless asked for
    "GT_STRONG": CheckKind(_PAIR, _gt_strong, _matrix_entries),
    # these two back the compound CLI subcommands
    "HESSIAN_FD_MATCH": CheckKind(_VECTOR, _hessian_fd_match, _stencil_entries),
    "DAVIS_RESTRICTION": CheckKind(_VECTOR, davis_restriction_rows, _diagonal_entries),
}

CHECK_KINDS = tuple(CHECKS)

# the kinds whose trials lift CampaignConfig.fn; the others check lse itself
LIFTING_KINDS = ("MIDPOINT_CONVEXITY", "UNITARY_INVARIANCE", "DAVIS_RESTRICTION")


@dataclass(frozen=True)
class CampaignConfig:
    """What to check, over which ensemble, how many times, at what tolerance.

    `fn` names the built-in that MIDPOINT_CONVEXITY, UNITARY_INVARIANCE and
    DAVIS_RESTRICTION trials lift.  This class is the one place that defaults
    it: those kinds store lse for None, and every name as `builtin(fn).name`
    (" lse " reads lse, pnorm:2.0 reads pnorm:2).  The other kinds, GT_WEAK,
    GT_STRONG, HESSIAN_PSD and HESSIAN_FD_MATCH, check lse itself and refuse
    an `fn`.  tol is stored as a float, so configs that compare equal write
    equal reports.
    `parallel` is accepted for compatibility and has no effect: every
    campaign runs the same chunked, batched schedule, and the report never
    depends on it.
    """

    check_kind: str
    ensemble: EnsembleSpec
    trials: int
    tol: float
    parallel: bool = False
    fn: Optional[str] = None

    def __post_init__(self):
        if self.check_kind not in CHECK_KINDS:
            raise ValueError(
                f"unknown check kind {self.check_kind!r}; expected one of {CHECK_KINDS}"
            )
        require_positive_int(self.trials, "trials")
        require_tol(self.tol)
        object.__setattr__(self, "tol", float(self.tol) + 0.0)  # + 0.0 makes -0.0 read 0.0
        if self.check_kind in LIFTING_KINDS:
            object.__setattr__(self, "fn", builtin("lse" if self.fn is None else self.fn).name)
        elif self.fn is not None:
            raise ValueError(f"{self.check_kind} lifts no function; fn must be None, got {self.fn!r}")


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of one campaign; everything but wall_time_s is deterministic."""

    config: CampaignConfig
    trials_run: int
    violations: int
    worst_slack: float
    worst_trial_seed: int
    wall_time_s: float
    generator_id: ClassVar[str] = GENERATOR_ID  # the one seeding scheme every campaign draws with

    def to_json_dict(self) -> dict:
        """The report as JSON fields; `fn` follows `check_kind` in the reports of the kinds that lift one."""
        ens = self.config.ensemble
        return {
            "check_kind": self.config.check_kind,
            **({} if self.config.fn is None else {"fn": self.config.fn}),
            "ensemble": {
                "kind": ens.kind,
                "n": ens.n,
                "scale": ens.scale,
                "seed": ens.seed,
            },
            "trials": self.trials_run,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "worst_trial_seed": self.worst_trial_seed,
            "tol": self.config.tol,
            "generator_id": self.generator_id,
            "wall_time_s": self.wall_time_s,
        }


def _stream_words(check: CheckKind, seeds) -> np.ndarray:
    """The seed words of `derive_seed(seeds[t], k)` at [k, t], for every stream k, in one `seed_words` call."""
    streams = len(check.streams)
    return seed_words(derive_seeds(seeds, np.arange(streams)[:, None]).ravel()).reshape(streams, -1, 4)


def _chunks(check: CheckKind, ens: EnsembleSpec, trials: int, chunk: int) -> Iterator[tuple]:
    """(trial indices, trial seeds, stream seed words) per chunk, seeds derived at most `_SEED_BLOCK` at a time."""
    block = chunk * (_SEED_BLOCK // chunk)
    for first in range(0, trials, block):
        seeds = derive_seeds(ens.seed, np.arange(first, min(first + block, trials)))
        words = _stream_words(check, seeds)
        seeds = seeds.tolist()
        for lo in range(0, len(seeds), chunk):
            yield range(first, trials)[lo:lo + chunk], seeds[lo:lo + chunk], words[:, lo:lo + chunk]


def _check_chunk(check: CheckKind, ens: EnsembleSpec, f: SymmetricScalarFunction, words, indices, seeds: list):
    """(lhs, rhs, slack) arrays of one chunk of trials drawn from `words`, all finite (`checks.quiet_rows`).

    A chunk that raises is checked again in halves, the lower half first, down
    to one trial: the lowest trial that raises on its own is named by its
    entries of `indices` and `seeds`, in a CampaignTrialError whose cause is
    the error that trial raises alone, whatever the chunk size.
    """
    try:
        return quiet_rows(check.evaluate, f, *[draw(ens, generators(w)) for draw, w in zip(check.streams, words)])
    except Error as exc:
        if len(seeds) == 1:
            raise CampaignTrialError(indices[0], seeds[0], exc) from exc
        half = len(seeds) // 2
        for part in (slice(None, half), slice(half, None)):
            _check_chunk(check, ens, f, words[:, part], indices[part], seeds[part])
        raise  # unreachable while a trial's values depend on its own draws alone


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run every trial, a chunk at a time, and aggregate.

    Trial seeds depend only on (master seed, index), and aggregation scans
    trials in index order (ties on worst slack keep the lowest index), so
    the report does not depend on the chunk size.  A trial that raises, or
    whose lhs, rhs or slack is not finite, aborts the whole campaign with a
    CampaignTrialError carrying its seed and its error as `cause`: the lowest
    trial that raises on its own, with the error `replay` raises for it, so
    that does not depend on the chunk size either.
    """
    t0 = time.perf_counter()
    ens, tol = config.ensemble, config.tol
    check = CHECKS[config.check_kind]
    f = builtin(config.fn or "lse")
    trials_run = violations = 0
    worst_slack = worst_seed = None
    for indices, seeds, words in _chunks(check, ens, config.trials, _chunk_trials(check, ens.n)):
        lhs, rhs, slack = _check_chunk(check, ens, f, words, indices, seeds)
        trials_run += len(seeds)
        violations += int(np.count_nonzero(slack < -slack_bound(rhs, tol)))
        row = int(slack.argmin())
        if worst_slack is None or slack[row] < worst_slack:
            worst_slack, worst_seed = float(slack[row]), seeds[row]
    return CampaignReport(
        config=config,
        trials_run=trials_run,
        violations=violations,
        worst_slack=worst_slack,
        worst_trial_seed=worst_seed,
        wall_time_s=time.perf_counter() - t0,
    )


def trial_inputs(config: CampaignConfig, trial_seed: int) -> list:
    """The input arrays of one trial of `config`'s campaign, one per stream of its `CHECKS` entry.

    The campaign's own code draws them, so they hold the bits it checked, and
    a draw that overflows raises the NonFiniteInput that is the campaign's `cause`.
    """
    require_seed(trial_seed)
    check = CHECKS[config.check_kind]
    words = _stream_words(check, [trial_seed])
    return [draw(config.ensemble, generators(w))[0] for draw, w in zip(check.streams, words)]


def replay(config: CampaignConfig, trial_seed: int) -> CheckResult:
    """The check of one trial of `config`'s campaign, evaluated as the campaign evaluates it.

    `slack` has the campaign's bits, so `replay(report.config,
    report.worst_trial_seed).slack == report.worst_slack`, and `passed` is
    False exactly for a trial the campaign counts as a violation.  A trial
    that errors raises the campaign's CampaignTrialError, with `trial_index` None.
    """
    require_seed(trial_seed)
    check, f = CHECKS[config.check_kind], builtin(config.fn or "lse")
    words = _stream_words(check, [trial_seed])
    (lhs,), (rhs,), (slack,) = _check_chunk(check, config.ensemble, f, words, [None], [trial_seed])
    return CheckResult(float(lhs), float(rhs), float(slack), config.tol)
