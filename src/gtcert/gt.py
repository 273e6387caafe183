"""Trace-inequality checks and seeded randomized campaigns.

The central quantity is F(A) = log tr exp(A), computed on the spectrum as a
log-sum-exp so that nothing overflows.  The product-form trace inequality

    tr exp(A + B) <= tr exp(A) * tr exp(B)

is certified in the log domain: F(A + B) <= F(A) + F(B), slack = rhs - lhs.
Convexity of F is certified independently through midpoint residuals; the two
checks share no intermediate results.

A campaign runs `trials` independent checks.  Trial i derives its seed from
the master seed by the SplitMix64 finalizer (a fixed pure mixing function), so
any trial can be replayed in isolation.  Each check kind is an entry of
`CHECKS`: the random streams a trial draws (each seeded by its own sub-seed of
the trial seed), and an evaluator that checks a whole chunk of stacked trials
with one eigensolver call.  The public single checks run the same evaluators
on a batch of one, so a replayed trial reproduces the campaign's numbers bit
for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .checks import CheckResult, first_result, non_finite_trial
from .errors import CampaignTrialError, DimensionMismatch, Error, NonFiniteInput, require_rows
from .hermitian import (
    GENERATOR_ID,
    EnsembleSpec,
    HermitianMatrix,
    conj_t,
    haar_stack,
    hermitian_stack,
    pcg64_states,
    reseeded,
    stacked_spectrum,
    vector_stack,
)
from .logsumexp import hessian_fd_rows, hessian_rows, lse_rows
from .spectral import (
    SymmetricScalarFunction,
    builtin,
    davis_restriction_rows,
    unitary_invariance_rows,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Matrix entries per stacked chunk: 4096 // n^2 trials, at least one.  Small n
# gets chunks large enough to amortize the per-chunk numpy calls; from n = 64
# on, where the eigensolver dominates anyway, a chunk is one trial, so a
# campaign holds no more memory than a single check does.
_CHUNK_ENTRIES = 4096


# Trial seeds and generator states are derived for at least this many trials
# at a time: `pcg64_states` has a fixed cost of a few hundred microseconds per
# call, which a chunk of 16 trials would not amortize, while a bounded block
# keeps a long campaign's memory flat.
_SEED_BLOCK = 1024


def _chunk_trials(n: int) -> int:
    return max(1, _CHUNK_ENTRIES // (n * n))


def derive_seed(seed: int, index: int) -> int:
    """SplitMix64 output for stream position `index` of `seed`.

    Pure and documented so that trial seeds can be reproduced outside this
    package: mix64((seed + (index + 1) * gamma) mod 2^64) with the standard
    gamma 0x9E3779B97F4A7C15 and finalizer constants.
    """
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seeds(seeds, indices) -> np.ndarray:
    """`derive_seed` elementwise over broadcast uint64 arrays, wrapping mod 2^64."""
    z, i = np.broadcast_arrays(np.asarray(seeds, np.uint64), np.asarray(indices, np.uint64))
    z = z + (i + np.uint64(1)) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _log_trace_exp_rows(stack: np.ndarray) -> np.ndarray:
    return lse_rows(stacked_spectrum(stack))


def _log_trace_exp_product_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log tr(exp A exp B) per row, entirely in the log domain.

    With A = U diag(a) U* and B = V diag(b) V*, tr(exp A exp B) is
    sum_ij exp(a_i + b_j) |(U*V)_ij|^2, so its log is one lse over the n^2
    terms a_i + b_j + log |(U*V)_ij|^2; zero overlaps contribute -inf terms.
    """
    w, v = stacked_spectrum(np.concatenate([a, b]), vectors=True)
    (wa, wb), (va, vb) = np.split(w, 2), np.split(v, 2)
    overlap = conj_t(va) @ vb
    with np.errstate(divide="ignore"):
        log_weight = np.log(overlap.real ** 2 + overlap.imag ** 2)
    terms = wa[:, :, None] + wb[:, None, :] + log_weight
    return lse_rows(terms.reshape(terms.shape[0], -1))


def _gt_weak(f, a, b):
    fa, fb, fs = np.split(_log_trace_exp_rows(np.concatenate([a, b, a + b])), 3)
    rhs = fa + fb
    return fs, rhs, rhs - fs


def _gt_strong(f, a, b):
    lhs = _log_trace_exp_rows(a + b)
    rhs = _log_trace_exp_product_rows(a, b)
    return lhs, rhs, rhs - lhs


def _midpoint(f, a, b):
    fa, fb, fm = np.split(_log_trace_exp_rows(np.concatenate([a, b, 0.5 * (a + b)])), 3)
    rhs = 0.5 * (fa + fb)
    return fm, rhs, rhs - fm


def _hessian_psd(f, x):
    w_min = stacked_spectrum(hessian_rows(x))[:, 0]
    return w_min, np.zeros_like(w_min), w_min


def _hessian_fd_match(f, x):
    # the row kernel does not validate, and a -inf entry gives a finite stencil
    require_rows(np.isfinite(x).all(axis=1), NonFiniteInput, "vector contains NaN or infinity")
    dev = np.abs(hessian_rows(x) - hessian_fd_rows(x)).max(axis=(1, 2))
    return dev, np.zeros_like(dev), -dev


def log_trace_exp(a: HermitianMatrix) -> float:
    """log tr exp(A) = lse(eigenvalues of A); finite for any finite spectrum."""
    return float(_log_trace_exp_rows(a.entries[None])[0])


def _same_n(a: HermitianMatrix, b: HermitianMatrix) -> None:
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} x {a.n} vs {b.n} x {b.n}")


def log_trace_exp_product(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """log tr(exp A exp B), computed in the log domain; finite for finite A, B."""
    _same_n(a, b)
    return float(_log_trace_exp_product_rows(a.entries[None], b.entries[None])[0])


def gt_weak_check(
    a: HermitianMatrix, b: HermitianMatrix, tol: float = 1e-10
) -> CheckResult:
    """Certify log tr exp(A+B) <= log tr exp(A) + log tr exp(B)."""
    _same_n(a, b)
    return first_result(_gt_weak(None, a.entries[None], b.entries[None]), tol)


def gt_strong_check(
    a: HermitianMatrix, b: HermitianMatrix, tol: float = 1e-10
) -> CheckResult:
    """Certify log tr exp(A+B) <= log tr(exp A exp B).  Supplementary check."""
    _same_n(a, b)
    return first_result(_gt_strong(None, a.entries[None], b.entries[None]), tol)


def convexity_check(
    a: HermitianMatrix, b: HermitianMatrix, tol: float = 1e-10
) -> CheckResult:
    """Certify midpoint convexity of log_trace_exp on the segment [A, B]."""
    _same_n(a, b)
    return first_result(_midpoint(None, a.entries[None], b.entries[None]), tol)


def _matrices(ens: EnsembleSpec, rngs) -> np.ndarray:
    return hermitian_stack(ens.kind, ens.n, ens.scale, rngs)


def _unitaries(ens: EnsembleSpec, rngs) -> np.ndarray:
    return haar_stack(ens.n, rngs)


def _vectors(ens: EnsembleSpec, rngs) -> np.ndarray:
    return vector_stack(ens.kind, ens.n, ens.scale, rngs)


_PAIR = (_matrices, _matrices)
_ROTATION = (_matrices, _unitaries)
_VECTOR = (_vectors,)


@dataclass(frozen=True)
class CheckKind:
    """How a campaign samples a chunk of trials and checks it.

    `streams[k](ensemble, generators)` draws stream k of every trial of the
    chunk as one stack; stream k of a trial is seeded by
    `derive_seed(trial_seed, k)`.  The runner then calls
    `evaluate(f, *stacks)`, which returns (lhs, rhs, slack) arrays with one
    entry per trial; `f` is the campaign's built-in function, used by the
    kinds that lift one.  An evaluator may concatenate stacks of T trials
    before a solver call, so an Error's `row` names trial `row % T`.
    """

    streams: tuple
    evaluate: Callable[..., tuple]


CHECKS = {
    "GT_WEAK": CheckKind(_PAIR, _gt_weak),
    "MIDPOINT_CONVEXITY": CheckKind(_PAIR, _midpoint),
    "HESSIAN_PSD": CheckKind(_VECTOR, _hessian_psd),
    "UNITARY_INVARIANCE": CheckKind(_ROTATION, unitary_invariance_rows),
    # tr exp(A+B) <= tr(exp A exp B), a tighter bound than the product form;
    # supplementary, never run unless asked for
    "GT_STRONG": CheckKind(_PAIR, _gt_strong),
    # these two back the compound CLI subcommands
    "HESSIAN_FD_MATCH": CheckKind(_VECTOR, _hessian_fd_match),
    "DAVIS_RESTRICTION": CheckKind(_VECTOR, davis_restriction_rows),
}

CHECK_KINDS = tuple(CHECKS)


@dataclass(frozen=True)
class CampaignConfig:
    """What to check, over which ensemble, how many times, at what tolerance.

    `fn` names the built-in used by UNITARY_INVARIANCE and DAVIS_RESTRICTION
    trials (default lse, the central object).  `parallel` is accepted for
    compatibility and has no effect: every campaign runs the same chunked,
    batched schedule, and the report never depends on it.
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
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be a nonnegative real, got {self.tol!r}")
        if self.fn is not None:
            builtin(self.fn)  # fail fast on unknown names


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of one campaign; everything but wall_time_s is deterministic."""

    config: CampaignConfig
    trials_run: int
    violations: int
    worst_slack: float
    worst_trial_seed: int
    generator_id: str
    wall_time_s: float

    def to_json_dict(self) -> dict:
        ens = self.config.ensemble
        return {
            "check_kind": self.config.check_kind,
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


def _chunks(master: int, trials: int, chunk: int, streams: int) -> Iterator[tuple]:
    """(first trial index, trial seeds, PCG64 states of each stream) per chunk.

    Seeds and states are derived a block of whole chunks, at least
    `_SEED_BLOCK` trials, at a time, every stream of the block in one
    `pcg64_states` call.
    """
    block = chunk * max(1, _SEED_BLOCK // chunk)
    for first in range(0, trials, block):
        seeds = derive_seeds(master, np.arange(first, min(first + block, trials)))
        states = pcg64_states(np.concatenate([derive_seeds(seeds, k) for k in range(streams)]))
        seeds, size = seeds.tolist(), len(seeds)
        for lo in range(0, size, chunk):
            hi = min(lo + chunk, size)
            yield first + lo, seeds[lo:hi], [states[k * size + lo:k * size + hi] for k in range(streams)]


def _check_chunk(
    check: CheckKind,
    f: SymmetricScalarFunction,
    ens: EnsembleSpec,
    rng: np.random.Generator,
    start: int,
    seeds: list,
    states: list,
):
    """(lhs, rhs, slack) arrays of one chunk of trials, all finite.

    `states[k]` holds the PCG64 state of stream k of each trial; every draw
    goes through `rng`, re-seeded per trial and stream.  Any error, and any
    non-finite value, becomes a CampaignTrialError naming the trial it
    belongs to.
    """
    stacks = [draw(ens, reseeded(rng, s)) for draw, s in zip(check.streams, states)]
    try:
        lhs, rhs, slack = check.evaluate(f, *stacks)
    except Error as exc:
        row = exc.row % len(seeds)
        raise CampaignTrialError(start + row, seeds[row], exc) from exc
    finite = np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(slack)
    if not finite.all():
        row = int(finite.argmin())
        raise non_finite_trial(start + row, seeds[row], lhs[row], rhs[row], slack[row])
    return lhs, rhs, slack


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run every trial, a chunk at a time, and aggregate.

    Trial seeds depend only on (master seed, index), and aggregation scans
    trials in index order (ties on worst slack keep the lowest index), so
    the report does not depend on the chunk size.  A trial that raises, or
    whose lhs, rhs or slack is not finite, aborts the whole campaign with a
    CampaignTrialError carrying its seed.  Every draw comes from one
    generator owned by this call, re-seeded per trial stream.
    """
    t0 = time.perf_counter()
    ens, tol = config.ensemble, config.tol
    check = CHECKS[config.check_kind]
    f = builtin(config.fn or "lse")
    rng = np.random.Generator(np.random.PCG64(0))  # state replaced before every draw
    violations = 0
    worst_slack = worst_seed = None
    for start, seeds, states in _chunks(
        ens.seed, config.trials, _chunk_trials(ens.n), len(check.streams)
    ):
        lhs, rhs, slack = _check_chunk(check, f, ens, rng, start, seeds, states)
        violations += int(np.count_nonzero(slack < -tol * np.maximum(1.0, np.abs(rhs))))
        row = int(slack.argmin())
        if worst_slack is None or slack[row] < worst_slack:
            worst_slack, worst_seed = float(slack[row]), seeds[row]
    return CampaignReport(
        config=config,
        trials_run=config.trials,
        violations=violations,
        worst_slack=worst_slack,
        worst_trial_seed=worst_seed,
        generator_id=GENERATOR_ID,
        wall_time_s=time.perf_counter() - t0,
    )
