"""The benchmark's workloads: what each timed call runs and how its output is checked.

A call is one fixed-size `run_campaign` or one in-process `gtcert.cli.main`
invocation.  A cycle runs every call of a workload once, in a fixed order, so
every round of the timed loop has the same mix.  Campaign trial counts are fixed
so that each campaign-small-n call takes about 32 ms on a 2-vCPU x86-64 box at
2.1 GHz with OpenBLAS pinned to one thread (HESSIAN_FD_MATCH's 7 trials set the
length); equal call lengths keep the call-latency quantiles from sitting on the
boundary between two configs.

Every call is verified outside its timed interval.  `verify` returns the number
of failed checks and a note naming the seed or file for each failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os

import numpy as np

from gtcert import checks, cli, gt, hermitian, logsumexp, matrixio, spectral
from gtcert.errors import Error


@dataclasses.dataclass(frozen=True)
class Campaign:
    kind: str
    n: int
    trials: int
    tol: float = 1e-10


# kind -> public single check that a replayed pair goes through
_PAIR_CHECKS = {
    "GT_WEAK": gt.gt_weak_check,
    "MIDPOINT_CONVEXITY": gt.convexity_check,
    "GT_STRONG": gt.gt_strong_check,
}

CAMPAIGNS = {
    # Python-level work dominates: per-trial overhead and PCG64 sampling at
    # n=2 and 8, and at n=16 the campaigns behind hessian-check and davis-check,
    # which sample vectors only and where hessian_fd's loop of lse calls dominates
    "campaign-small-n": (
        Campaign("GT_WEAK", 2, 140),
        Campaign("MIDPOINT_CONVEXITY", 2, 130),
        Campaign("UNITARY_INVARIANCE", 2, 125),
        Campaign("GT_WEAK", 8, 120),
        Campaign("MIDPOINT_CONVEXITY", 8, 110),
        Campaign("UNITARY_INVARIANCE", 8, 110),
        Campaign("HESSIAN_PSD", 16, 410),
        Campaign("HESSIAN_FD_MATCH", 16, 7, cli.FD_MATCH_TOL),
        Campaign("DAVIS_RESTRICTION", 16, 280),
    ),
    # the O(n^3) eigensolver and matrix_exp dominate the campaign calls at n=64
    "large-n-and-files": (
        Campaign("GT_WEAK", 64, 12),
        Campaign("MIDPOINT_CONVEXITY", 64, 10),
        Campaign("GT_STRONG", 64, 6),
    ),
}

# workload -> pairs of n=32 matrix files checked through the CLI in each cycle,
# the first half real-only (no "im"), the second half complex.  With 4 pairs the
# 3 campaign calls are 20% of the calls, so call_ms.p90 falls among them and
# call_ms.p50 among the CLI calls.
MATRIX_FILE_PAIRS = {"campaign-small-n": 0, "large-n-and-files": 4}
MATRIX_FILE_N = 32


class CampaignCall:
    def __init__(self, config):
        self.config = config
        self.checks = config.trials

    def run(self):
        try:
            return gt.run_campaign(self.config)  # looked up per call, so tracing can patch it
        except Error as exc:  # a trial error is a failed check, not a crash
            return exc

    def verify(self, report):
        cfg = self.config
        where = f"{cfg.check_kind} n={cfg.ensemble.n} seed={cfg.ensemble.seed}"
        if isinstance(report, Error):
            seed = getattr(report, "trial_seed", None)
            return cfg.trials, f"{where}: trial error (trial_seed={seed}): {report}"
        doc = report.to_json_dict()
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError:
            return cfg.trials, f"{where}: non-finite report field: {doc}"
        if report.trials_run != cfg.trials:
            return cfg.trials, f"{where}: ran {report.trials_run} of {cfg.trials} trials"
        seeds = {gt.derive_seed(cfg.ensemble.seed, i) for i in range(cfg.trials)}
        if report.worst_trial_seed not in seeds:
            return cfg.trials, f"{where}: worst_trial_seed {report.worst_trial_seed} is no trial's seed"
        slack, rhs = replay(cfg, report.worst_trial_seed)
        if not abs(slack - report.worst_slack) <= checks.slack_bound(rhs, cfg.tol):
            return cfg.trials, (
                f"{where}: worst trial {report.worst_trial_seed} replays to slack "
                f"{slack!r}, report says {report.worst_slack!r}"
            )
        if report.violations:
            return report.violations, (
                f"{where}: {report.violations} violations, worst trial_seed="
                f"{report.worst_trial_seed} slack={report.worst_slack!r}"
            )
        return 0, None


def replay(config, trial_seed):
    """(slack, rhs) of one trial, re-run through the public single check for its kind."""
    ens, tol, kind = config.ensemble, config.tol, config.check_kind

    def spec(i):
        return dataclasses.replace(ens, seed=gt.derive_seed(trial_seed, i))

    if kind in _PAIR_CHECKS:
        a, b = hermitian.random_hermitian(spec(0)), hermitian.random_hermitian(spec(1))
        r = _PAIR_CHECKS[kind](a, b, tol)
        return r.slack, r.rhs
    if kind == "UNITARY_INVARIANCE":
        a = hermitian.random_hermitian(spec(0))
        u = hermitian.random_unitary(ens.n, gt.derive_seed(trial_seed, 1))
        r = spectral.check_unitary_invariance(spectral.lift(spectral.builtin("lse")), a, u, tol)
        return r.slack, r.rhs
    x = hermitian.random_vector(spec(0))
    if kind == "DAVIS_RESTRICTION":
        r = spectral.check_davis_restriction(spectral.builtin("lse"), x, tol)
        return r.slack, r.rhs
    if kind == "HESSIAN_PSD":
        return logsumexp.psd_certify(logsumexp.lse_hessian_analytic(x), tol).min_eigenvalue, 0.0
    if kind == "HESSIAN_FD_MATCH":
        analytic = logsumexp.lse_hessian_analytic(x).entries
        return -float(np.max(np.abs(analytic - logsumexp.hessian_fd(x).entries))), 0.0
    raise ValueError(f"no replay for check kind {kind!r}")


class Workload:
    """Fixed-size campaigns, then CLI calls on matrix files written during set-up.

    The benchmark seed draws the matrix files first, then one campaign master
    seed per campaign call.
    """

    def __init__(self, name, seed, workdir):
        self._rng = np.random.default_rng(seed)
        self.campaigns = CAMPAIGNS[name]
        self._cli_calls = _matrix_file_calls(self._rng, MATRIX_FILE_PAIRS[name], workdir)

    def cycle(self):
        for c in self.campaigns:
            ens = hermitian.EnsembleSpec("gue", c.n, 1.0, int(self._rng.integers(0, 2**63)))
            yield CampaignCall(gt.CampaignConfig(c.kind, ens, c.trials, c.tol))
        for call in self._cli_calls:
            with contextlib.suppress(FileNotFoundError):
                os.remove(call.out_path)  # so verify sees only this call's output
            yield call


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class CliCall:
    def __init__(self, argv, out_path, expected):
        self.argv = argv
        self.out_path = out_path
        self.expected = expected  # field -> value the --out document must hold
        self.checks = 1
        self.out_bytes = 0

    def run(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(self.argv)

    def verify(self, code):
        where = " ".join(self.argv[:1] + [os.path.basename(p) for p in self.argv[1:] if p.endswith(".json")])
        if code != 0:
            return 1, f"{where}: exit code {code!r}"
        try:
            with open(self.out_path, "rb") as fh:
                raw = fh.read()
            self.out_bytes = len(raw)
            doc = json.loads(raw, parse_constant=_reject_constant)
        except (OSError, ValueError) as exc:
            return 1, f"{where}: --out file is not strict JSON: {exc}"
        for field, want in self.expected.items():
            if doc.get(field) != want:
                return 1, f"{where}: {field}={doc.get(field)!r}, in-memory check gives {want!r}"
        return 0, None


def _matrix_file_calls(rng, pairs, workdir):
    """verify-gt, verify-convexity and eval calls on `pairs` pairs of new files.

    The expected --out fields come from the same checks run in memory.
    """
    calls = []
    out = os.path.join(workdir, "out.json")
    for k in range(pairs):
        complex_entries = k >= pairs // 2
        a, b = (_write_matrix(rng, MATRIX_FILE_N, complex_entries,
                              os.path.join(workdir, f"m{k}{s}.json")) for s in "ab")
        ma, mb = matrixio.load_matrix(a), matrixio.load_matrix(b)
        for command, check in (("verify-gt", gt.gt_weak_check),
                               ("verify-convexity", gt.convexity_check)):
            r = check(ma, mb, 1e-10)
            argv = [command, "--seed", "0", "--matrix", a, "--matrix-b", b, "--out", out]
            calls.append(CliCall(argv, out, {"lhs": r.lhs, "rhs": r.rhs, "pass": True}))
        value = spectral.lift_eval(spectral.lift(spectral.builtin("lse")), ma)
        calls.append(CliCall(["eval", "--fn", "lse", "--matrix", a, "--out", out],
                             out, {"fn": "lse", "value": value}))
    return calls


def _write_matrix(rng, n, complex_entries, path):
    """An exactly Hermitian n x n matrix in gtcert's file format; "im" only if complex."""
    g = rng.normal(size=(n, n))
    if complex_entries:
        g = g + 1j * rng.normal(size=(n, n))
    m = (g + g.conj().T) / 2.0
    doc = {"n": n, "re": m.real.tolist()}
    if complex_entries:
        doc["im"] = m.imag.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path
