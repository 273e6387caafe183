"""End-to-end acceptance checks for the certification library.

Each test covers one advertised guarantee and prints a single PASS/FAIL
line to the real stdout (bypassing capture) so the result is visible in
plain pytest logs. Failures still raise, so pytest reports them normally.
"""

import json
import math

import numpy as np
import pytest

from gtcert import (
    CampaignConfig,
    EnsembleSpec,
    HermitianMatrix,
    builtin,
    check_davis_restriction,
    check_unitary_invariance,
    complete_graph_laplacian,
    convexity_check,
    derive_seed,
    dkd_product,
    gt_weak_check,
    hessian_fd,
    lift,
    lse_hessian_analytic,
    midpoint_convexity_residual,
    psd_certify,
    random_hermitian,
    random_unitary,
    random_vector,
    run_campaign,
    softmax,
)
from gtcert.cli import main
from gtcert.gt import derive_seeds
from gtcert.hermitian import generators, seed_words, stacked_spectrum, vector_stack
from gtcert.logsumexp import hessian_rows


@pytest.fixture
def certify(capfd):
    """One PASS/FAIL line per guarantee, printed outside capture, then assert."""

    def _line(label: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\n[acceptance] {label}: {status} {detail}".rstrip(), flush=True)
        assert ok, f"{label}: {detail}"

    return _line


GRID_ENSEMBLES = ("gue", "goe")
GRID_SIZES = (2, 4, 8, 16)


def test_trace_inequality_campaigns_clean(certify):
    """10^4-trial GT_WEAK campaigns stay violation-free on the full grid."""
    total = 0
    bad = []
    seed = 1000
    for kind in GRID_ENSEMBLES:
        for n in GRID_SIZES:
            seed += 1
            rep = run_campaign(
                CampaignConfig("GT_WEAK", EnsembleSpec(kind, n, 1.0, seed), 10_000, 1e-10)
            )
            total += rep.trials_run
            if rep.violations:
                bad.append((kind, n, rep.violations, rep.worst_slack))
    certify(
        "trace inequality, 8 campaigns x 10^4 trials",
        total == 80_000 and not bad,
        f"trials={total} violating_configs={bad}",
    )


def test_midpoint_convexity_campaigns_clean(certify):
    """10^4-trial MIDPOINT_CONVEXITY campaigns stay violation-free on the grid."""
    total = 0
    bad = []
    seed = 2000
    for kind in GRID_ENSEMBLES:
        for n in GRID_SIZES:
            seed += 1
            rep = run_campaign(
                CampaignConfig(
                    "MIDPOINT_CONVEXITY", EnsembleSpec(kind, n, 1.0, seed), 10_000, 1e-10
                )
            )
            total += rep.trials_run
            if rep.violations:
                bad.append((kind, n, rep.violations, rep.worst_slack))
    certify(
        "trace-exp midpoint convexity, 8 campaigns x 10^4 trials",
        total == 80_000 and not bad,
        f"trials={total} violating_configs={bad}",
    )


def test_hessian_analytic_matches_stencil_and_identity(certify):
    """Analytic log-sum-exp Hessian agrees with the 4-point stencil and with
    diag(p) - p p^T built directly from the weights."""
    rng = np.random.Generator(np.random.PCG64(3000))
    worst_fd = 0.0
    worst_id = 0.0
    for n in (1, 2, 5, 10):
        for _ in range(1000):
            x = rng.uniform(-10.0, 10.0, size=n)
            analytic = lse_hessian_analytic(x).entries
            stencil = hessian_fd(x, h=1e-4).entries
            worst_fd = max(worst_fd, float(np.max(np.abs(analytic - stencil))))
            p = softmax(x).p
            direct = np.diag(p) - np.outer(p, p)
            worst_id = max(worst_id, float(np.max(np.abs(analytic - direct))))
    certify(
        "analytic Hessian vs finite differences and direct form",
        worst_fd <= 1e-6 and worst_id <= 1e-14,
        f"max|analytic-stencil|={worst_fd:.3e} (<=1e-6) "
        f"max|analytic-direct|={worst_id:.3e} (<=1e-14)",
    )


def test_hessian_and_laplacian_psd_certificates(certify):
    """Every sampled Hessian certifies PSD with a one-dimensional nullspace,
    as does the complete-graph Laplacian for n up to 64.

    Trial i at size n draws its own vector, seeded by derive_seed(4000 + n, i).
    The 10^4 Hessians of a size are certified in one stacked solver call, each
    by psd_certify's rule (pass iff w_min >= -tol, nullspace = #{|w| <= tol},
    tol = 1e-10 * max(1, max |entry|)); every 100th trial also goes through the
    public random_vector -> lse_hessian_analytic -> psd_certify path, whose
    minimum eigenvalue must equal the stacked row's bit for bit."""
    trials = 10_000
    bad_hessian = 0
    for n in range(2, 17):
        seeds = derive_seeds(4000 + n, np.arange(trials))
        x = vector_stack(EnsembleSpec("diag", n, 10.0, 0), generators(seed_words(seeds)))
        assert len(np.unique(x, axis=0)) == trials
        h = hessian_rows(x)
        w = stacked_spectrum(h)
        tol = 1e-10 * np.maximum(1.0, np.abs(h).max(axis=(1, 2)))
        nullspace_dim = np.count_nonzero(np.abs(w) <= tol[:, None], axis=1)
        bad_hessian += int(np.count_nonzero((w[:, 0] < -tol) | (nullspace_dim != 1)))
        for i in range(0, trials, 100):
            xi = random_vector(EnsembleSpec("diag", n, 10.0, derive_seed(4000 + n, i)))
            cert = psd_certify(lse_hessian_analytic(xi))
            assert xi.tobytes() == x[i].tobytes(), (n, i)
            assert np.float64(cert.min_eigenvalue).tobytes() == w[i, 0].tobytes(), (n, i)
            assert (cert.passed, cert.nullspace_dim) == (w[i, 0] >= -tol[i], nullspace_dim[i]), (n, i)
    bad_laplacian = 0
    for n in range(2, 65):
        cert = psd_certify(complete_graph_laplacian(n), tol=1e-12)
        if not (cert.min_eigenvalue >= -1e-12 and cert.nullspace_dim == 1):
            bad_laplacian += 1
    certify(
        "PSD certificates, 15 x 10^4 Hessians + Laplacians n=2..64",
        bad_hessian == 0 and bad_laplacian == 0,
        f"hessian_failures={bad_hessian} laplacian_failures={bad_laplacian}",
    )


def test_dkd_diagonal_discrepancy(certify):
    """D K D reproduces the Hessian off the diagonal only; at p=(1/4,3/4) the
    diagonal gaps are exactly 0.125 and 0.375, and they vanish iff uniform."""
    x = np.array([0.0, math.log(3.0)])
    h = lse_hessian_analytic(x).entries
    d = dkd_product(x).entries
    off_ok = abs(d[0, 1] - h[0, 1]) <= 1e-14 and abs(d[1, 0] - h[1, 0]) <= 1e-14
    gaps = np.abs(np.diag(d) - np.diag(h))
    diag_ok = abs(gaps[0] - 0.125) <= 1e-12 and abs(gaps[1] - 0.375) <= 1e-12
    max_ok = abs(float(gaps.max()) - 0.375) <= 1e-12

    rng = np.random.Generator(np.random.PCG64(5000))
    nonuniform_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        y = rng.uniform(-10.0, 10.0, size=n)
        gap = float(
            np.max(np.abs(np.diag(dkd_product(y).entries) - np.diag(lse_hessian_analytic(y).entries)))
        )
        if gap <= 1e-9:  # continuous draws never land on the uniform point
            nonuniform_ok = False
    uniform_ok = True
    for n in (2, 3, 8):
        for c in (0.0, -3.5, 7.25):
            y = np.full(n, c)
            gap = float(
                np.max(np.abs(dkd_product(y).entries - lse_hessian_analytic(y).entries))
            )
            if gap > 1e-15:
                uniform_ok = False
    certify(
        "D K D diagonal discrepancy at p=(1/4,3/4) and uniform-iff-equal",
        off_ok and diag_ok and max_ok and nonuniform_ok and uniform_ok,
        f"gaps={gaps.tolist()} off_ok={off_ok} nonuniform_ok={nonuniform_ok} "
        f"uniform_ok={uniform_ok}",
    )


def test_lift_invariance_and_restriction(certify):
    """Lifted symmetric functions are unitarily invariant, restrict to their
    scalar form on diagonals, and the concave 'min' control does violate."""
    fns = [builtin(name) for name in ("lse", "max", "pnorm:2")]
    lifted = [lift(f) for f in fns]
    inv_failures = 0
    seed = 6000
    for n in (2, 4, 8):
        inputs = set()
        for _ in range(1000):
            seed += 1
            a = random_hermitian(EnsembleSpec("gue", n, 1.0, seed))
            u = random_unitary(n, seed + 500_000)
            inputs.add(a.entries.tobytes() + u.entries.tobytes())
            for func in lifted:
                if not check_unitary_invariance(func, a, u, 1e-10).passed:
                    inv_failures += 1
        assert len(inputs) == 1000, n
    restrict_failures = 0
    for n in (2, 4, 8):
        inputs = set()
        for i in range(1000):
            x = random_vector(EnsembleSpec("diag", n, 10.0, derive_seed(7000 + n, i)))
            inputs.add(x.tobytes())
            for f in fns:
                if not check_davis_restriction(f, x, 1e-12).passed:
                    restrict_failures += 1
        assert len(inputs) == 1000, n
    f_min = lift(builtin("min"))
    control_hits = 0
    inputs = set()
    for i in range(1000):
        a = random_hermitian(EnsembleSpec("gue", 4, 1.0, 8000 + 2 * i))
        b = random_hermitian(EnsembleSpec("gue", 4, 1.0, 8001 + 2 * i))
        inputs.add(a.entries.tobytes() + b.entries.tobytes())
        if midpoint_convexity_residual(f_min, a, b) < -1e-8:
            control_hits += 1
    assert len(inputs) == 1000
    certify(
        "unitary invariance + diagonal restriction + concave control",
        inv_failures == 0 and restrict_failures == 0 and control_hits >= 1,
        f"invariance_failures={inv_failures} restriction_failures={restrict_failures} "
        f"min_violations={control_hits}/1000",
    )


def test_worked_pair_closed_forms(certify):
    """A1=diag(1,-1) with the symmetric flip matrix hits known closed forms."""
    a = HermitianMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    b = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    gt = gt_weak_check(a, b, tol=1e-10)
    cx = convexity_check(a, b, tol=1e-10)
    lhs_gt = math.log(2.0 * math.cosh(math.sqrt(2.0)))
    rhs_gt = 2.0 * math.log(2.0 * math.cosh(1.0))
    lhs_cx = math.log(2.0 * math.cosh(math.sqrt(2.0) / 2.0))
    rhs_cx = math.log(2.0 * math.cosh(1.0))
    errs = [
        abs(gt.lhs - lhs_gt),
        abs(gt.rhs - rhs_gt),
        abs(gt.slack - (rhs_gt - lhs_gt)),
        abs(cx.lhs - lhs_cx),
        abs(cx.rhs - rhs_cx),
        abs(cx.slack - (rhs_cx - lhs_cx)),
    ]
    certify(
        "worked 2x2 pair vs closed forms",
        max(errs) <= 1e-9 and gt.passed and cx.passed,
        f"max_err={max(errs):.3e} (<=1e-9)",
    )


def _canon(report_dict: dict) -> str:
    return json.dumps(report_dict | {"wall_time_s": 0.0}, sort_keys=False)


def test_reports_are_deterministic(certify, tmp_path):
    """Same seed means byte-identical reports (wall time aside), serial or
    parallel, from the library and from the command line."""
    cfg = CampaignConfig("GT_WEAK", EnsembleSpec("gue", 8, 1.0, 12345), 500, 1e-10)
    cfg_par = CampaignConfig("GT_WEAK", EnsembleSpec("gue", 8, 1.0, 12345), 500, 1e-10, parallel=True)
    first = _canon(run_campaign(cfg).to_json_dict())
    second = _canon(run_campaign(cfg).to_json_dict())
    third = _canon(run_campaign(cfg_par).to_json_dict())
    lib_ok = first == second == third

    outs = [tmp_path / f"r{i}.json" for i in range(3)]
    args = ["verify-gt", "--dim", "8", "--trials", "500", "--seed", "12345", "--tol", "1e-10"]
    codes = [
        main(args + ["--out", str(outs[0])]),
        main(args + ["--out", str(outs[1])]),
        main(args + ["--parallel", "--out", str(outs[2])]),
    ]
    docs = [_canon(json.loads(p.read_text())) for p in outs]
    cli_ok = codes == [0, 0, 0] and docs[0] == docs[1] == docs[2]
    certify(
        "deterministic reports, serial == parallel, library and CLI",
        lib_ok and cli_ok,
        f"library_match={lib_ok} cli_match={cli_ok}",
    )
