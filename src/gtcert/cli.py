"""Command-line front end.

Subcommands: verify-gt, verify-convexity, hessian-check, davis-check,
erratum-dkd, eval.  The four campaign subcommands are rows of `CAMPAIGNS`, and
one handler runs every row.  Exit status 0 when every check passes, 1 when a
violation was found (the report is still written), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .checks import require_seed
from .errors import Error
from .gt import (  # convexity_check and gt_weak_check are run by their CAMPAIGNS name
    CampaignConfig,
    CampaignReport,
    convexity_check,
    gt_weak_check,
    run_campaign,
)
from .hermitian import ENSEMBLE_KINDS, EnsembleSpec
from .logsumexp import dkd_product, lse_hessian_analytic
from .matrixio import load_matrix
from .spectral import builtin, lift_eval

# the analytic-vs-finite-difference comparison has its own floor set by the
# h = 1e-4 stencil; --tol governs only the PSD part of hessian-check
FD_MATCH_TOL = 1e-6

# off-diagonal agreement of D K D with the Hessian is an algebraic identity
OFFDIAG_IDENTITY_TOL = 1e-14

def _u64(text: str) -> int:
    try:
        require_seed(seed := int(text))
    except ValueError:  # int()'s or require_seed's: argparse prints one usage error for both
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text!r}") from None
    return seed


def _csv_vector(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--x expects comma-separated reals, got {text!r}")
    return np.asarray(values)


def _campaign_flags(sub: argparse.ArgumentParser, matrices: bool) -> None:
    sub.add_argument("--dim", type=int, default=8, metavar="N",
                     help="matrix dimension (default %(default)s)")
    sub.add_argument("--trials", type=int, default=1000, metavar="T",
                     help="number of trials (default %(default)s)")
    sub.add_argument("--ensemble", choices=ENSEMBLE_KINDS, default="gue",
                     help="random ensemble (default %(default)s)")
    sub.add_argument("--scale", type=float, default=1.0, metavar="S",
                     help="ensemble scale (default %(default)s)")
    sub.add_argument("--seed", type=_u64, metavar="U64",
                     help="master seed; fully determines the report")
    sub.add_argument("--tol", type=float, default=1e-10, metavar="R",
                     help="check tolerance (default %(default)s)")
    sub.add_argument("--parallel", action="store_true",
                     help="accepted for compatibility; has no effect (trials always "
                     "run in batched chunks, and the report is the same)")
    sub.add_argument("--out", metavar="PATH", help="write the JSON report here")
    if matrices:
        sub.add_argument("--matrix", metavar="PATH",
                         help="check this matrix file instead of sampling")
        sub.add_argument("--matrix-b", metavar="PATH",
                         help="second matrix file for the single check")


# each campaign subcommand is a row: its help text; its campaigns as (check
# kind, fixed tol), where None takes --tol; the name of the module attribute
# that --matrix/--matrix-b run, or None; and whether it takes --fn.  The single
# check is looked up by name per call, so the parser, built once, calls a
# patched binding (perfbench's span tracer patches them)
CAMPAIGNS = {
    "verify-gt": ("certify log tr exp(A+B) <= log tr exp(A) + log tr exp(B)",
                  (("GT_WEAK", None),), "gt_weak_check", False),
    "verify-convexity": ("certify midpoint convexity of log tr exp",
                         (("MIDPOINT_CONVEXITY", None),), "convexity_check", False),
    "hessian-check": ("certify the log-sum-exp Hessian: PSD spectrum and "
                      "agreement with finite differences",
                      (("HESSIAN_PSD", None), ("HESSIAN_FD_MATCH", FD_MATCH_TOL)), None, False),
    "davis-check": ("certify unitary invariance of a lifted function and "
                    "its agreement with the diagonal restriction",
                    (("UNITARY_INVARIANCE", None), ("DAVIS_RESTRICTION", None)), None, True),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the gtcert command line; each subcommand sets `run` to its handler."""
    parser = argparse.ArgumentParser(
        prog="gtcert",
        description="Randomized certification of the Golden-Thompson trace "
        "inequality and the convexity structure behind it.",
    )
    sub = parser.add_subparsers(required=True, metavar="subcommand")

    for name, (help_text, campaigns, single, takes_fn) in CAMPAIGNS.items():
        p = sub.add_parser(name, help=help_text)
        _campaign_flags(p, matrices=single is not None)
        if takes_fn:
            p.add_argument("--fn", default=None, metavar="NAME",
                           help="built-in function to lift (default lse)")
        p.set_defaults(run=functools.partial(_cmd_campaign, campaigns=campaigns, single=single))

    p = sub.add_parser("erratum-dkd",
                       help="print the Hessian next to the product D K D and "
                       "their diagonal discrepancy at a given point")
    p.add_argument("--x", type=_csv_vector, required=True, metavar="CSV",
                   help="evaluation point, comma-separated")
    p.add_argument("--out", metavar="PATH", help="write the comparison as JSON")
    p.set_defaults(run=_cmd_erratum)

    p = sub.add_parser("eval", help="evaluate a built-in lifted function on a matrix file")
    p.add_argument("--fn", required=True, metavar="NAME",
                   help="one of lse, max, min, sum, pnorm:<p>")
    p.add_argument("--matrix", required=True, metavar="PATH", help="matrix file")
    p.add_argument("--out", metavar="PATH", help="write {fn, matrix, value} as JSON")
    p.set_defaults(run=_cmd_eval)

    return parser


def _write_out(path, doc) -> None:
    """Write `doc` as strict JSON; a NaN or infinity raises ValueError before the file opens."""
    if path:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_report(report: CampaignReport) -> None:
    cfg = report.config
    ens = cfg.ensemble
    verdict = "PASS" if report.violations == 0 else "FAIL"
    fn = "" if cfg.fn is None else f"fn={cfg.fn} "
    print(
        f"{cfg.check_kind}: {fn}ensemble={ens.kind} n={ens.n} scale={ens.scale!r} seed={ens.seed} "
        f"trials={report.trials_run} tol={cfg.tol!r} violations={report.violations} "
        f"worst_slack={report.worst_slack:.6e} worst_trial_seed={report.worst_trial_seed} "
        f"[{verdict}]"
    )


def _single_check(args, kind, check) -> int:
    if not (args.matrix and args.matrix_b):
        print("error: --matrix and --matrix-b must be given together", file=sys.stderr)
        return 2
    a = load_matrix(args.matrix)
    b = load_matrix(args.matrix_b)
    result = check(a, b, args.tol)
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"{kind}: lhs={result.lhs:.17g} rhs={result.rhs:.17g} "
        f"slack={result.slack:.6e} [{verdict}]"
    )
    _write_out(args.out, {
        "check_kind": kind,
        "mode": "single",
        "lhs": result.lhs,
        "rhs": result.rhs,
        "slack": result.slack,
        "tol": result.tol,
        "pass": result.passed,
    })
    return 0 if result.passed else 1


def _cmd_campaign(args, campaigns, single) -> int:
    """Every campaign of a subcommand's row, or its single check when matrix files are given."""
    if single and (args.matrix or args.matrix_b):
        return _single_check(args, campaigns[0][0], globals()[single])
    if args.seed is None:  # not argparse's required=True: the single check takes no seed
        print("error: a campaign requires --seed", file=sys.stderr)
        return 2
    ens = EnsembleSpec(args.ensemble, args.dim, args.scale, args.seed)
    fn = getattr(args, "fn", None)
    configs = [CampaignConfig(kind, ens, args.trials, args.tol if tol is None else tol,
                              args.parallel, fn=fn) for kind, tol in campaigns]
    reports = [run_campaign(c) for c in configs]
    for report in reports:
        _print_report(report)
    docs = [r.to_json_dict() for r in reports]
    _write_out(args.out, docs[0] if len(docs) == 1 else docs)
    return 0 if all(r.violations == 0 for r in reports) else 1


def _format_matrix(m: np.ndarray) -> str:
    return "\n".join("  [" + ", ".join(f"{v:.17g}" for v in row) + "]" for row in m)


def _cmd_erratum(args) -> int:
    hess = lse_hessian_analytic(args.x).entries
    dkd = dkd_product(args.x).entries
    off_mask = ~np.eye(len(args.x), dtype=bool)
    max_offdiag = float(np.max(np.abs(hess - dkd)[off_mask])) if off_mask.any() else 0.0
    diag_diff = np.abs(np.diagonal(dkd) - np.diagonal(hess))
    passed = max_offdiag <= OFFDIAG_IDENTITY_TOL

    print("hessian:")
    print(_format_matrix(hess))
    print("dkd:")
    print(_format_matrix(dkd))
    print(f"max_offdiag_diff={max_offdiag:.6e} (tol {OFFDIAG_IDENTITY_TOL:g})")
    print(f"diag_diff=[{', '.join(f'{v:.17g}' for v in diag_diff)}]")
    print(f"max_diag_diff={float(diag_diff.max()):.17g}")
    print("[PASS]" if passed else "[FAIL]")
    _write_out(args.out, {
        "x": list(args.x),
        "hessian": hess.tolist(),
        "dkd": dkd.tolist(),
        "max_offdiag_diff": max_offdiag,
        "offdiag_tol": OFFDIAG_IDENTITY_TOL,
        "diag_diff": diag_diff.tolist(),
        "max_diag_diff": float(diag_diff.max()),
        "pass": passed,
    })
    return 0 if passed else 1


def _cmd_eval(args) -> int:
    f = builtin(args.fn)
    value = lift_eval(f, load_matrix(args.matrix))
    print(f"{value:.17g}")
    _write_out(args.out, {"fn": f.name, "matrix": args.matrix, "value": value})
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the tree costs more than parsing a command line with it, so
    # `main` builds it once per process; nothing mutates it afterwards
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help itself
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
