"""gtcert benchmark: certified checks per second, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-small-n --seed 1 --seconds 60 --trace 0

Workloads: campaign-small-n, large-n-and-files
(see perfbench/README.md for why each exists and which layer it isolates).

With --trace 0 the run times a serial closed loop of calls, verifies every
output, and reports the end-to-end metrics.  With --trace 1 it first checks,
in one profiled cycle, that no layer call bypassed the span wrappers, then
alternates untraced and traced rounds, then serial and `parallel=True` runs of
the same campaigns, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

gtcert is imported from src/ next to this directory, never from an installed
copy; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_work")

# OpenBLAS's default worker threads spin: a serial n=64 campaign used 1.98
# CPU-seconds per wall-second, so throughput depended on whether the second core
# happened to be free.  Pinned to one thread, CPU time equals wall time, and the
# run is the single-threaded baseline.  Must be set before numpy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PIN_REASON = (
    "unpinned OpenBLAS used 1.98 CPU-s per wall-s on a serial n=64 campaign "
    "(spinning worker threads), so throughput depended on the second core being free"
)

WORKLOAD_NAMES = ("campaign-small-n", "large-n-and-files")
ROUND_S = 1.0  # call time per round; the call_ms quantiles are means over rounds
SETUP_PROBES = 9  # fresh processes timed for setup_s, spread over the timed loop
TRACED_SHARE = 0.7  # of --seconds; the rest measures --parallel


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run set-up only, print the monotonic clock when ready, exit
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "gtcert", "__init__.py")):
        print(f"error: gtcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports numpy and gtcert; only after the pinning above

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = workloads.Workload(args.workload, args.seed, workdir)
        stats = Stats()
        for call in workload.cycle():  # warm-up, verified but not timed
            stats.verify(call, call.run())
        if args.setup_probe:
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0  # failures are counted by the measuring process's own warm-up
        if args.trace:
            metrics = traced_run(args, workload, stats)
        else:
            metrics = untraced_run(args, workload, stats)
    finally:
        _remove_tree(workdir)

    print(f"env {json.dumps(environment(args))}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}{'  (' + m['note'] + ')' if 'note' in m else ''}")
    print(f"fail_ratio = {stats.failed / max(stats.attempted, 1)!r} 1  "
          f"({stats.failed} of {stats.attempted} checks failed)")
    for note in stats.notes[:20]:
        print(f"FAILED {note}")
    result = {
        "correct": stats.failed == 0 and not stats.notes,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


class Stats:
    """Checks attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def verify(self, call, output):
        failed, note = call.verify(output)
        self.attempted += call.checks
        self.failed += failed
        if note:
            self.notes.append(note)


def timed_call(call, stats, tracer=None):
    """Run one call; return its wall time and output.  Verification follows, untimed."""
    with tracer.recording() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        output = call.run()
        dt = time.perf_counter() - t0
    stats.verify(call, output)
    return dt, output


class Rounds:
    """Rounds of whole cycles, each holding at least ROUND_S of call time.

    The box's speed shifts between states that last from seconds to minutes, so
    a round runs mostly in one state.  A quantile of all calls pooled jumps
    between the states' modes as their shares change from run to run; the mean
    over rounds of each round's quantile, like the total rate, moves smoothly.
    """

    def __init__(self):
        self.call_s = []
        self.quantiles = []  # (p50, p90) of each round's call times, in seconds
        self.checks = 0
        self.out_bytes = 0  # of the --out files the calls wrote

    def run_round(self, workload, stats, deadline, tracer=None):
        times = []
        while sum(times) < ROUND_S and time.monotonic() < deadline:
            for call in workload.cycle():
                dt, _ = timed_call(call, stats, tracer)
                times.append(dt)
                self.checks += call.checks
                self.out_bytes += getattr(call, "out_bytes", 0)
        if len(times) > 1:
            q = statistics.quantiles(times, n=10, method="inclusive")
            self.quantiles.append((q[4], q[8]))
        self.call_s += times

    def rate(self):
        """Checks per second of call time, over every round."""
        return self.checks / sum(self.call_s)


def untraced_run(args, workload, stats):
    rounds = Rounds()
    setup = []
    start = time.monotonic()
    deadline = start + args.seconds
    # the probes run between rounds, spread over the run, so that they sample the
    # host's speed at several times rather than in one burst
    for i in range(SETUP_PROBES):
        while time.monotonic() < start + args.seconds * i / SETUP_PROBES:
            rounds.run_round(workload, stats, deadline)
        setup.append(setup_probe(args))
    while time.monotonic() < deadline:
        rounds.run_round(workload, stats, deadline)
    calls = (f"mean over {len(rounds.quantiles)} rounds of each round's quantile, "
             f"{len(rounds.call_s)} calls")
    metrics = {
        "checks_per_s": _metric(rounds.rate(), "1/s",
                                f"{rounds.checks} checks in {sum(rounds.call_s):.3f} s of calls"),
        "call_ms.p50": _metric(1e3 * statistics.fmean(q[0] for q in rounds.quantiles), "ms", calls),
        "call_ms.p90": _metric(1e3 * statistics.fmean(q[1] for q in rounds.quantiles), "ms", calls),
        "setup_s": _metric(statistics.median(setup), "s",
                           f"median of {len(setup)} fresh processes: "
                           + ", ".join(f"{s:.3f}" for s in setup)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics


def setup_probe(args):
    """Process start to ready-to-time, in a fresh interpreter: import, inputs, warm-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(lines[1]) - t0


def traced_run(args, workload, stats):
    binding_check(workload, stats)
    tracer = spans.Tracer()
    plain, traced = Rounds(), Rounds()
    start = time.monotonic()
    deadline = start + args.seconds * TRACED_SHARE
    while time.monotonic() < deadline:
        plain.run_round(workload, stats, deadline)
        traced.run_round(workload, stats, deadline, tracer)
    speedup = parallel_speedup(workload, stats, start + args.seconds)

    checks = traced.checks
    calls = len(traced.call_s)
    cli_calls = tracer.calls("cli.main")
    wall = sum(traced.call_s)
    self_sum = tracer.all_self_s()
    # every timed call opens a root span, so the remainder is only the wrappers'
    # own entry and exit cost; missed bindings are caught by unwrapped_calls above
    untraced = wall - self_sum
    eigh_calls = tracer.calls("hermitian.eigh")

    def per_check(seconds):
        return 1e6 * seconds / checks

    def per_cli_call(x):
        return x / cli_calls if cli_calls else 0.0

    values = {
        "hermitian.sample.us_per_check": (per_check(tracer.total_s("hermitian.sample")), "us"),
        "hermitian.sample.calls_per_check": (tracer.calls("hermitian.sample") / checks, "count"),
        "hermitian.eigh.us_per_check": (per_check(tracer.total_s("hermitian.eigh")), "us"),
        "hermitian.eigh.calls_per_check": (eigh_calls / checks, "count"),
        "hermitian.eigh.vectors_used_ratio": (
            tracer.calls("hermitian.eigh", parent="hermitian.matrix_exp") / eigh_calls
            if eigh_calls else 0.0, "1"),
        "hermitian.matrix_exp.us_per_check": (per_check(tracer.total_s("hermitian.matrix_exp")), "us"),
        "hermitian.conjugate.us_per_check": (per_check(tracer.total_s("hermitian.conjugate")), "us"),
        "logsumexp.lse.calls_per_check": (tracer.calls("logsumexp.lse") / checks, "count"),
        "logsumexp.lse.self_us_per_check": (per_check(tracer.self_s("logsumexp.lse")), "us"),
        "logsumexp.hessian_fd.us_per_check": (per_check(tracer.total_s("logsumexp.hessian_fd")), "us"),
        "logsumexp.lse_hessian_analytic.us_per_check": (
            per_check(tracer.total_s("logsumexp.lse_hessian_analytic")), "us"),
        "logsumexp.psd_certify.us_per_check": (per_check(tracer.total_s("logsumexp.psd_certify")), "us"),
        "spectral.lift_eval.self_us_per_check": (per_check(tracer.self_s("spectral.lift_eval")), "us"),
        "spectral.check.self_us_per_check": (per_check(tracer.self_s("spectral.check")), "us"),
        "gt.check.self_us_per_check": (per_check(tracer.self_s("gt.check")), "us"),
        "gt.log_trace_exp.self_us_per_check": (per_check(tracer.self_s("gt.log_trace_exp")), "us"),
        "gt.run_campaign.self_us_per_check": (per_check(tracer.self_s("gt.run_campaign")), "us"),
        "matrixio.load.us_per_call": (per_cli_call(1e6 * tracer.total_s("matrixio.load")), "us"),
        "matrixio.bytes_read_per_call": (per_cli_call(tracer.bytes_read), "B"),
        "cli.main.self_us_per_call": (per_cli_call(1e6 * tracer.self_s("cli.main")), "us"),
        "cli.out_bytes_per_call": (per_cli_call(traced.out_bytes), "B"),
        "trace.overhead_ratio": (traced.rate() / plain.rate(), "1"),
        "trace.untraced_share": (untraced / wall, "1"),
        "gt.parallel_speedup": (speedup, "1"),
    }
    metrics = {k: _metric(v, u) for k, (v, u) in values.items()}
    metrics["trace.untraced_share"]["note"] = (
        f"untraced {1e6 * untraced / checks:.3f} us/check + span self times "
        f"{1e6 * self_sum / checks:.3f} us/check = traced wall {1e6 * wall / checks:.3f} us/check, "
        f"{checks} checks in {calls} calls"
    )
    return metrics


def binding_check(workload, stats):
    """Fail the run if one cycle enters a layer function through a binding the tracer missed."""
    tracer, missed = spans.Tracer(), {}
    for call in workload.cycle():
        with tracer.unwrapped_calls() as excess:
            output = call.run()
        stats.verify(call, output)
        for layer, n in excess.items():
            missed[layer] = missed.get(layer, 0) + n
    print(f"layer calls that bypassed the wrappers in one profiled cycle: {missed or 'none'}")
    if missed:
        stats.notes.append(f"layer functions entered through a binding the tracer missed: {missed}")


def parallel_speedup(workload, stats, deadline):
    """Serial time over parallel=True time for the same campaigns; reports must agree."""
    serial_s = parallel_s = 0.0
    while time.monotonic() < deadline:
        for call in workload.cycle():
            if not hasattr(call, "config"):
                continue  # a CLI call has no parallel schedule
            dt, serial = timed_call(call, stats)
            serial_s += dt
            twin = type(call)(dataclasses.replace(call.config, parallel=True))
            dt, parallel = timed_call(twin, stats)
            parallel_s += dt
            a, b = (getattr(r, "to_json_dict", dict)() for r in (serial, parallel))
            if {**a, "wall_time_s": 0} != {**b, "wall_time_s": 0}:
                stats.notes.append(f"parallel report differs from serial: {a} vs {b}")
    return serial_s / parallel_s if parallel_s else 0.0


def _metric(value, unit, note=None):
    m = {"value": float(value), "unit": unit}
    if note:
        m["note"] = note
    return m


def environment(args):
    import numpy as np

    import gtcert

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_pinned_because": PIN_REASON,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gtcert": getattr(gtcert, "__version__", "unknown"),
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


def _git_sha():
    """HEAD's commit from .git, read without running git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only if no other run is using it
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
