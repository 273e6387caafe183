"""Span recorder for the traced benchmark run.

The recorder wraps gtcert's public functions from outside the package.  Each
wrapped function is a layer.  A wrapper replaces the function in every gtcert
module namespace that binds it (for example both `gtcert.hermitian.eigh` and
`gtcert.gt.eigh`), and in every module-level dict whose values are dataclasses
holding it in a field (`gtcert.spectral._BUILTINS["lse"].evaluate` keeps the
original `lse`, so a namespace-only patch would miss it).  Bindings the search
cannot see (a closure, a default argument, a list) are caught by
`unwrapped_calls()`, which counts entries into the original code objects.

Spans are aggregated as they close, per (layer, parent layer) edge: call count,
total duration and self time (duration minus the time covered by child spans).
Aggregating instead of keeping every span bounds memory: a HESSIAN_FD_MATCH
trial at n=16 opens over 540 spans.

The wrappers are installed only inside `recording()`, around a timed call, so
untraced runs and the benchmark's own verification run unpatched code.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

# layer name -> (defining module, function names).  A name that a later version
# of gtcert no longer defines is skipped; its layer then reports zero.
LAYERS = {
    "hermitian.sample": ("gtcert.hermitian", ("random_hermitian", "random_vector", "random_unitary")),
    "hermitian.eigh": ("gtcert.hermitian", ("eigh",)),
    "hermitian.matrix_exp": ("gtcert.hermitian", ("matrix_exp",)),
    "hermitian.conjugate": ("gtcert.hermitian", ("conjugate",)),
    "logsumexp.lse": ("gtcert.logsumexp", ("lse",)),
    "logsumexp.hessian_fd": ("gtcert.logsumexp", ("hessian_fd",)),
    "logsumexp.lse_hessian_analytic": ("gtcert.logsumexp", ("lse_hessian_analytic",)),
    "logsumexp.psd_certify": ("gtcert.logsumexp", ("psd_certify",)),
    "spectral.lift_eval": ("gtcert.spectral", ("lift_eval",)),
    "spectral.check": ("gtcert.spectral", ("check_unitary_invariance", "check_davis_restriction")),
    "gt.check": ("gtcert.gt", ("gt_weak_check", "convexity_check", "gt_strong_check")),
    "gt.log_trace_exp": ("gtcert.gt", ("log_trace_exp",)),
    "gt.run_campaign": ("gtcert.gt", ("run_campaign",)),
    "matrixio.load": ("gtcert.matrixio", ("load_matrix",)),
    "cli.main": ("gtcert.cli", ("main",)),
}

# the layer whose first positional argument is a file path to count bytes of
_BYTES_READ_LAYER = "matrixio.load"


class Tracer:
    """Wraps every layer function once; `recording()` patches them in and out."""

    def __init__(self):
        self.edges = {}  # (layer, parent layer or None) -> [calls, total_s, self_s]
        self.bytes_read = 0
        self._stack = []
        self._codes = {}  # code object of each wrapped function -> its layer
        originals = {}
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    originals[id(fn)] = (fn, self._wrap(layer, fn))
                    if hasattr(fn, "__code__"):
                        self._codes[fn.__code__] = layer
        self._patches = list(_bindings(originals))

    def _wrap(self, layer, fn):
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        count_bytes = layer == _BYTES_READ_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_bytes:
                self.bytes_read += os.path.getsize(args[0])
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]  # name, time covered by children
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                key = (layer, parent[0] if parent else None)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur

        return traced

    @contextmanager
    def recording(self):
        for target, key, original, wrapped in self._patches:
            _set(target, key, wrapped)
        try:
            yield
        finally:
            for target, key, original, wrapped in self._patches:
                _set(target, key, original)

    @contextmanager
    def unwrapped_calls(self):
        """Record as `recording()` does, and count layer calls that bypassed every wrapper.

        A profile hook counts each entry into a layer function's code, whichever
        binding the caller went through; the wrappers count only the calls made
        through a binding they replaced.  On exit, the yielded dict maps each layer
        with more entries than wrapped calls to the excess.  The hook slows every
        Python call, so this is for a check, never for a timed call.
        """
        codes, entered, missed = self._codes, {}, {}
        before = {layer: self.calls(layer) for layer in LAYERS}

        def hook(frame, event, arg):
            if event == "call":
                layer = codes.get(frame.f_code)
                if layer is not None:
                    entered[layer] = entered.get(layer, 0) + 1

        sys.setprofile(hook)
        try:
            with self.recording():
                yield missed
        finally:
            sys.setprofile(None)
        for layer, n in entered.items():
            if n > self.calls(layer) - before[layer]:
                missed[layer] = n - (self.calls(layer) - before[layer])

    def calls(self, layer, parent=None):
        """Calls of `layer`; with `parent`, only those made inside that layer's span."""
        return sum(e[0] for (name, par), e in self.edges.items()
                   if name == layer and (parent is None or par == parent))

    def total_s(self, layer):
        """Inclusive time of `layer`, counting only outermost calls of it."""
        return sum(e[1] for (name, par), e in self.edges.items()
                   if name == layer and par != layer)

    def self_s(self, layer):
        return sum(e[2] for (name, _), e in self.edges.items() if name == layer)

    def all_self_s(self):
        return sum(e[2] for e in self.edges.values())


def _bindings(originals):
    """Yield (target, key, original, wrapper) for every place gtcert binds an original."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "gtcert" or mod_name.startswith("gtcert.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                yield (module, attr, value, originals[id(value)][1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    replaced = _replace_fields(item, originals)
                    if replaced is not None:
                        yield (value, key, item, replaced)


def _replace_fields(item, originals):
    """A copy of dataclass `item` with wrapped functions in its fields, or None."""
    if not dataclasses.is_dataclass(item) or isinstance(item, type):
        return None
    changes = {}
    for field in dataclasses.fields(item):
        value = getattr(item, field.name)
        if id(value) in originals and originals[id(value)][0] is value:
            changes[field.name] = originals[id(value)][1]
    return dataclasses.replace(item, **changes) if changes else None


def _set(target, key, value):
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
