"""Span tracing for the benchmark's traced run.

The shims replace module attributes: the cross-module names through which
one layer of ``sylvobs`` calls another (``sylvobs.sylvester.check_detectability``,
``sylvobs.gains.obs_decompose``, ``sylvobs.observer.solve_linear``,
``sylvobs.cli.write_trace_csv`` ...), the public names the benchmark calls,
and the numpy kernels ``numpy.linalg.svd`` / ``eigvals``.  Each call records a
span: name, kind, start, end and parent span.  A
layer's self time is its span minus its child layer spans; kernel spans are
counted but their time stays with the layer that called them.

``Tracer.installed()`` restores every attribute on exit.  A name that no
longer exists is skipped, so its metrics read zero calls instead of failing.
"""

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  Span names are "<layer>.<function>",
# named after the layer that owns the callee.
LAYER_SHIMS = (
    ("sylvobs", "synthesize_observer", "observer.synthesize_observer"),
    ("sylvobs", "simulate", "simulate.simulate"),
    ("sylvobs.observer", "Plant.__post_init__", "observer.Plant"),
    ("sylvobs.observer", "solve_constrained_sylvester", "sylvester.solve_constrained_sylvester"),
    ("sylvobs.observer", "solve_linear", "linalg.solve_linear"),
    ("sylvobs.observer", "rank_tol", "linalg.rank_tol"),
    ("sylvobs.sylvester", "check_detectability", "analysis.check_detectability"),
    ("sylvobs.sylvester", "stabilizing_gain", "gains.stabilizing_gain"),
    ("sylvobs.sylvester", "partition_by_output", "sylvester.partition_by_output"),
    ("sylvobs.sylvester", "verify_solution", "sylvester.verify_solution"),
    ("sylvobs.sylvester", "rank_tol", "linalg.rank_tol"),
    ("sylvobs.gains", "check_detectability", "analysis.check_detectability"),
    ("sylvobs.gains", "obs_decompose", "analysis.obs_decompose"),
    ("sylvobs.cli", "main", "cli.main"),
    ("sylvobs.cli", "check_detectability", "analysis.check_detectability"),
    ("sylvobs.cli", "synthesize_observer", "observer.synthesize_observer"),
    ("sylvobs.cli", "verify_solution", "sylvester.verify_solution"),
    ("sylvobs.cli", "simulate", "simulate.simulate"),
    ("sylvobs.cli", "write_trace_csv", "simulate.write_trace_csv"),
    ("sylvobs.cli", "load_matrices", "matrixio.load_matrices"),
    ("sylvobs.cli", "save_matrices", "matrixio.save_matrices"),
)
KERNEL_SHIMS = (
    ("numpy.linalg", "svd", "np.linalg.svd"),
    ("numpy.linalg", "eigvals", "np.linalg.eigvals"),
)


# span name -> position of the argument naming the file whose size counts as its bytes
_PATH_ARG = {
    "matrixio.load_matrices": 0,
    "matrixio.save_matrices": 0,
    "simulate.write_trace_csv": 1,
}


def _resolve(module, attr):
    """(owner object, attribute name) for a dotted path, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = attr.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if name in vars(owner) else None


class Tracer:
    """Records spans while ``active``; shims pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, kind, start, end, parent]
        self.bytes = Counter()
        self._stack = []

    def _wrap(self, fn, name, kind):
        spans, stack = self.spans, self._stack
        path_arg = _PATH_ARG.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else None
            span = [name, kind, time.perf_counter(), None, parent]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if path_arg is not None and len(args) > path_arg:
                path = args[path_arg]
                if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                    self.bytes[name] += os.path.getsize(path)
            return result

        return shim

    @contextmanager
    def installed(self):
        """Replace every shimmed attribute; restore the originals on exit."""
        saved = []
        try:
            for shims, kind in ((LAYER_SHIMS, "layer"), (KERNEL_SHIMS, "kernel")):
                for module, attr, name in shims:
                    found = _resolve(module, attr)
                    if found is None:
                        continue
                    owner, key = found
                    original = vars(owner)[key]
                    saved.append((owner, key, original))
                    setattr(owner, key, self._wrap(original, name, kind))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    @contextmanager
    def recording(self):
        """Record spans while the block runs."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def stats(self):
        """Per span name: calls and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        child_time = defaultdict(float)
        for name, kind, start, end, parent in self.spans:
            if kind == "layer" and parent is not None:
                child_time[parent] += end - start
        for idx, (name, kind, start, end, _parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[idx]
        return out

